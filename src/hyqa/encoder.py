"""Dual-encoder retrieval model with exact gradients.

Each tower is an embedding table followed by an affine projection: the text
is tokenized, in-vocabulary token embeddings are mean-pooled, and the mean
passes through a d x d projection with bias. Query/passage similarity is
the raw dot product of the two tower outputs. Training minimizes the
negative log-likelihood of the positive passage against in-batch negatives
(every question in a mini-batch sees its own hard negatives plus the other
questions' positives and hard negatives), with plain SGD and linear warmup.

A batch of texts is a token bag (`_TokenBag`): each text's tokens in order,
as the arrays of a CSR matrix of ones over (text x table row), and the same
tokens over the table rows they touch, ascending (text x touched row).
Pooling is one sparse product, ones @ table / length, and the embedding
gradient is the touched-row matrix's transpose, ones.T @ (g_means /
length). The bag builds no scipy matrix: it calls the kernels those
products call, `csr_matvecs` and (as a CSR matrix's transpose is the CSC
matrix over the same arrays) `csc_matvecs`, with the arguments they pass,
so each product has the bits of the `csr_array` one without its per-call
set-up, and pooling reads the table rows in place instead of gathering
them. scipy.sparse is imported on a bag's first product, so reading never
loads it. The kernels sum each text, and each touched row, in stored order
from 0.0, so both are bit for bit the per-text `table[ids].mean(axis=0)`
and the per-token scatter they replace (tests/test_scipy_order.py pins
this). (At d = 1 they can differ in the last bits: numpy sums a single
column pairwise.) One text pools without a bag: one `np.add.reduce` over
its rows, divided by its length, which is the reduction and divide that
`.mean(axis=0)` runs.

A training step runs one forward pass: `loss_gradient` returns the gradient
with the loss it differentiates, and the step updates only the embedding
rows the batch touches. `train` tokenizes each distinct question and
passage text once per call, before the first epoch, into one CSR
(`_train_set`), and plans its steps _PLAN_STEPS at a time (`_plan`): every
step's candidate pool and positive columns, and both sides' token bags from
one `_token_bags` pass each, whose one np.unique over (step, id) keys gives
each step's touched rows and slots as its own np.unique would. So a step
does only float math, in the order of a step planned alone, which is how
`loss_gradient` plans a batch it is called with directly.

An encoder built by `from_texts` holds the `corpus.TokenTable` its
vocabulary was interned from, with a map from each of those texts to its
table row, so a text it was built from (every passage of an index built
over the same texts) encodes without being tokenized again. The table
is read-only and may be shared with a BM25 build (see
`corpus.token_table`). The table's ids index its sorted terms, and the vocabulary is those terms in that
order, so the ids are vocabulary ids; this holds while `vocab` equals the
table's terms, and nothing changes `vocab` in place. `copy` shares the
table (the copy's vocabulary is equal); `create`, `load` and the
constructor hold none, and any other text (every question) is tokenized
as before. The table costs 4 bytes per token of the texts plus one map
entry per text (which keeps the text alive), held for the encoder's
lifetime; it is neither saved nor compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import container
from .corpus import Passage, TokenTable, terms, token_table

__all__ = [
    "DualEncoder",
    "IRTrainInstance",
    "TrainConfig",
    "encode_query",
    "encode_passage",
    "similarity",
    "Gradient",
    "batch_loss",
    "loss_gradient",
    "train",
]

_PARAM_NAMES = ("q_emb", "q_proj", "q_bias", "p_emb", "p_proj", "p_bias")
# Training steps whose batches train plans in one _plan pass: enough to
# amortize its numpy calls, few enough that the plans held at once (a few
# arrays over the block's tokens) stay small.
_PLAN_STEPS = 16


@dataclass(eq=False)
class DualEncoder:
    vocab: dict[str, int]
    params: dict[str, np.ndarray]
    d: int
    # The table `vocab` was built from and each of its texts' rows; see the
    # module docstring.
    _table: TokenTable | None = field(default=None, init=False, repr=False)
    _rows: dict[str, int] = field(default_factory=dict, init=False, repr=False)

    def __eq__(self, other):
        """Value equality over d, vocab and each parameter array; the held
        token table is not compared."""
        if not isinstance(other, DualEncoder):
            return NotImplemented
        return (self.d == other.d and self.vocab == other.vocab and self.params.keys() == other.params.keys()
                and all(np.array_equal(v, other.params[k]) for k, v in self.params.items()))

    @classmethod
    def create(cls, vocab: Sequence[str], d: int = 64, seed: int = 0) -> "DualEncoder":
        if d < 1:
            raise ValueError("d must be >= 1")
        rng = np.random.default_rng(seed)
        v = len(vocab)
        scale = 1.0 / np.sqrt(d)
        params = {
            "q_emb": rng.normal(0.0, scale, size=(v, d)),
            "q_proj": rng.normal(0.0, scale, size=(d, d)),
            "q_bias": np.zeros(d),
            "p_emb": rng.normal(0.0, scale, size=(v, d)),
            "p_proj": rng.normal(0.0, scale, size=(d, d)),
            "p_bias": np.zeros(d),
        }
        return cls(vocab={t: i for i, t in enumerate(vocab)}, params=params, d=d)

    @classmethod
    def from_texts(cls, texts: Sequence[str], d: int = 64, seed: int = 0) -> "DualEncoder":
        """Build the vocabulary from training texts, then initialize.

        The vocabulary is the terms of `corpus.token_table(texts)`, a
        read-only table that a BM25 build over the same texts may share.
        The encoder holds that table and a map from each text to its row,
        so encoding one of `texts` reads its token ids from the table: 4
        bytes per token plus one map entry per text, held for the
        encoder's lifetime. The ids are vocabulary ids only while `vocab` equals the
        table's terms; nothing changes `vocab` in place."""
        table = token_table(texts)
        encoder = cls.create(table.terms, d=d, seed=seed)
        encoder._table = table
        encoder._rows = dict(zip(texts, range(len(texts))))
        return encoder

    def copy(self) -> "DualEncoder":
        """A copy with its own parameters; it shares the token table, as its
        vocabulary is equal."""
        model = DualEncoder(
            vocab=dict(self.vocab),
            params={k: v.copy() for k, v in self.params.items()},
            d=self.d,
        )
        model._table, model._rows = self._table, self._rows
        return model

    def save(self, path) -> None:
        meta = {"d": self.d, "vocab": sorted(self.vocab, key=self.vocab.get)}
        container.save(path, "encoder", meta, dict(self.params))

    @classmethod
    def load(cls, path) -> "DualEncoder":
        """A saved encoder. A vocabulary that repeats a term, a parameter
        array that is missing or whose shape does not fit the vocabulary and
        d, or a projection or bias holding a NaN or an infinity, is a
        ContainerError naming the file (and the term or the array). The
        V x d embedding tables are most of the file, so they are not
        scanned, which would add a full pass to every load; a non-finite
        table entry is refused where it is used: build_dense_index refuses
        the passage embedding it makes, and a retriever the score. The
        parameters are the container's copy-on-write views of the file, so
        a table is read only as its rows are used."""
        return container.load_artifact(path, "encoder", cls._from_container)

    @classmethod
    def _from_container(cls, meta: dict, arrays: dict[str, np.ndarray]) -> "DualEncoder":
        words, d = container.str_list(meta, "vocab"), meta["d"]
        if type(d) is not int:
            raise ValueError(f"meta 'd' must be an int, not {type(d).__name__!r}")
        if d < 1:
            raise ValueError("meta 'd' must be >= 1")
        vocab = dict(zip(words, range(len(words))))
        if len(vocab) != len(words):
            raise ValueError(f"vocabulary repeats the term {next(t for i, t in enumerate(words) if vocab[t] != i)!r}")
        shapes = {"emb": (len(words), d), "proj": (d, d), "bias": (d,)}
        for name in _PARAM_NAMES:
            array = arrays.get(name)
            if array is None:
                raise ValueError(f"missing array {name!r}")
            shape = shapes[name[2:]]
            if array.shape != shape:
                raise ValueError(f"array {name!r} has shape {array.shape}, not {shape}")
            if not name.endswith("_emb") and not np.isfinite(array).all():
                raise ValueError(f"array {name!r} holds a non-finite value")
        return cls(vocab=vocab, params={k: arrays[k] for k in _PARAM_NAMES}, d=d)


@dataclass(frozen=True)
class IRTrainInstance:
    question: str
    positive: Passage
    hard_negatives: tuple[Passage, ...]

    def __post_init__(self):
        for neg in self.hard_negatives:
            if neg.id == self.positive.id:
                raise ValueError("positive passage listed among its hard negatives")


@dataclass(frozen=True)
class TrainConfig:
    """SGD settings; the defaults are sized for the desk-scale towers here."""

    learning_rate: float = 0.05
    epochs: int = 6
    batch_size: int = 16
    warmup_steps: int = 0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be non-negative")


def _token_ids(encoder: DualEncoder, text: str) -> np.ndarray:
    """The vocabulary ids of the text's in-vocabulary tokens, in order: its
    row of the held table for a text the vocabulary was built from."""
    row = encoder._rows.get(text)
    if row is not None:
        return encoder._table.row(row)
    ids = np.fromiter(map(encoder.vocab.get, terms(text), repeat(-1)), dtype=np.intp)
    return ids[ids >= 0]


class _TokenBag:
    """The token ids of a batch of texts as the arrays of two CSR matrices
    of ones, each text's tokens in order: `indptr`, the one index pointer;
    `ids`, each token's table row (text x table), and `slot`, each token's
    index into `rows`, the touched rows ascending (text x touched row);
    `ones`, the data; and `lens` (each text's token count, at least 1, as a
    column). Its products call scipy's CSR kernels directly, as
    `csr_array @ X` and `csr_array.T @ X` do. Bags are built by
    _token_bags."""

    def __init__(self, indptr, ids, rows, slot, ones, lens):
        self.indptr, self.ids, self.rows, self.slot, self.ones, self.lens = indptr, ids, rows, slot, ones, lens

    def means(self, table: np.ndarray) -> np.ndarray:
        """Each text's mean token embedding; zeros for a text without tokens.
        The kernel reads the table rows in place, so a token id outside the
        table is refused first."""
        from scipy.sparse._sparsetools import csr_matvecs  # imported here, so reading never loads scipy

        if len(self.rows) and (self.rows[0] < 0 or self.rows[-1] >= len(table)):
            raise IndexError(f"token ids {self.rows[0]}..{self.rows[-1]} do not all index a table of {len(table)} rows")
        out = np.zeros((len(self.lens), table.shape[1]))
        csr_matvecs(len(self.lens), len(table), out.shape[1], self.indptr, self.ids, self.ones, table.ravel(), out.ravel())
        out /= self.lens
        return out

    def rows_gradient(self, g_means: np.ndarray) -> np.ndarray:
        """Gradient of the touched table rows from the gradient of each
        text's mean, which spreads evenly over the text's tokens. A CSR
        matrix's transpose is the CSC matrix over the same arrays."""
        from scipy.sparse._sparsetools import csc_matvecs

        out = np.zeros((len(self.rows), g_means.shape[1]))
        csc_matvecs(len(self.rows), len(self.lens), out.shape[1], self.indptr, self.slot, self.ones,
                    (g_means / self.lens).ravel(), out.ravel())
        return out


def _token_bags(indptr: np.ndarray, ids: np.ndarray, texts: np.ndarray, bounds: np.ndarray) -> list[_TokenBag]:
    """Bag s of texts[bounds[s]:bounds[s + 1]] for every s, where text i
    holds the token ids ids[indptr[i]:indptr[i + 1]], in one array pass: the
    texts' tokens are gathered into one CSR, and every bag's touched rows
    and slots come from one np.unique over (bag, id) keys, so each bag holds
    the arrays np.unique gives its own ids. A bag's arrays are slices of
    the pass's arrays, its index pointer and slots counted from its own
    first token and touched row."""
    starts = indptr[texts]
    counts = indptr[texts + 1] - starts
    sizes = np.diff(bounds)
    text_bag = np.repeat(np.arange(len(sizes)), sizes)
    ptr = np.cumsum(counts)  # each text's end in the gathered tokens
    tokens = ids[np.repeat(starts - ptr + counts, counts) + np.arange(ptr[-1])]
    bag = np.repeat(text_bag, counts)
    low = tokens.min(initial=0)
    span = tokens.max(initial=0) - low + 1
    keys, slot = np.unique(bag * span + (tokens - low), return_inverse=True)
    rows = keys % span + low
    row_bounds = np.searchsorted(keys, np.arange(len(bounds)) * span)
    token_bounds = np.concatenate([[0], ptr])[bounds]
    slot -= row_bounds[bag]
    # Bag s's index pointer is pointers[bounds[s] + s : bounds[s + 1] + s + 1]:
    # a 0, then each of its texts' ends counted from its first token.
    pointers = np.zeros(len(texts) + len(sizes), dtype=np.intp)
    pointers[np.arange(len(texts)) + text_bag + 1] = ptr - token_bounds[text_bag]
    ones = np.ones(len(tokens))
    lens = np.maximum(counts, 1)[:, None]
    return [
        _TokenBag(pointers[b0 + s : b1 + s + 1], tokens[t0:t1], rows[r0:r1], slot[t0:t1], ones[t0:t1], lens[b0:b1])
        for s, (b0, b1, t0, t1, r0, r1) in enumerate(zip(
            bounds.tolist(), bounds[1:].tolist(), token_bounds.tolist(), token_bounds[1:].tolist(),
            row_bounds.tolist(), row_bounds[1:].tolist(),
        ))
    ]


class _TrainSet(NamedTuple):
    """Instances as arrays: the token ids of their distinct texts as one
    CSR, text t's ids being ids[indptr[t]:indptr[t + 1]]; each instance's
    question text; and each instance's passages, its positive then its hard
    negatives, as entries[ptr[i]:ptr[i + 1]] of `codes` (the passage id,
    numbered) and `passage_texts`."""

    indptr: np.ndarray
    ids: np.ndarray
    questions: np.ndarray
    ptr: np.ndarray
    codes: np.ndarray
    passage_texts: np.ndarray


def _train_set(encoder: DualEncoder, instances: Sequence[IRTrainInstance]) -> _TrainSet:
    """`instances` as a _TrainSet: each distinct question and passage text
    is tokenized once."""
    texts = {inst.question for inst in instances}
    texts.update(p.text for inst in instances for p in (inst.positive, *inst.hard_negatives))
    token_ids = {t: _token_ids(encoder, t) for t in texts}
    indptr = np.zeros(len(token_ids) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, token_ids.values()), dtype=np.intp, count=len(token_ids)), out=indptr[1:])
    index = dict(zip(token_ids, range(len(token_ids))))
    passages = [p for inst in instances for p in (inst.positive, *inst.hard_negatives)]
    ptr = np.zeros(len(instances) + 1, dtype=np.intp)
    np.cumsum([1 + len(inst.hard_negatives) for inst in instances], out=ptr[1:])
    codes: dict[str, int] = {}
    return _TrainSet(
        indptr,
        np.concatenate([np.zeros(0, dtype=np.intp), *token_ids.values()], dtype=np.intp),
        np.fromiter((index[inst.question] for inst in instances), dtype=np.intp, count=len(instances)),
        ptr,
        np.fromiter((codes.setdefault(p.id, len(codes)) for p in passages), dtype=np.intp, count=len(passages)),
        np.fromiter((index[p.text] for p in passages), dtype=np.intp, count=len(passages)),
    )


def _plan(train_set: _TrainSet, members: np.ndarray, bounds: np.ndarray) -> list[tuple[_TokenBag, _TokenBag, list[int]]]:
    """The question bag, candidate bag and positive columns of each step
    s, whose batch is the instances members[bounds[s]:bounds[s + 1]], for
    all steps in one array pass. A step's candidate pool is its positives,
    then its hard negatives, each passage id once, at its first place, with
    that place's text."""
    sizes = np.diff(bounds)
    step = np.repeat(np.arange(len(sizes)), sizes)
    first = train_set.ptr[members]
    negatives = train_set.ptr[members + 1] - first - 1
    ends = np.cumsum(negatives)
    # Every step's passages, its positives first: a stable sort by step.
    entries = np.concatenate([first, np.repeat(first + 1 - ends + negatives, negatives) + np.arange(ends[-1])])
    entry_step = np.concatenate([step, np.repeat(step, negatives)])
    order = np.argsort(entry_step, kind="stable")
    entries, entry_step = entries[order], entry_step[order]
    _, first_place, key = np.unique(
        entry_step * (train_set.codes.max() + 1) + train_set.codes[entries], return_index=True, return_inverse=True
    )
    pool = np.sort(first_place)
    pool_bounds = np.searchsorted(entry_step[pool], np.arange(len(bounds)))
    place = np.empty_like(order)
    place[order] = np.arange(len(order))
    columns = (np.searchsorted(pool, first_place[key[place[: len(members)]]]) - pool_bounds[step]).tolist()
    q_bags = _token_bags(train_set.indptr, train_set.ids, train_set.questions[members], bounds)
    p_bags = _token_bags(train_set.indptr, train_set.ids, train_set.passage_texts[entries[pool]], pool_bounds)
    return [(q, p, columns[b0:b1]) for q, p, b0, b1 in zip(q_bags, p_bags, bounds.tolist(), bounds[1:].tolist())]


def _planned_batches(
    instances: Sequence[IRTrainInstance], train_set: _TrainSet, order: np.ndarray, batch_size: int
) -> Iterator[tuple[list[IRTrainInstance], tuple[_TokenBag, _TokenBag, list[int]]]]:
    """Each batch of an epoch that takes `instances` in `order`, with its
    plan; the batches are planned _PLAN_STEPS at a time."""
    block = _PLAN_STEPS * batch_size
    for lo in range(0, len(order), block):
        members = order[lo : lo + block]
        bounds = np.append(np.arange(0, len(members), batch_size), len(members))
        for start, plan in zip(bounds.tolist(), _plan(train_set, members, bounds)):
            yield [instances[i] for i in members[start : start + batch_size]], plan


def _project(encoder: DualEncoder, means: np.ndarray, side: str) -> np.ndarray:
    return means @ encoder.params[f"{side}_proj"].T + encoder.params[f"{side}_bias"]


def _pool(encoder: DualEncoder, text: str, side: str) -> np.ndarray:
    """One text's mean token embedding as a 1 x d row."""
    ids = _token_ids(encoder, text)
    if not len(ids):
        return np.zeros((1, encoder.d))
    return np.add.reduce(encoder.params[f"{side}_emb"].take(ids, axis=0), axis=0, keepdims=True) / len(ids)


def encode_query(encoder: DualEncoder, text: str) -> np.ndarray:
    return _project(encoder, _pool(encoder, text, "q"), "q")[0]


def encode_passage(encoder: DualEncoder, text: str) -> np.ndarray:
    return _project(encoder, _pool(encoder, text, "p"), "p")[0]


def similarity(q_emb: np.ndarray, p_emb: np.ndarray) -> float:
    q = np.asarray(q_emb, dtype=float)
    p = np.asarray(p_emb, dtype=float)
    if q.shape != p.shape:
        raise ValueError(f"dimension mismatch: {q.shape} vs {p.shape}")
    return float(q @ p)


class Gradient(dict):
    """Parameter gradients keyed by name, plus the loss they differentiate.
    Where `rows[name]` is present, `self[name]` holds only those rows of
    the gradient of `params[name]`, in ascending order; its other rows are
    zero."""

    def __init__(self, grads: dict[str, np.ndarray], loss: float, rows: dict[str, np.ndarray] | None = None):
        super().__init__(grads)
        self.loss = loss
        self.rows = rows or {}


def batch_loss(encoder: DualEncoder, batch: Sequence[IRTrainInstance]) -> float:
    """Mean over questions of -log softmax(sim to positive) over the pooled
    in-batch candidates (own positive + all hard negatives + other
    questions' positives). The gradient it discards is the touched-rows
    one, so no call builds a full-table gradient."""
    return loss_gradient(encoder, batch, touched=True).loss


def loss_gradient(
    encoder: DualEncoder,
    batch: Sequence[IRTrainInstance],
    *,
    touched: bool = False,
    _step: tuple[_TokenBag, _TokenBag, list[int]] | None = None,
) -> Gradient:
    """One forward pass over the questions and the deduplicated candidate
    pool (all positives + all hard negatives), then its exact gradient.
    With `touched`, each embedding gradient holds only the table rows the
    batch's tokens touch, listed in `Gradient.rows`. `_step` is the batch's
    entry of a _plan, which train builds for a block of steps at once;
    without it, the batch is planned here on its own."""
    if not batch:
        raise ValueError("batch must be non-empty")
    if _step is None:
        (_step,) = _plan(_train_set(encoder, batch), np.arange(len(batch)), np.array([0, len(batch)]))
    q_bag, p_bag, pos_idx = _step
    q_mean = q_bag.means(encoder.params["q_emb"])
    p_mean = p_bag.means(encoder.params["p_emb"])
    q_out = _project(encoder, q_mean, "q")
    p_out = _project(encoder, p_mean, "p")

    B = len(batch)
    logits = q_out @ p_out.T  # B x C
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    losses = -shifted[np.arange(B), pos_idx] + np.log(exp.sum(axis=1))

    # dL/dlogits: softmax-cross-entropy, averaged over the batch.
    g_logits = exp / exp.sum(axis=1, keepdims=True)
    g_logits[np.arange(B), pos_idx] -= 1.0
    g_logits /= B

    grads: dict[str, np.ndarray] = {}
    rows: dict[str, np.ndarray] = {}
    for side, g_out, means, bag in (
        ("q", g_logits @ p_out, q_mean, q_bag),
        ("p", g_logits.T @ q_out, p_mean, p_bag),
    ):
        emb, proj, bias = f"{side}_emb", f"{side}_proj", f"{side}_bias"
        rows[emb], grads[emb] = bag.rows, bag.rows_gradient(g_out @ encoder.params[proj])
        # Kept as a sum with zeros: 0.0 + -0.0 is 0.0, so these are the old bits.
        grads[proj] = np.zeros(encoder.params[proj].shape) + g_out.T @ means
        grads[bias] = np.zeros(encoder.params[bias].shape) + g_out.sum(axis=0)
    if touched:
        return Gradient(grads, float(losses.mean()), rows)
    for name, ids in rows.items():
        full = np.zeros(encoder.params[name].shape)
        full[ids] = grads[name]
        grads[name] = full
    return Gradient(grads, float(losses.mean()))


def train(
    encoder: DualEncoder,
    instances: Sequence[IRTrainInstance],
    config: TrainConfig = TrainConfig(),
) -> tuple[DualEncoder, list[float]]:
    """Mini-batch SGD with linear warmup; returns (trained copy, per-epoch
    mean loss). Shuffling and every other source of randomness derive from
    config.seed, so a fixed seed reproduces bit-identical parameters.

    A step whose loss, gradient or update overflows or is not finite is a
    FloatingPointError naming the step and epoch (both from 0), raised in
    place of numpy's warning. Underflow is left alone: exp of a logit far
    below its row's maximum is legitimately 0."""
    if not instances:
        raise ValueError("training requires at least one instance")
    model = encoder.copy()
    train_set = _train_set(model, instances)
    rng = np.random.default_rng(config.seed)
    trace: list[float] = []
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(instances))
        epoch_losses = []
        for batch, plan in _planned_batches(instances, train_set, order, config.batch_size):
            try:
                with np.errstate(over="raise", invalid="raise"):
                    grads = loss_gradient(model, batch, touched=True, _step=plan)
                    if not np.isfinite(grads.loss):
                        raise FloatingPointError(f"non-finite loss {grads.loss}")
                    if config.warmup_steps > 0:
                        lr = config.learning_rate * min(1.0, (step + 1) / config.warmup_steps)
                    else:
                        lr = config.learning_rate
                    # A row the batch does not touch has gradient 0.0 and
                    # would become p - lr * 0.0 == p, so only touched rows
                    # are updated.
                    for name in _PARAM_NAMES:
                        if name in grads.rows:
                            model.params[name][grads.rows[name]] -= lr * grads[name]
                        else:
                            model.params[name] -= lr * grads[name]
            except FloatingPointError as e:
                raise FloatingPointError(f"training diverged at step {step} (epoch {epoch}): {e}") from None
            epoch_losses.append(grads.loss)
            step += 1
        trace.append(float(np.mean(epoch_losses)))
    return model, trace

