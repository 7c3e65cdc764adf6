"""Dual-encoder retrieval model with exact gradients.

Each tower is an embedding table followed by an affine projection: the text
is tokenized, in-vocabulary token embeddings are mean-pooled, and the mean
passes through a d x d projection with bias. Query/passage similarity is
the raw dot product of the two tower outputs. Training minimizes the
negative log-likelihood of the positive passage against in-batch negatives
(every question in a mini-batch sees its own hard negatives plus the other
questions' positives and hard negatives), with plain SGD and linear warmup.

A batch of texts is a token bag (`_TokenBag`): the table rows its tokens
touch, ascending, and a CSR matrix of ones over (text x touched row) that
holds each text's tokens in order. Pooling is one sparse product, ones @
table[rows] / length, and the embedding gradient is its transpose, ones.T @
(g_means / length). scipy sums each text, and each touched row, in stored
order from 0.0, so both are bit for bit the per-text
`table[ids].mean(axis=0)` and the per-token scatter they replace. (At d = 1
they can differ in the last bits: numpy sums a single column pairwise.) One
text pools without a bag: one `np.add.reduce` over its rows, divided by its
length, which is the reduction and divide that `.mean(axis=0)` runs.

A training step runs one forward pass: `loss_gradient` returns the gradient
with the loss it differentiates, and the step updates only the embedding
rows the batch touches. `train` tokenizes each distinct question and
passage text once per call, before the first epoch.

An encoder built by `from_texts` holds the `corpus.TokenTable` its
vocabulary was interned from, with a map from each of those texts to its
table row, so a text it was built from (every passage of an index built
over the same texts) encodes without being tokenized again. The table's
ids index its sorted terms, and the vocabulary is those terms in that
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
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_array

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

        The vocabulary is the terms of `corpus.token_table(texts)`. The
        encoder holds that table and a map from each text to its row, so
        encoding one of `texts` reads its token ids from the table: 4 bytes
        per token plus one map entry per text, held for the encoder's
        lifetime. The ids are vocabulary ids only while `vocab` equals the
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
        the passage embedding it makes, and a retriever the score."""
        return container.load_artifact(path, "encoder", cls._from_container)

    @classmethod
    def _from_container(cls, meta: dict, arrays: dict[str, np.ndarray]) -> "DualEncoder":
        words, d = container.str_list(meta, "vocab"), meta["d"]
        if type(d) is not int:
            raise ValueError(f"meta 'd' must be an int, not {type(d).__name__!r}")
        vocab = {t: i for i, t in enumerate(words)}
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


def _tokenize_all(encoder: DualEncoder, instances: Iterable[IRTrainInstance]) -> dict[str, np.ndarray]:
    """Token ids of every question and passage text in `instances`."""
    texts = {inst.question for inst in instances}
    texts.update(p.text for inst in instances for p in (inst.positive, *inst.hard_negatives))
    return {t: _token_ids(encoder, t) for t in texts}


class _TokenBag:
    """The token ids of a batch of texts over the table rows they touch:
    `rows` (ascending), `ones` (a CSR matrix of ones, text x touched row,
    each text's tokens in order) and `lens` (each text's token count, at
    least 1, as a column)."""

    def __init__(self, token_ids: Sequence[np.ndarray]):
        counts = np.fromiter(map(len, token_ids), dtype=np.intp, count=len(token_ids))
        indptr = np.zeros(len(token_ids) + 1, dtype=np.intp)
        np.cumsum(counts, out=indptr[1:])
        self.rows, slot = np.unique(np.concatenate(token_ids), return_inverse=True)
        self.ones = csr_array((np.ones(len(slot)), slot, indptr), shape=(len(token_ids), len(self.rows)))
        self.lens = np.maximum(counts, 1)[:, None]

    def means(self, table: np.ndarray) -> np.ndarray:
        """Each text's mean token embedding; zeros for a text without tokens."""
        return self.ones @ table[self.rows] / self.lens

    def rows_gradient(self, g_means: np.ndarray) -> np.ndarray:
        """Gradient of the touched table rows from the gradient of each
        text's mean, which spreads evenly over the text's tokens."""
        return self.ones.T @ (g_means / self.lens)


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
    questions' positives)."""
    return loss_gradient(encoder, batch).loss


def loss_gradient(
    encoder: DualEncoder,
    batch: Sequence[IRTrainInstance],
    token_ids: Mapping[str, np.ndarray] | None = None,
    *,
    touched: bool = False,
) -> Gradient:
    """One forward pass over the questions and the deduplicated candidate
    pool (all positives + all hard negatives), then its exact gradient.
    `token_ids` maps texts to token ids; the result is the same without it.
    With `touched`, each embedding gradient holds only the table rows the
    batch's tokens touch, listed in `Gradient.rows`."""
    if not batch:
        raise ValueError("batch must be non-empty")
    if token_ids is None:
        token_ids = _tokenize_all(encoder, batch)
    cand_pos: dict[str, int] = {}
    cand_tok: list[np.ndarray] = []
    for p in [inst.positive for inst in batch] + [n for inst in batch for n in inst.hard_negatives]:
        if p.id not in cand_pos:
            cand_pos[p.id] = len(cand_tok)
            cand_tok.append(token_ids[p.text])
    pos_idx = [cand_pos[inst.positive.id] for inst in batch]
    q_bag = _TokenBag([token_ids[inst.question] for inst in batch])
    p_bag = _TokenBag(cand_tok)
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
    config.seed, so a fixed seed reproduces bit-identical parameters."""
    if not instances:
        raise ValueError("training requires at least one instance")
    model = encoder.copy()
    token_ids = _tokenize_all(model, instances)
    rng = np.random.default_rng(config.seed)
    trace: list[float] = []
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(instances))
        epoch_losses = []
        for start in range(0, len(instances), config.batch_size):
            batch = [instances[i] for i in order[start : start + config.batch_size]]
            grads = loss_gradient(model, batch, token_ids, touched=True)
            if not np.isfinite(grads.loss):
                raise FloatingPointError(f"non-finite loss {grads.loss} at step {step}")
            epoch_losses.append(grads.loss)
            if config.warmup_steps > 0:
                lr = config.learning_rate * min(1.0, (step + 1) / config.warmup_steps)
            else:
                lr = config.learning_rate
            # A row the batch does not touch has gradient 0.0 and would
            # become p - lr * 0.0 == p, so only touched rows are updated.
            for name in _PARAM_NAMES:
                if name in grads.rows:
                    model.params[name][grads.rows[name]] -= lr * grads[name]
                else:
                    model.params[name] -= lr * grads[name]
            step += 1
        trace.append(float(np.mean(epoch_losses)))
    return model, trace

