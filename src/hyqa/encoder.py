"""Dual-encoder retrieval model with exact gradients.

Each tower is an embedding table followed by an affine projection: the text
is tokenized, in-vocabulary token embeddings are mean-pooled, and the mean
passes through a d x d projection with bias. Query/passage similarity is
the raw dot product of the two tower outputs. Training minimizes the
negative log-likelihood of the positive passage against in-batch negatives
(every question in a mini-batch sees its own hard negatives plus the other
questions' positives and hard negatives), with plain SGD and linear warmup.

One function (`_embed`) pools and projects, for one text or a whole batch.
A training step runs one forward pass: `loss_gradient` returns the gradient
with the loss it differentiates, and the step updates only the embedding
rows the batch touches. `train` tokenizes each distinct question and
passage text once per call, before the first epoch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import container
from .corpus import Passage, distinct_terms, terms

__all__ = [
    "DualEncoder",
    "IRTrainInstance",
    "TrainConfig",
    "FULL_PRESET",
    "DESK_PRESET",
    "encode_query",
    "encode_passage",
    "similarity",
    "Gradient",
    "batch_loss",
    "loss_gradient",
    "train",
]

_PARAM_NAMES = ("q_emb", "q_proj", "q_bias", "p_emb", "p_proj", "p_bias")


@dataclass
class DualEncoder:
    vocab: dict[str, int]
    params: dict[str, np.ndarray]
    d: int

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
        """Build the vocabulary from training texts, then initialize."""
        return cls.create(distinct_terms(texts), d=d, seed=seed)

    def copy(self) -> "DualEncoder":
        return DualEncoder(
            vocab=dict(self.vocab),
            params={k: v.copy() for k, v in self.params.items()},
            d=self.d,
        )

    def save(self, path) -> None:
        meta = {"d": self.d, "vocab": sorted(self.vocab, key=self.vocab.get)}
        container.save(path, "encoder", meta, dict(self.params))

    @classmethod
    def load(cls, path) -> "DualEncoder":
        _, meta, arrays = container.load(path, kind="encoder")
        return cls(
            vocab={t: i for i, t in enumerate(meta["vocab"])},
            params={k: np.array(arrays[k]) for k in _PARAM_NAMES},
            d=meta["d"],
        )


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
    learning_rate: float = 0.05
    epochs: int = 6
    batch_size: int = 16
    warmup_steps: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be non-negative")


# Hyperparameters used for adapting the full-size pre-trained retriever,
# and a small preset sized for the desk-scale towers here.
FULL_PRESET = TrainConfig(learning_rate=1e-5, epochs=6, batch_size=128, warmup_steps=1237)
DESK_PRESET = TrainConfig(learning_rate=0.05, epochs=6, batch_size=16, warmup_steps=0)


def _token_ids(encoder: DualEncoder, text: str) -> np.ndarray:
    vocab = encoder.vocab
    return np.array([vocab[t] for t in terms(text) if t in vocab], dtype=np.intp)


def _tokenize_all(encoder: DualEncoder, instances: Iterable[IRTrainInstance]) -> dict[str, np.ndarray]:
    """Token ids of every question and passage text in `instances`."""
    texts = {inst.question for inst in instances}
    texts.update(p.text for inst in instances for p in (inst.positive, *inst.hard_negatives))
    return {t: _token_ids(encoder, t) for t in texts}


def _embed(encoder: DualEncoder, token_ids: Sequence[np.ndarray], side: str) -> tuple[np.ndarray, np.ndarray]:
    """Mean-pool each row's token embeddings (zeros for a row without
    tokens) and project; returns (means, tower outputs), both rows x d."""
    table = encoder.params[f"{side}_emb"]
    means = np.zeros((len(token_ids), encoder.d))
    for row, ids in enumerate(token_ids):
        if len(ids):
            means[row] = table[ids].mean(axis=0)
    return means, means @ encoder.params[f"{side}_proj"].T + encoder.params[f"{side}_bias"]


def encode_query(encoder: DualEncoder, text: str) -> np.ndarray:
    return _embed(encoder, [_token_ids(encoder, text)], "q")[1][0]


def encode_passage(encoder: DualEncoder, text: str) -> np.ndarray:
    return _embed(encoder, [_token_ids(encoder, text)], "p")[1][0]


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
    q_tok = [token_ids[inst.question] for inst in batch]
    q_mean, q_out = _embed(encoder, q_tok, "q")
    p_mean, p_out = _embed(encoder, cand_tok, "p")

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
    for side, g_out, means, toks in (
        ("q", g_logits @ p_out, q_mean, q_tok),
        ("p", g_logits.T @ q_out, p_mean, cand_tok),
    ):
        emb, proj, bias = f"{side}_emb", f"{side}_proj", f"{side}_bias"
        rows[emb], grads[emb] = _embedding_rows_gradient(encoder, toks, g_out @ encoder.params[proj])
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


def _embedding_rows_gradient(
    encoder: DualEncoder, toks: Sequence[np.ndarray], g_means: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of an embedding table from the gradient of each row's mean:
    returns the touched table rows (ascending) and their gradient rows.

    Each row's mean spreads its gradient evenly over its tokens. A flat
    np.add.at adds in (row, token) order, ~3x faster than over rows, and
    each cell of the compact rows gets the additions a full-table
    np.add.at would give it, in the same order.
    """
    d = encoder.d
    lens = np.array([len(ids) for ids in toks])
    shares = g_means / np.maximum(lens, 1)[:, None]
    touched, slot = np.unique(np.concatenate(toks), return_inverse=True)
    g_rows = np.zeros((len(touched), d))
    np.add.at(g_rows.reshape(-1), (slot[:, None] * d + np.arange(d)).ravel(), np.repeat(shares, lens, axis=0).ravel())
    return touched, g_rows


def train(
    encoder: DualEncoder,
    instances: Sequence[IRTrainInstance],
    config: TrainConfig = DESK_PRESET,
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


def export_embeddings(encoder: DualEncoder, passages: Sequence[Passage]):
    """Yield JSONL lines {id, vector} of passage embeddings."""
    for p in passages:
        vec = encode_passage(encoder, p.text)
        yield json.dumps({"id": p.id, "vector": [float(x) for x in vec]}, sort_keys=True)
