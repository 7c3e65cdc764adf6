"""Shared scored-result record used by sparse, dense, and fused retrieval,
and the one top-k selection that every ranked search goes through:
top_set picks the k best positions unordered, and top_k sorts them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ScoredPassage:
    passage_id: str
    score: float
    provenance: str  # "sparse" | "dense" | "fused"

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ValueError(f"non-finite score for passage {self.passage_id!r}")


def check_finite(passage_ids: Sequence[str], scores: np.ndarray) -> None:
    """The check a ScoredPassage of each (id, score) in order makes, on
    arrays: the first non-finite score raises the same ValueError."""
    if not np.isfinite(scores).all():
        bad = int(np.flatnonzero(~np.isfinite(scores))[0])
        ScoredPassage(passage_ids[bad], float(scores[bad]), "")  # raises, from __post_init__


def id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Position of each id in ascending-id order, the tie-break of every
    ranked result."""
    rank = np.empty(len(ids), dtype=np.int64)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def top_set(scores: np.ndarray, id_rank: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k best entries of `scores`, by descending score and
    then ascending `id_rank`, in no particular order.

    np.partition finds the k-th best score. The entries strictly above it
    are kept with the ties at it of smallest id rank (one argpartition,
    only when the ties do not all fit). NaNs rank last, as in a full sort;
    a NaN k-th score falls back to that sort.
    """
    if k >= len(scores):
        return np.arange(len(scores))
    if k < 1:
        return np.zeros(0, dtype=np.intp)
    neg = -scores
    kth = np.partition(neg, k - 1)[k - 1]
    if kth != kth:
        return np.lexsort((id_rank, neg))[:k]
    top = np.flatnonzero(neg <= kth)
    if len(top) > k:
        at = neg[top]
        above, ties = top[at < kth], top[at == kth]
        take = k - len(above)
        top = np.concatenate((above, ties[np.argpartition(id_rank[ties], take - 1)[:take]]))
    return top


def top_k(scores: np.ndarray, id_rank: np.ndarray, k: int) -> np.ndarray:
    """top_set's positions by descending score, then ascending `id_rank`."""
    top = top_set(scores, id_rank, k)
    return top[np.lexsort((id_rank[top], -scores[top]))]
