"""Shared scored-result record used by sparse, dense, and fused retrieval,
the one top-k selection that every ranked search goes through (top_set
picks the k best positions unordered, and top_k sorts them), the one path
from a search's ranked rows to its records (ranked_passages), and the one
duplicate check of the indexes' passage ids (check_distinct)."""

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


def ranked_passages(ids: Sequence[str], rows: np.ndarray, scores: np.ndarray, provenance: str) -> list[ScoredPassage]:
    """The record of each ranked row in order: ids[row] with its score. The
    first non-finite score raises ValueError naming its passage."""
    return [ScoredPassage(ids[i], s, provenance) for i, s in zip(rows.tolist(), scores.tolist())]


def check_distinct(ids: Sequence[str]) -> None:
    """A ValueError naming the first passage id that repeats an earlier one."""
    if len(set(ids)) == len(ids):  # the common case, without a Python loop
        return
    seen: set[str] = set()
    for passage_id in ids:
        if passage_id in seen:
            raise ValueError(f"duplicate passage id {passage_id!r}")
        seen.add(passage_id)


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
