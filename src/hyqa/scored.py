"""Shared scored-result record used by sparse, dense, and fused retrieval,
and the one top-k selection that every ranked search goes through."""

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


def id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Position of each id in ascending-id order, the tie-break of every
    ranked result."""
    rank = np.empty(len(ids), dtype=np.int64)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def top_k(scores: np.ndarray, id_rank: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k best entries of `scores`, by descending score and
    then ascending `id_rank`.

    np.partition finds the k-th best score, and only the entries at or
    above it are sorted. When ties at that score make them more than 2k,
    the m entries strictly above it are kept with the k - m ties of
    smallest id rank (one argpartition), so only k entries are sorted.
    NaNs sort last, as in a full sort.
    """
    neg = -scores
    if k < len(neg):
        kth = np.partition(neg, k - 1)[k - 1]
        candidates = np.flatnonzero(~(neg > kth))
        # A NaN k-th score leaves every entry a candidate, as in a full sort.
        # Below 2k candidates, selecting ties first costs more than the
        # sort it saves.
        if 0 < 2 * k < len(candidates) and kth == kth:
            at = neg[candidates]
            above, ties = candidates[at < kth], candidates[at == kth]
            take = k - len(above)
            candidates = np.concatenate((above, ties[np.argpartition(id_rank[ties], take - 1)[:take]]))
    else:
        candidates = np.arange(len(neg))
    return candidates[np.lexsort((id_rank[candidates], neg[candidates]))[:k]]
