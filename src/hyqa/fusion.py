"""Convex combination of sparse and dense retrieval scores.

Each system's scores are min-max normalized over its own top pool; a
passage missing from one pool takes that system's normalized floor of 0.
The fused score is w * sparse + (1 - w) * dense, with w tunable by grid
search against Match@k on a dev set. A pool is a set: fusion reads only
its members and their min and max, never their order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .evalkit import GoldSet, match_at_k
from .scored import ScoredPassage, id_ranks, ranked_passages, top_k

__all__ = ["FusionConfig", "minmax_normalize", "shared_rows", "fuse_top_k", "fuse", "tune_weight"]


@dataclass(frozen=True)
class FusionConfig:
    pool_size: int = 2000
    weight: float = 0.5

    def __post_init__(self):
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError("weight must lie in [0, 1]")


def minmax_normalize(scores: Sequence[float]) -> np.ndarray:
    """(x - min) / (max - min) as a float64 array; a constant input maps
    every value to 0.5, and an empty one is a ValueError."""
    scores = np.asarray(scores, dtype=np.float64)
    if len(scores) == 0:
        raise ValueError("cannot normalize an empty score list")
    lo, hi = scores.min(), scores.max()
    if hi == lo:
        return np.full(len(scores), 0.5)
    return (scores - lo) / (hi - lo)


def shared_rows(*id_lists: Sequence[str]) -> tuple[list[np.ndarray], list[str], np.ndarray]:
    """One row space over several id lists, ids numbered in first-seen
    order: each list's rows in it, the ids by row, and their id ranks, as
    fuse_top_k takes them."""
    row_of: dict[str, int] = {}
    rows = [np.array([row_of.setdefault(pid, len(row_of)) for pid in ids], dtype=np.intp) for ids in id_lists]
    ids = list(row_of)
    return rows, ids, id_ranks(ids)


def _scatter(n: int, rows: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Min-max normalized scores at `rows` of an n-vector, 0 elsewhere."""
    out = np.zeros(n)
    if len(rows):
        out[rows] = minmax_normalize(scores)
    return out


def fuse_top_k(sparse_rows: np.ndarray, sparse_scores: np.ndarray, dense_rows: np.ndarray, dense_scores: np.ndarray,
               weight: float, id_rank: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The fusion kernel: the top k rows of the union pool and their fused
    scores.

    Rows index one id space shared by both sides, whose ascending-id
    positions are `id_rank`; each side's rows may come in any order. The
    pool is the ascending union of both sides' rows, marked in one mask
    over that space.
    """
    sparse = _scatter(len(id_rank), sparse_rows, sparse_scores)
    dense = _scatter(len(id_rank), dense_rows, dense_scores)
    in_pool = np.zeros(len(id_rank), dtype=bool)
    in_pool[sparse_rows] = True
    in_pool[dense_rows] = True
    pool = np.flatnonzero(in_pool)
    scores = weight * sparse[pool] + (1 - weight) * dense[pool]
    top = top_k(scores, id_rank[pool], k)
    return pool[top], scores[top]


def fuse(
    sparse_results: Sequence[ScoredPassage],
    dense_results: Sequence[ScoredPassage],
    config: FusionConfig,
) -> list[ScoredPassage]:
    """The whole union pool of the two lists' first pool_size results, by
    descending fused score, ties by ascending passage id."""
    sides = [list(sparse_results)[: config.pool_size], list(dense_results)[: config.pool_size]]
    (sparse_rows, dense_rows), ids, id_rank = shared_rows(*([r.passage_id for r in side] for side in sides))
    sparse_scores, dense_scores = (np.array([r.score for r in side], dtype=np.float64) for side in sides)
    ranking = fuse_top_k(sparse_rows, sparse_scores, dense_rows, dense_scores, config.weight, id_rank, len(ids))
    return ranked_passages(ids, *ranking, "fused")


def tune_weight(
    golds: Sequence[GoldSet],
    sparse_runs: dict[str, Sequence[ScoredPassage]],
    dense_runs: dict[str, Sequence[ScoredPassage]],
    passage_texts: dict[str, str],
    k: int,
    pool_size: int,
) -> tuple[float, float]:
    """Grid-search the sparse weight (0, 0.05, ..., 1) against Match@k on a dev set.

    Returns (best weight, its Match@k); ties prefer the smaller weight.
    """
    if not golds:
        raise ValueError("tuning requires a non-empty dev set")
    best_w, best_metric = 0.0, -1.0
    for i in range(21):
        # i * 0.05, not i / 20: the two differ in the last bits (i = 3).
        w = min(1.0, i * 0.05)
        config = FusionConfig(pool_size=pool_size, weight=w)
        hits = 0
        for gold in golds:
            fused = fuse(
                sparse_runs.get(gold.query_id, []),
                dense_runs.get(gold.query_id, []),
                config,
            )
            hits += match_at_k(fused, gold, k, passage_texts)
        metric = hits / len(golds)
        if metric > best_metric:
            best_w, best_metric = w, metric
    return best_w, best_metric
