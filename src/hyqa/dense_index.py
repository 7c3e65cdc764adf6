"""Maximum-inner-product search over passage embeddings.

Two indexes: an exact brute-force scan and a clustered inverted-file (IVF)
index. IVF clusters with Euclidean k-means but ranks probe clusters by
inner product with the query; this asymmetry is deliberate and standard.
Returned scores are always the exact inner products of the stored vectors,
so the IVF index only approximates the candidate set, never the score.
Both score with np.vecdot, which rounds each row's product as the per-row
`row @ q` does; a GEMV (`matrix @ q`) or einsum changes the last bit of most
rows. A saved index loads through build_dense_index, and so its checks.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import container
from .corpus import check_count
from .scored import ScoredPassage, check_distinct, id_ranks, ranked_passages, top_k

__all__ = ["DenseIndex", "IVFIndex", "build_dense_index", "dense_scores", "dense_top_k", "dense_search", "build_ivf_index", "ivf_search"]


class DenseIndex:
    def __init__(self, ids: list[str], matrix: np.ndarray):
        self.ids = ids
        self.matrix = matrix  # N x d

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def d(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def id_rank(self) -> np.ndarray:
        """Each row's position in ascending-id order; sorted on first search."""
        return id_ranks(self.ids)

    def save(self, path) -> None:
        container.save(
            path,
            "dense",
            {"ids": self.ids},
            {"matrix": self.matrix.astype("<f4")},
        )

    @classmethod
    def load(cls, path) -> "DenseIndex":
        return container.load_artifact(
            path, "dense", lambda meta, arrays: build_dense_index(container.str_list(meta, "ids"), arrays["matrix"])
        )


def build_dense_index(ids: list[str], embeddings: np.ndarray) -> DenseIndex:
    """Exact index over `embeddings` rounded to the float32 values that
    `save` stores, so an index ranks the same before and after a reload.
    A row that is not finite in float32 is a ValueError naming its id."""
    # A value past float32's range or a signalling NaN warns as it is cast;
    # the finiteness check below refuses its row.
    with np.errstate(invalid="ignore", over="ignore"):
        matrix = np.asarray(embeddings, dtype=np.float32).astype(np.float64)
    if matrix.size == 0:
        matrix = matrix.reshape(0, 0 if matrix.ndim < 2 else matrix.shape[1])
    if matrix.ndim != 2:
        raise ValueError("embeddings must be a 2-D array")
    if len(ids) != matrix.shape[0]:
        raise ValueError(f"{len(ids)} ids but {matrix.shape[0]} embedding rows")
    check_distinct(ids)
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite embedding for passage {ids[bad[0]]!r}")
    return DenseIndex(list(ids), matrix)


def _query(index: DenseIndex, q_emb: np.ndarray) -> np.ndarray:
    q = np.asarray(q_emb, dtype=np.float64)
    if index.n and q.shape != (index.d,):
        raise ValueError(f"query dimension {q.shape} does not match index d={index.d}")
    return q


def dense_scores(index: DenseIndex, q_emb: np.ndarray) -> np.ndarray:
    """The query's inner product with every row, in row order."""
    q = _query(index, q_emb)
    if index.n == 0:
        return np.zeros(0)
    return np.vecdot(index.matrix, q)


def dense_top_k(index: DenseIndex, q_emb: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """dense_search as row and score arrays."""
    k = check_count("k", k)
    scores = dense_scores(index, q_emb)
    top = top_k(scores, index.id_rank, k)
    return top, scores[top]


def dense_search(index: DenseIndex, q_emb: np.ndarray, k: int) -> list[ScoredPassage]:
    """Top-k rows by inner product, ties by ascending passage id."""
    return ranked_passages(index.ids, *dense_top_k(index, q_emb, k), "dense")


class IVFIndex:
    def __init__(self, base: DenseIndex, centroids: np.ndarray, assignment: np.ndarray, n_probe: int):
        self.base = base
        self.centroids = centroids  # C x d
        self.assignment = assignment  # N, cluster index per row
        self.n_probe = n_probe
        self.members = [np.flatnonzero(assignment == c) for c in range(len(centroids))]


_KMEANS_ITERS = 25  # Lloyd iterations at most; _kmeans stops once no assignment changes


def _kmeans(matrix: np.ndarray, C: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    n = matrix.shape[0]
    centroids = matrix[rng.choice(n, size=C, replace=False)].copy()
    assignment = np.zeros(n, dtype=np.int64)
    for _ in range(_KMEANS_ITERS):
        d2 = ((matrix[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignment = d2.argmin(axis=1)
        for c in range(C):
            mask = new_assignment == c
            if mask.any():
                centroids[c] = matrix[mask].mean(axis=0)
            else:
                # Re-seed an empty cluster from the largest cluster's
                # farthest member.
                sizes = np.bincount(new_assignment, minlength=C)
                big = int(sizes.argmax())
                members = np.flatnonzero(new_assignment == big)
                far = members[d2[members, big].argmax()]
                centroids[c] = matrix[far]
                new_assignment[far] = c
        if np.array_equal(new_assignment, assignment):
            assignment = new_assignment
            break
        assignment = new_assignment
    return centroids, assignment


def build_ivf_index(index: DenseIndex, C: int, n_probe: int, seed: int = 0) -> IVFIndex:
    if not 1 <= C <= index.n:
        raise ValueError(f"C={C} must lie in [1, N={index.n}]")
    if not 1 <= n_probe <= C:
        raise ValueError(f"n_probe={n_probe} must lie in [1, C={C}]")
    seed = check_count("seed", seed, least=0)
    centroids, assignment = _kmeans(index.matrix, C, seed)
    return IVFIndex(index, centroids, assignment, n_probe)


def ivf_search(ivf: IVFIndex, q_emb: np.ndarray, k: int, n_probe: int | None = None) -> list[ScoredPassage]:
    index = ivf.base
    k = check_count("k", k)
    q = _query(index, q_emb)
    probes = ivf.n_probe if n_probe is None else n_probe
    if probes < 1:
        raise ValueError(f"n_probe={probes} must be >= 1")
    if index.n == 0:
        return []
    # build_ivf_index makes at least one cluster, so at least one is chosen.
    chosen = np.argsort(-(ivf.centroids @ q), kind="stable")[:probes]
    candidates = np.concatenate([ivf.members[c] for c in chosen])
    scores = np.vecdot(index.matrix[candidates], q)
    top = top_k(scores, index.id_rank[candidates], k)
    return ranked_passages(index.ids, candidates[top], scores[top], "dense")
