"""Okapi BM25 over an inverted index in CSR layout.

Postings of the t-th sorted term are docs[indptr[t]:indptr[t + 1]]
(passage indices, ascending) with their term frequencies at the same
positions of tf. Search and the container file use these arrays as they
are; docs and tf take the narrowest unsigned dtype that holds them.

idf uses the non-negative ln(1 + (N - df + 0.5)/(df + 0.5)) form. Index
and query terms both come from corpus.terms so "word" means the same thing
at index and query time. A query adds up its terms in sorted order, so
scores do not depend on string hashing. Ties in search results break by
ascending passage id.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, filterfalse
from typing import Iterable, Sequence

import numpy as np

from . import container
from .container import ContainerError
from .corpus import Passage, terms
from .scored import ScoredPassage, id_ranks, top_k

__all__ = ["BM25Params", "SparseIndex", "build_sparse_index", "sparse_top_k", "sparse_search"]

_ARRAYS = ("doc_lengths", "indptr", "docs", "tf")


@dataclass(frozen=True)
class BM25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if self.k1 <= 0:
            raise ValueError("k1 must be positive")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must lie in [0, 1]")


def _narrow(values: np.ndarray) -> np.ndarray:
    """Non-negative ints in the narrowest unsigned dtype that holds them."""
    return values.astype(np.min_scalar_type(int(values.max()) if values.size else 0))


class SparseIndex:
    """Immutable CSR inverted index; build via build_sparse_index."""

    def __init__(self, params: BM25Params, doc_ids: list[str], terms: list[str],
                 doc_lengths: np.ndarray, indptr: np.ndarray, docs: np.ndarray, tf: np.ndarray):
        self.params = params
        self.doc_ids = doc_ids
        self.terms = terms  # sorted
        self.doc_lengths = doc_lengths
        self.indptr = indptr
        self.docs = docs
        self.tf = tf
        self.N = len(doc_ids)
        self.avg_len = (int(doc_lengths.sum()) / self.N) if self.N else 0.0

    @cached_property
    def id_rank(self) -> np.ndarray:
        """Each passage's position in ascending-id order; sorted on first search."""
        return id_ranks(self.doc_ids)

    def _term_index(self, term: str) -> int | None:
        i = bisect.bisect_left(self.terms, term)
        return i if i < len(self.terms) and self.terms[i] == term else None

    def idf(self, term: str) -> float:
        t = self._term_index(term)
        df = 0 if t is None else int(self.indptr[t + 1] - self.indptr[t])
        return math.log(1.0 + (self.N - df + 0.5) / (df + 0.5))

    def save(self, path) -> None:
        meta = {"k1": self.params.k1, "b": self.params.b, "doc_ids": self.doc_ids, "terms": self.terms}
        container.save(path, "sparse", meta, {name: getattr(self, name) for name in _ARRAYS})

    @classmethod
    def load(cls, path) -> "SparseIndex":
        _, meta, arrays = container.load(path, kind="sparse")
        _check_layout(path, meta, arrays)
        params = BM25Params(k1=meta["k1"], b=meta["b"])
        return cls(params, list(meta["doc_ids"]), list(meta["terms"]), *(arrays[name] for name in _ARRAYS))

    def dump_postings(self) -> Iterable[str]:
        """Human-readable postings lines for debugging."""
        for t, term in enumerate(self.terms):
            lo, hi = int(self.indptr[t]), int(self.indptr[t + 1])
            entries = " ".join(
                f"{self.doc_ids[i]}:{tf}" for i, tf in zip(self.docs[lo:hi].tolist(), self.tf[lo:hi].tolist())
            )
            yield f"{term}\tdf={hi - lo}\t{entries}"


def _check_layout(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Raise ContainerError naming `path` unless the loaded arrays form a
    consistent CSR index over meta's terms and doc_ids."""
    missing = [name for name in _ARRAYS if name not in arrays]
    if missing:
        raise ContainerError(f"{path}: missing arrays {', '.join(missing)}; the sparse index has an old layout "
                             "or is damaged, rebuild it with index-sparse")
    if any(arrays[name].ndim != 1 or arrays[name].dtype.kind not in "iu" for name in _ARRAYS):
        raise ContainerError(f"{path}: sparse arrays must be one-dimensional integers")
    indptr, docs, tf = arrays["indptr"].astype(np.int64), arrays["docs"].astype(np.int64), arrays["tf"]
    n_docs = len(meta["doc_ids"])
    if not all(map(str.__lt__, meta["terms"], meta["terms"][1:])):
        raise ContainerError(f"{path}: terms not sorted and distinct")
    if len(indptr) != len(meta["terms"]) + 1:
        raise ContainerError(f"{path}: indptr has {len(indptr)} entries for {len(meta['terms'])} terms")
    if len(docs) != len(tf) or indptr[0] != 0 or indptr[-1] != len(docs) or np.any(np.diff(indptr) < 0):
        raise ContainerError(f"{path}: indptr does not run non-decreasing from 0 to {len(docs)} postings ({len(tf)} tf)")
    if docs.size and (docs.min() < 0 or docs.max() >= n_docs):
        raise ContainerError(f"{path}: posting doc index out of range for {n_docs} passages")
    # Only the first posting of a term may follow a larger or equal doc index.
    if not np.isin(np.flatnonzero(np.diff(docs) <= 0) + 1, indptr).all():
        raise ContainerError(f"{path}: postings not strictly ascending by passage within a term")
    if len(arrays["doc_lengths"]) != n_docs:
        raise ContainerError(f"{path}: {len(arrays['doc_lengths'])} doc lengths for {n_docs} passages")


def build_sparse_index(passages: Sequence[Passage], params: BM25Params = BM25Params()) -> SparseIndex:
    doc_ids = []
    seen = set()
    term_ids: dict[str, int] = {}  # surface -> first-seen id
    tokens = []  # per passage, its tokens' first-seen ids
    for p in passages:
        if p.id in seen:
            raise ValueError(f"duplicate passage id {p.id!r}")
        seen.add(p.id)
        doc_ids.append(p.id)
        # One passage's surfaces at a time, so that the token strings of
        # all passages are never held at once.
        surfaces = terms(p.text)
        term_ids.update(zip(filterfalse(term_ids.__contains__, dict.fromkeys(surfaces)), count(len(term_ids))))
        tokens.append(list(map(term_ids.__getitem__, surfaces)))
    n_docs = len(doc_ids)
    doc_lengths = np.fromiter(map(len, tokens), dtype=np.int64, count=n_docs)
    surfaces = list(term_ids)
    order = sorted(range(len(surfaces)), key=surfaces.__getitem__)
    rank = np.empty(len(surfaces), dtype=np.int64)
    rank[order] = np.arange(len(surfaces))
    flat = np.fromiter(chain.from_iterable(tokens), dtype=np.int64, count=int(doc_lengths.sum()))
    # One key per token, ordered by (sorted term, passage); counting equal
    # keys gives the postings in CSR order with their tf.
    keys, tf = np.unique(rank[flat] * n_docs + np.repeat(np.arange(n_docs), doc_lengths), return_counts=True)
    term_of = keys // n_docs
    indptr = np.zeros(len(surfaces) + 1, dtype=np.int64)
    np.cumsum(np.bincount(term_of, minlength=len(surfaces)), out=indptr[1:])
    sorted_terms = [surfaces[i] for i in order]
    return SparseIndex(params, doc_ids, sorted_terms, doc_lengths, indptr, _narrow(keys - term_of * n_docs), _narrow(tf))


def sparse_top_k(index: SparseIndex, query_text: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Array form of sparse_search: the top k matched passage indices and
    their BM25 scores."""
    if k < 1:
        raise ValueError("k must be >= 1")
    k1, b = index.params.k1, index.params.b
    scores = np.zeros(index.N)
    for term, mult in sorted(Counter(terms(query_text)).items()):
        t = index._term_index(term)
        if t is None:
            continue
        lo, hi = index.indptr[t], index.indptr[t + 1]
        docs = index.docs[lo:hi]
        tf = index.tf[lo:hi].astype(np.float64)
        norm = k1 * (1.0 - b + b * index.doc_lengths[docs] / index.avg_len)
        scores[docs] += mult * index.idf(term) * (tf * (k1 + 1.0) / (tf + norm))
    hits = np.flatnonzero(scores)  # idf > 0 and tf >= 1, so every matched passage scores > 0
    top = hits[top_k(scores[hits], index.id_rank[hits], k)]
    return top, scores[top]


def sparse_search(index: SparseIndex, query_text: str, k: int) -> list[ScoredPassage]:
    """Top-k passages by BM25, descending score, ties by ascending id."""
    top, scores = sparse_top_k(index, query_text, k)
    return [ScoredPassage(index.doc_ids[i], s, "sparse") for i, s in zip(top.tolist(), scores.tolist())]
