"""Okapi BM25 over an inverted index in CSR layout.

Postings of the t-th sorted term are docs[indptr[t]:indptr[t + 1]]
(passage indices, ascending) with their term frequencies at the same
positions of tf. Search and the container file use these arrays as they
are; docs and tf take the narrowest unsigned dtype that holds them.

idf uses the non-negative ln(1 + (N - df + 0.5)/(df + 0.5)) form. Index
and query terms both come from corpus.terms so "word" means the same thing
at index and query time. Ties in search results break by ascending passage
id.

Scoring is term at a time. `SparseIndex.impacts` (computed on first
search) holds each posting's term weight tf * (k1 + 1) / (tf + norm),
aligned with docs. A query's weight at each of its distinct terms is
mult * idf(term). A block of queries lays out the postings of each
query's terms query by query, in sorted term order, and sums the products
weight * impact of each group of queries with one np.bincount over their
(query, passage) cells. bincount adds each cell's products in input order
from 0.0, so a score is the per-term sum in sorted term order, and does not
depend on string hashing.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import container
from .corpus import Passage, terms, token_table
from .scored import ScoredPassage, id_ranks, ranked_passages, top_k

__all__ = ["BM25Params", "SparseIndex", "build_sparse_index", "sparse_hits_each", "sparse_top_k_each", "sparse_search"]

_ARRAYS = ("doc_lengths", "indptr", "docs", "tf")

# (query, passage) cells one bincount sums into, so a group of queries
# spans max(1, _CELLS // N) of them. Of 1 << 12 to 1 << 16, 1 << 14 (128 KiB
# of float64 cells) ran mining's 128-question blocks fastest at N = 500, and
# as fast as any at N = 6,617; 1 << 20 ran those about 2x slower.
_CELLS = 1 << 14


@dataclass(frozen=True)
class BM25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if not (math.isfinite(self.k1) and self.k1 > 0):
            raise ValueError("k1 must be finite and positive")
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

    @cached_property
    def impacts(self) -> np.ndarray:
        """Each posting's BM25 term weight, float64 and aligned with docs;
        computed on first search."""
        k1, b = self.params.k1, self.params.b
        tf = self.tf.astype(np.float64)
        norm = k1 * (1.0 - b + b * self.doc_lengths[self.docs] / self.avg_len)
        return tf * (k1 + 1.0) / (tf + norm)

    def _term_index(self, term: str) -> int | None:
        i = bisect.bisect_left(self.terms, term)
        return i if i < len(self.terms) and self.terms[i] == term else None

    def idf(self, term: str) -> float:
        return self._idf_at(self._term_index(term))

    def _idf_at(self, t: int | None) -> float:
        """idf of the term at index t of self.terms; None is a term no
        passage holds."""
        df = 0 if t is None else int(self.indptr[t + 1] - self.indptr[t])
        return math.log(1.0 + (self.N - df + 0.5) / (df + 0.5))

    def save(self, path) -> None:
        meta = {"k1": self.params.k1, "b": self.params.b, "doc_ids": self.doc_ids, "terms": self.terms}
        container.save(path, "sparse", meta, {name: getattr(self, name) for name in _ARRAYS})

    @classmethod
    def load(cls, path) -> "SparseIndex":
        return container.load_artifact(path, "sparse", _from_layout)

    def dump_postings(self) -> Iterable[str]:
        """Human-readable postings lines for debugging."""
        for t, term in enumerate(self.terms):
            lo, hi = int(self.indptr[t]), int(self.indptr[t + 1])
            entries = " ".join(
                f"{self.doc_ids[i]}:{tf}" for i, tf in zip(self.docs[lo:hi].tolist(), self.tf[lo:hi].tolist())
            )
            yield f"{term}\tdf={hi - lo}\t{entries}"


def _from_layout(meta: dict, arrays: dict[str, np.ndarray]) -> SparseIndex:
    """The index a container's meta and arrays hold; a ValueError unless the
    arrays form a consistent CSR index over meta's terms and doc_ids."""
    missing = [name for name in _ARRAYS if name not in arrays]
    if missing:
        raise ValueError(f"missing arrays {', '.join(missing)}; the sparse index has an old layout "
                         "or is damaged, rebuild it with index-sparse")
    if any(arrays[name].ndim != 1 or arrays[name].dtype.kind not in "iu" for name in _ARRAYS):
        raise ValueError("sparse arrays must be one-dimensional integers")
    indptr, docs, tf = arrays["indptr"].astype(np.int64), arrays["docs"].astype(np.int64), arrays["tf"]
    doc_ids, index_terms = container.str_list(meta, "doc_ids"), container.str_list(meta, "terms")
    n_docs = len(doc_ids)
    if not all(map(str.__lt__, index_terms, index_terms[1:])):
        raise ValueError("terms not sorted and distinct")
    if len(indptr) != len(index_terms) + 1:
        raise ValueError(f"indptr has {len(indptr)} entries for {len(index_terms)} terms")
    if len(docs) != len(tf) or indptr[0] != 0 or indptr[-1] != len(docs) or np.any(np.diff(indptr) < 0):
        raise ValueError(f"indptr does not run non-decreasing from 0 to {len(docs)} postings ({len(tf)} tf)")
    if docs.size and (docs.min() < 0 or docs.max() >= n_docs):
        raise ValueError(f"posting doc index out of range for {n_docs} passages")
    # Only the first posting of a term may follow a larger or equal doc index.
    if not np.isin(np.flatnonzero(np.diff(docs) <= 0) + 1, indptr).all():
        raise ValueError("postings not strictly ascending by passage within a term")
    if len(arrays["doc_lengths"]) != n_docs:
        raise ValueError(f"{len(arrays['doc_lengths'])} doc lengths for {n_docs} passages")
    params = BM25Params(k1=meta["k1"], b=meta["b"])
    return SparseIndex(params, doc_ids, index_terms, *(arrays[name] for name in _ARRAYS))


def build_sparse_index(passages: Sequence[Passage], params: BM25Params = BM25Params()) -> SparseIndex:
    doc_ids = []
    seen = set()
    for p in passages:
        if p.id in seen:
            raise ValueError(f"duplicate passage id {p.id!r}")
        seen.add(p.id)
        doc_ids.append(p.id)
    table = token_table(p.text for p in passages)
    n_docs, n_terms = len(doc_ids), len(table.terms)
    doc_lengths = np.diff(table.offsets)
    # One key per token, ordered by (sorted term, passage); counting equal
    # keys gives the postings in CSR order with their tf.
    keys, tf = np.unique(table.ids.astype(np.int64) * n_docs + np.repeat(np.arange(n_docs), doc_lengths),
                         return_counts=True)
    term_of = keys // n_docs
    indptr = np.zeros(n_terms + 1, dtype=np.int64)
    np.cumsum(np.bincount(term_of, minlength=n_terms), out=indptr[1:])
    return SparseIndex(params, doc_ids, table.terms, doc_lengths, indptr, _narrow(keys - term_of * n_docs), _narrow(tf))


def sparse_hits_each(index: SparseIndex, query_texts: Sequence[str]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each query's matched passage indices, ascending, and their BM25
    scores, unranked, scored as one block: the products of the queries'
    term weights with their postings' impacts, summed per (query, passage)
    cell by one np.bincount per group of queries."""
    n, n_queries = index.N, len(query_texts)
    if n == 0:  # no passage, so no term and no cell
        return [(np.zeros(0, dtype=np.intp), np.zeros(0)) for _ in query_texts]
    query_terms: list[int] = []
    weights: list[float] = []
    n_terms: list[int] = []
    for text in query_texts:
        before = len(query_terms)
        for term, mult in sorted(Counter(terms(text)).items()):
            t = index._term_index(term)
            if t is not None:
                query_terms.append(t)
                weights.append(mult * index._idf_at(t))
        n_terms.append(len(query_terms) - before)
    # Every (query, term) entry's postings, back to back: `at` indexes them
    # in docs and impacts, and a posting's cell is its passage in its
    # query's row of n cells within its group of queries.
    group = max(1, _CELLS // n)
    t = np.array(query_terms, dtype=np.intp)
    lo = index.indptr[t].astype(np.int64)
    df = index.indptr[t + 1].astype(np.int64) - lo
    ends = np.cumsum(df)
    # Built in place: over many postings, a fresh temporary of their size
    # cost more in page faults than the pass that fills it.
    at = np.repeat(lo - (ends - df), df)
    at += np.arange(len(at))
    products = np.repeat(np.array(weights, dtype=np.float64), df)
    products *= index.impacts[at]
    cells = np.repeat(np.repeat(np.arange(n_queries) % group * n, n_terms), df)
    np.add(cells, index.docs[at], out=cells, dtype=np.intp)
    # The postings of the queries before each group's first.
    firsts = list(range(0, n_queries, group))
    entry_ends = np.concatenate(([0], np.cumsum(n_terms, dtype=np.int64)))
    bounds = np.concatenate(([0], ends))[entry_ends[firsts + [n_queries]]].tolist()
    hits_each = []
    for first, a, b in zip(firsts, bounds, bounds[1:]):
        size = min(group, n_queries - first)
        scores = np.bincount(cells[a:b], weights=products[a:b], minlength=size * n)
        # idf > 0 and tf >= 1: every nonzero cell is a match, > 0.
        cell = np.flatnonzero(scores != 0)
        hit_scores = scores[cell].astype(np.float64, copy=False)  # int64 when no posting matched
        hits = cell % n
        row_ends = np.searchsorted(cell, np.arange(size + 1) * n).tolist()
        hits_each += [(hits[c:d], hit_scores[c:d]) for c, d in zip(row_ends, row_ends[1:])]
    return hits_each


def sparse_top_k_each(index: SparseIndex, query_texts: Sequence[str], k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """sparse_search of each query as index and score arrays, scored as one block (sparse_hits_each)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = []
    for hits, hit_scores in sparse_hits_each(index, query_texts):
        top = top_k(hit_scores, index.id_rank[hits], k)
        ranked.append((hits[top], hit_scores[top]))
    return ranked


def sparse_search(index: SparseIndex, query_text: str, k: int) -> list[ScoredPassage]:
    """Top-k passages by BM25, descending score, ties by ascending id."""
    return ranked_passages(index.doc_ids, *sparse_top_k_each(index, [query_text], k)[0], "sparse")
