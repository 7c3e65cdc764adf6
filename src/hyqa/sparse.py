"""Okapi BM25 over an inverted index in CSR layout.

Postings of the t-th sorted term are docs[indptr[t]:indptr[t + 1]]
(passage indices, ascending) with their term frequencies at the same
positions of tf, and doc_lengths holds each passage's token count. Search
and the container file use these arrays as they are, each in the narrowest
unsigned dtype that holds it, and a load keeps them as views of the file
(see container).

idf uses the non-negative ln(1 + (N - df + 0.5)/(df + 0.5)) form. Index
and query terms both come from corpus.terms so "word" means the same thing
at index and query time. Ties in search results break by ascending passage
id.

Scoring is term at a time (Turtle & Flood, 1995): one score accumulator
per query. `SparseIndex.impacts` (computed on first search) holds each
posting's term weight tf * (k1 + 1) / (tf + norm), aligned with docs. A
query's weight at each of its distinct terms is mult * idf(term). A block
of queries lays out the postings of each query's terms query by query, in
sorted term order, and each query sums its slice of products
weight * impact per passage with one np.bincount. bincount adds each
passage's products in input order from 0.0, so a score is the per-term sum
in sorted term order, and does not depend on string hashing.
"""

from __future__ import annotations

import bisect
import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import container
from .corpus import Passage, terms, token_table
from .scored import ScoredPassage, check_distinct, id_ranks, ranked_passages, top_k

__all__ = ["BM25Params", "SparseIndex", "build_sparse_index", "sparse_hits_each", "sparse_top_k_each", "sparse_search"]

_ARRAYS = ("doc_lengths", "indptr", "docs", "tf")

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

    def _idf_at(self, t: int) -> float:
        """idf of the term at index t of self.terms."""
        df = int(self.indptr[t + 1] - self.indptr[t])
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
    arrays form a consistent CSR index over meta's terms and distinct
    doc_ids."""
    missing = [name for name in _ARRAYS if name not in arrays]
    if missing:
        raise ValueError(f"missing arrays {', '.join(missing)}; the sparse index has an old layout "
                         "or is damaged, rebuild it with index-sparse")
    if any(arrays[name].ndim != 1 or arrays[name].dtype.kind not in "iu" for name in _ARRAYS):
        raise ValueError("sparse arrays must be one-dimensional integers")
    indptr, docs, tf = arrays["indptr"], arrays["docs"], arrays["tf"]
    doc_ids, index_terms = container.str_list(meta, "doc_ids"), container.str_list(meta, "terms")
    n_docs = len(doc_ids)
    check_distinct(doc_ids)
    if not all(map(operator.lt, index_terms, index_terms[1:])):
        raise ValueError("terms not sorted and distinct")
    if len(indptr) != len(index_terms) + 1:
        raise ValueError(f"indptr has {len(indptr)} entries for {len(index_terms)} terms")
    # Compared in their stored dtypes: an unsigned np.diff would wrap.
    if len(docs) != len(tf) or indptr[0] != 0 or indptr[-1] != len(docs) or np.any(indptr[1:] < indptr[:-1]):
        raise ValueError(f"indptr does not run non-decreasing from 0 to {len(docs)} postings ({len(tf)} tf)")
    if docs.size and (docs.min() < 0 or docs.max() >= n_docs):
        raise ValueError(f"posting doc index out of range for {n_docs} passages")
    # Only the first posting of a term may follow a larger or equal doc index.
    term_start = np.zeros(len(docs) + 1, dtype=bool)
    term_start[indptr] = True
    if not term_start[np.flatnonzero(docs[1:] <= docs[:-1]) + 1].all():
        raise ValueError("postings not strictly ascending by passage within a term")
    if len(arrays["doc_lengths"]) != n_docs:
        raise ValueError(f"{len(arrays['doc_lengths'])} doc lengths for {n_docs} passages")
    params = BM25Params(k1=meta["k1"], b=meta["b"])
    return SparseIndex(params, doc_ids, index_terms, *(arrays[name] for name in _ARRAYS))


def build_sparse_index(passages: Sequence[Passage], params: BM25Params = BM25Params()) -> SparseIndex:
    doc_ids = [p.id for p in passages]
    check_distinct(doc_ids)
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
    return SparseIndex(params, doc_ids, table.terms, *map(_narrow, (doc_lengths, indptr, keys - term_of * n_docs, tf)))


def sparse_hits_each(index: SparseIndex, query_texts: Sequence[str]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each query's matched passage indices, ascending, and their BM25
    scores, unranked, scored as one block: the products of the queries'
    term weights with their postings' impacts, summed per passage by one
    np.bincount per query."""
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
    # in docs and impacts, and entry i's are at offsets[i]:offsets[i + 1].
    t = np.array(query_terms, dtype=np.intp)
    lo = index.indptr[t].astype(np.int64)
    df = index.indptr[t + 1].astype(np.int64) - lo
    offsets = np.concatenate(([0], np.cumsum(df)))
    # Built in place: over many postings, a fresh temporary of their size
    # cost more in page faults than the pass that fills it.
    at = np.repeat(lo - offsets[:-1], df)
    at += np.arange(len(at))
    products = np.repeat(np.array(weights, dtype=np.float64), df)
    products *= index.impacts[at]
    docs = index.docs[at]
    # Query j's postings run from its first entry's offset to the next
    # query's; the sum starts at 0, so a query without entries gets none.
    bounds = offsets[np.concatenate(([0], np.cumsum(n_terms, dtype=np.int64)))].tolist()
    hits_each = []
    for a, b in zip(bounds, bounds[1:]):
        scores = np.bincount(docs[a:b], weights=products[a:b], minlength=index.N)
        # idf > 0 and tf >= 1: every nonzero score is a match, > 0.
        hits = np.flatnonzero(scores != 0)
        hits_each.append((hits, scores[hits].astype(np.float64, copy=False)))  # int64 when no posting matched
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
