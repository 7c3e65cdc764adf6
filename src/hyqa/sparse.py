"""Okapi BM25 over an inverted index.

idf uses the non-negative ln(1 + (N - df + 0.5)/(df + 0.5)) form. Query
tokenization reuses corpus.tokenize so "word" means the same thing at index
and query time. Ties in search results break by ascending passage id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import container
from .corpus import Passage, tokenize
from .scored import ScoredPassage

__all__ = ["BM25Params", "SparseIndex", "build_sparse_index", "sparse_search"]


@dataclass(frozen=True)
class BM25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if self.k1 <= 0:
            raise ValueError("k1 must be positive")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must lie in [0, 1]")


class SparseIndex:
    """Immutable inverted index; build via build_sparse_index."""

    def __init__(self, params: BM25Params, doc_ids: list[str], doc_lengths: list[int],
                 postings: dict[str, list[tuple[int, int]]]):
        self.params = params
        self.doc_ids = doc_ids
        self.doc_lengths = doc_lengths
        self.postings = postings  # term -> [(doc index, tf)], doc index ascending
        self.N = len(doc_ids)
        self.avg_len = (sum(doc_lengths) / self.N) if self.N else 0.0

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        return math.log(1.0 + (self.N - df + 0.5) / (df + 0.5))

    def _weight(self, tf: int, doc_idx: int) -> float:
        k1, b = self.params.k1, self.params.b
        norm = k1 * (1.0 - b + b * self.doc_lengths[doc_idx] / self.avg_len)
        return tf * (k1 + 1.0) / (tf + norm)

    def save(self, path) -> None:
        terms = sorted(self.postings)
        blob = bytearray()
        df = []
        for term in terms:
            plist = self.postings[term]
            df.append(len(plist))
            prev = 0
            deltas = []
            for doc_idx, tf in plist:
                deltas.extend((doc_idx - prev, tf))
                prev = doc_idx
            blob.extend(container.write_varints(deltas))
        meta = {
            "k1": self.params.k1,
            "b": self.params.b,
            "doc_ids": self.doc_ids,
            "terms": terms,
            "df": df,
        }
        arrays = {
            "doc_lengths": np.asarray(self.doc_lengths, dtype=np.int64),
            "postings": np.frombuffer(bytes(blob), dtype=np.uint8),
        }
        container.save(path, "sparse", meta, arrays)

    @classmethod
    def load(cls, path) -> "SparseIndex":
        _, meta, arrays = container.load(path, kind="sparse")
        data = arrays["postings"].tobytes()
        postings: dict[str, list[tuple[int, int]]] = {}
        offset = 0
        for term, df in zip(meta["terms"], meta["df"]):
            flat, offset = container.read_varints(data, 2 * df, offset)
            plist = []
            prev = 0
            for i in range(df):
                prev += flat[2 * i]
                plist.append((prev, flat[2 * i + 1]))
            postings[term] = plist
        return cls(
            BM25Params(k1=meta["k1"], b=meta["b"]),
            list(meta["doc_ids"]),
            [int(x) for x in arrays["doc_lengths"]],
            postings,
        )

    def dump_postings(self) -> Iterable[str]:
        """Human-readable postings lines for debugging."""
        for term in sorted(self.postings):
            entries = " ".join(f"{self.doc_ids[i]}:{tf}" for i, tf in self.postings[term])
            yield f"{term}\tdf={len(self.postings[term])}\t{entries}"


def build_sparse_index(passages: Sequence[Passage], params: BM25Params = BM25Params()) -> SparseIndex:
    doc_ids = []
    doc_lengths = []
    postings: dict[str, list[tuple[int, int]]] = {}
    seen = set()
    for p in passages:
        if p.id in seen:
            raise ValueError(f"duplicate passage id {p.id!r}")
        seen.add(p.id)
        doc_idx = len(doc_ids)
        doc_ids.append(p.id)
        tokens = [t.surface for t in tokenize(p.text)]
        doc_lengths.append(len(tokens))
        counts: dict[str, int] = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        for term, tf in counts.items():
            postings.setdefault(term, []).append((doc_idx, tf))
    return SparseIndex(params, doc_ids, doc_lengths, postings)


def sparse_search(index: SparseIndex, query_text: str, k: int) -> list[ScoredPassage]:
    """Top-k passages by BM25, descending score, ties by ascending id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query_terms = [t.surface for t in tokenize(query_text)]
    accum: dict[int, float] = {}
    for term in set(query_terms):
        plist = index.postings.get(term)
        if not plist:
            continue
        mult = query_terms.count(term)
        idf = index.idf(term)
        for doc_idx, tf in plist:
            accum[doc_idx] = accum.get(doc_idx, 0.0) + mult * idf * index._weight(tf, doc_idx)
    ranked = sorted(accum.items(), key=lambda it: (-it[1], index.doc_ids[it[0]]))
    return [ScoredPassage(index.doc_ids[i], s, "sparse") for i, s in ranked[:k]]
