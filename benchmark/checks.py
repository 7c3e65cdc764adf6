"""Output checks computed by the benchmark itself, never by hyqa.

Each check returns True on success. They run outside every timer, and each
failure is counted against the run's attempted operations.
"""

from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np

_TOKEN = re.compile(r"[0-9A-Za-z]+")
_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _TOL * max(1.0, abs(b))


def _top_k_matches(results, oracle: dict[str, float], k: int) -> bool:
    """`results` (ScoredPassage list) is a correct top-k of `oracle`:
    every score matches the oracle's, the order is by descending score with
    ties by ascending id, and nothing left out scores above the last kept."""
    if len(results) != min(k, len(oracle)):
        return False
    for r in results:
        if r.passage_id not in oracle or not _close(r.score, oracle[r.passage_id]):
            return False
    for a, b in zip(results, results[1:]):
        if a.score < b.score and not _close(a.score, b.score):
            return False
        if a.score == b.score and a.passage_id > b.passage_id:
            return False
    if not results:
        return True
    kept = {r.passage_id for r in results}
    floor = results[-1].score
    return all(s <= floor or _close(s, floor) for pid, s in oracle.items() if pid not in kept)


class BM25Oracle:
    """Direct-formula Okapi BM25 over raw passage texts (k1=1.2, b=0.75)."""

    def __init__(self, texts: dict[str, str], k1: float = 1.2, b: float = 0.75):
        self.k1, self.b = k1, b
        self.tfs = {pid: Counter(t.lower() for t in _TOKEN.findall(text)) for pid, text in texts.items()}
        self.lengths = {pid: sum(c.values()) for pid, c in self.tfs.items()}
        self.avg = sum(self.lengths.values()) / len(self.lengths)

    def scores(self, query: str) -> dict[str, float]:
        terms = [t.lower() for t in _TOKEN.findall(query)]
        n = len(self.tfs)
        idf = {}
        for t in set(terms):
            df = sum(1 for c in self.tfs.values() if t in c)
            idf[t] = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        out: dict[str, float] = {}
        for pid, c in self.tfs.items():
            s = 0.0
            hit = False
            for t in terms:
                tf = c.get(t, 0)
                if tf:
                    hit = True
                    norm = self.k1 * (1.0 - self.b + self.b * self.lengths[pid] / self.avg)
                    s += idf[t] * tf * (self.k1 + 1.0) / (tf + norm)
            if hit:
                out[pid] = s
        return out


def sparse_matches_oracle(sparse_search, index, oracle: BM25Oracle, query: str, k: int = 100) -> bool:
    return _top_k_matches(sparse_search(index, query, k), oracle.scores(query), k)


def dense_matches_scan(dense_search, index, q: np.ndarray, k: int = 100) -> bool:
    """dense_search equals a full numpy scan of the index matrix."""
    scores = np.asarray(index.matrix, dtype=np.float64) @ np.asarray(q, dtype=np.float64)
    oracle = {pid: float(s) for pid, s in zip(index.ids, scores)}
    return _top_k_matches(dense_search(index, q, k), oracle, k)


def same_results(a, b) -> bool:
    """Identical ids and bit-identical scores, in order."""
    return [(r.passage_id, r.score) for r in a] == [(r.passage_id, r.score) for r in b]
