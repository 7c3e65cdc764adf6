"""Extractive span scoring and answerability.

A span (s, e) over passage tokens (1-based; index 0 is the null/CLS slot)
scores start[s] + end[e] - start[0] - end[0]. The best-span enumerator,
the answerability score and the K-passage reader share one band of those
scores over stacked logit rows. Logit sources are pluggable: a
deterministic lexical-overlap baseline and a loader for precomputed logits
produced offline by an external model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import terms, token_range_text, word_count
from .scored import top_k

__all__ = [
    "SpanLogits",
    "SpanScore",
    "ScorerConfig",
    "span_score",
    "span_band",
    "best_spans",
    "best_span_each",
    "answerability",
    "LexicalScorer",
    "ExternalLogits",
]


@dataclass(frozen=True, eq=False)
class SpanLogits:
    """Start and end logits of length n+1; index 0 is CLS. Both are stored
    as read-only float64 rows of one (2, n+1) array."""

    start: np.ndarray
    end: np.ndarray

    def __post_init__(self):
        if len(self.start) != len(self.end):
            raise ValueError("start and end logit arrays must have equal length")
        rows = np.array((self.start, self.end), dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError("logits must be flat lists of numbers")
        if rows.shape[1] < 1:
            raise ValueError("logit arrays must include the CLS slot")
        if np.count_nonzero(np.isfinite(rows)) != rows.size:
            raise ValueError("logits must be finite")
        rows.flags.writeable = False
        object.__setattr__(self, "start", rows[0])
        object.__setattr__(self, "end", rows[1])

    def __eq__(self, other):
        if not isinstance(other, SpanLogits):
            return NotImplemented
        return np.array_equal(self.start, other.start) and np.array_equal(self.end, other.end)

    @property
    def n(self) -> int:
        return len(self.start) - 1


@dataclass(frozen=True)
class SpanScore:
    s: int
    e: int
    score: float


@dataclass(frozen=True)
class ScorerConfig:
    max_answer_len: int = 30
    top_n: int = 10

    def __post_init__(self):
        if self.max_answer_len < 1:
            raise ValueError("max_answer_len must be >= 1")
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")


def span_score(logits: SpanLogits, s: int, e: int) -> float:
    if not (1 <= s <= e <= logits.n):
        raise IndexError(f"span ({s}, {e}) out of range for n={logits.n}")
    return float(logits.start[s] + logits.end[e] - logits.start[0] - logits.end[0])


def span_band(rows: Sequence[SpanLogits], max_answer_len: int) -> np.ndarray:
    """Every span score of every row, stacked by token: rows[k] takes n
    consecutive band rows from offset o (the sum of the earlier rows' n),
    and band[o + s - 1, j] scores its span (s, s + j), for j below
    width = min(max_answer_len, the longest n).

    Spans that run past their own row's n score -inf, so in each row's
    block the row-major order of the cells is the (s asc, e asc) tie order
    and the first maximum is the best span. The band holds sum(n) * width
    float64 values.
    """
    n = np.array([logits.n for logits in rows])
    width = min(max_answer_len, int(n.max()))
    # Each row's end logits 1..n, then width - 1 cells of -inf, so that no
    # window of a row's tokens reaches the next row.
    pad = np.full(width - 1, -np.inf)
    end = np.concatenate([part for logits in rows for part in (logits.end[1:], pad)])
    # The windows of row k's tokens start k * (width - 1) pad cells past
    # their position among all rows' tokens.
    window = np.arange(n.sum()) + np.repeat(np.arange(len(rows)) * (width - 1), n)
    band = sliding_window_view(end, width)[window]
    band += np.concatenate([logits.start[1:] for logits in rows])[:, None]
    band -= np.repeat([logits.start[0] for logits in rows], n)[:, None]
    band -= np.repeat([logits.end[0] for logits in rows], n)[:, None]
    return band


def best_spans(logits: SpanLogits, config: ScorerConfig = ScorerConfig()) -> list[SpanScore]:
    """All spans of length <= max_answer_len scored; top_n by descending
    score, ties by (ascending s, ascending e)."""
    n = logits.n
    if n == 0:
        return []
    band = span_band([logits], config.max_answer_len)
    width = band.shape[1]
    scores = band.ravel()
    n_spans = n * width - width * (width - 1) // 2
    flat = top_k(scores, np.arange(scores.size), min(config.top_n, n_spans)).tolist()
    return [SpanScore(f // width + 1, f // width + 1 + f % width, float(scores[f])) for f in flat]


def best_span_each(rows: Sequence[SpanLogits], max_answer_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The best span of each row, as best_spans(top_n=1) picks it: arrays of
    s, e and score by row, read from one stacked band. Every row needs n >= 1."""
    band = span_band(rows, max_answer_len)
    width = band.shape[1]
    cells = np.array([logits.n for logits in rows]) * width
    offsets = np.cumsum(cells) - cells
    flat = band.ravel()
    score = np.maximum.reduceat(flat, offsets)
    hits = np.flatnonzero(flat == np.repeat(score, cells))
    best = hits[np.searchsorted(hits, offsets)] - offsets
    s = best // width + 1
    return s, s + best % width, score


def answerability(logits: SpanLogits, config: ScorerConfig = ScorerConfig()) -> float:
    """Highest span score over all candidates; -inf for an empty passage."""
    if logits.n == 0:
        return float("-inf")
    return float(span_band([logits], config.max_answer_len).max())


class LexicalScorer:
    """Deterministic logit source from question/passage token overlap.

    start[i] counts question tokens in the window [i, i+w-1] of passage
    tokens; end[i] counts over [i-w+1, i]. CLS logits are 0, so spans in
    overlap-dense regions score high and zero-overlap passages score 0.
    """

    def __init__(self, window: int = 5):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window

    def logits(self, question: str, passage_id: str, passage_text: str) -> SpanLogits:
        q_terms = set(terms(question))
        p_terms = terms(passage_text)
        n, w = len(p_terms), self.window
        # counts[w + i] is the number of hits among the first i passage
        # tokens: 0 before the passage, the total after it. Window sums of
        # 0/1 values are exact as differences of it.
        hits = np.fromiter(map(q_terms.__contains__, p_terms), dtype=np.float64, count=n)
        counts = np.zeros(n + 2 * w + 1)
        np.cumsum(hits, out=counts[w + 1 : w + n + 1])
        counts[w + n + 1 :] = counts[w + n]
        rows = np.zeros((2, n + 1))
        np.subtract(counts[2 * w : 2 * w + n], counts[w : w + n], out=rows[0, 1:])  # hits in [i, i+w-1]
        np.subtract(counts[w + 1 : w + n + 1], counts[1 : n + 1], out=rows[1, 1:])  # hits in [i-w+1, i]
        return SpanLogits(rows[0], rows[1])


class ExternalLogits:
    """Precomputed logits keyed by (question_id, passage_id).

    File format: line-delimited JSON
    {question_id, passage_id, start: [...], end: [...]}, index 0 = CLS.
    """

    def __init__(self, table: dict[tuple[str, str], SpanLogits]):
        self._table = table

    @classmethod
    def load(cls, lines: Iterable[str]) -> "ExternalLogits":
        table: dict[tuple[str, str], SpanLogits] = {}
        for i, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                logits = SpanLogits(rec["start"], rec["end"])
                key = (rec["question_id"], rec["passage_id"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
                raise ValueError(f"malformed logits record {i}: {e}") from e
            table[key] = logits
        return cls(table)

    @staticmethod
    def dump_record(question_id: str, passage_id: str, logits: SpanLogits) -> str:
        return json.dumps(
            {
                "question_id": question_id,
                "passage_id": passage_id,
                "start": logits.start.tolist(),
                "end": logits.end.tolist(),
            },
            sort_keys=True,
        )

    def lookup(self, question_id: str, passage_id: str) -> Optional[SpanLogits]:
        return self._table.get((question_id, passage_id))

    def validate_against(self, passage_texts: dict[str, str]) -> None:
        """Check stored logit lengths against passage token counts."""
        for (qid, pid), logits in self._table.items():
            if pid in passage_texts:
                n = word_count(passage_texts[pid])
                if logits.n != n:
                    raise ValueError(
                        f"logits for ({qid!r}, {pid!r}) cover {logits.n} tokens, passage has {n}"
                    )


def extract_answer(passage_text: str, span: SpanScore) -> str:
    """Character-level answer text for a token span (1-based indices)."""
    answer = token_range_text(passage_text, span.s, span.e, span.e)
    if answer is None:
        raise IndexError(f"span ({span.s}, {span.e}) runs past the passage's {word_count(passage_text)} tokens")
    return answer
