"""Extractive span scoring and answerability.

A span (s, e) over passage tokens (1-based; index 0 is the null/CLS slot)
scores start[s] + end[e] - start[0] - end[0]. The best-span enumerator and
the answerability score build directly on that. Logit sources are pluggable:
a deterministic lexical-overlap baseline and a loader for precomputed logits
produced offline by an external model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import terms, tokenize, word_count
from .scored import top_k

__all__ = [
    "SpanLogits",
    "SpanScore",
    "ScorerConfig",
    "span_score",
    "best_spans",
    "answerability",
    "LexicalScorer",
    "ExternalLogits",
]


@dataclass(frozen=True)
class SpanLogits:
    start: tuple[float, ...]  # length n+1, index 0 = CLS
    end: tuple[float, ...]

    def __post_init__(self):
        if len(self.start) != len(self.end):
            raise ValueError("start and end logit arrays must have equal length")
        if len(self.start) < 1:
            raise ValueError("logit arrays must include the CLS slot")
        for v in self.start + self.end:
            if not math.isfinite(v):
                raise ValueError("logits must be finite")

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
    return logits.start[s] + logits.end[e] - logits.start[0] - logits.end[0]


def best_spans(logits: SpanLogits, config: ScorerConfig = ScorerConfig()) -> list[SpanScore]:
    """All spans of length <= max_answer_len scored; top_n by descending
    score, ties by (ascending s, ascending e)."""
    n = logits.n
    if n == 0:
        return []
    width = min(config.max_answer_len, n)
    start, end = np.asarray(logits.start), np.asarray(logits.end)
    # band[s - 1, j] scores the span (s, s + j); the -inf padding stands for
    # the spans that would run past the passage end. Row-major order is
    # (s asc, e asc), the tie order.
    padded = np.concatenate([end[1:], np.full(width - 1, -np.inf)])
    band = (start[1:, None] + sliding_window_view(padded, width) - start[0] - end[0]).ravel()
    n_spans = n * width - width * (width - 1) // 2
    flat = top_k(band, np.arange(band.size), min(config.top_n, n_spans)).tolist()
    return [SpanScore(f // width + 1, f // width + 1 + f % width, float(band[f])) for f in flat]


def answerability(logits: SpanLogits, config: ScorerConfig = ScorerConfig()) -> float:
    """Highest span score over all candidates; -inf for an empty passage."""
    spans = best_spans(logits, replace(config, top_n=1))
    return spans[0].score if spans else float("-inf")


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
        # hit_count[i] is the number of hits among the first i passage tokens;
        # window sums of 0/1 values are exact as differences of it.
        hit_count = np.zeros(n + 1)
        np.cumsum([t in q_terms for t in p_terms], out=hit_count[1:])
        i = np.arange(1, n + 1)
        start = hit_count[np.minimum(i - 1 + w, n)] - hit_count[i - 1]
        end = hit_count[i] - hit_count[np.maximum(i - w, 0)]
        return SpanLogits((0.0, *start.tolist()), (0.0, *end.tolist()))


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
                logits = SpanLogits(tuple(rec["start"]), tuple(rec["end"]))
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
                "start": list(logits.start),
                "end": list(logits.end),
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
    tokens = tokenize(passage_text)
    first = tokens[span.s - 1]
    last = tokens[span.e - 1]
    return passage_text[first.start : last.end]
