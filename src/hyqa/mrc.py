"""Extractive span scoring and answerability.

A span (s, e) over passage tokens (1-based; index 0 is the null/CLS slot)
scores start[s] + end[e] - start[0] - end[0]. Both span searches lay out
the end logits with _padded_end. The best-span enumerator, best_spans,
ranks every span score of one passage, n * width values. The best span of
each row of stacked logit rows (best_span_each, which answerability and the
K-passage reader call) needs only a sliding maximum of the end logits,
ceil(log2 width) passes over about sum(n) values, and the width cells of
one start per row.

Logit sources are pluggable, and logit_rows is the one function that
knows their protocol: it scores (question, passage) pairs as one LogitRows
with a row per pair. A scorer has .logits(question, passage_id,
passage_text) -> SpanLogits or None (None when it cannot score the pair),
and may have .logits_pairs(questions, passage_ids, texts) -> LogitRows,
which scores every pair in one pass. A .logits_pairs row covers exactly
its text's tokens; a .logits row, the way logits from outside the program
come in, may cover fewer, and logit_rows refuses one that covers more.
Bundled are a deterministic lexical-overlap baseline (which has both) and
precomputed logits produced offline by an external model (.logits only).

The CLI's --logits file is held to a stricter length rule on purpose:
ExternalLogits.validate_against refuses, before any work starts, a stored
row whose length is not its passage's token count, shorter rows included.
A short row is well-defined for logit_rows (a model with a maximum
sequence length scores a prefix of a long passage, and no span past the
row is proposed), so the library reads it. The file, though, is scored
offline against one passage file, and a row of any other length there
means it was scored against other passages or another tokenization: each
span it proposes would sit at the wrong tokens. The CLI sees the whole file
and every passage before answering, so it can refuse that in one line.

cut_answers is the one answer cutter: the text of a token span of each of
several passages, from one token-offset pass over just those passages;
extract_answer is its one-passage case.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .corpus import check_count, check_counts, read_jsonl, terms, token_bounds
from .scored import top_k

__all__ = [
    "SpanLogits",
    "LogitRows",
    "stack_logits",
    "SpanScore",
    "ScorerConfig",
    "span_score",
    "best_spans",
    "best_span_each",
    "answerability",
    "logit_rows",
    "LexicalScorer",
    "ExternalLogits",
    "cut_answers",
    "extract_answer",
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


@dataclass(frozen=True, eq=False)
class LogitRows:
    """Logit rows of several passages stacked by token: `start` and `end`
    hold every row's logits 1..n back to back (sum(n) float64 values),
    `cls_start` and `cls_end` each row's CLS pair, and `n` each row's token
    count. A row with n = 0 holds no token logits."""

    start: np.ndarray
    end: np.ndarray
    cls_start: np.ndarray
    cls_end: np.ndarray
    n: np.ndarray

    def nonempty(self) -> tuple[np.ndarray, "LogitRows"]:
        """The positions of the rows with n >= 1, and those rows. Rows with
        n = 0 hold no token logits, so the token arrays stay as they are."""
        read = np.flatnonzero(self.n)
        return read, LogitRows(self.start, self.end, self.cls_start[read], self.cls_end[read], self.n[read])


def stack_logits(rows: Sequence[SpanLogits]) -> LogitRows:
    """The LogitRows of the SpanLogits, in order; none give zero rows."""
    none = [np.zeros(0)]
    return LogitRows(
        np.concatenate([logits.start[1:] for logits in rows] or none),
        np.concatenate([logits.end[1:] for logits in rows] or none),
        np.array([logits.start[0] for logits in rows], dtype=np.float64),
        np.array([logits.end[0] for logits in rows], dtype=np.float64),
        np.array([logits.n for logits in rows], dtype=np.intp),
    )


@dataclass(frozen=True)
class SpanScore:
    s: int
    e: int
    score: float


MAX_ANSWER_LEN = 30  # the longest answer span the reader and the filter read, in tokens


@dataclass(frozen=True)
class ScorerConfig:
    max_answer_len: int = MAX_ANSWER_LEN
    top_n: int = 10

    def __post_init__(self):
        check_counts(self)


def span_score(logits: SpanLogits, s: int, e: int) -> float:
    if not (1 <= s <= e <= logits.n):
        raise IndexError(f"span ({s}, {e}) out of range for n={logits.n}")
    return float(logits.start[s] + logits.end[e] - logits.start[0] - logits.end[0])


def _padded_end(rows: LogitRows, max_answer_len: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The window width, min(max_answer_len, max(1, the longest n)); every
    row's end logits 1..n, each row followed by width - 1 cells of -inf so
    that no window of width cells from a row's token reaches the next row;
    and the position of each token in that layout: row k's tokens sit
    k * (width - 1) cells past their position among all rows' tokens."""
    n = rows.n
    width = min(max_answer_len, int(n.max(initial=1)))
    window = np.arange(len(rows.end)) + np.repeat(np.arange(len(n)) * (width - 1), n)
    end = np.full(len(rows.end) + len(n) * (width - 1), -np.inf)
    end[window] = rows.end
    return end, window, width


def _span_cells(end: np.ndarray, window: np.ndarray, width: int, start, cls_start, cls_end) -> np.ndarray:
    """cells[i, j] = ((end[window[i] + j] + start[i]) - cls_start) -
    cls_end, in that IEEE order: the score of the span from token i's start
    to the token j past it, over _padded_end's layout. The CLS logits are
    scalars, or columns with one entry per row of window."""
    cells = end[window[:, None] + np.arange(width)]
    cells += start[:, None]
    cells -= cls_start
    cells -= cls_end
    return cells


def best_spans(logits: SpanLogits, config: ScorerConfig = ScorerConfig()) -> list[SpanScore]:
    """All spans of length <= max_answer_len scored; top_n by descending
    score, ties by (ascending s, ascending e)."""
    n = logits.n
    end, window, width = _padded_end(stack_logits([logits]), config.max_answer_len)
    # cells[s - 1, j] scores the span (s, s + j); a span past n scores -inf,
    # so the row-major order of the cells is the (s asc, e asc) tie order.
    scores = _span_cells(end, window, width, logits.start[1:], logits.start[0], logits.end[0]).ravel()
    n_spans = n * width - width * (width - 1) // 2
    flat = top_k(scores, np.arange(scores.size), min(config.top_n, n_spans)).tolist()
    return [SpanScore(f // width + 1, f // width + 1 + f % width, float(scores[f])) for f in flat]


def best_span_each(rows: LogitRows, max_answer_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The best span of each row, as best_spans(top_n=1) picks it: arrays of
    s, e and score by row, the first maximum of best_spans' cells in
    (s asc, e asc) order, found without building every cell.

    A span's score rounds monotonically in its end logit, so the best score
    of the spans from start s is the score of the largest end logit in s's
    window of width cells. The windows' maxima take ceil(log2 width) passes
    over the padded end logits; the cells of one start per row are then
    built as best_spans builds them, to find the first end that reaches the
    row's best. The working set is O(sum(n) + rows * width) float64 values.
    No rows give three empty arrays (s and e intp, score float64). A row
    with n = 0, or a max_answer_len below 1, is a ValueError.
    """
    max_answer_len = check_count("max_answer_len", max_answer_len)
    n = rows.n
    empty = np.flatnonzero(n == 0)
    if empty.size:
        raise ValueError(f"logit row {empty[0]} has no tokens; best_span_each reads rows with n >= 1")
    end, window, width = _padded_end(rows, max_answer_len)
    # After each pass, winmax[i] is the maximum of end[i : i + covered].
    winmax, covered = end, 1
    while covered < width:
        step = min(covered, width - covered)
        winmax = np.maximum(winmax[:-step], winmax[step:])
        covered += step
    # The score of each start's best span, with best_spans' operations.
    score = ((winmax[window] + rows.start) - np.repeat(rows.cls_start, n)) - np.repeat(rows.cls_end, n)
    offsets = np.cumsum(n) - n
    best = np.maximum.reduceat(score, offsets)
    hits = np.flatnonzero(score == np.repeat(best, n))
    first = hits[np.searchsorted(hits, offsets)]
    # Two end logits can round to the same score: the first such end wins.
    cells = _span_cells(end, window[first], width, rows.start[first], rows.cls_start[:, None], rows.cls_end[:, None])
    j = np.argmax(cells == best[:, None], axis=1)
    s = first - offsets + 1
    return s, s + j, cells[np.arange(len(n)), j]


def answerability(logits: SpanLogits, config: ScorerConfig = ScorerConfig()) -> float:
    """Highest span score over all candidates; -inf for an empty passage."""
    if logits.n == 0:
        return float("-inf")
    return float(best_span_each(stack_logits([logits]), config.max_answer_len)[2][0])


_UNSCORED = SpanLogits((0.0,), (0.0,))


def logit_rows(
    scorer, questions: Sequence[str], passage_ids: Sequence[str], texts: Sequence[str]
) -> tuple[LogitRows, np.ndarray]:
    """The logits of each (question, passage id, text) triple, one row per
    pair in order, and a bool mask of the pairs the scorer scored.

    A scorer with .logits_pairs scores every pair in one call. Otherwise
    each pair's .logits row is stacked, and a pair it returns None for is
    unscored: its row has n = 0 and CLS logits 0, as has a scored pair
    whose passage has no tokens, so only the mask tells the two apart.
    A .logits row is checked against its text, since logits from outside
    the program come in there: one with more token logits than the text
    has tokens is a ValueError naming the first such passage.
    """
    if hasattr(scorer, "logits_pairs"):
        return scorer.logits_pairs(questions, passage_ids, texts), np.ones(len(texts), dtype=bool)
    rows = [scorer.logits(q, pid, text) for q, pid, text in zip(questions, passage_ids, texts)]
    for row, pid, text in zip(rows, passage_ids, texts):
        if row is not None and row.n and row.n > len(terms(text)):
            raise ValueError(f"logits for passage {pid!r} cover {row.n} tokens, more than the passage has")
    scored = np.array([row is not None for row in rows], dtype=bool)
    return stack_logits([_UNSCORED if row is None else row for row in rows]), scored


LEXICAL_WINDOW = 5  # LexicalScorer's window, in tokens


class LexicalScorer:
    """Deterministic logit source from question/passage token overlap.

    start[i] counts question tokens in the window [i, i+w-1] of passage
    tokens, w = LEXICAL_WINDOW; end[i] counts over [i-w+1, i]; windows stop
    at the passage's own ends. CLS logits are 0, so spans in overlap-dense
    regions score high and zero-overlap passages score 0.

    A scorer tokenizes each distinct passage text once: it keeps the text's
    int32 term ids against its own surface -> id map, keyed by the text,
    for its lifetime. That costs 4 bytes per token and one dict entry per
    distinct text read: about 3 MB if every passage of the benchmark's
    ~6.6k-passage qa-hybrid corpus is read, 0.6 MB for the ~1.9k that its
    seed-1 questions read. A text's first read costs more than a plain
    terms() pass, each later read one gather, so a scorer pays off over
    texts it reads again; one that reads a changing stream of texts should
    be replaced now and then.
    """

    def __init__(self):
        # surface -> id: looking up an unseen surface gives it the next id.
        self._term_ids: defaultdict[str, int] = defaultdict(count().__next__)
        self._text_ids: dict[str, np.ndarray] = {}

    def logits(self, question: str, passage_id: str, passage_text: str) -> SpanLogits:
        stacked = self.logits_pairs([question], [passage_id], [passage_text])
        rows = np.zeros((2, len(stacked.start) + 1))  # CLS logits 0
        rows[0, 1:] = stacked.start
        rows[1, 1:] = stacked.end
        return SpanLogits(rows[0], rows[1])

    def _ids(self, text: str) -> np.ndarray:
        """The term ids of the text's tokens, in order; interned on first read."""
        ids = self._text_ids.get(text)
        if ids is None:
            ids = np.fromiter(map(self._term_ids.__getitem__, terms(text)), dtype=np.int32)
            self._text_ids[text] = ids
        return ids

    def logits_pairs(self, questions: Sequence[str], passage_ids: Sequence[str], texts: Sequence[str]) -> LogitRows:
        """The logits of every text for its question, stacked: one gather of
        the questions' hit masks at all texts' term ids, and one prefix
        count. Each distinct question's terms are taken once, after the
        texts are interned, so a question term no text holds has no id and
        hits nothing; passage ids are not read. The mask holds a byte per
        distinct question and term the scorer has interned."""
        rows = [self._ids(text) for text in texts]
        q_row: dict[str, int] = {}
        for question in questions:
            q_row.setdefault(question, len(q_row))
        mask = np.zeros((len(q_row), len(self._term_ids)), dtype=bool)
        for question, i in q_row.items():
            mask[i, [t for t in map(self._term_ids.get, terms(question)) if t is not None]] = True
        n = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        total, w = int(n.sum()), LEXICAL_WINDOW
        ids = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int32)
        q_of = np.fromiter(map(q_row.__getitem__, questions), dtype=np.intp, count=len(questions))
        hits = mask[np.repeat(q_of, n), ids]
        # counts[i] is the number of hits among the first i tokens. Window
        # sums of 0/1 values are exact as differences of it.
        counts = np.zeros(total + 1)
        np.cumsum(hits, out=counts[1:])
        # Token i's passage covers tokens [lo, hi) of all texts' tokens.
        ends = np.cumsum(n)
        hi = np.repeat(ends, n)
        lo = np.repeat(ends - n, n)
        start = counts[np.minimum(np.arange(w, total + w), hi)] - counts[:-1]  # hits in [i, i+w-1]
        end = counts[1:] - counts[np.maximum(np.arange(1 - w, total + 1 - w), lo)]  # hits in [i-w+1, i]
        cls = np.zeros(len(rows))
        return LogitRows(start, end, cls, cls, n)


class ExternalLogits:
    """Precomputed logits keyed by (question_id, passage_id).

    File format: line-delimited JSON
    {question_id, passage_id, start: [...], end: [...]}, index 0 = CLS.
    .logits finds a question's id in `question_ids`; a question that map
    does not name is its own id.
    """

    def __init__(self, table: dict[tuple[str, str], SpanLogits], question_ids: Optional[Mapping[str, str]]):
        self._table = table
        self._question_ids = question_ids or {}

    @staticmethod
    def parse_record(record: dict) -> tuple[tuple[str, str], SpanLogits]:
        """The (question_id, passage_id) key and the logits of one record."""
        return (record["question_id"], record["passage_id"]), SpanLogits(record["start"], record["end"])

    @classmethod
    def from_records(
        cls, records: Iterable[tuple[tuple[str, str], SpanLogits]], question_ids: Optional[Mapping[str, str]] = None
    ) -> "ExternalLogits":
        """The table of parsed records; a repeated key is a ValueError."""
        table: dict[tuple[str, str], SpanLogits] = {}
        for key, logits in records:
            if table.setdefault(key, logits) is not logits:
                raise ValueError(f"duplicate logits record for {key!r}")
        return cls(table, question_ids)

    @classmethod
    def load(cls, lines: Iterable[str]) -> "ExternalLogits":
        """The table of a JSONL stream of records; a malformed record
        raises IngestError (read_jsonl)."""
        return cls.from_records(read_jsonl(lines, cls.parse_record))

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

    def logits(self, question: str, passage_id: str, passage_text: str) -> Optional[SpanLogits]:
        """The stored logits of the question's id and the passage, or None."""
        return self.lookup(self._question_ids.get(question, question), passage_id)

    def validate_against(self, passage_texts: dict[str, str]) -> None:
        """Check that each stored row covers exactly its passage's tokens,
        a stricter rule than logit_rows'; the module docstring says why.
        Each distinct passage is tokenized once, however many questions
        its rows answer."""
        pids = {pid for _, pid in self._table}
        n_tokens = {pid: len(terms(passage_texts[pid])) for pid in pids if pid in passage_texts}
        for (qid, pid), logits in self._table.items():
            n = n_tokens.get(pid)
            if n is not None and logits.n != n:
                raise ValueError(f"logits for ({qid!r}, {pid!r}) cover {logits.n} tokens, passage has {n}")


def cut_answers(texts: Sequence[str], starts: Sequence[int], ends: Sequence[int]) -> list[str]:
    """The character-level text of each texts[i]'s token span (starts[i],
    ends[i]) (1-based), from one token_bounds pass over the texts joined by
    "\n"; a span outside its text's tokens is an IndexError."""
    # No token crosses the "\n" between two texts, so the tokens of the
    # joined text are those of each text in turn.
    joined = "\n".join(texts)
    tok_starts, tok_ends = token_bounds(joined)
    first = np.searchsorted(tok_starts, np.cumsum([0] + [len(text) + 1 for text in texts]))
    s, e, n = np.asarray(starts, dtype=np.intp), np.asarray(ends, dtype=np.intp), np.diff(first)
    outside = np.flatnonzero((s < 1) | (s > e) | (e > n))
    if outside.size:
        k = outside[0]
        raise IndexError(f"span ({s[k]}, {e[k]}) is outside the passage's {n[k]} tokens")
    a, b = tok_starts[first[:-1] + s - 1].tolist(), tok_ends[first[:-1] + e - 1].tolist()
    return [joined[i:j] for i, j in zip(a, b)]


def extract_answer(passage_text: str, span: SpanScore) -> str:
    """Character-level answer text for a token span (1-based indices)."""
    return cut_answers([passage_text], [span.s], [span.e])[0]
