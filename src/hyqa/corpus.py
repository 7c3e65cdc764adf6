"""Document ingestion, sentence segmentation, tokenization, and passage chunking.

Everything here is deterministic and pure: the same input always produces
byte-identical output. The tokenizer defined here is *the* definition of a
"word" for the whole system (chunk budgets, BM25 terms, encoder vocab).

A document is chunked from one sentence segmentation and one token-offset
pass (token_bounds): sentence word counts are differences of token start
offsets. A packed passage takes its sentence spans from the document's,
shifted to the passage start; a hard-split piece of an oversized sentence
is segmented again, because a piece can segment differently from the
document (the abbreviation look-back stops at the piece's start).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Iterator, Optional

import numpy as np

__all__ = [
    "Document",
    "TokenSpan",
    "Passage",
    "IngestError",
    "ingest_documents",
    "segment_sentences",
    "tokenize",
    "token_bounds",
    "terms",
    "distinct_terms",
    "word_count",
    "token_range_text",
    "chunk_retrieval_passages",
    "chunk_generation_passages",
]


class IngestError(Exception):
    """Malformed or duplicate record in a corpus stream."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Document:
    id: str
    title: str
    body: str
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TokenSpan:
    """Half-open character span [start, end) with its surface text."""

    start: int
    end: int
    surface: str


@dataclass(frozen=True)
class Passage:
    id: str
    doc_id: str
    text: str
    sentence_spans: tuple[TokenSpan, ...]
    word_count: int
    hard_split: bool = False


def ingest_documents(lines: Iterable[str]) -> Iterator[Document]:
    """Parse line-delimited JSON records {id, title?, text} into Documents.

    Raises IngestError (with the 1-based line number) on malformed records;
    a duplicate id rejects the later record.
    """
    seen: set[str] = set()
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            raise IngestError(line_no, f"invalid JSON: {e}") from e
        if not isinstance(record, dict):
            raise IngestError(line_no, "record is not a JSON object")
        doc_id = record.get("id")
        if not doc_id or not isinstance(doc_id, str):
            raise IngestError(line_no, "missing or empty 'id' field")
        body = record.get("text", record.get("body"))
        if not body or not isinstance(body, str):
            raise IngestError(line_no, "missing or empty 'text' field")
        if doc_id in seen:
            raise IngestError(line_no, f"duplicate document id {doc_id!r}")
        seen.add(doc_id)
        yield Document(
            id=doc_id,
            title=record.get("title", "") or "",
            body=body,
            meta={k: v for k, v in record.items() if k not in ("id", "title", "text", "body")},
        )


# Abbreviations whose trailing period never ends a sentence.
_ABBREVIATIONS = {
    "dr", "mr", "mrs", "ms", "prof", "st", "jr", "sr", "rev", "gen", "col",
    "sgt", "capt", "lt", "gov", "sen", "rep", "hon",
    "e.g", "i.e", "etc", "vs", "cf", "al", "et", "ca", "approx",
    "fig", "figs", "eq", "eqs", "sec", "ch", "vol", "no", "pp", "p",
    "jan", "feb", "mar", "apr", "jun", "jul", "aug", "sep", "sept", "oct",
    "nov", "dec", "mon", "tue", "wed", "thu", "fri", "sat", "sun",
}

_BOUNDARY_RE = re.compile(r"[.!?]+(?=\s+[A-Z0-9])")


def _is_abbreviation(text: str, punct_pos: int) -> bool:
    """True when the period at punct_pos terminates a guarded abbreviation."""
    if text[punct_pos] != ".":
        return False
    i = punct_pos - 1
    while i >= 0 and (text[i].isalnum() or text[i] == "."):
        i -= 1
    word = text[i + 1 : punct_pos].lower()
    if word in _ABBREVIATIONS:
        return True
    # Single letters ("J. Smith") and dotted initialisms ("U.S.") don't split.
    return len(word) == 1 or (len(word) > 1 and "." in word)


def segment_sentences(text: str) -> list[TokenSpan]:
    """Split text into sentence spans.

    A boundary is sentence-final punctuation (. ! ?) followed by whitespace
    and an uppercase letter or digit, except after common abbreviations.
    The whole text becomes one sentence if no boundary is found. Spans cover
    all non-whitespace content and tile the text in order.
    """
    boundaries = []
    for m in _BOUNDARY_RE.finditer(text):
        if _is_abbreviation(text, m.end() - 1):
            continue
        boundaries.append(m.end())

    spans = []
    start = 0
    for cut in boundaries:
        piece = text[start:cut]
        lead = len(piece) - len(piece.lstrip())
        s, e = start + lead, start + len(piece.rstrip())
        if e > s:
            spans.append(TokenSpan(s, e, text[s:e]))
        start = cut
    tail = text[start:]
    lead = len(tail) - len(tail.lstrip())
    s, e = start + lead, start + len(tail.rstrip())
    if e > s:
        spans.append(TokenSpan(s, e, text[s:e]))
    return spans


_TOKEN_RE = re.compile(r"[0-9A-Za-z]+")


def tokenize(text: str) -> list[TokenSpan]:
    """Lowercased maximal alphanumeric runs; punctuation dropped."""
    return [TokenSpan(m.start(), m.end(), m.group().lower()) for m in _TOKEN_RE.finditer(text)]


def token_bounds(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of the tokens of tokenize(text), as two int
    arrays, from one pass over the text's code points."""
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    word = np.zeros(len(codes) + 2, dtype=bool)
    # Unsigned wrap-around: below the range is above it. `| 32` lowercases
    # ASCII letters and maps no other code point into a-z.
    word[1:-1] = ((codes | 32) - 97 <= 25) | (codes - 48 <= 9)
    edges = np.flatnonzero(word[1:] != word[:-1])
    return edges[0::2], edges[1::2]


def terms(text: str) -> list[str]:
    """The surfaces of tokenize(text), without building spans.

    Each match is lowercased on its own: lowercasing the text first would
    turn some non-ASCII letters (KELVIN SIGN, dotted capital I) into ASCII
    ones and create tokens that tokenize does not see.
    """
    return [m.lower() for m in _TOKEN_RE.findall(text)]


def distinct_terms(texts: Iterable[str]) -> list[str]:
    """The sorted set of terms over texts. Each distinct raw surface is
    lowercased once, on its own, as terms lowercases each match."""
    return sorted({t.lower() for t in set(chain.from_iterable(map(_TOKEN_RE.findall, texts)))})


def word_count(text: str) -> int:
    return len(_TOKEN_RE.findall(text))


def token_range_text(text: str, first: int, last: int, count: int) -> Optional[str]:
    """The text from the start of token `first` to the end of token `last`
    (1-based, inclusive), as extract_answer cuts it from tokenize(text).

    One finditer pass over tokens `first`..`count` builds no TokenSpan;
    None when the text has fewer than `count` tokens.
    """
    tokens = list(islice(_TOKEN_RE.finditer(text), first - 1, count))
    if len(tokens) <= count - first:
        return None
    return text[tokens[0].start() : tokens[last - first].end()]


def _chunk(doc: Document, max_units: int) -> list[Passage]:
    """Greedy sentence packing with hard-splitting of oversized sentences."""
    if max_units < 1:
        raise ValueError("max_units must be >= 1")
    body = doc.body
    sentences = segment_sentences(body)
    starts = token_bounds(body)[0]
    # No token crosses a sentence cut, so a sentence's tokens are those
    # starting inside it.
    bounds = np.searchsorted(starts, [x for sent in sentences for x in (sent.start, sent.end)]).tolist()
    passages: list[Passage] = []
    current: list[TokenSpan] = []
    current_units = 0

    def emit(text: str, spans: tuple[TokenSpan, ...], units: int, hard_split: bool = False):
        passages.append(Passage(f"{doc.id}#{len(passages)}", doc.id, text, spans, units, hard_split))

    def flush():
        nonlocal current_units
        if current:
            base = current[0].start
            spans = tuple(TokenSpan(s.start - base, s.end - base, s.surface) for s in current)
            emit(body[base : current[-1].end], spans, current_units)
            current.clear()
            current_units = 0

    for sent, lo, hi in zip(sentences, bounds[0::2], bounds[1::2]):
        units = hi - lo
        if units > max_units:
            # Oversized single sentence: flush, then hard-split at word
            # boundaries into max_units-sized pieces, each segmented anew.
            flush()
            cuts = starts[lo:hi:max_units].tolist() + [sent.end]
            for i in range(len(cuts) - 1):
                text = body[cuts[i] : cuts[i + 1]].rstrip()
                emit(text, tuple(segment_sentences(text)), min(max_units, units - i * max_units), hard_split=True)
            continue
        if current_units + units > max_units:
            flush()
        current.append(sent)
        current_units += units
    flush()
    return passages


def chunk_retrieval_passages(doc: Document, max_words: int = 120) -> list[Passage]:
    """Sentence-aligned passages of at most max_words words (retrieval units)."""
    return _chunk(doc, max_words)


def chunk_generation_passages(doc: Document, max_tokens: int = 288) -> list[Passage]:
    """Larger sentence-aligned passages used as generation contexts."""
    return _chunk(doc, max_tokens)


def passage_to_record(p: Passage) -> dict:
    return {
        "id": p.id,
        "doc_id": p.doc_id,
        "text": p.text,
        "word_count": p.word_count,
        "sentences": [[s.start, s.end] for s in p.sentence_spans],
        "hard_split": p.hard_split,
    }


def passage_from_record(record: dict) -> Passage:
    text = record["text"]
    return Passage(
        id=record["id"],
        doc_id=record["doc_id"],
        text=text,
        sentence_spans=tuple(TokenSpan(s, e, text[s:e]) for s, e in record["sentences"]),
        word_count=record["word_count"],
        hard_split=record.get("hard_split", False),
    )
