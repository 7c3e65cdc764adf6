"""Document ingestion, sentence segmentation, tokenization, and passage chunking.

Everything here is deterministic and pure: the same input always produces
byte-identical output. The tokenizer defined here is *the* definition of a
"word" for the whole system (chunk budgets, BM25 terms, encoder vocab).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "Document",
    "TokenSpan",
    "Passage",
    "IngestError",
    "ingest_documents",
    "segment_sentences",
    "tokenize",
    "terms",
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


def terms(text: str) -> list[str]:
    """The surfaces of tokenize(text), without building spans.

    Each match is lowercased on its own: lowercasing the text first would
    turn some non-ASCII letters (KELVIN SIGN, dotted capital I) into ASCII
    ones and create tokens that tokenize does not see.
    """
    return [m.lower() for m in _TOKEN_RE.findall(text)]


def word_count(text: str) -> int:
    return sum(1 for _ in _TOKEN_RE.finditer(text))


def _rebase_sentences(passage_text: str) -> tuple[TokenSpan, ...]:
    return tuple(segment_sentences(passage_text))


def _make_passage(doc: Document, idx: int, text: str, hard_split: bool = False) -> Passage:
    return Passage(
        id=f"{doc.id}#{idx}",
        doc_id=doc.id,
        text=text,
        sentence_spans=_rebase_sentences(text),
        word_count=word_count(text),
        hard_split=hard_split,
    )


def _chunk(doc: Document, max_units: int) -> list[Passage]:
    """Greedy sentence packing with hard-splitting of oversized sentences."""
    if max_units < 1:
        raise ValueError("max_units must be >= 1")
    sentences = segment_sentences(doc.body)
    passages: list[Passage] = []
    idx = 0
    current: list[TokenSpan] = []
    current_units = 0

    def flush():
        nonlocal current, current_units, idx
        if current:
            text = doc.body[current[0].start : current[-1].end]
            passages.append(_make_passage(doc, idx, text))
            idx += 1
            current = []
            current_units = 0

    for sent in sentences:
        units = word_count(sent.surface)
        if units > max_units:
            # Oversized single sentence: flush, then hard-split at word
            # boundaries into max_units-sized pieces.
            flush()
            tokens = tokenize(sent.surface)
            for i in range(0, len(tokens), max_units):
                group = tokens[i : i + max_units]
                piece_start = sent.start + group[0].start
                if i + max_units < len(tokens):
                    piece_end = sent.start + tokens[i + max_units].start
                else:
                    piece_end = sent.end
                text = doc.body[piece_start:piece_end].rstrip()
                passages.append(_make_passage(doc, idx, text, hard_split=True))
                idx += 1
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
