"""Document ingestion, sentence segmentation, tokenization, and passage chunking.

Everything here is deterministic and pure: the same input always produces
byte-identical output. The tokenizer defined here is *the* definition of a
"word" for the whole system (chunk budgets, BM25 terms, encoder vocab,
reader logits, answer cuts, generation decoding).

A document is chunked from one token-offset pass (token_bounds) and only
the sentence boundaries where its passages end: a passage whose first
word is word k holds whole sentences up to the start of word k +
budget, so it ends at the last boundary before that offset, found by
scanning back from it (_last_cut). No sentence inside a passage is
segmented, and word counts are differences of token indexes.
_BOUNDARY_RE and _is_abbreviation are the one definition of a boundary,
for chunking and segment_sentences alike. A passage's sentences are
segment_sentences(passage.text).

A word is a maximal run of [0-9A-Za-z], lowercased; any other character
separates words. terms (the tokenizer of every index and of the reader)
and token_bounds read one projection of a text, _word_bytes: one byte per
code point, a lowercase ASCII letter or digit for a word character and a
space for any other. tokenize is the regex reference they equal.

token_table interns the terms of many texts in one pass: the sorted
distinct terms, and each text's tokens as ids into them. The BM25 index
and the encoder vocabulary are both read from it, and built one after the
other over the same passages they share one table (see token_table). The
reader's mrc.LexicalScorer interns apart: each text on its
first read, against ids it gives in first-seen order.

sharded is the one splitter of a loop over blocks of items: contiguous
shards of whole blocks, one per usable CPU, all but the first in forked
processes. token_table interns through it, and so do
syngen.generate_corpus and syngen.build_ir_training_set. A table's ids are
ranks in its sorted terms, so no table depends on the split.

check_count is the one check of a count: an integer, not a bool, at
least its least, returned as an int. check_counts applies it to every int
field of a config, and stores each float field as a float; each config's
__post_init__ calls it once.
"""

from __future__ import annotations

import json
import numbers
import operator
import os
import pickle
import re
import signal
import threading
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field, fields
from itertools import chain, count
from pathlib import Path
from typing import Callable, Iterable, NoReturn, Optional, TypeVar

import numpy as np

__all__ = [
    "Document",
    "TokenSpan",
    "Passage",
    "IngestError",
    "check_count",
    "check_counts",
    "read_jsonl",
    "write_jsonl",
    "ingest_documents",
    "segment_sentences",
    "tokenize",
    "token_bounds",
    "terms",
    "TokenTable",
    "token_table",
    "sharded",
    "chunk_retrieval_passages",
    "chunk_generation_passages",
    "passage_to_record",
    "passage_from_record",
]

T = TypeVar("T")
RETRIEVAL_MAX_WORDS = 120  # the default retrieval passage budget, in words


class IngestError(ValueError):
    """A malformed record in a JSONL stream, located by its 1-based line
    and, when given, its source: "<source> line N: <reason>"."""

    def __init__(self, line_no: int, reason: str, source: Optional[str]):
        where = f"line {line_no}" if source is None else f"{source} line {line_no}"
        super().__init__(f"{where}: {reason}")
        self.line_no = line_no
        self.source = source


def check_count(name: str, value, least: int = 1) -> int:
    """`value` as an int, so a numpy integer becomes one. A bool, or a
    value with no __index__, is a ValueError "<name> must be an integer,
    not <value>"; a value below `least` is "<name> must be >= <least>"."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None:
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if number < least:
        raise ValueError(f"{name} must be >= {least}")
    return number


def check_counts(config, zero: tuple[str, ...] = ("seed",)) -> None:
    """Check each int and float field of the dataclass `config` and store
    it as an int or a float, so a numpy number is held (and recorded) as
    one. An int field is check_count's, with least 0 for a field named in
    `zero` and 1 for any other; a float field that is a bool or not a real
    number is a ValueError "<field> must be a number, not <value>". Range
    checks of float fields are the config's own."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in (int, "int"):
            value = check_count(f.name, value, 0 if f.name in zero else 1)
        elif f.type in (float, "float"):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{f.name} must be a number, not {value!r}")
            value = float(value)
        else:
            continue
        object.__setattr__(config, f.name, value)


def read_jsonl(lines: Iterable[str], from_record: Callable[[dict], T], source: Optional[str] = None) -> list[T]:
    """from_record of each JSON object line; blank lines are skipped.

    A line that is not a JSON object, lacks a key that from_record reads
    or is refused by from_record (ValueError or TypeError) raises
    IngestError naming its 1-based line and `source`, a label for the
    message only.
    """
    records = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("record is not a JSON object")
            records.append(from_record(record))
        except json.JSONDecodeError as e:
            raise IngestError(line_no, f"invalid JSON: {e.msg} at column {e.colno}", source) from e
        except KeyError as e:
            raise IngestError(line_no, f"missing key {e}", source) from e
        except (TypeError, ValueError) as e:
            raise IngestError(line_no, str(e), source) from e
    return records


def write_jsonl(path: Path, records: Iterable[dict]) -> None:
    """One sorted-key JSON object per line."""
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


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
    word_count: int
    hard_split: bool = False


def ingest_documents(lines: Iterable[str], source: Optional[str] = None) -> list[Document]:
    """Parse line-delimited JSON records {id, title?, text} into Documents.

    A malformed record raises IngestError (read_jsonl); a duplicate id
    rejects the later record.
    """
    seen: set[str] = set()

    def document(record: dict) -> Document:
        doc_id = record.get("id")
        if not doc_id or not isinstance(doc_id, str):
            raise ValueError("missing or empty 'id' field")
        body = record.get("text", record.get("body"))
        if not body or not isinstance(body, str):
            raise ValueError("missing or empty 'text' field")
        if doc_id in seen:
            raise ValueError(f"duplicate document id {doc_id!r}")
        seen.add(doc_id)
        return Document(
            id=doc_id,
            title=record.get("title", "") or "",
            body=body,
            meta={k: v for k, v in record.items() if k not in ("id", "title", "text", "body")},
        )

    return read_jsonl(lines, document, source)


# Abbreviations whose trailing period never ends a sentence.
_ABBREVIATIONS = {
    "dr", "mr", "mrs", "ms", "prof", "st", "jr", "sr", "rev", "gen", "col",
    "sgt", "capt", "lt", "gov", "sen", "rep", "hon",
    "e.g", "i.e", "etc", "vs", "cf", "al", "et", "ca", "approx",
    "fig", "figs", "eq", "eqs", "sec", "ch", "vol", "no", "pp", "p",
    "jan", "feb", "mar", "apr", "jun", "jul", "aug", "sep", "sept", "oct",
    "nov", "dec", "mon", "tue", "wed", "thu", "fri", "sat", "sun",
}

# A boundary: a run of sentence-final punctuation followed by a whitespace
# run and an uppercase letter or digit. Group 1 is the whitespace run, so a
# match's span(1) is (the cut, the next sentence's start). The run is spelled
# [.!?][.!?]* rather than [.!?]+ on purpose: both match the same text, but
# sre skips ahead to the next candidate in C (its charset-prefix scan) only
# when a pattern opens with a plain character class, not with a repeat.
_BOUNDARY_RE = re.compile(r"[.!?][.!?]*(?=(\s+)[A-Z0-9])")


def _is_abbreviation(text: str, punct_pos: int) -> bool:
    """True when the period at punct_pos terminates a guarded abbreviation."""
    if text[punct_pos] != ".":
        return False
    # The word is the run of alphanumerics and periods before punct_pos.
    # When the text since the last space is all such characters, that is
    # the word; otherwise walk back to the first other character (a tab,
    # a no-break space, a bracket).
    word = text[text.rfind(" ", 0, punct_pos) + 1 : punct_pos]
    letters = word.replace(".", "")
    if letters and not letters.isalnum():
        i = punct_pos - 1
        while i >= 0 and (text[i].isalnum() or text[i] == "."):
            i -= 1
        word = text[i + 1 : punct_pos]
    word = word.lower()
    if word in _ABBREVIATIONS:
        return True
    # Single letters ("J. Smith") and dotted initialisms ("U.S.") don't split.
    return len(word) == 1 or (len(word) > 1 and "." in word)


def _sentence_bounds(text: str) -> list[tuple[int, int]]:
    """The (start, end) offsets of segment_sentences(text), without
    building a span or a surface string per sentence.

    A cut ends a punctuation run, so the sentence before it ends there; the
    whitespace run after it is the next sentence's lead. Only the text's
    own lead and trailing whitespace are stripped.
    """
    starts = [len(text) - len(text.lstrip())]
    ends = []
    for m in _BOUNDARY_RE.finditer(text):
        cut, start = m.span(1)
        if not _is_abbreviation(text, cut - 1):
            ends.append(cut)
            starts.append(start)
    ends.append(len(text.rstrip()))
    # Only a blank text, which has no cut, has an empty last sentence.
    return list(zip(starts, ends)) if ends[-1] > starts[-1] else []


def segment_sentences(text: str) -> list[TokenSpan]:
    """Split text into sentence spans.

    A boundary is sentence-final punctuation (. ! ?) followed by whitespace
    and an uppercase letter or digit, except after common abbreviations.
    The whole text becomes one sentence if no boundary is found. Spans cover
    all non-whitespace content and tile the text in order.
    """
    return [TokenSpan(s, e, text[s:e]) for s, e in _sentence_bounds(text)]


_TOKEN_RE = re.compile(r"[0-9A-Za-z]+")


def tokenize(text: str) -> list[TokenSpan]:
    """Lowercased maximal alphanumeric runs; punctuation dropped."""
    return [TokenSpan(m.start(), m.end(), m.group().lower()) for m in _TOKEN_RE.finditer(text)]


# Byte table of _word_bytes: A-Z to a-z, 0-9 and a-z kept, every other
# byte (the "?" of a non-ASCII code point too) to a space.
_ASCII_TERMS = bytes(
    b | 32 if 65 <= b <= 90 else b if 48 <= b <= 57 or 97 <= b <= 122 else 32 for b in range(256)
)


def _word_bytes(text: str) -> bytes:
    """The text's words, lowercased, and spaces, one byte per code point.
    Every non-ASCII code point (lone surrogates and astral ones too)
    encodes as "?", a separator, so no character is lowercased before it
    is known to be a word character: KELVIN SIGN makes no "k"."""
    return text.encode("ascii", "replace").translate(_ASCII_TERMS)


def token_bounds(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of the tokens of tokenize(text), as two int
    arrays: the edges of the non-space runs of _word_bytes(text), whose
    byte positions are the text's code-point offsets."""
    word = np.frombuffer(b" " + _word_bytes(text) + b" ", dtype=np.uint8) != 32
    edges = np.flatnonzero(word[1:] != word[:-1])
    return edges[0::2], edges[1::2]


def terms(text: str) -> list[str]:
    """The surfaces of tokenize(text), without building spans: the words
    of _word_bytes(text), split on its spaces."""
    return _word_bytes(text).decode("ascii").split()


def sharded(n: int, block: int, work: Callable[[int, int], T]) -> list[T]:
    """work(lo, hi) over contiguous shards of range(n), their results in
    shard order.

    There is one shard per usable CPU (os.sched_getaffinity), each a whole
    number of `block`s and at least one, so every block holds the items a
    serial loop over range(0, n, block) gives it. Shard 0 runs here; each
    other shard runs in an os.fork child, which sends back only its pickled
    result, or its exception, through a pipe. With one usable CPU, fewer
    than two blocks, no os.fork or os.sched_getaffinity (off Linux), or
    another Python thread running in this process, there is one shard, so
    nothing is forked and work(0, n) runs here: a lock another thread holds
    at the fork would stay held in the child for good.

    A stage's `work` (token_table's interning, syngen's generate and
    mine) reads only its own shard's items and state that no shard
    writes, and its blocks are the serial loop's, so no result depends on
    the split. The first exception in shard order is raised, which is the
    one a serial loop raises first; an exception a child cannot pickle, or
    a child that dies, is a RuntimeError. Every child is reaped before
    this returns or raises.
    """
    blocks = -(-n // block)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1
    shards = 1 if threading.active_count() > 1 else max(1, min(cpus, blocks))
    bounds = [min(n, s * blocks // shards * block) for s in range(shards + 1)]
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe), in shard order
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _send(write, work, lo, hi)
            os.close(write)
            children.append((pid, read))
        results = [work(bounds[0], bounds[1])]
        results += [_receive(pid, read) for pid, read in children]
        return results
    finally:
        # A child whose result was read has exited or is exiting, so the
        # kill stops only those left running by an exception here.
        for pid, read in children:
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _send(write: int, work: Callable[[int, int], T], lo: int, hi: int) -> NoReturn:
    """In a forked child: write the pickled (True, work(lo, hi)), or
    (False, its exception), to the pipe `write`, then exit without running
    any of the parent's exit handlers."""
    status = 1
    try:
        try:
            reply = (True, work(lo, hi))
        except Exception as e:
            reply = (False, e)
        data = memoryview(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        while data:
            data = data[os.write(write, data) :]
        # The end of file reaches the parent now, not once this process's
        # memory has been torn down.
        os.close(write)
        status = 0
    finally:
        os._exit(status)


def _receive(pid: int, read: int):
    """The result child `pid` sent through the pipe `read`, unpickled as it
    is read rather than from a copy of all its bytes; its exception is
    raised here."""
    try:
        ok, value = pickle.load(open(read, "rb", closefd=False))
    except Exception:
        raise RuntimeError(f"shard process {pid} ended without a readable result") from None
    if not ok:
        raise value
    return value


@dataclass(frozen=True, eq=False)
class TokenTable:
    """The terms of a sequence of texts, interned: `terms` (sorted,
    distinct), `ids` (int32, every token of every text in order, as its
    index in `terms`) and `offsets` (int64, len(texts) + 1 entries from 0 to
    len(ids)); text j's tokens are ids[offsets[j]:offsets[j + 1]]. `ids`
    and `offsets` are read-only: token_table may hand one table to two
    builds."""

    terms: list[str]
    offsets: np.ndarray
    ids: np.ndarray

    def row(self, j: int) -> np.ndarray:
        """The term ids of text j's tokens, in order, as a view of `ids`."""
        return self.ids[self.offsets[j] : self.offsets[j + 1]]


# Texts token_table interns per block: it splits only an input of two
# blocks or more (sharded), and a 2-shard run of two blocks measured no
# slower than one process.
_INTERN_BLOCK = 1024

# The last table built and its texts, {"last": (texts, table)}; see
# token_table. dict.pop reads and empties it in one step.
_last_table: dict[str, tuple[tuple[str, ...], TokenTable]] = {}


def token_table(texts: Iterable[str]) -> TokenTable:
    """Intern the terms of each text: [terms[i] for i in table.row(j)] is
    terms(texts[j]).

    The last table built is handed to the next call, once: a call whose
    texts are the very objects the last one built from (same count and
    order) takes that table without tokenizing anything, and empties the
    slot; any other call empties it, interns, and leaves its own table and
    texts there. So BM25 and the encoder vocabulary, built one after the
    other over the same passages in either order, share one pass. Two
    threads never take a table with another call's texts, since the slot
    is read and emptied in one step. The slot holds at most one table
    (about 4 bytes per token) and references to its texts, until the next
    call.

    The texts are interned in contiguous shards of whole blocks of
    _INTERN_BLOCK texts, one per usable CPU (sharded). Each shard sorts
    its own distinct terms and ranks its tokens in them; the shards' terms
    are then merged and their ranks mapped to ranks in the merged terms.
    A term's id is its rank among all the distinct terms, whichever text
    saw it first, so no table depends on the split: its terms, ids and
    offsets, their dtypes and read-only flags are a one-process table's.
    With one usable CPU, fewer than two blocks of texts, another Python
    thread running, or off Linux, the call runs in this process. There is
    no setting for this."""
    texts = tuple(texts)
    held = _last_table.pop("last", None)
    if held is not None and len(held[0]) == len(texts) and all(map(operator.is_, held[0], texts)):
        return held[1]
    shards = sharded(len(texts), _INTERN_BLOCK, lambda lo, hi: _intern(texts[lo:hi]))
    if len(shards) == 1:
        table_terms, ids, lengths = shards[0]
    else:
        # Each shard's ids are ranks in its own sorted terms, and a term's
        # id is its rank in their sorted union. sorted merges the shards'
        # sorted runs in linear time, and dict.fromkeys drops the repeats.
        rank = dict.fromkeys(sorted(chain.from_iterable(shard_terms for shard_terms, _, _ in shards)))
        table_terms = list(rank)
        rank.update(zip(table_terms, range(len(table_terms))))
        ids = np.concatenate([
            np.fromiter(map(rank.__getitem__, shard_terms), dtype=np.int32, count=len(shard_terms)).take(shard_ids)
            for shard_terms, shard_ids, _ in shards
        ])
        lengths = list(chain.from_iterable(shard_lengths for _, _, shard_lengths in shards))
    offsets = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    ids.flags.writeable = offsets.flags.writeable = False
    table = TokenTable(table_terms, offsets, ids)
    _last_table["last"] = (texts, table)
    return table


def _intern(texts: tuple[str, ...]) -> tuple[list[str], np.ndarray, list[int]]:
    """The sorted distinct terms of texts, every token of every text in
    order as its int32 rank in them, and each text's token count."""
    lengths: list[int] = []

    def text_terms(text: str) -> list[str]:
        found = terms(text)
        lengths.append(len(found))
        return found

    # surface -> first-seen id: looking up an unseen surface gives it the
    # next id, so one C-level map interns every token in order. Each text is
    # tokenized only when the map reaches it, so the token strings of all
    # texts are never held at once.
    term_ids: defaultdict[str, int] = defaultdict(count().__next__)
    first_seen = np.fromiter(map(term_ids.__getitem__, chain.from_iterable(map(text_terms, texts))), dtype=np.int32)
    surfaces = list(term_ids)
    order = sorted(range(len(surfaces)), key=surfaces.__getitem__)
    rank = np.empty(len(surfaces), dtype=np.int32)
    rank[order] = np.arange(len(surfaces), dtype=np.int32)
    return [surfaces[i] for i in order], rank[first_seen], lengths


# Words per window when _last_cut scans back from a passage's word limit:
# about one sentence, so the first window scanned mostly holds the cut.
_CUT_WINDOW = 24


def _true_cut(body: str, matches) -> Optional[re.Match]:
    """The first of the _BOUNDARY_RE matches that no abbreviation guards."""
    for m in matches:
        if not _is_abbreviation(body, m.end() - 1):
            return m
    return None


def _last_cut(body: str, s: int, starts: np.ndarray, k: int, j: int) -> Optional[re.Match]:
    """The last true boundary of body whose cut lies in (s, starts[j]),
    where s <= starts[k] and k < j, or None.

    The text is scanned back from starts[j] in windows of _CUT_WINDOW
    words, each from s or a token start to one character past a token
    start: no punctuation run and no lookahead of a boundary is cut, so
    each match is one that a scan of the whole text finds."""
    hi = j
    while hi > k:
        lo = max(k, hi - _CUT_WINDOW)
        window = _BOUNDARY_RE.finditer(body, s if lo == k else starts[lo], starts[hi] + 1)
        cut = _true_cut(body, reversed(list(window)))
        if cut is not None:
            return cut
        hi = lo
    return None


def _chunk(doc: Document, max_units: int) -> list[Passage]:
    """Greedy sentence packing with hard-splitting of oversized sentences.

    A passage that starts at s, where its first token is token k, takes
    the most whole sentences whose words fit max_units: word counts only
    grow as sentences are added, so it ends at the last sentence cut
    before starts[k + max_units], the first word that does not fit, or
    at the end of the text when every remaining word fits. Only those
    cuts are looked for (_last_cut); the sentences inside a passage are
    never segmented. With no cut before that word, the first sentence is
    over the budget: it runs to the first cut after it, and is split at
    every max_units-th word into hard-split pieces, the first from s."""
    max_units = check_count("max_units", max_units)
    body = doc.body
    starts = token_bounds(body)[0]
    end = len(body.rstrip())
    s = len(body) - len(body.lstrip())
    k = 0
    # (start, end, units, hard_split) of each passage, in order.
    pieces: list[tuple[int, int, int, bool]] = []
    while s < end:
        if k + max_units >= len(starts):
            pieces.append((s, end, len(starts) - k, False))
            break
        cut = _last_cut(body, s, starts, k, k + max_units)
        if cut is not None:
            e, t = cut.span(1)
            units = bisect_left(starts, e, k, k + max_units) - k
            pieces.append((s, e, units, False))
        else:
            # Oversized single sentence: hard-split at word boundaries into
            # max_units-sized pieces.
            cut = _true_cut(body, _BOUNDARY_RE.finditer(body, starts[k + max_units]))
            e, t = (end, end) if cut is None else cut.span(1)
            units = bisect_left(starts, e, k + max_units) - k
            cuts = [s, *starts[k + max_units : k + units : max_units], e]
            pieces += [(a, b, min(max_units, units - i * max_units), True) for i, (a, b) in enumerate(zip(cuts, cuts[1:]))]
        # No token starts between a cut and the next sentence's start.
        s, k = t, k + units
    # A packed passage already ends at its last sentence's last non-space
    # character; rstrip trims a hard-split piece before the next cut.
    return [
        Passage(f"{doc.id}#{i}", doc.id, body[a:b].rstrip(), units, hard_split)
        for i, (a, b, units, hard_split) in enumerate(pieces)
    ]


def chunk_retrieval_passages(doc: Document, max_words: int = RETRIEVAL_MAX_WORDS) -> list[Passage]:
    """Sentence-aligned passages of at most max_words words (retrieval units)."""
    return _chunk(doc, max_words)


def chunk_generation_passages(doc: Document, max_tokens: int) -> list[Passage]:
    """Larger sentence-aligned passages used as generation contexts."""
    return _chunk(doc, max_tokens)


def passage_to_record(p: Passage) -> dict:
    return {
        "id": p.id,
        "doc_id": p.doc_id,
        "text": p.text,
        "word_count": p.word_count,
        "hard_split": p.hard_split,
    }


def passage_from_record(record: dict) -> Passage:
    """The inverse of passage_to_record. A "sentences" key, which older
    passage files hold, is ignored. A field of the wrong type is a
    TypeError naming it."""
    for key in ("id", "doc_id", "text"):
        if not isinstance(record[key], str):
            raise TypeError(f"{key!r} is not a string")
    if type(record["word_count"]) is not int:
        raise TypeError("'word_count' is not an integer")
    if not isinstance(record.get("hard_split", False), bool):
        raise TypeError("'hard_split' is not a boolean")
    return Passage(
        id=record["id"],
        doc_id=record["doc_id"],
        text=record["text"],
        word_count=record["word_count"],
        hard_split=record.get("hard_split", False),
    )
