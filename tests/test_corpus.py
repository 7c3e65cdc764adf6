import gc
import json
import operator
import os
import re
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyqa import corpus
from hyqa.corpus import (
    _ABBREVIATIONS,
    _BOUNDARY_RE,
    _TOKEN_RE,
    Document,
    IngestError,
    Passage,
    _is_abbreviation,
    _sentence_bounds,
    chunk_generation_passages,
    chunk_retrieval_passages,
    ingest_documents,
    passage_from_record,
    passage_to_record,
    read_jsonl,
    segment_sentences,
    terms,
    token_bounds,
    token_table,
    tokenize,
)
from hyqa.dense_index import build_dense_index
from hyqa.encoder import DualEncoder, encode_passage
from hyqa.pipeline import index_dense
from hyqa.sparse import build_sparse_index


def make_doc(body, doc_id="d1"):
    return Document(id=doc_id, title="", body=body)


class TestIngest:
    def test_valid_records_pass_through_in_order(self):
        lines = [
            json.dumps({"id": "a", "text": "first body"}),
            json.dumps({"id": "b", "title": "T", "text": "second body"}),
        ]
        docs = list(ingest_documents(lines))
        assert [d.id for d in docs] == ["a", "b"]
        assert docs[1].title == "T"

    def test_empty_stream(self):
        assert list(ingest_documents([])) == []

    def test_missing_body_names_line(self):
        lines = [json.dumps({"id": "a", "text": "ok"}), json.dumps({"id": "b"})]
        with pytest.raises(IngestError, match="line 2"):
            list(ingest_documents(lines))

    def test_duplicate_id_rejects_later_record(self):
        lines = [json.dumps({"id": "a", "text": "x"}), json.dumps({"id": "a", "text": "y"})]
        with pytest.raises(IngestError, match="duplicate"):
            list(ingest_documents(lines))

    def test_invalid_json_names_line(self):
        with pytest.raises(IngestError, match="line 1"):
            list(ingest_documents(["{not json"]))


def record_id(record):
    if not isinstance(record["id"], int):
        raise TypeError("'id' is not an integer")
    return record["id"]


_records = st.fixed_dictionaries({"id": st.integers()}, optional={"text": st.text(max_size=4)})
_blanks = st.sampled_from(["", "\n", "  \n", "\t"])
# Not JSON, not an object, a missing key, and a record refused by record_id.
_bad_lines = st.sampled_from(["{bad\n", "[1, 2]\n", '{"text": "x"}\n', '{"id": "a"}\n'])


class TestReadJsonl:
    @given(st.lists(st.one_of(_records, _blanks), max_size=8), st.sampled_from([None, "in.jsonl"]), st.data())
    def test_bad_line_is_named_by_its_line_number(self, items, source, data):
        lines = [item if isinstance(item, str) else json.dumps(item) + "\n" for item in items]
        assert read_jsonl(lines, record_id, source) == [item["id"] for item in items if isinstance(item, dict)]
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, data.draw(_bad_lines))
        with pytest.raises(IngestError) as raised:
            read_jsonl(lines, record_id, source)
        where = f"line {at + 1}: " if source is None else f"{source} line {at + 1}: "
        assert str(raised.value).startswith(where)
        assert (raised.value.line_no, raised.value.source) == (at + 1, source)
        assert isinstance(raised.value, ValueError)


class TestSegmentSentences:
    def test_two_sentences(self):
        spans = segment_sentences("Masks help. Wash hands.")
        assert [s.surface for s in spans] == ["Masks help.", "Wash hands."]

    def test_abbreviation_guard(self):
        spans = segment_sentences("Dr. Smith agreed.")
        assert len(spans) == 1

    def test_no_boundary_single_sentence(self):
        spans = segment_sentences("one sentence no period")
        assert len(spans) == 1

    def test_question_and_exclamation(self):
        spans = segment_sentences("Really? Yes! Go now.")
        assert len(spans) == 3

    def test_lowercase_after_period_does_not_split(self):
        spans = segment_sentences("pH 7.0 is neutral. next one starts lowercase")
        assert len(spans) == 1

    def test_spans_match_source_slices(self):
        text = "Alpha beta. Gamma delta. Epsilon."
        for s in segment_sentences(text):
            assert text[s.start : s.end] == s.surface

    @given(
        st.lists(
            st.sampled_from(sorted(_ABBREVIATIONS) + ["U.S", "Dr", "1", "ab1"])
            | st.text(alphabet=". \t\xa0(\u0130\u0663aBz", max_size=4),
            max_size=12,
        ).map("".join)
    )
    def test_abbreviation_equals_char_walk(self, text):
        for p, ch in enumerate(text):
            if ch == ".":
                assert _is_abbreviation(text, p) == walk_is_abbreviation(text, p), p


def strip_sentence_bounds(text):
    """corpus._sentence_bounds as segment_sentences computed it before the
    offsets helper: cut at every guarded boundary, strip each piece, and
    drop the blank ones; kept as the exact reference."""
    cuts = [m.end() for m in re.finditer(r"[.!?]+(?=\s+[A-Z0-9])", text) if not _is_abbreviation(text, m.end() - 1)]
    bounds = []
    for start, cut in zip([0, *cuts], [*cuts, len(text)]):
        piece = text[start:cut]
        s, e = start + len(piece) - len(piece.lstrip()), start + len(piece.rstrip())
        if e > s:
            bounds.append((s, e))
    return bounds


# Texts dense in boundary candidates: words (abbreviations, dotted words,
# and words that start a sentence), each followed by a run of
# sentence-final punctuation and a run of Unicode whitespace (str.isspace
# and \s agree on it), either run possibly empty.
_boundary_words = st.sampled_from(sorted(_ABBREVIATIONS)) | st.sampled_from(
    ["U.S", "e.g.", "x.foo", "A", "Bb", "Dr", "cells", "x1", "7", "42", "a", "\u0130", "\u212a"]
)
_boundary_texts = st.lists(
    st.tuples(
        _boundary_words,
        st.text(alphabet=".!?", max_size=3),
        st.text(alphabet=" \t\n\x1c\x1d\x1e\x1f\x85\xa0\u2003", max_size=3),
    ).map("".join),
    max_size=12,
).map("".join)


class TestSentenceBounds:
    @given(st.text() | _boundary_texts)
    @example("")
    @example(" \xa0 ")
    @example("  Dr. Smith left.\x85\x1cThen 2 more!?\u2003")
    @example("Dose was 5. 7 of 9 cells died!\n2 lived")
    def test_equals_piece_strip_reference(self, text):
        bounds = _sentence_bounds(text)
        assert bounds == strip_sentence_bounds(text)
        assert bounds == [(s.start, s.end) for s in segment_sentences(text)]

    @given(st.text() | _boundary_texts)
    @example(".. A")
    @example("a.!x. B?!\u2003 7")
    def test_boundary_matches_equal_plus_pattern(self, text):
        # Before abbreviation filtering, so that a difference the filter
        # would hide still shows.
        plus = re.compile(r"[.!?]+(?=(\s+)[A-Z0-9])")
        spans = [(m.span(0), m.span(1)) for m in _BOUNDARY_RE.finditer(text)]
        assert spans == [(m.span(0), m.span(1)) for m in plus.finditer(text)]


def walk_is_abbreviation(text, punct_pos):
    """corpus._is_abbreviation as it was before the look-back to the last
    space: one character at a time; kept as the exact reference."""
    i = punct_pos - 1
    while i >= 0 and (text[i].isalnum() or text[i] == "."):
        i -= 1
    word = text[i + 1 : punct_pos].lower()
    return word in _ABBREVIATIONS or len(word) == 1 or (len(word) > 1 and "." in word)


class TestTokenize:
    def test_punctuation_dropped_and_lowercased(self):
        assert [t.surface for t in tokenize("COVID-19 spread!")] == ["covid", "19", "spread"]

    def test_empty(self):
        assert tokenize("") == []

    def test_whitespace_collapse(self):
        assert [t.surface for t in tokenize("a  b\tc")] == ["a", "b", "c"]


class TestChunking:
    def test_single_short_sentence(self):
        ps = chunk_retrieval_passages(make_doc("one two three four five"))
        assert len(ps) == 1
        assert ps[0].word_count == 5

    def test_greedy_packing(self):
        sentences = [
            " ".join(f"W{i}x{j}" for j in range(n)) + "."
            for i, n in enumerate([70, 60, 50])
        ]
        doc = make_doc(" ".join(sentences))
        ps = chunk_retrieval_passages(doc, max_words=120)
        assert [p.word_count for p in ps] == [70, 110]

    def test_hard_split_oversized_sentence(self):
        doc = make_doc(" ".join(f"tok{i}" for i in range(250)))
        ps = chunk_retrieval_passages(doc, max_words=120)
        assert [p.word_count for p in ps] == [120, 120, 10]
        assert all(p.hard_split for p in ps)

    def test_hard_split_keeps_characters_before_first_word(self):
        ps = chunk_retrieval_passages(make_doc("(a b c d e) f."), max_words=2)
        assert [(p.text, p.word_count) for p in ps] == [("(a b", 2), ("c d", 2), ("e) f.", 2)]

    def test_generation_chunks_under_budget(self):
        doc = make_doc("Short body with a few words only.")
        ps = chunk_generation_passages(doc, max_tokens=288)
        assert len(ps) == 1

    def test_generation_greedy_trace(self):
        sentences = [" ".join(f"S{i}w{j}" for j in range(30)) + "." for i in range(10)]
        doc = make_doc(" ".join(sentences))
        ps = chunk_generation_passages(doc, max_tokens=288)
        assert [p.word_count for p in ps] == [270, 30]

    def test_empty_body_gives_no_passages(self):
        assert chunk_generation_passages(make_doc("   "), max_tokens=288) == []

    def test_concatenation_reproduces_segmented_text(self):
        body = (
            "The virus spreads quickly through droplets. Masks reduce transmission. "
            "Dr. Jones recommends washing hands often! Vaccines help too."
        )
        doc = make_doc(body)
        ps = chunk_retrieval_passages(doc, max_words=8)
        rebuilt = "".join(p.text for p in ps)
        original = "".join(s.surface for s in segment_sentences(body))
        assert "".join(rebuilt.split()) == "".join(original.split())

    def test_word_count_uses_same_tokenizer(self):
        doc = make_doc("COVID-19 spreads. COVID-19 kills.")
        for p in chunk_retrieval_passages(doc):
            assert p.word_count == len(tokenize(p.text))

    def test_deterministic(self):
        doc = make_doc("A first one. A second one. A third one here.")
        assert chunk_retrieval_passages(doc, 5) == chunk_retrieval_passages(doc, 5)

    def test_sentence_spans_tile_passage_text(self):
        body = "One two three. Four five six. Seven eight."
        ps = chunk_retrieval_passages(make_doc(body), 6)
        assert [p.text for p in ps] == ["One two three. Four five six.", "Seven eight."]
        got = [s.surface for p in ps for s in segment_sentences(p.text)]
        assert got == [s.surface for s in segment_sentences(body)]


class TestTerms:
    @given(st.text())
    @example("\u212a and \u0130 (KELVIN SIGN, DOTTED CAPITAL I) in \u0130stanbul at 5\u212a")
    @example("")
    def test_equals_tokenize_surfaces(self, text):
        assert terms(text) == [t.surface for t in tokenize(text)]

    @given(st.text(alphabet=st.characters(max_codepoint=127)))
    @example("".join(map(chr, range(128))))
    def test_ascii_equals_tokenize_surfaces(self, text):
        # st.text() rarely draws an all-ASCII text, the translate-and-split path.
        assert terms(text) == [t.surface for t in tokenize(text)]


# Words that repeat within and across texts, ASCII and not: KELVIN SIGN
# (lowercases to ASCII k), dotted capital I (to two code points) and the
# no-break space.
_table_texts = st.lists(
    st.sampled_from(["alpha", "Alpha", "k", "K", "\u212a", "\u212aelvin", "\u0130stanbul", "i\u0307x", "5", "-", "\xa0"]),
    max_size=20,
).map(" ".join) | st.text(max_size=20)


class TestTokenTable:
    @given(st.lists(_table_texts, max_size=8))
    @example([])
    @example(["", "- -", ""])
    @example(["\u212a k K", "\u212a k K", "\u0130stanbul\xa0i\u0307x", "Alpha alpha"])
    def test_rows_spell_each_texts_terms(self, texts):
        table = token_table(texts)
        assert all(map(str.__lt__, table.terms, table.terms[1:]))
        assert table.ids.dtype == np.int32 and table.offsets.dtype == np.int64
        assert len(table.offsets) == len(texts) + 1
        assert table.offsets[0] == 0 and table.offsets[-1] == len(table.ids)
        o = table.offsets
        for j, text in enumerate(texts):
            assert [table.terms[i] for i in table.ids[o[j] : o[j + 1]]] == terms(text)
            assert table.row(j).tolist() == table.ids[o[j] : o[j + 1]].tolist()
        # A one-pass iterable gives the same table, interned again.
        corpus._last_table.clear()
        again = token_table(iter(texts))
        assert again.terms == table.terms
        assert np.array_equal(again.offsets, table.offsets) and np.array_equal(again.ids, table.ids)


_HANDOFF_WORDS = [
    ("Masks", "cut", "the", "spread", "of", "COVID-19."),
    ("The", "\u212aelvin", "scale", "and", "the", "spread."),
    ("ACE2", "binds", "the", "spike;", "masks", "help."),
    ("-", "-"),
    ("IL-6", "rises", "in", "severe", "cases", "(n=12)."),
]


def handoff_passages():
    """Passages whose texts are new string objects on every call (each
    joins two or more words); one text is not ASCII and one holds no
    token."""
    return [Passage(f"p{i}", "d", " ".join(words), len(words)) for i, words in enumerate(_HANDOFF_WORDS)]


def counted_terms(monkeypatch):
    """A list that collects every text corpus.terms tokenizes."""
    calls = []

    def counted(text):
        calls.append(text)
        return terms(text)

    monkeypatch.setattr(corpus, "terms", counted)
    return calls


def build_artifacts(out, sparse_first, separated):
    """The three artifacts of one build over new passages, BM25 and the
    vocabulary in the given order, with an unrelated token_table call
    between them when `separated`."""
    passages = handoff_passages()

    def between():
        if separated:
            token_table(["an unrelated text"])

    if sparse_first:
        index = build_sparse_index(passages)
        between()
        model = DualEncoder.from_texts([p.text for p in passages], d=4, seed=1)
    else:
        model = DualEncoder.from_texts([p.text for p in passages], d=4, seed=1)
        between()
        index = build_sparse_index(passages)
    out.mkdir()
    index.save(out / "sparse.hyqa")
    model.save(out / "encoder.hyqa")
    embeddings = np.stack([encode_passage(model, p.text) for p in passages])
    build_dense_index([p.id for p in passages], embeddings).save(out / "dense.hyqa")


class TestTokenTableHandOff:
    @pytest.mark.parametrize("sparse_first", [True, False])
    def test_bm25_and_vocabulary_tokenize_each_text_once(self, monkeypatch, sparse_first):
        calls = counted_terms(monkeypatch)
        passages = handoff_passages()
        texts = [p.text for p in passages]
        if sparse_first:
            index, model = build_sparse_index(passages), DualEncoder.from_texts(texts, d=4, seed=0)
        else:
            model, index = DualEncoder.from_texts(texts, d=4, seed=0), build_sparse_index(passages)
        assert calls == texts
        assert index.terms == sorted(model.vocab)

    def test_equal_texts_in_other_objects_are_interned_again(self, monkeypatch):
        calls = counted_terms(monkeypatch)
        texts, copies = [p.text for p in handoff_passages()], [p.text for p in handoff_passages()]
        assert texts == copies and not any(map(operator.is_, texts, copies))
        table, again = token_table(texts), token_table(copies)
        assert again is not table and calls == texts + copies
        assert again.terms == table.terms and np.array_equal(again.ids, table.ids)

    def test_a_table_is_handed_on_once(self, monkeypatch):
        calls = counted_terms(monkeypatch)
        texts = [p.text for p in handoff_passages()]
        table = token_table(texts)
        assert token_table(iter(texts)) is table and calls == texts
        # A one-pass iterable over the same texts, interned again.
        third = token_table(iter(texts))
        assert third is not table and calls == texts + texts
        assert third.terms == table.terms and np.array_equal(third.ids, table.ids)

    @pytest.mark.parametrize("next_texts", ["same", "other"])
    def test_the_slot_lets_go_of_an_earlier_table(self, next_texts):
        texts = [p.text for p in handoff_passages()]
        table = token_table(texts)
        ref = weakref.ref(table)
        if next_texts == "same":
            assert token_table(texts) is table
        else:
            token_table([p.text for p in handoff_passages()])
        del table
        gc.collect()
        assert ref() is None

    def test_ids_and_offsets_are_read_only(self):
        table = token_table([p.text for p in handoff_passages()])
        for array in (table.ids, table.offsets, table.row(0)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    @pytest.mark.parametrize("sparse_first", [True, False])
    def test_a_shared_table_builds_the_same_artifacts(self, tmp_path, sparse_first):
        build_artifacts(tmp_path / "shared", sparse_first, separated=False)
        build_artifacts(tmp_path / "separate", sparse_first, separated=True)
        for name in ("sparse.hyqa", "encoder.hyqa", "dense.hyqa"):
            assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "separate" / name).read_bytes(), name


def assert_same_table(table, expected):
    """Field for field: terms, ids and offsets, their dtypes and flags."""
    assert table.terms == expected.terms
    assert table.ids.dtype == expected.ids.dtype == np.int32
    assert table.offsets.dtype == expected.offsets.dtype == np.int64
    assert table.ids.tolist() == expected.ids.tolist()
    assert table.offsets.tolist() == expected.offsets.tolist()
    for array in (table.ids, table.offsets, expected.ids, expected.offsets):
        assert not array.flags.writeable


def fresh_table(texts):
    """token_table(texts), interned again rather than taken from the slot."""
    corpus._last_table.clear()
    return token_table(texts)


# Blocks of 2 texts: with three usable CPUs, shards of texts 0-1, 2-3 and 4-6.
_SHARD_CASES = {
    "no tokens": ["", "- -", "?!", "", "\xa0", "...", "()"],
    # "zebra" is in the last shard only, "the" and "\u212a" (no term) in every one.
    "first and last": ["the Alpha", "the \u212a", "Beta the", "the alpha beta", "\u212a the", "zebra the", "the"],
    "new terms in every shard": ["one two", "three", "two one", "four", "", "five one", "six"],
}


class TestShardedTokenTable:
    """token_table interned in shards, one per usable CPU
    (corpus.sharded), equals its one-process table."""

    @pytest.mark.parametrize("case", _SHARD_CASES)
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_equals_the_one_shard_table(self, small_blocks, usable_cpus, count_forks, case, cpus):
        texts = _SHARD_CASES[case]
        usable_cpus(1)
        serial = fresh_table(texts)
        usable_cpus(cpus)
        forks = count_forks()
        assert_same_table(fresh_table(texts), serial)
        assert len(forks) == cpus - 1

    def test_no_texts(self, small_blocks, usable_cpus, count_forks):
        usable_cpus(3)
        forks = count_forks()
        table = fresh_table([])
        assert table.terms == [] and table.ids.tolist() == [] and table.offsets.tolist() == [0]
        assert table.ids.dtype == np.int32 and table.offsets.dtype == np.int64
        assert forks == []

    @given(st.lists(_table_texts, max_size=12), st.integers(1, 3))
    @settings(max_examples=40)
    def test_any_texts_on_any_cpus(self, texts, cpus):
        # Fixtures last a whole test, not one example, so each example
        # patches its own CPU count and block.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(corpus, "_INTERN_BLOCK", 2)
            patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            serial = fresh_table(texts)
            patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            forks, fork = [], os.fork
            patch.setattr(os, "fork", lambda: forks.append(1) or fork())
            assert_same_table(fresh_table(texts), serial)
        assert len(forks) == max(0, min(cpus, -(-len(texts) // 2)) - 1)

    def test_artifacts_equal_the_one_shard_build(self, tmp_path, small_blocks, usable_cpus, count_forks):
        passages = [Passage(f"p{i}", "d", text, len(terms(text))) for i, text in enumerate(_SHARD_CASES["first and last"])]
        built = {}
        for cpus in (1, 3):
            usable_cpus(cpus)
            forks = count_forks()
            out = tmp_path / str(cpus)
            out.mkdir()
            build_sparse_index(passages).save(out / "sparse.hyqa")
            model = DualEncoder.from_texts([p.text for p in passages], d=4, seed=1)
            model.save(out / "encoder.hyqa")
            index_dense(model, passages).save(out / "dense.hyqa")
            # BM25 and the vocabulary share one sharded pass.
            assert len(forks) == cpus - 1
            built[cpus] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        assert len(built[1]) == 3 and built[3] == built[1]

    def test_adapt_sized_tables_stay_in_one_process(self, usable_cpus, count_forks):
        usable_cpus(3)
        forks = count_forks()
        table = token_table([f"text {i} of the adaptation corpus" for i in range(500)])
        assert forks == [] and len(table.offsets) == 501

    def test_a_failing_shard_raises_as_one_process_does(self, small_blocks, usable_cpus, monkeypatch):
        # Text 3 lies in the second of three shards, in a child process.
        texts = _SHARD_CASES["first and last"]

        def refuse_fourth(text):
            if text is texts[3]:
                raise ValueError(f"cannot intern {text!r}")
            return terms(text)

        monkeypatch.setattr(corpus, "terms", refuse_fourth)
        raised = []
        for cpus in (1, 3):
            usable_cpus(cpus)
            token_table(["an unrelated text"])  # fills the slot
            with pytest.raises(ValueError) as caught:
                token_table(texts)
            raised.append((type(caught.value), str(caught.value)))
            assert corpus._last_table == {}
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert raised[0] == raised[1] == (ValueError, "cannot intern 'the alpha beta'")


class TestShardedResults:
    @pytest.mark.parametrize("case", ["one CPU", "one block", "no items", "another thread", "no os.fork"])
    def test_one_shard_runs_here_and_forks_nothing(self, usable_cpus, count_forks, monkeypatch, case):
        usable_cpus(1 if case == "one CPU" else 2)
        forks = count_forks()
        if case == "no os.fork":
            monkeypatch.delattr(os, "fork")
        n = {"one block": 3, "no items": 0}.get(case, 8)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if case == "another thread":
            thread.start()
        try:
            results = corpus.sharded(n, 4, lambda lo, hi: (os.getpid(), lo, hi))
        finally:
            release.set()
            if thread.is_alive():
                thread.join()
        assert results == [(os.getpid(), 0, n)]
        assert forks == []

    def test_a_result_larger_than_a_pipe_buffer_arrives_whole(self, usable_cpus, count_forks):
        # The second shard runs in a child and sends back 5.6 MB, more than
        # a pipe holds (64 KB on Linux) and more than one 1 MB read.
        usable_cpus(2)
        forks = count_forks()
        size = 700_000
        results = corpus.sharded(2, 1, lambda lo, hi: np.arange(lo * size, hi * size, dtype=np.int64))
        assert len(forks) == 1 and results[1].nbytes == 5_600_000
        assert np.array_equal(np.concatenate(results), np.arange(2 * size))


class TestWordCount:
    @given(st.text())
    @example("\u212a and \u0130 (KELVIN SIGN, DOTTED CAPITAL I) in \u0130stanbul at 5\u212a")
    @example("")
    def test_equals_token_and_term_counts(self, text):
        assert len(terms(text)) == len(tokenize(text))


class TestTokenBounds:
    @given(st.text())
    @example("\u212a and \u0130 (KELVIN SIGN, DOTTED CAPITAL I) in \u0130stanbul at 5\u212a")
    @example("lone \ud800 surrogate1")
    @example("")
    def test_equals_finditer_offsets(self, text):
        starts, ends = token_bounds(text)
        matches = list(_TOKEN_RE.finditer(text))
        assert starts.tolist() == [m.start() for m in matches]
        assert ends.tolist() == [m.end() for m in matches]

    @given(st.text(alphabet="aZ09 .-@[`{/:\u212a\u0130\u0663\xa0"))
    def test_equals_finditer_offsets_near_token_characters(self, text):
        starts, ends = token_bounds(text)
        assert list(zip(starts.tolist(), ends.tolist())) == [m.span() for m in _TOKEN_RE.finditer(text)]


# Text over the whole code-point range. st.text() never draws a lone
# surrogate (category Cs); these characters include them and astral code
# points, and ASCII often enough that words form.
_whole_range_texts = st.text(
    st.characters(exclude_categories=()) | st.characters(max_codepoint=127) | st.characters(categories=["Cs"])
)


class TestWholeCodePointRange:
    """terms and token_bounds against the regex reference on any string;
    the examples carry CORD-19 typography: a right single quotation mark,
    an en dash, micro sign, degree sign, alpha, a no-break space and the
    fi ligature, none of them a word character."""

    @given(_whole_range_texts)
    @example("The patient’s 2020–2021 dose–response: 5\xa0\xb5m at 37\xa0\xb0C, α-helix ﬁbrosis.")
    @example("’–\xb5\xb0α\xa0ﬁ")
    @example("a\ud800b\udfffc\U0001f600d\U0010ffffE")
    def test_terms_equal_tokenize_surfaces(self, text):
        assert terms(text) == [t.surface for t in tokenize(text)]

    @given(_whole_range_texts)
    @example("The patient’s 2020–2021 dose–response: 5\xa0\xb5m at 37\xa0\xb0C, α-helix ﬁbrosis.")
    @example("’–\xb5\xb0α\xa0ﬁ")
    @example("a\ud800b\udfffc\U0001f600d\U0010ffffE")
    def test_token_bounds_equal_finditer_spans(self, text):
        starts, ends = token_bounds(text)
        assert list(zip(starts.tolist(), ends.tolist())) == [m.span() for m in _TOKEN_RE.finditer(text)]


# Documents of sentences whose words exercise abbreviation guards, dotted
# look-back words, non-ASCII letters and digits, and non-ASCII whitespace.
_words = st.sampled_from(["a", "bb", "x", "Dr.", "e.g.", "U.S.", "x.foo", "1", "\u212a", "\u0130", "\u0663", "c,", "(d)"])
_sentences = st.tuples(
    st.sampled_from(["A", "Bb", "1", "\u0130", "Dr.", "x.foo"]),
    st.lists(_words, max_size=8),
    st.sampled_from([".", "!", "?", "", "..."]),
    st.sampled_from([" ", "  ", "\n", "\xa0"]),
).map(lambda t: " ".join([t[0], *t[1]]) + t[2] + t[3])
doc_bodies = st.lists(_sentences, min_size=1, max_size=10).map("".join)


def sentence_packer(doc, max_units):
    """corpus._chunk as it packed one sentence at a time before it looked
    only for the cuts where passages end, with a hard-split sentence's
    first piece starting at the sentence start; kept as the exact
    reference."""
    body = doc.body
    sentences = _sentence_bounds(body)
    starts = token_bounds(body)[0]
    bounds = np.searchsorted(starts, [b for sentence in sentences for b in sentence]).tolist()
    pieces = []
    for (s, e), lo, hi in zip(sentences, bounds[0::2], bounds[1::2]):
        units = hi - lo
        if units > max_units:
            cuts = [s] + starts[lo + max_units : hi : max_units].tolist() + [e]
            pieces += [(a, b, min(max_units, units - i * max_units), True) for i, (a, b) in enumerate(zip(cuts, cuts[1:]))]
        elif pieces and not pieces[-1][3] and pieces[-1][2] + units <= max_units:
            pieces[-1] = (pieces[-1][0], e, pieces[-1][2] + units, False)
        else:
            pieces.append((s, e, units, False))
    return [
        Passage(f"{doc.id}#{i}", doc.id, body[a:b].rstrip(), units, hard_split)
        for i, (a, b, units, hard_split) in enumerate(pieces)
    ]


class TestChunkProperties:
    @given(doc_bodies | _boundary_texts | st.text(), st.integers(1, 300))
    # A guarded abbreviation, and a dotted look-back word, right before the
    # first word that does not fit.
    @example("One two Dr. Three four. Five six.", 3)
    @example("A b x.foo. Bar c. D e.", 4)
    # An oversized first sentence followed by short ones.
    @example("One two three four five six seven. A b. C d. E f.", 3)
    # Non-ASCII whitespace after a period.
    @example("Wash hands.\xa0Masks help.\u2003Stay home. Dr.\xa0Smith agreed.", 2)
    # The last cut lies two scan windows back from the word limit.
    @example(" ".join(["A" + " b" * 69 + ".", "C" + " d" * 69 + "."]), 100)
    # Characters before a hard-split sentence's first word.
    @example("(a b c d e) f. \u201cG h i.\u201d ...J k l.", 2)
    # A first sentence of no words, whose cut lies before the first word.
    @example("?! Hello world. A b.", 1)
    def test_equals_sentence_packer(self, body, budget):
        doc = make_doc(body)
        assert corpus._chunk(doc, budget) == sentence_packer(doc, budget)

    @given(doc_bodies | _boundary_texts | st.text(), st.integers(1, 300))
    @example("(a b c d e) f.", 2)
    @example("\u201c... a b c\u201d", 1)
    def test_passages_hold_every_non_space_character(self, body, budget):
        passages = chunk_retrieval_passages(make_doc(body), budget)
        assert "".join("".join(p.text for p in passages).split()) == "".join(body.split())

    @given(doc_bodies, st.integers(1, 30))
    @example("A b. C d e. F g.", 3)
    def test_sentence_spans_tile_passage_text(self, body, budget):
        ps = chunk_retrieval_passages(make_doc(body), budget)
        for p in ps:
            sentences = segment_sentences(p.text)
            at = 0
            for sent in sentences:
                assert not p.text[at : sent.start].strip()
                at = sent.end
            assert at == len(p.text) and sentences[0].start == 0
        # Packed passages segment into the document's sentences that fit the
        # budget, in order.
        packed = [s.surface for p in ps if not p.hard_split for s in segment_sentences(p.text)]
        assert packed == [s.surface for s in segment_sentences(body) if len(terms(s.surface)) <= budget]

    @given(doc_bodies, st.integers(1, 30))
    def test_word_count_within_budget(self, body, budget):
        # Packing never exceeds the budget, and a sentence over it is cut
        # into budget-sized hard-split pieces.
        for p in chunk_retrieval_passages(make_doc(body), budget):
            assert p.word_count == len(tokenize(p.text))
            assert p.word_count <= budget

    @given(doc_bodies, st.integers(1, 30))
    def test_record_round_trip(self, body, budget):
        for p in chunk_retrieval_passages(make_doc(body), budget):
            assert passage_from_record(json.loads(json.dumps(passage_to_record(p)))) == p

    @given(doc_bodies | st.text(), st.integers(1, 300))
    @example("A b c x.foo. Bar d", 4)
    def test_every_chunking_holds_the_terms_of_its_document(self, body, budget):
        # So the passages of any one chunking of a collection intern the
        # same sorted vocabulary as those of any other (pipeline.train_encoder
        # builds the encoder over the generation passages alone).
        for chunker in (chunk_retrieval_passages, chunk_generation_passages):
            passages = chunker(make_doc(body), budget)
            assert [t for p in passages for t in terms(p.text)] == terms(body)

    def test_hard_split_piece_is_segmented_on_its_own(self):
        # The document is one sentence: the look-back word before "foo." is
        # "x.foo", a dotted initialism. In the piece it is "foo", which ends
        # a sentence.
        body = "a b c x.foo. Bar d"
        assert len(segment_sentences(body)) == 1
        ps = chunk_retrieval_passages(make_doc(body), 4)
        assert [(p.text, p.word_count, p.hard_split) for p in ps] == [("a b c x.", 4, True), ("foo. Bar d", 3, True)]
        assert [s.surface for s in segment_sentences(ps[1].text)] == ["foo.", "Bar d"]

    def test_record_with_sentences_key_loads(self):
        # Older passage files hold a "sentences" key; loading ignores it.
        record = {"id": "d1#0", "doc_id": "d1", "text": "A b. C d.", "word_count": 4,
                  "sentences": [[0, 4], [5, 9]], "hard_split": False}
        assert passage_from_record(record) == chunk_retrieval_passages(make_doc("A b. C d."))[0]

    @pytest.mark.parametrize("budget", [1, 4, 120])
    def test_chunking_never_segments(self, monkeypatch, budget):
        # "a b c x.foo. Bar d" is one sentence of 6 words: at budgets 1 and 4
        # it is hard-split. Chunking looks only for the cuts where passages
        # end, and segments no document and no piece.
        calls = []

        def counted(text):
            calls.append(text)
            return _sentence_bounds(text)

        monkeypatch.setattr(corpus, "_sentence_bounds", counted)
        bodies = ["a b c x.foo. Bar d", "One two. Three four five six seven.", "(...)"]
        for body in bodies:
            chunk_retrieval_passages(make_doc(body), budget)
        assert calls == []

    def test_fewer_abbreviation_checks_than_sentences(self, monkeypatch):
        # 40 sentences of 10 words, 4 passages at budget 120: only the
        # boundaries scanned back from each passage's word limit are checked.
        calls = []

        def counted(text, punct_pos):
            calls.append(punct_pos)
            return _is_abbreviation(text, punct_pos)

        body = " ".join(f"S{i} " + " ".join(["w"] * 8) + " end." for i in range(40))
        monkeypatch.setattr(corpus, "_is_abbreviation", counted)
        ps = chunk_retrieval_passages(make_doc(body), 120)
        assert [p.word_count for p in ps] == [120, 120, 120, 40]
        assert 0 < len(calls) < len(_sentence_bounds(body)) == 40
