import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hyqa.corpus import (
    Document,
    IngestError,
    chunk_generation_passages,
    chunk_retrieval_passages,
    ingest_documents,
    segment_sentences,
    terms,
    tokenize,
)


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

    def test_generation_chunks_under_budget(self):
        doc = make_doc("Short body with a few words only.")
        ps = chunk_generation_passages(doc)
        assert len(ps) == 1

    def test_generation_greedy_trace(self):
        sentences = [" ".join(f"S{i}w{j}" for j in range(30)) + "." for i in range(10)]
        doc = make_doc(" ".join(sentences))
        ps = chunk_generation_passages(doc, max_tokens=288)
        assert [p.word_count for p in ps] == [270, 30]

    def test_empty_body_gives_no_passages(self):
        assert chunk_generation_passages(make_doc("   ")) == []

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
        doc = make_doc("One two three. Four five six. Seven eight.")
        for p in chunk_retrieval_passages(doc, 6):
            for s in p.sentence_spans:
                assert p.text[s.start : s.end] == s.surface


class TestTerms:
    @given(st.text())
    @example("\u212a and \u0130 (KELVIN SIGN, DOTTED CAPITAL I) in \u0130stanbul at 5\u212a")
    @example("")
    def test_equals_tokenize_surfaces(self, text):
        assert terms(text) == [t.surface for t in tokenize(text)]
