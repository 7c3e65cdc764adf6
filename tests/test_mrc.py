
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hyqa.corpus import terms, tokenize
from hyqa.mrc import (
    ExternalLogits,
    LexicalScorer,
    LogitRows,
    ScorerConfig,
    SpanLogits,
    answerability,
    best_span_each,
    best_spans,
    extract_answer,
    logit_rows,
    span_score,
    stack_logits,
)

# Index 0 = CLS throughout.
FIXTURE = SpanLogits(start=(0.5, 2.0, 1.0), end=(0.2, 0.5, 3.0))


class TestSpanScore:
    def test_fixture_value(self):
        assert span_score(FIXTURE, 1, 2) == pytest.approx(2.0 + 3.0 - 0.5 - 0.2)

    def test_shift_invariance_start(self):
        shifted = SpanLogits(
            start=tuple(v + 100.0 for v in FIXTURE.start), end=FIXTURE.end
        )
        for s in (1, 2):
            for e in range(s, 3):
                assert span_score(shifted, s, e) == pytest.approx(span_score(FIXTURE, s, e), abs=1e-12)

    def test_shift_invariance_end(self):
        shifted = SpanLogits(
            start=FIXTURE.start, end=tuple(v - 42.5 for v in FIXTURE.end)
        )
        for s in (1, 2):
            for e in range(s, 3):
                assert span_score(shifted, s, e) == pytest.approx(span_score(FIXTURE, s, e), abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            span_score(FIXTURE, 0, 1)
        with pytest.raises(IndexError):
            span_score(FIXTURE, 1, 3)
        with pytest.raises(IndexError):
            span_score(FIXTURE, 2, 1)

    def test_all_zero_logits_null_reference(self):
        logits = SpanLogits(start=(0.0, 0.0), end=(0.0, 0.0))
        assert span_score(logits, 1, 1) == 0.0


def brute_force_spans(logits, max_len):
    spans = []
    for s in range(1, logits.n + 1):
        for e in range(s, logits.n + 1):
            if e - s + 1 <= max_len:
                spans.append((s, e, span_score(logits, s, e)))
    spans.sort(key=lambda t: (-t[2], t[0], t[1]))
    return spans


class TestBestSpans:
    def test_single_token_passage(self):
        logits = SpanLogits(start=(0.0, 1.0), end=(0.0, 2.0))
        spans = best_spans(logits)
        assert len(spans) == 1
        assert (spans[0].s, spans[0].e) == (1, 1)

    def test_fixture_ordering(self):
        spans = best_spans(FIXTURE, ScorerConfig(max_answer_len=2, top_n=10))
        assert [(sp.s, sp.e, pytest.approx(sp.score)) for sp in spans] == [
            (1, 2, pytest.approx(4.3)),
            (2, 2, pytest.approx(3.3)),
            (1, 1, pytest.approx(1.8)),
        ]

    def test_top_n_larger_than_candidates(self):
        spans = best_spans(FIXTURE, ScorerConfig(max_answer_len=2, top_n=50))
        assert len(spans) == 3

    @pytest.mark.parametrize("n,max_len,seed", [(5, 3, 0), (20, 7, 1), (50, 30, 2), (13, 50, 3)])
    def test_matches_brute_force(self, n, max_len, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        logits = SpanLogits(
            start=tuple(rng.normal(size=n + 1)), end=tuple(rng.normal(size=n + 1))
        )
        config = ScorerConfig(max_answer_len=max_len, top_n=n * n)
        got = [(sp.s, sp.e, sp.score) for sp in best_spans(logits, config)]
        assert got == brute_force_spans(logits, max_len)


def integer_logits(n, values):
    """Logits with many exact ties: n + 1 small integers per side."""
    return SpanLogits(start=tuple(float(v) for v in values[: n + 1]), end=tuple(float(v) for v in values[n + 1 :]))


logit_sets = st.integers(0, 40).flatmap(
    lambda n: st.lists(st.integers(-3, 3), min_size=2 * n + 2, max_size=2 * n + 2).map(
        lambda values: integer_logits(n, values)
    )
)


class TestBestSpansProperties:
    @given(logit_sets, st.sampled_from([1, 10]), st.sampled_from([1, 3, 30, 60]))
    @example(integer_logits(0, [0, 0]), 1, 30)
    @example(integer_logits(0, [0, 0]), 10, 30)
    @example(integer_logits(3, [0] * 8), 10, 60)
    def test_matches_brute_force(self, logits, top_n, max_len):
        expected = brute_force_spans(logits, max_len)[:top_n]
        got = best_spans(logits, ScorerConfig(max_answer_len=max_len, top_n=top_n))
        assert [(sp.s, sp.e, sp.score.hex()) for sp in got] == [(s, e, score.hex()) for s, e, score in expected]


class TestSpanLogitsArrays:
    def test_rows_are_read_only_float64(self):
        assert FIXTURE.start.dtype == FIXTURE.end.dtype == np.float64
        with pytest.raises(ValueError):
            FIXTURE.start[0] = 1.0

    def test_copies_its_input(self):
        start = np.array([0.0, 1.0])
        logits = SpanLogits(start, np.zeros(2))
        start[1] = 5.0
        assert logits.start[1] == 1.0

    def test_value_equality(self):
        assert SpanLogits([0.5, 2.0, 1.0], np.array([0.2, 0.5, 3.0])) == FIXTURE
        assert SpanLogits((0.5, 2.0, 1.0), (0.2, 0.5, 3.5)) != FIXTURE
        assert SpanLogits((0.5, 2.0), (0.2, 0.5)) != FIXTURE
        assert FIXTURE != (FIXTURE.start, FIXTURE.end)

    @pytest.mark.parametrize(
        "start,end", [((0.0, float("nan")), (0.0, 0.0)), ((0.0, 0.0), (0.0, float("inf"))), ([[0.0]], [[0.0]]),
                      ((0.0,), (0.0, 1.0)), ((), ())],
    )
    def test_rejects_bad_rows(self, start, end):
        with pytest.raises(ValueError):
            SpanLogits(start, end)


class TestSpanBand:
    @given(st.lists(logit_sets, min_size=1, max_size=40), st.integers(1, 60))
    def test_best_span_each_equals_best_spans_top_1(self, rows, max_len):
        rows = [r for r in rows if r.n > 0] or [FIXTURE]
        s, e, scores = best_span_each(stack_logits(rows), max_len)
        expected = [best_spans(r, ScorerConfig(max_answer_len=max_len, top_n=1))[0] for r in rows]
        assert list(zip(s.tolist(), e.tolist(), [v.hex() for v in scores.tolist()])) == [
            (sp.s, sp.e, sp.score.hex()) for sp in expected
        ]


# Logit rows whose sums round together: CLS values of +-1e16, end logits
# of 0.0, 1e-17 and 1e-300 (lost against 1e16 or 1 but not against 0), and
# start logits of 0 and +-1. Against CLS values of 1e16 and -1e16, a span of
# start 0 scores 0 in the band's order of additions, but would score its end
# logit if the end logit were added last.
rounding_rows = st.lists(st.sampled_from([1, 1, 2, 3, 7, 31, 40]), min_size=1, max_size=8).flatmap(
    lambda ns: st.tuples(
        st.lists(st.sampled_from([0.0, 0.0, 1.0, -1.0]), min_size=sum(ns), max_size=sum(ns)),
        st.lists(st.sampled_from([0.0, 1e-17, 1e-300]), min_size=sum(ns), max_size=sum(ns)),
        st.lists(st.sampled_from([1e16, -1e16, 0.0]), min_size=2 * len(ns), max_size=2 * len(ns)),
    ).map(
        lambda parts: LogitRows(
            np.array(parts[0]),
            np.array(parts[1]),
            np.array(parts[2][: len(ns)]),
            np.array(parts[2][len(ns) :]),
            np.array(ns, dtype=np.intp),
        )
    )
)


def row_logits(rows):
    """The SpanLogits of each stacked row."""
    offsets = np.cumsum(rows.n) - rows.n
    return [
        SpanLogits(np.r_[cs, rows.start[o : o + n]], np.r_[ce, rows.end[o : o + n]])
        for o, n, cs, ce in zip(offsets.tolist(), rows.n.tolist(), rows.cls_start, rows.cls_end)
    ]


class TestBestSpanEach:
    @given(rounding_rows, st.sampled_from([1, 3, 30, 41, 100]))
    @example(LogitRows(np.zeros(2), np.array([0.0, 1e-17]), np.array([1e16]), np.array([-1e16]), np.array([2])), 1)
    def test_equals_best_spans_top_1_when_sums_round(self, rows, max_len):
        s, e, scores = best_span_each(rows, max_len)
        expected = [best_spans(r, ScorerConfig(max_answer_len=max_len, top_n=1))[0] for r in row_logits(rows)]
        assert list(zip(s.tolist(), e.tolist(), [v.hex() for v in scores.tolist()])) == [
            (sp.s, sp.e, sp.score.hex()) for sp in expected
        ]

    def test_rounded_tie_goes_to_the_first_end(self):
        # Against start 1e16, end logits 1e-300 and 1 round to the same sum,
        # so (1, 1) and (1, 2) tie although the end logits differ.
        rows = stack_logits([SpanLogits((0.0, 1e16, 0.0), (0.0, 1e-300, 1.0))])
        assert [a.tolist() for a in best_span_each(rows, 30)] == [[1], [1], [1e16]]

    @pytest.mark.parametrize("n,position", [([2, 0, 1], 1), ([0], 0), ([0, 0], 0), ([3, 1, 0], 2)])
    def test_empty_row_is_refused(self, n, position):
        total = sum(n)
        rows = LogitRows(np.ones(total), np.ones(total), np.zeros(len(n)), np.zeros(len(n)), np.array(n, dtype=np.intp))
        with pytest.raises(ValueError, match=f"^logit row {position} has no tokens"):
            best_span_each(rows, 30)

    def test_allocates_no_band(self):
        rng = np.random.default_rng(0)
        rows = stack_logits([SpanLogits(rng.normal(size=1001), rng.normal(size=1001)) for _ in range(40)])
        band_bytes = 40 * 1000 * 30 * 8
        tracemalloc.start()
        try:
            best_span_each(rows, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < band_bytes / 4


class TestAnswerability:
    def test_fixture(self):
        assert answerability(FIXTURE, ScorerConfig(max_answer_len=2)) == pytest.approx(4.3)

    def test_all_zero(self):
        logits = SpanLogits(start=(0.0,) * 4, end=(0.0,) * 4)
        assert answerability(logits) == 0.0

    def test_empty_passage(self):
        logits = SpanLogits(start=(1.0,), end=(1.0,))
        assert answerability(logits) == float("-inf")

    def test_monotone_in_start_logit(self):
        bumped = SpanLogits(start=(0.5, 2.0, 5.0), end=FIXTURE.end)
        assert answerability(bumped, ScorerConfig(max_answer_len=2)) >= answerability(
            FIXTURE, ScorerConfig(max_answer_len=2)
        )

    @given(logit_sets, st.integers(1, 60))
    def test_equals_best_spans_top_1(self, logits, max_len):
        config = ScorerConfig(max_answer_len=max_len)
        spans = best_spans(logits, config)
        expected = spans[0].score if spans else float("-inf")
        assert answerability(logits, config).hex() == expected.hex()

    def test_equals_max_of_unbounded_best_spans(self):
        config = ScorerConfig(max_answer_len=30, top_n=10**6)
        spans = best_spans(FIXTURE, config)
        assert answerability(FIXTURE, config) == max(sp.score for sp in spans)


# Words of lexical-scorer cases: punctuation, case, and non-ASCII letters
# (KELVIN SIGN, dotted capital I) that lowercase to ASCII but are no token.
LEXICAL_WORDS = [f"w{i}" for i in range(8)] + ["W1", "w2,", "(w3)", "\u212a", "\u0130w4", "k", "i"]


class TestLexicalScorer:
    def test_identical_passage_scores_positive(self):
        scorer = LexicalScorer()
        logits = scorer.logits("masks reduce spread", "p", "masks reduce spread")
        assert answerability(logits) > 0

    def test_zero_overlap_all_zero(self):
        scorer = LexicalScorer()
        logits = scorer.logits("quantum entanglement", "p", "masks reduce viral spread")
        assert all(v == 0.0 for v in logits.start)
        assert all(v == 0.0 for v in logits.end)
        assert answerability(logits) == 0.0

    def test_duplicated_passage_interior_spans_equal(self):
        scorer = LexicalScorer(window=3)
        half = "filler one masks help stop spread filler two extra pad"
        n_half = 10
        logits = scorer.logits("masks help spread", "p", half + " " + half)
        # Interior spans (windows not crossing the copy boundary) match.
        for s in range(4, 7):
            for e in range(s, 7):
                a = span_score(logits, s, e)
                b = span_score(logits, s + n_half, e + n_half)
                assert a == b

    def test_deterministic(self):
        scorer = LexicalScorer()
        a = scorer.logits("why do masks work", "p", "masks work by blocking droplets")
        b = scorer.logits("why do masks work", "p", "masks work by blocking droplets")
        assert a == b

    @pytest.mark.parametrize("window", [1, 3, 5, 40])
    def test_equals_window_sum_loop_reference(self, window):
        rng = np.random.default_rng(window)
        vocab = [f"w{i}" for i in range(12)] + ["W1", "w2,", "(w3)"]
        for _ in range(60):
            question = " ".join(rng.choice(vocab, size=rng.integers(0, 6)))
            text = " ".join(rng.choice(vocab, size=rng.integers(0, 50)))
            got = LexicalScorer(window).logits(question, "p", text)
            expected = window_sum_reference(question, text, window)
            assert [v.hex() for v in got.start] == [v.hex() for v in expected.start]
            assert [v.hex() for v in got.end] == [v.hex() for v in expected.end]

    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(LEXICAL_WORDS), max_size=6).map(" ".join),
                st.lists(st.sampled_from(LEXICAL_WORDS), max_size=50).map(" ".join),
            ),
            max_size=40,
        ),
        st.sampled_from([1, 3, 5, 40]),
    )
    @example([], 5)
    @example([("w1", ""), ("w1", "w1"), ("w2", "w1 w2"), ("w1", "")], 5)
    def test_logits_pairs_equals_window_sum_loop_reference(self, pairs, window):
        questions = [q for q, _ in pairs]
        texts = [text for _, text in pairs]
        rows = LexicalScorer(window).logits_pairs(questions, [f"p{i}" for i in range(len(pairs))], texts)
        assert rows.n.tolist() == [len(tokenize(text)) for text in texts]
        assert rows.cls_start.tolist() == rows.cls_end.tolist() == [0.0] * len(texts)
        offsets = np.cumsum(rows.n) - rows.n
        for question, text, o, n in zip(questions, texts, offsets.tolist(), rows.n.tolist()):
            expected = window_sum_reference(question, text, window)
            assert [v.hex() for v in rows.start[o : o + n]] == [v.hex() for v in expected.start[1:]]
            assert [v.hex() for v in rows.end[o : o + n]] == [v.hex() for v in expected.end[1:]]

    def test_logits_pairs_terms_once_per_distinct_question(self, monkeypatch):
        import hyqa.mrc

        calls, real = [], hyqa.mrc.terms
        monkeypatch.setattr(hyqa.mrc, "terms", lambda text: calls.append(text) or real(text))
        questions = ["w1 w2", "w3", "w1 w2", "w3", "w1 w2"]
        texts = [f"w{i} w1" for i in range(5)]
        LexicalScorer().logits_pairs(questions, ["p"] * 5, texts)
        assert sorted(calls) == sorted(["w1 w2", "w3"] + texts)


# Texts that several calls of one scorer draw from, so that a text repeats
# within a call and is first read in an earlier one.
LEXICAL_TEXTS = ["", "w1 w2 w3", "\u212a w1 \u0130w4 k i", "W1, (w3) w2 w1", "w5 w6 w7 w5", "..."]


def terms_reference_rows(questions, texts, w):
    """The stacked logits of each (question, text) pair from a fresh
    terms() pass over both, one Python sum per window: start, end and n as
    lists."""
    start, end, n = [], [], []
    for question, text in zip(questions, texts):
        q_terms = set(terms(question))
        hits = [1.0 if term in q_terms else 0.0 for term in terms(text)]
        start += [sum(hits[i : i + w]) for i in range(len(hits))]
        end += [sum(hits[max(0, i - w + 1) : i + 1]) for i in range(len(hits))]
        n.append(len(hits))
    return start, end, n


class TestLexicalScorerTermIds:
    """One scorer interns each distinct text once and keeps its term ids;
    its logits stay those of a fresh terms() pass on every call."""

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.lists(st.sampled_from(LEXICAL_WORDS + ["absent", "zz9"]), max_size=6).map(" ".join),
                    st.one_of(
                        st.sampled_from(LEXICAL_TEXTS),
                        st.lists(st.sampled_from(LEXICAL_WORDS), max_size=30).map(" ".join),
                    ),
                ),
                max_size=12,
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([1, 3, 5]),
    )
    @example([[("w1 absent", "w1 w2 w3"), ("zz9", "")], [("w2 \u212a", "w1 w2 w3")], [("k i", "\u212a w1 \u0130w4 k i")]], 3)
    @example([[("", "")], [], [("w1", "w1 w1")]], 1)
    def test_rows_equal_a_terms_reference_over_several_calls(self, calls, window):
        scorer = LexicalScorer(window)
        for pairs in calls:
            questions = [q for q, _ in pairs]
            texts = [text for _, text in pairs]
            rows = scorer.logits_pairs(questions, ["p"] * len(pairs), texts)
            start, end, n = terms_reference_rows(questions, texts, window)
            assert rows.n.tolist() == n
            assert [v.hex() for v in rows.start.tolist()] == [v.hex() for v in start]
            assert [v.hex() for v in rows.end.tolist()] == [v.hex() for v in end]
            assert rows.cls_start.tolist() == rows.cls_end.tolist() == [0.0] * len(pairs)

    def test_each_distinct_text_is_tokenized_once_per_scorer(self, monkeypatch):
        import hyqa.mrc

        calls, real = [], hyqa.mrc.terms
        monkeypatch.setattr(hyqa.mrc, "terms", lambda text: calls.append(text) or real(text))
        scorer = LexicalScorer()
        scorer.logits_pairs(["w1", "w2"], ["a", "b"], ["w1 w2", "w1 w2"])
        scorer.logits_pairs(["w1"], ["c"], ["w1 w2"])
        # The call's texts are interned before its questions are mapped.
        assert calls == ["w1 w2", "w1", "w2", "w1"]


def window_sum_reference(question, passage_text, w):
    """LexicalScorer.logits as it was before the prefix-sum form: one
    Python sum per window; kept as the exact reference."""
    q_tokens = {t.surface for t in tokenize(question)}
    hits = [1.0 if t.surface in q_tokens else 0.0 for t in tokenize(passage_text)]
    n = len(hits)
    start = [0.0] * (n + 1)
    end = [0.0] * (n + 1)
    for i in range(1, n + 1):
        start[i] = sum(hits[i - 1 : i - 1 + w])
        end[i] = sum(hits[max(0, i - w) : i])
    return SpanLogits(tuple(start), tuple(end))


class TestExternalLogits:
    def test_roundtrip(self):
        line = ExternalLogits.dump_record("q1", "p1", FIXTURE)
        source = ExternalLogits.load([line])
        assert source.lookup("q1", "p1") == FIXTURE

    def test_absent_key_returns_none(self):
        source = ExternalLogits.load([])
        assert source.lookup("q", "p") is None

    def test_malformed_record_names_index(self):
        with pytest.raises(ValueError, match="line 1"):
            ExternalLogits.load(['{"question_id": "q"}'])

    def test_length_validation(self):
        line = ExternalLogits.dump_record("q1", "p1", FIXTURE)  # n=2
        source = ExternalLogits.load([line])
        with pytest.raises(ValueError, match="cover 2 tokens"):
            source.validate_against({"p1": "one two three four"})

    def test_length_validation_passes(self):
        line = ExternalLogits.dump_record("q1", "p1", FIXTURE)
        ExternalLogits.load([line]).validate_against({"p1": "one two"})


    def test_duplicate_record_names_key(self):
        line = ExternalLogits.dump_record("q1", "p1", FIXTURE)
        other = ExternalLogits.dump_record("q2", "p1", FIXTURE)
        with pytest.raises(ValueError, match=r"duplicate logits record for \('q1', 'p1'\)"):
            ExternalLogits.load([line, other, line])

    def test_logits_by_question_id(self):
        records = [
            ExternalLogits.parse_record(json.loads(ExternalLogits.dump_record(qid, "p1", logits)))
            for qid, logits in (("q1", FIXTURE), ("what is it", SpanLogits((0.0, 1.0), (0.0, 1.0))))
        ]
        source = ExternalLogits.from_records(records, {"which one": "q1"})
        assert source.logits("which one", "p1", "one two") == FIXTURE
        # A question the map does not name is its own id.
        assert source.logits("what is it", "p1", "one") == SpanLogits((0.0, 1.0), (0.0, 1.0))
        assert source.logits("which one", "p2", "one") is None
        assert source.logits("q1", "p1", "one two") == FIXTURE


class LogitsOnly:
    """A scorer with .logits only: a table row, or None for absent pairs."""

    def __init__(self, table):
        self.table = table

    def logits(self, question, passage_id, passage_text):
        return self.table.get((question, passage_id))


class TestLogitRows:
    def test_stacks_logits_rows_and_masks_unscored_pairs(self):
        empty = SpanLogits((1.5,), (2.5,))
        scorer = LogitsOnly({("q", "a"): FIXTURE, ("q", "c"): empty, ("r", "a"): FIXTURE})
        rows, scored = logit_rows(scorer, ["q", "q", "q", "r"], ["a", "b", "c", "a"], ["x y"] * 4)
        assert scored.tolist() == [True, False, True, True]
        assert rows.n.tolist() == [2, 0, 0, 2]
        assert rows.cls_start.tolist() == [0.5, 0.0, 1.5, 0.5]
        assert rows.cls_end.tolist() == [0.2, 0.0, 2.5, 0.2]
        assert rows.start.tolist() == [2.0, 1.0, 2.0, 1.0]
        assert rows.end.tolist() == [0.5, 3.0, 0.5, 3.0]

    def test_no_pairs(self):
        for scorer in (LexicalScorer(), LogitsOnly({})):
            rows, scored = logit_rows(scorer, [], [], [])
            assert scored.size == rows.n.size == rows.cls_start.size == rows.start.size == 0
            assert rows.n.dtype == np.intp and scored.dtype == bool

    def test_logits_pairs_equals_stacked_logits(self):
        scorer = LexicalScorer(3)
        questions = ["w1 w2", "w3", "w1 w2", "w4"]
        texts = ["w1 w2 w3 w1", "", "w2 w5 w1", "w4 w4 w4 w4 w4"]
        ids = ["a", "b", "c", "d"]
        rows, scored = logit_rows(scorer, questions, ids, texts)

        class Wrapped:
            def logits(self, question, passage_id, passage_text):
                return scorer.logits(question, passage_id, passage_text)

        stacked, all_scored = logit_rows(Wrapped(), questions, ids, texts)
        assert scored.all() and all_scored.all()
        for name in ("start", "end", "cls_start", "cls_end", "n"):
            assert np.array_equal(getattr(rows, name), getattr(stacked, name)), name

    def test_nonempty_drops_rows_without_tokens(self):
        rows, _ = logit_rows(LogitsOnly({("q", "a"): FIXTURE}), ["q", "q", "q"], ["b", "a", "b"], ["", "x y", ""])
        read, kept = rows.nonempty()
        assert read.tolist() == [1]
        assert kept.n.tolist() == [2] and kept.cls_start.tolist() == [0.5]
        assert kept.start is rows.start and kept.end is rows.end


class TestExtractAnswer:
    def test_character_offsets(self):
        from hyqa.mrc import SpanScore

        text = "The COVID-19 vaccine works."
        # tokens: the, covid, 19, vaccine, works -> span (2, 4) = "COVID-19 vaccine"
        assert extract_answer(text, SpanScore(2, 4, 0.0)) == "COVID-19 vaccine"

    def test_span_past_the_passage(self):
        from hyqa.mrc import SpanScore

        with pytest.raises(IndexError, match="2 tokens"):
            extract_answer("two words", SpanScore(2, 3, 0.0))
        with pytest.raises(IndexError, match="2 tokens"):
            extract_answer("two words", SpanScore(0, 1, 0.0))

    @given(st.text(alphabet="ab1 ,.-(\u212a\u0130"), st.data())
    def test_equals_tokenize_cut(self, text, data):
        from hyqa.mrc import SpanScore

        tokens = tokenize(text)
        e = data.draw(st.integers(1, len(tokens) + 2))
        s = data.draw(st.integers(1, e))
        if e > len(tokens):
            with pytest.raises(IndexError, match=f"passage's {len(tokens)} tokens"):
                extract_answer(text, SpanScore(s, e, 0.0))
        else:
            assert extract_answer(text, SpanScore(s, e, 0.0)) == text[tokens[s - 1].start : tokens[e - 1].end]
