
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hyqa.corpus import tokenize
from hyqa.mrc import (
    ExternalLogits,
    LexicalScorer,
    ScorerConfig,
    SpanLogits,
    answerability,
    best_span_each,
    best_spans,
    extract_answer,
    span_band,
    span_score,
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
    def test_pads_each_row_past_its_own_length(self):
        short = SpanLogits((0.0, 1.0), (0.0, 2.0))
        band = span_band([FIXTURE, short], max_answer_len=30)
        assert band.tolist() == [[1.8, 4.3], [3.3, float("-inf")], [3.0, float("-inf")]]

    @given(st.lists(logit_sets, min_size=1, max_size=40), st.integers(1, 60))
    def test_best_span_each_equals_best_spans_top_1(self, rows, max_len):
        rows = [r for r in rows if r.n > 0] or [FIXTURE]
        s, e, scores = best_span_each(rows, max_len)
        expected = [best_spans(r, ScorerConfig(max_answer_len=max_len, top_n=1))[0] for r in rows]
        assert list(zip(s.tolist(), e.tolist(), [v.hex() for v in scores.tolist()])) == [
            (sp.s, sp.e, sp.score.hex()) for sp in expected
        ]


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
        with pytest.raises(ValueError, match="record 0"):
            ExternalLogits.load(['{"question_id": "q"}'])

    def test_length_validation(self):
        line = ExternalLogits.dump_record("q1", "p1", FIXTURE)  # n=2
        source = ExternalLogits.load([line])
        with pytest.raises(ValueError, match="cover 2 tokens"):
            source.validate_against({"p1": "one two three four"})

    def test_length_validation_passes(self):
        line = ExternalLogits.dump_record("q1", "p1", FIXTURE)
        ExternalLogits.load([line]).validate_against({"p1": "one two"})


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
