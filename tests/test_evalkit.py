import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import integrate

import hyqa
from hyqa.corpus import IngestError
from hyqa.evalkit import (
    GoldSet,
    MetricReport,
    exact_match,
    first_match_rank,
    load_gold_jsonl,
    load_gold_squad,
    match_at_k,
    normalize_answer,
    open_version,
    paired_t_test,
    token_f1,
    top_n_f1,
)
from hyqa.scored import ScoredPassage


class TestNormalize:
    def test_lowercase_and_punctuation(self):
        assert normalize_answer("The COVID-19 Virus!") == "covid19 virus"

    def test_articles_removed(self):
        assert normalize_answer("a dog and the cat") == "dog and cat"

    def test_whitespace_collapsed(self):
        assert normalize_answer("  spaced   out \t words ") == "spaced out words"

    def test_article_inside_word_kept(self):
        assert normalize_answer("theory about anacondas") == "theory about anacondas"

    def test_empty(self):
        assert normalize_answer("") == ""


class TestExactMatch:
    def test_case_and_punct_insensitive(self):
        assert exact_match("The Answer!", ["answer"]) == 1

    def test_any_gold_suffices(self):
        assert exact_match("paris", ["London", "Paris"]) == 1

    def test_mismatch(self):
        assert exact_match("lyon", ["London", "Paris"]) == 0


class TestTokenF1:
    def test_perfect(self):
        assert token_f1("the cat sat", ["cat sat"]) == 1.0

    def test_hand_computed_partial(self):
        # pred {cat, sat}, gold {cat, ran}: p=0.5, r=0.5 -> f1=0.5
        assert token_f1("cat sat", ["cat ran"]) == pytest.approx(0.5)

    def test_max_over_golds(self):
        assert token_f1("cat sat", ["dog ran", "cat sat"]) == 1.0

    def test_both_empty(self):
        assert token_f1("the", ["an"]) == 1.0

    def test_one_empty(self):
        assert token_f1("", ["cat"]) == 0.0
        assert token_f1("cat", ["the"]) == 0.0

    def test_repeated_tokens_use_counts(self):
        # pred {cat:2}, gold {cat:1}: overlap 1, p=0.5, r=1 -> 2/3
        assert token_f1("cat cat", ["cat"]) == pytest.approx(2 / 3)


class TestMatchAtK:
    TEXTS = {
        "p1": "The storm hit the coastal town at dawn.",
        "p2": "Vaccines reduce severe illness substantially.",
        "p3": "An unrelated note about pottery.",
    }

    def run(self):
        return [ScoredPassage(p, 1.0, "sparse") for p in ("p1", "p2", "p3")]

    def test_hit_within_k(self):
        gold = GoldSet("q", "what reduces illness", ("vaccines",))
        assert match_at_k(self.run(), gold, 2, self.TEXTS) == 1

    def test_miss_outside_k(self):
        gold = GoldSet("q", "what reduces illness", ("vaccines",))
        assert match_at_k(self.run(), gold, 1, self.TEXTS) == 0

    def test_normalized_containment(self):
        gold = GoldSet("q", "q", ("COASTAL TOWN!",))
        assert match_at_k(self.run(), gold, 1, self.TEXTS) == 1

    def test_contiguity_required(self):
        gold = GoldSet("q", "q", ("storm dawn",))
        assert match_at_k(self.run(), gold, 3, self.TEXTS) == 0

    def test_empty_run(self):
        gold = GoldSet("q", "q", ("anything",))
        assert match_at_k([], gold, 5, self.TEXTS) == 0


def contains_answer_reference(passage_text, answers):
    """The token-window containment test that first_match_rank replaces."""
    passage_tokens = normalize_answer(passage_text).split()
    for answer in answers:
        ans_tokens = normalize_answer(answer).split()
        if not ans_tokens:
            continue
        n = len(ans_tokens)
        for i in range(len(passage_tokens) - n + 1):
            if passage_tokens[i : i + n] == ans_tokens:
                return True
    return False


_WORDS = ["x", "xy", "y", "Y", "the", "The", "a", "an", "x!", "y-x", "...", "é", "İ"]
_SEPARATORS = [" ", "  ", "\t", "\n", "\u00a0", "\u2003", "\x1c", ",", ""]
_texts = st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from(_SEPARATORS)), max_size=8).map(
    lambda parts: "".join(w + sep for w, sep in parts)
)


class TestFirstMatchRank:
    @given(
        st.lists(_texts, min_size=1, max_size=6),
        st.lists(_texts, min_size=1, max_size=3),
        st.lists(st.integers(0, 5), max_size=110),
    )
    @example(["the x y", "x y"], ["X Y!"], [0, 1])
    @example(["xy", "x"], ["x"], [0] * 30 + [1])
    @example(["x"], ["the", "..."], [0] * 5)
    @example(["x\u00a0y"], ["x y"], [0])
    def test_equals_token_window_reference(self, texts, answers, picks):
        passage_texts = {f"p{i}": t for i, t in enumerate(texts)}
        retrieved = [ScoredPassage(f"p{i % len(texts)}", 1.0, "sparse") for i in picks]
        gold = GoldSet("q", "q", tuple(answers))
        rank = first_match_rank([sp.passage_id for sp in retrieved], gold, 100, passage_texts)
        for k in (1, 20, 40, 100):
            expected = int(any(contains_answer_reference(passage_texts[sp.passage_id], answers)
                               for sp in retrieved[:k]))
            assert match_at_k(retrieved, gold, k, passage_texts) == expected
            assert int(rank < k) == expected

    def test_rank_of_first_hit(self):
        texts = {"p1": "no", "p2": "the answer", "p3": "answer"}
        run = ["p1", "p2", "p3"]
        gold = GoldSet("q", "q", ("Answer",))
        assert first_match_rank(run, gold, 3, texts) == 1
        assert first_match_rank(run, gold, 1, texts) == 1  # none in the top 1: the depth
        with pytest.raises(ValueError):
            first_match_rank(run, gold, 0, texts)

    def test_missing_passage_text_is_named(self):
        # p1 holds no answer, so the scan reaches p2, which has no text.
        with pytest.raises(KeyError, match="^\"retrieved passage 'p2' not in passage_texts\"$"):
            first_match_rank(["p1", "p2"], GoldSet("q", "q", ("answer",)), 2, {"p1": "no"})
        assert first_match_rank(["p1", "p2"], GoldSet("q", "q", ("no",)), 2, {"p1": "no"}) == 0


class TestTopNF1:
    def test_best_of_first_n(self):
        gold = GoldSet("q", "q", ("cat sat",))
        assert top_n_f1(["dog", "cat sat", "cat"], gold, 2) == 1.0
        assert top_n_f1(["dog", "cat sat", "cat"], gold, 1) == 0.0

    def test_empty_candidates(self):
        assert top_n_f1([], GoldSet("q", "q", ("x",)), 5) == 0.0


class TestOpenVersion:
    def test_groups_by_normalized_question(self):
        rows = [
            ("Who won?", "Alice"),
            ("who won", "Bob"),
            ("Who lost?", "Carol"),
        ]
        golds = open_version(rows)
        assert len(golds) == 2
        assert golds[0].answers == ("Alice", "Bob")
        assert golds[1].answers == ("Carol",)

    def test_duplicate_answers_not_repeated(self):
        golds = open_version([("q", "a"), ("q", "a")])
        assert golds[0].answers == ("a",)


def quadrature_p_value(t, df):
    """Two-sided tail of Student's t by numerical integration of its pdf."""
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))

    def pdf(x):
        return c * (1 + x * x / df) ** (-(df + 1) / 2)

    tail, _ = integrate.quad(pdf, abs(t), np.inf)
    return 2 * tail


class TestPairedTTest:
    def test_pipeline_and_cli_import_without_scipy_special(self):
        # paired_t_test imports scipy.special on first call, so the read and
        # training paths never load it.
        env = {**os.environ, "PYTHONPATH": str(Path(hyqa.__file__).parents[1])}
        code = "import sys, hyqa.pipeline, hyqa.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.special')))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True, text=True)
        assert proc.stdout == "[]\n"

    def test_symmetric_diffs_give_t_zero(self):
        result = paired_t_test([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert result.t == pytest.approx(0.0)
        assert result.p_value == pytest.approx(1.0)

    def test_hand_computed_t(self):
        # diffs [1, 2, 3]: mean 2, sd 1, t = 2 / (1/sqrt(3)) = 2*sqrt(3)
        result = paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        assert result.t == pytest.approx(2 * math.sqrt(3))
        assert result.df == 2

    def test_p_value_matches_quadrature(self):
        rng = np.random.default_rng(0)
        for n in (3, 5, 12, 40):
            a = rng.normal(size=n).tolist()
            b = (rng.normal(size=n) + 0.3).tolist()
            result = paired_t_test(a, b)
            assert result.p_value == pytest.approx(
                quadrature_p_value(result.t, result.df), abs=1e-6
            )

    def test_degenerate_zero_variance(self):
        result = paired_t_test([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])
        assert result.degenerate
        assert result.t is None and result.p_value is None
        assert result.df == 2

    def test_antisymmetry(self):
        a, b = [1.0, 3.0, 2.0, 5.0], [0.0, 1.0, 4.0, 2.0]
        fwd = paired_t_test(a, b)
        rev = paired_t_test(b, a)
        assert fwd.t == pytest.approx(-rev.t)
        assert fwd.p_value == pytest.approx(rev.p_value)

    def test_sums_left_to_right(self):
        # F1-like scores whose differences sum differently left to right
        # and compensated (fsum; the builtin sum compensates from 3.12 on).
        rng = np.random.default_rng(5)
        a, b = rng.random(96).tolist(), rng.random(96).tolist()
        diffs = [x - y for x, y in zip(a, b)]
        total = 0.0
        for d in diffs:
            total += d
        assert total != math.fsum(diffs)
        mean = total / len(diffs)
        var = 0.0
        for d in diffs:
            var += (d - mean) ** 2
        var /= len(diffs) - 1
        result = paired_t_test(a, b)
        assert result.t == mean / math.sqrt(var / len(diffs))
        assert result.df == 95 and not result.degenerate

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [1.0, 2.0])

    def test_too_small(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])


class TestLoaders:
    def test_jsonl(self):
        lines = [
            json.dumps({"id": "q7", "question": "who", "answers": ["x", "y"]}),
            "",
            json.dumps({"question": "what", "answers": ["z"]}),
        ]
        golds = load_gold_jsonl(lines, "golds.jsonl")
        assert golds[0] == GoldSet("q7", "who", ("x", "y"))
        assert golds[1].answers == ("z",)

    def test_squad(self):
        data = {
            "data": [
                {
                    "paragraphs": [
                        {
                            "qas": [
                                {"id": "1", "question": "who", "answers": [{"text": "Ada"}]},
                                {"id": "2", "question": "unanswerable", "answers": []},
                            ]
                        }
                    ]
                }
            ]
        }
        golds = load_gold_squad(data)
        assert len(golds) == 1
        assert golds[0].answers == ("Ada",)

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ("{not json", "invalid JSON"),
            ('{"answers": ["x"]}', "question"),
            ('["who", "x"]', "not a JSON object"),
            ('{"question": "who", "answers": "shellfish"}', "'answers' is not a list of strings"),
            ('{"question": "who", "answers": [1, 2]}', "'answers' is not a list of strings"),
            ('{"question": 5, "answers": ["x"]}', "'question' is not a string"),
        ],
    )
    def test_jsonl_malformed_record_names_line(self, bad, reason):
        lines = [json.dumps({"question": "who", "answers": ["x"]}), "", bad]
        with pytest.raises(ValueError, match=rf"line 3: .*{reason}"):
            load_gold_jsonl(lines, "golds.jsonl")

    def test_jsonl_id_less_gold_is_numbered_by_record(self):
        lines = [json.dumps({"question": "who", "answers": ["x"]}), "", json.dumps({"question": "what", "answers": ["y"]})]
        assert [g.query_id for g in load_gold_jsonl(lines, "golds.jsonl")] == ["q0", "q1"]

    def test_jsonl_non_string_id_is_refused(self):
        lines = [json.dumps({"id": "a", "question": "who", "answers": ["x"]}), json.dumps({"id": 5, "question": "who", "answers": ["x"]})]
        with pytest.raises(IngestError) as raised:
            load_gold_jsonl(lines, "golds.jsonl")
        assert str(raised.value) == "golds.jsonl line 2: 'id' is not a string"

    def test_jsonl_repeated_id_is_refused(self):
        # The id-less first record is q0, so the explicit q0 on line 3 repeats it.
        lines = [json.dumps({"question": "who", "answers": ["x"]}), "", json.dumps({"id": "q0", "question": "what", "answers": ["y"]})]
        with pytest.raises(IngestError) as raised:
            load_gold_jsonl(lines, "golds.jsonl")
        assert str(raised.value) == "golds.jsonl line 3: duplicate query id 'q0'"

    def test_squad_malformed_qa_names_index(self):
        # A qa is named by its id, or by its 0-based index when it has none.
        qas = [
            {"id": "1", "question": "who", "answers": [{"text": "Ada"}]},
            {"id": "2", "answers": [{"text": "Bob"}]},
        ]
        with pytest.raises(ValueError, match=r"^malformed SQuAD qa '2': missing key 'question'$"):
            load_gold_squad({"data": [{"paragraphs": [{"qas": qas}]}]})
        qas[1] = {"id": "2", "question": "who", "answers": [{"span": "Bob"}]}
        with pytest.raises(ValueError, match=r"^malformed SQuAD qa '2': missing key 'text'$"):
            load_gold_squad({"data": [{"paragraphs": [{"qas": qas}]}]})
        del qas[1]["id"]
        with pytest.raises(ValueError, match=r"^malformed SQuAD qa 1: missing key 'text'$"):
            load_gold_squad({"data": [{"paragraphs": [{"qas": qas}]}]})

    @pytest.mark.parametrize(
        "qa, reason",
        [
            ({"id": "1", "question": 5, "answers": [{"text": "Ada"}]}, "'question' is not a string"),
            ({"id": "1", "question": "who", "answers": [{"text": "Ada"}, {"text": 7}]}, "'text' is not a string"),
            ({"id": "1", "question": 5, "answers": [{"text": 7}]}, "'question' is not a string"),
        ],
        ids=["question", "answer-text", "both"],
    )
    def test_squad_non_string_question_or_text_is_refused(self, qa, reason):
        with pytest.raises(ValueError) as raised:
            load_gold_squad({"data": [{"paragraphs": [{"qas": [qa]}]}]})
        assert str(raised.value) == f"malformed SQuAD qa '1': {reason}"

    def test_squad_repeated_id_is_refused(self):
        # The id-less first qa gets the id "0", which the second qa repeats.
        qas = [
            {"question": "a", "answers": [{"text": "x"}]},
            {"id": "0", "question": "b", "answers": [{"text": "y"}]},
        ]
        with pytest.raises(ValueError) as raised:
            load_gold_squad({"data": [{"paragraphs": [{"qas": qas}]}]})
        assert str(raised.value) == "malformed SQuAD qa '0': duplicate id"

    @pytest.mark.parametrize(
        "qa, reason",
        [
            ({"question": "who", "answers": ["Bob"]}, "'answers' is not a list of objects"),
            ({"question": "who", "answers": "Bob"}, "'answers' is not a list of objects"),
            (["who", "Bob"], "qa is not a JSON object"),
        ],
    )
    def test_squad_malformed_qa_reason_in_words(self, qa, reason):
        qas = [{"id": "1", "question": "who", "answers": [{"text": "Ada"}]}, qa]
        with pytest.raises(ValueError) as raised:
            load_gold_squad({"data": [{"paragraphs": [{"qas": qas}]}]})
        assert str(raised.value) == f"malformed SQuAD qa 1: {reason}"

    @pytest.mark.parametrize(
        "data, message",
        [
            ([], "malformed SQuAD file: not a JSON object"),
            ({"data": {"paragraphs": []}}, "malformed SQuAD file: 'data' is not a list"),
            ({"data": [{"paragraphs": []}, ["paragraphs"]]}, "malformed SQuAD article 1: not a JSON object"),
            ({"data": [{"paragraphs": "qas"}]}, "malformed SQuAD article 0: 'paragraphs' is not a list"),
            ({"data": [{}, {"paragraphs": [{"qas": []}, "qas"]}]},
             "malformed SQuAD paragraph 1 of article 1: not a JSON object"),
            ({"data": [{"paragraphs": [{"qas": {"id": "1"}}]}]},
             "malformed SQuAD paragraph 0 of article 0: 'qas' is not a list"),
        ],
        ids=["file", "data", "article", "paragraphs", "paragraph", "qas"],
    )
    def test_squad_malformed_container_is_located(self, data, message):
        with pytest.raises(ValueError) as raised:
            load_gold_squad(data)
        assert str(raised.value) == message


class TestReport:
    def test_json_is_sorted_and_stable(self):
        report = MetricReport(metrics={"b": 1.0, "a": 0.5}, query_count=2)
        parsed = json.loads(report.to_json())
        assert parsed["metrics"] == {"a": 0.5, "b": 1.0}
        assert report.to_json() == report.to_json()

    def test_table_mentions_all_metrics(self):
        report = MetricReport(metrics={"em": 0.5}, query_count=4)
        table = report.format_table()
        assert "em" in table and "0.5000" in table and "4" in table
