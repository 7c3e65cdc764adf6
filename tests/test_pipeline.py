import importlib
import json
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyqa
from hyqa import pipeline
from hyqa.corpus import Document, chunk_retrieval_passages, tokenize
from hyqa.dense_index import build_dense_index, build_ivf_index, dense_search, dense_top_k, ivf_search
from hyqa.encoder import DualEncoder, IRTrainInstance, TrainConfig
from hyqa.evalkit import GoldSet, first_match_rank, token_f1
from hyqa.fusion import FusionConfig, minmax_normalize
from hyqa.mrc import MAX_ANSWER_LEN, LexicalScorer, ScorerConfig, SpanLogits, best_span_each, best_spans, stack_logits
from hyqa.pipeline import (
    K_HYBRID,
    AdaptationConfig,
    PipelineConfig,
    Retriever,
    answer_question,
    evaluate_run,
    make_dense_retriever,
    make_hybrid_retriever,
    make_sparse_retriever,
    run_adaptation,
    train_encoder,
)
from hyqa.scored import ScoredPassage
from hyqa.sparse import BM25Params, build_sparse_index, sparse_search
from hyqa.syngen import (
    FilterConfig,
    NgramLM,
    SamplerConfig,
    build_ir_training_set,
    generate_corpus,
    generate_examples,
)


class TableScorer:
    """Looks up precomputed span logits keyed by passage id."""

    def __init__(self, table):
        self.table = table

    def logits(self, question, passage_id, passage_text):
        return self.table.get(passage_id)


def fixed_retriever(results):
    """A Retriever that ranks the records' passages in their order, with
    their scores."""
    ids = [r.passage_id for r in results]
    scores = np.array([r.score for r in results], dtype=np.float64)
    return Retriever(ids, lambda question, k: (np.arange(min(k, len(ids))), scores[:k]), "sparse")


PASSAGE_TEXTS = {
    "p1": "alpha beta gamma",
    "p2": "delta epsilon zeta",
    "p3": "eta theta iota",
}


class TestAnswerQuestion:
    def retrieved(self):
        return [
            ScoredPassage("p1", 3.0, "sparse"),
            ScoredPassage("p2", 2.0, "sparse"),
            ScoredPassage("p3", 1.0, "sparse"),
        ]

    def logit_table(self):
        # Best span in p2 dominates; p1 and p3 are flat.
        return {
            "p1": SpanLogits(start=(0.0, 0.1, 0.0, 0.0), end=(0.0, 0.0, 0.1, 0.0)),
            "p2": SpanLogits(start=(0.0, 5.0, 0.0, 0.0), end=(0.0, 5.0, 0.0, 0.0)),
            "p3": SpanLogits(start=(0.0, 0.0, 0.0, 0.0), end=(0.0, 0.0, 0.0, 0.0)),
        }

    def test_ir_weight_one_follows_retrieval(self):
        config = PipelineConfig(K=3, ir_weight=1.0)
        candidates = answer_question("q", fixed_retriever(self.retrieved()), TableScorer(self.logit_table()), PASSAGE_TEXTS, config)
        assert [c.passage_id for c in candidates] == ["p1", "p2", "p3"]

    def test_ir_weight_zero_follows_span_scores(self):
        config = PipelineConfig(K=3, ir_weight=0.0)
        candidates = answer_question("q", fixed_retriever(self.retrieved()), TableScorer(self.logit_table()), PASSAGE_TEXTS, config)
        assert candidates[0].passage_id == "p2"
        assert candidates[0].text == "delta"

    def test_intermediate_weight_combines(self):
        config = PipelineConfig(K=3, ir_weight=0.7)
        candidates = answer_question("q", fixed_retriever(self.retrieved()), TableScorer(self.logit_table()), PASSAGE_TEXTS, config)
        by_id = {c.passage_id: c for c in candidates}
        # p1: ir 1.0, mrc (0.2-0)/ (10-0) = 0.02 -> 0.7 + 0.3*0.02
        assert by_id["p1"].combined == pytest.approx(0.7 + 0.3 * 0.02)
        # p2: ir 0.5, mrc 1.0 -> 0.35 + 0.3
        assert by_id["p2"].combined == pytest.approx(0.65)
        assert candidates[0].passage_id == "p1"

    def test_missing_logits_skips_passage(self):
        table = self.logit_table()
        del table["p2"]
        config = PipelineConfig(K=3, ir_weight=0.5)
        candidates = answer_question("q", fixed_retriever(self.retrieved()), TableScorer(table), PASSAGE_TEXTS, config)
        assert {c.passage_id for c in candidates} == {"p1", "p3"}

    def test_no_candidates(self):
        candidates = answer_question("q", fixed_retriever([]), TableScorer({}), PASSAGE_TEXTS, PipelineConfig())
        assert candidates == []

    def test_depth_constants(self):
        assert K_HYBRID == 40
        assert PipelineConfig().K == 40
        assert PipelineConfig().ir_weight == 0.7

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PipelineConfig(ir_weight=1.5)

    def test_logits_longer_than_passage_name_it(self):
        table = self.logit_table()
        table["p2"] = SpanLogits(start=(0.0,) * 5, end=(0.0,) * 5)
        with pytest.raises(ValueError, match="'p2' cover 4 tokens"):
            answer_question("q", fixed_retriever(self.retrieved()), TableScorer(table), PASSAGE_TEXTS, PipelineConfig(K=3))

    def test_logits_shorter_than_passage_cut_from_its_tokens(self):
        # Each answer is cut at its own passage's token offsets, whatever
        # the earlier rows' lengths.
        table = {
            "p1": SpanLogits(start=(0.0, 1.0), end=(0.0, 1.0)),
            "p2": SpanLogits(start=(0.0, 0.0, 3.0), end=(0.0, 0.0, 3.0)),
            "p3": SpanLogits(start=(0.0, 2.0, 0.0, 0.0), end=(0.0, 0.0, 0.0, 2.0)),
        }
        args = ("q", fixed_retriever(self.retrieved()), TableScorer(table), PASSAGE_TEXTS, PipelineConfig(K=3))
        assert candidate_rows(answer_question(*args)) == loop_reference(*args)
        assert sorted(c.text for c in answer_question(*args)) == ["alpha", "epsilon", "eta theta iota"]


def loop_reference(question, retriever, scorer, passage_texts, config):
    """answer_question as it was before the stacked reader: one
    best_spans(top_n=1) and one tokenize-based cut per passage; kept as the
    exact reference."""
    raw = []
    for sp in retriever(question, config.K):
        text = passage_texts[sp.passage_id]
        logits = scorer.logits(question, sp.passage_id, text)
        if logits is None or logits.n == 0:
            continue
        spans = best_spans(logits, ScorerConfig(max_answer_len=MAX_ANSWER_LEN, top_n=1))
        tokens = tokenize(text)
        raw.append((sp, spans[0], text[tokens[spans[0].s - 1].start : tokens[spans[0].e - 1].end]))
    if not raw:
        return []

    ir_norm = minmax_normalize([sp.score for sp, _, _ in raw]).tolist()
    mrc_norm = minmax_normalize([span.score for _, span, _ in raw]).tolist()
    w = config.ir_weight
    rows = [
        (answer, sp.passage_id, span.s, span.e, span.score.hex(), sp.score.hex(), w * ir + (1 - w) * mrc)
        for (sp, span, answer), ir, mrc in zip(raw, ir_norm, mrc_norm)
    ]
    rows.sort(key=lambda r: (-r[-1], r[1]))
    return [(*r[:-1], r[-1].hex()) for r in rows]


def candidate_rows(candidates):
    return [
        (c.text, c.passage_id, c.span.s, c.span.e, c.span.score.hex(), c.ir_score.hex(), c.combined.hex())
        for c in candidates
    ]


WORDS = ["alpha", "Beta", "g4mma", "delta,", "(eps)", "zeta-eta", "x", "99"]


@st.composite
def reading_cases(draw):
    """K passages of mixed token counts (0 to 70) with logits of integer
    ties or random floats; some passages have no logits."""
    k = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ties = draw(st.booleans())
    retrieved, texts, table = [], {}, {}
    for i in range(k):
        pid = f"p{rng.integers(0, 1000):03d}.{i}"
        words = rng.choice(WORDS, size=int(rng.choice([0, 1, 2, rng.integers(3, 71)])))
        texts[pid] = " ".join(words)
        n = len(tokenize(texts[pid]))
        if rng.random() < 0.15:
            continue  # no logits: the scorer returns None
        if ties:
            start, end = rng.integers(-2, 3, size=(2, n + 1)).astype(np.float64)
        else:
            start, end = rng.normal(size=(2, n + 1)) * 3.0
        table[pid] = SpanLogits(start, end)
        retrieved.append(ScoredPassage(pid, float(rng.integers(0, 4)) if ties else float(rng.normal()), "sparse"))
    retrieved += [ScoredPassage(pid, 1.0, "sparse") for pid in texts if pid not in table]
    config = PipelineConfig(
        K=k,
        ir_weight=draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
    )
    return retrieved, texts, table, config


class TestReaderMatchesLoopReference:
    @given(reading_cases())
    @settings(max_examples=150, deadline=None)
    def test_field_for_field(self, case):
        retrieved, texts, table, config = case
        args = ("q", fixed_retriever(retrieved), TableScorer(table), texts, config)
        assert candidate_rows(answer_question(*args)) == loop_reference(*args)


LEXICAL_WORDS = ["alpha", "Beta", "beta", "g4mma", "delta,", "(eps)", "\u212a", "\u0130ota", "k", "i", "99"]


@st.composite
def lexical_cases(draw):
    """K passages (0 to 60 tokens, with non-ASCII letters and repeated
    texts) and a question drawn from the same words, read by LexicalScorer."""
    k = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    texts = {}
    for i in range(k):
        size = int(rng.choice([0, 1, 2, rng.integers(3, 61)]))
        texts[f"p{rng.integers(0, 1000):03d}.{i}"] = " ".join(rng.choice(LEXICAL_WORDS, size=size))
    if draw(st.booleans()):
        # Repeated texts give tied span scores across passages.
        first = next(iter(texts.values()))
        texts = {pid: first if i % 2 else text for i, (pid, text) in enumerate(texts.items())}
    question = " ".join(rng.choice(LEXICAL_WORDS, size=int(rng.integers(0, 6))))
    retrieved = [ScoredPassage(pid, float(rng.integers(0, 4)), "sparse") for pid in texts]
    config = PipelineConfig(
        K=k,
        ir_weight=draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
    )
    return question, retrieved, texts, LexicalScorer(), config


class TestLexicalReaderMatchesLoopReference:
    @given(lexical_cases())
    @settings(max_examples=150, deadline=None)
    def test_field_for_field(self, case):
        question, retrieved, texts, scorer, config = case
        args = (question, fixed_retriever(retrieved), scorer, texts, config)
        assert candidate_rows(answer_question(*args)) == loop_reference(*args)


def count_calls(monkeypatch, name):
    """Count calls of the hyqa function `name` through every hyqa module
    that holds it."""
    calls = []
    original = getattr(sys.modules["hyqa.corpus"], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("hyqa") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


class TestReaderPasses:
    """The K passages are tokenized once for their logits and scanned once
    for their token offsets; no per-passage second scan."""

    def test_one_terms_per_text_and_one_offset_pass(self, monkeypatch):
        texts = {f"p{i}": f"alpha beta {'gamma ' * i}delta" for i in range(7)}
        texts["empty"] = "(...)"
        retrieved = [ScoredPassage(pid, 1.0, "sparse") for pid in texts]
        terms_calls = count_calls(monkeypatch, "terms")
        bounds_calls = count_calls(monkeypatch, "token_bounds")
        config = PipelineConfig(K=len(texts))
        candidates = answer_question("beta delta", fixed_retriever(retrieved), LexicalScorer(), texts, config)
        assert len(candidates) == len(texts) - 1
        assert len(terms_calls) == 1 + len(texts)
        assert len(bounds_calls) == 1

    def test_one_scorer_tokenizes_each_distinct_text_once_over_runs(self, monkeypatch):
        import hyqa.mrc

        texts = {f"p{i}": f"alpha beta {'gamma ' * i}delta" for i in range(6)}
        texts["copy"] = texts["p2"]
        retrieved = [ScoredPassage(pid, 1.0, "sparse") for pid in texts]
        calls, real = [], hyqa.mrc.terms
        monkeypatch.setattr(hyqa.mrc, "terms", lambda text: calls.append(text) or real(text))
        golds = [GoldSet("q0", "beta delta", ("gamma",)), GoldSet("q1", "alpha", ("beta",))]
        scorer = LexicalScorer()
        for _ in range(2):
            evaluate_run(golds, fixed_retriever(retrieved), scorer, texts, PipelineConfig(K=len(texts)))
        passage_calls = [text for text in calls if text in texts.values()]
        assert sorted(passage_calls) == sorted(set(texts.values()))
        assert len(calls) - len(passage_calls) == 2 * len(golds)  # each question, once per run

    def test_evaluate_run_scans_only_the_texts_of_the_answers_it_scores(self, monkeypatch):
        texts = {f"p{i}": f"alpha beta {'gamma ' * i}delta" for i in range(8)}
        retrieved = [ScoredPassage(pid, 1.0, "sparse") for pid in texts]
        config = PipelineConfig(K=len(texts))
        top5 = answer_question("beta delta", fixed_retriever(retrieved), LexicalScorer(), texts, config)[:5]
        bounds_calls = count_calls(monkeypatch, "token_bounds")
        golds = [GoldSet("q", "beta delta", ("gamma delta",))]
        evaluate_run(golds, fixed_retriever(retrieved), LexicalScorer(), texts, config)
        assert bounds_calls == [("\n".join(texts[c.passage_id] for c in top5),)]


class TestEvaluateRun:
    def test_perfect_system(self):
        golds = [GoldSet("q1", "find alpha", ("alpha",))]
        retrieved = [ScoredPassage("p1", 1.0, "sparse")]
        table = {"p1": SpanLogits(start=(0.0, 2.0, 0.0, 0.0), end=(0.0, 2.0, 0.0, 0.0))}
        report = evaluate_run(golds, fixed_retriever(retrieved), TableScorer(table), PASSAGE_TEXTS, PipelineConfig(), match_ks=(1,))
        assert report.metrics["match@1"] == 1.0
        assert report.metrics["top1_f1"] == 1.0
        assert report.per_query["q1"]["top5_f1"] == 1.0

    def test_empty_golds(self):
        report = evaluate_run([], fixed_retriever([]), TableScorer({}), {}, PipelineConfig())
        assert report.metrics == {}
        assert report.query_count == 0

    def test_means_are_query_averages(self):
        golds = [
            GoldSet("q1", "find alpha", ("alpha",)),
            GoldSet("q2", "find missing", ("nowhere",)),
        ]
        retrieved = [ScoredPassage("p1", 1.0, "sparse")]
        table = {"p1": SpanLogits(start=(0.0, 2.0, 0.0, 0.0), end=(0.0, 2.0, 0.0, 0.0))}
        report = evaluate_run(golds, fixed_retriever(retrieved), TableScorer(table), PASSAGE_TEXTS, PipelineConfig(), match_ks=(1,))
        assert report.metrics["match@1"] == 0.5

    @pytest.mark.parametrize("golds", [[], [GoldSet("q1", "find alpha", ("alpha",))]], ids=["no-golds", "golds"])
    @pytest.mark.parametrize(
        "match_ks, message",
        [((), "match_ks must hold at least one k"), ((0,), "every k in match_ks must be >= 1"),
         ((5, -1), "every k in match_ks must be >= 1")],
        ids=["empty", "zero", "negative"],
    )
    def test_match_ks_are_checked_first(self, golds, match_ks, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            evaluate_run(golds, fixed_retriever([]), TableScorer({}), PASSAGE_TEXTS, PipelineConfig(), match_ks=match_ks)

    def test_repeated_query_id_is_named(self):
        golds = [GoldSet("q1", "find alpha", ("alpha",)), GoldSet("q1", "find missing", ("nowhere",))]
        with pytest.raises(ValueError, match="duplicate query id 'q1'"):
            evaluate_run(golds, fixed_retriever([]), TableScorer({}), PASSAGE_TEXTS, PipelineConfig())


def adaptation_corpus():
    topics = [
        ("falcon", "cliffs", "rodents"),
        ("otter", "rivers", "shellfish"),
        ("camel", "deserts", "thornbush"),
        ("penguin", "icefields", "krill"),
        ("jaguar", "jungles", "capybaras"),
        ("ibex", "mountains", "lichen"),
    ]
    docs = []
    for i, (animal, place, food) in enumerate(topics):
        body = (
            f"The {animal} lives among the {place} all year. "
            f"Every {animal} eats {food} during the long season. "
            f"Observers count each {animal} near the {place} daily."
        )
        docs.append(Document(id=f"doc{i}", title=animal, body=body))
    return docs


def small_config(seed=0):
    return AdaptationConfig(
        seed=seed,
        train=TrainConfig(learning_rate=0.05, epochs=2, batch_size=4, warmup_steps=0, seed=seed),
        embedding_dim=16,
    )


def exported_configs():
    """Every dataclass named *Config in a hyqa module's __all__."""
    found = {}
    for module in pkgutil.iter_modules(hyqa.__path__):
        module = importlib.import_module(f"hyqa.{module.name}")
        for name in getattr(module, "__all__", ()):
            if name.endswith("Config") and is_dataclass(getattr(module, name)):
                found[name] = getattr(module, name)
    return [found[name] for name in sorted(found)]


# The counts whose least is 0; every other count's least is 1.
ZERO_LEAST = {"AdaptationConfig.seed", "SamplerConfig.seed", "TrainConfig.epochs", "TrainConfig.warmup_steps", "TrainConfig.seed"}
COUNTS = {
    f"{cls.__name__}.{f.name}": (cls, f.name)
    for cls in exported_configs()
    for f in fields(cls)
    if f.type in (int, "int")
}


class TestEveryConfigCount:
    def test_the_counts_of_six_configs_are_found(self):
        assert {cls.__name__ for cls, _ in COUNTS.values()} == {
            "AdaptationConfig", "FusionConfig", "PipelineConfig", "SamplerConfig", "ScorerConfig", "TrainConfig",
        }
        assert ZERO_LEAST <= COUNTS.keys()

    @pytest.mark.parametrize("count", sorted(COUNTS))
    @pytest.mark.parametrize("value", [2.5, True, "3"], ids=["float", "bool", "str"])
    def test_value_that_is_not_an_integer_is_refused_by_name(self, count, value):
        cls, name = COUNTS[count]
        with pytest.raises(ValueError, match=f"^{name} must be an integer, not {re.escape(repr(value))}$"):
            cls(**{name: value})

    @pytest.mark.parametrize("count", sorted(COUNTS))
    def test_value_below_the_least_is_refused(self, count):
        cls, name = COUNTS[count]
        least = 0 if count in ZERO_LEAST else 1
        with pytest.raises(ValueError, match=f"^{name} must be >= {least}$"):
            cls(**{name: least - 1})

    @pytest.mark.parametrize("count", sorted(COUNTS))
    def test_numpy_integer_is_stored_as_an_int(self, count):
        cls, name = COUNTS[count]
        least = 0 if count in ZERO_LEAST else 1
        stored = getattr(cls(**{name: np.int64(least)}), name)
        assert type(stored) is int and stored == least


# Every float field of an exported *Config dataclass, and BM25Params'.
NUMBERS = {
    f"{cls.__name__}.{f.name}": (cls, f.name, f.default)
    for cls in [*exported_configs(), BM25Params]
    for f in fields(cls)
    if f.type in (float, "float")
}


class TestEveryConfigNumber:
    def test_the_numbers_of_six_configs_are_found(self):
        assert {cls.__name__ for cls, _, _ in NUMBERS.values()} == {
            "BM25Params", "FilterConfig", "FusionConfig", "PipelineConfig", "SamplerConfig", "TrainConfig",
        }

    @pytest.mark.parametrize("number", sorted(NUMBERS))
    @pytest.mark.parametrize("value", [True, "0.5", None], ids=["bool", "str", "none"])
    def test_value_that_is_not_a_number_is_refused_by_name(self, number, value):
        cls, name, _ = NUMBERS[number]
        with pytest.raises(ValueError, match=f"^{name} must be a number, not {re.escape(repr(value))}$"):
            cls(**{name: value})

    @pytest.mark.parametrize("number", sorted(NUMBERS))
    def test_numpy_float_is_stored_as_a_float(self, number):
        cls, name, default = NUMBERS[number]
        stored = getattr(cls(**{name: np.float32(default)}), name)
        assert type(stored) is float and stored == float(np.float32(default))


def count_arguments():
    """A call of each public function that takes a count argument, with the
    name its refusal gives the count."""
    doc = Document(id="d", title="", body="Alpha beta gamma. Beta delta.")
    passages = chunk_retrieval_passages(doc)
    sparse = build_sparse_index(passages)
    dense = build_dense_index(["a", "b"], np.eye(2))
    hybrid = make_hybrid_retriever(sparse, dense, DualEncoder.from_texts([p.text for p in passages], d=2, seed=0), FusionConfig())
    gold = GoldSet("q", "beta", ("beta",))
    return {
        "chunk_retrieval_passages": ("max_units", lambda v: chunk_retrieval_passages(doc, v)),
        "sparse_search": ("k", lambda v: sparse_search(sparse, "beta", v)),
        "sparse retriever": ("k", lambda v: make_sparse_retriever(sparse).ranked("beta", v)),
        "hybrid retriever": ("k", lambda v: hybrid.ranked("beta", v)),
        "dense_top_k": ("k", lambda v: dense_top_k(dense, np.ones(2), v)),
        "dense_search": ("k", lambda v: dense_search(dense, np.ones(2), v)),
        "ivf_search": ("k", lambda v: ivf_search(build_ivf_index(dense, 1, 1), np.ones(2), v)),
        "build_ivf_index seed": ("seed", lambda v: build_ivf_index(dense, 1, 1, seed=v)),
        "first_match_rank": ("k", lambda v: first_match_rank(["a"], gold, v, {"a": "beta"})),
        "best_span_each": ("max_answer_len", lambda v: best_span_each(stack_logits([SpanLogits([0.0, 1.0], [0.0, 1.0])]), v)),
        "DualEncoder.create d": ("d", lambda v: DualEncoder.create(["beta"], d=v, seed=0)),
        "DualEncoder.create seed": ("seed", lambda v: DualEncoder.create(["beta"], d=2, seed=v)),
        "generate_examples": ("n", lambda v: generate_examples(passages[0], NgramLM(3), v, SamplerConfig())),
        "generate_corpus": ("n", lambda v: generate_corpus(passages, v, SamplerConfig())),
        "build_ir_training_set": ("depth", lambda v: build_ir_training_set([], sparse, {}, v)),
        "NgramLM": ("order", NgramLM),
    }


COUNT_ARGUMENTS = count_arguments()


@pytest.mark.parametrize("call", sorted(COUNT_ARGUMENTS))
@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
def test_count_argument_that_is_not_an_integer_is_refused_by_name(call, value):
    name, run = COUNT_ARGUMENTS[call]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, not {re.escape(repr(value))}$"):
        run(value)


class TestTrainEncoder:
    def test_starts_from_tied_towers(self):
        passages = [p for doc in adaptation_corpus() for p in chunk_retrieval_passages(doc)]
        question = "Which animal eats krill?"
        instance = IRTrainInstance(question, passages[3], (passages[0],))
        encoder, trace = train_encoder(passages, [instance], 8, TrainConfig(epochs=0, seed=3))
        assert trace == []
        params = encoder.params
        assert sorted(params) == ["p_emb", "p_proj", "q_emb", "q_proj"]
        np.testing.assert_array_equal(params["p_emb"], params["q_emb"])
        assert not np.shares_memory(params["p_emb"], params["q_emb"])
        np.testing.assert_array_equal(params["q_proj"], np.eye(8))
        np.testing.assert_array_equal(params["p_proj"], np.eye(8))
        drawn = DualEncoder.from_texts([p.text for p in passages], d=8, seed=3)
        np.testing.assert_array_equal(params["q_emb"], drawn.params["q_emb"])


class TestRunAdaptation:
    def test_stage_counts_consistent(self):
        result = run_adaptation(adaptation_corpus(), small_config())
        counts = result.manifest["counts"]
        assert counts["documents"] == 6
        assert counts["retrieval_passages"] == len(result.retrieval_passages)
        assert counts["generated_examples"] == len(result.examples)
        assert counts["kept_after_filter"] == len(result.filtered)
        assert counts["kept_after_filter"] <= counts["generated_examples"]
        assert counts["train_instances"] + counts["dropped_no_negative"] == counts["kept_after_filter"]
        assert counts["train_instances"] >= 1
        assert len(result.loss_trace) == 2

    def test_same_seed_identical_manifest(self):
        a = run_adaptation(adaptation_corpus(), small_config(seed=7))
        b = run_adaptation(adaptation_corpus(), small_config(seed=7))
        assert a.manifest == b.manifest
        assert a.filtered == b.filtered

    def test_different_seed_changes_generation(self):
        a = run_adaptation(adaptation_corpus(), small_config(seed=0))
        b = run_adaptation(adaptation_corpus(), small_config(seed=123))
        assert a.examples != b.examples

    def test_persisted_artifacts(self, tmp_path):
        run_adaptation(adaptation_corpus(), small_config(), output_dir=tmp_path)
        for name in (
            "retrieval_passages.jsonl",
            "generation_passages.jsonl",
            "synthetic_examples.jsonl",
            "sparse.hyqa",
            "dense.hyqa",
            "encoder.hyqa",
            "manifest.json",
        ):
            assert (tmp_path / name).exists(), name
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["counts"]["documents"] == 6

    def test_manifest_records_the_default_stage_settings(self):
        # The sampler and BM25 settings are the defaults; the seed is the
        # trainer's too.
        config = small_config(seed=5)
        recorded = run_adaptation(adaptation_corpus(), replace(config, train=replace(config.train, seed=0))).manifest["config"]
        assert recorded["sampler"] == {"p": 0.95, "k": 10}
        assert recorded["bm25"] == {"k1": 1.2, "b": 0.75}
        assert recorded["filter_threshold"] == 1.0
        assert recorded["seed"] == recorded["train"]["seed"] == 5

    def test_rerun_byte_identical_outputs(self, tmp_path):
        run_adaptation(adaptation_corpus(), small_config(), output_dir=tmp_path / "a")
        run_adaptation(adaptation_corpus(), small_config(), output_dir=tmp_path / "b")
        for name in ("manifest.json", "sparse.hyqa", "dense.hyqa", "encoder.hyqa", "synthetic_examples.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_byte_identical_across_hash_seeds_and_blas_threads(self, tmp_path):
        """Every output file is the same bytes under two string-hash seeds
        and one or two BLAS threads, each run in a fresh process."""
        inputs = tmp_path / "inputs.pickle"
        inputs.write_bytes(pickle.dumps((adaptation_corpus(), small_config())))
        script = (
            "import pickle, sys; from hyqa.pipeline import run_adaptation; "
            "docs, config = pickle.loads(open(sys.argv[1], 'rb').read()); "
            "run_adaptation(docs, config, output_dir=sys.argv[2])"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(hyqa.__file__).parents[1])}
        runs = []
        for hash_seed, threads in (("0", "1"), ("123", "2"), ("0", "2"), ("123", "1")):
            out = tmp_path / f"hash{hash_seed}-blas{threads}"
            subprocess.run(
                [sys.executable, "-c", script, str(inputs), str(out)],
                env={**env, "PYTHONHASHSEED": hash_seed, "OPENBLAS_NUM_THREADS": threads}, check=True,
            )
            runs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        assert len(runs[0]) == 7
        assert all(run == runs[0] for run in runs[1:])

    def test_failure_names_stage(self):
        docs = [Document(id="d", title="", body="")]
        with pytest.raises(RuntimeError, match="stage"):
            run_adaptation(docs, small_config())

    def test_numpy_integer_seed_runs_as_its_int(self, tmp_path):
        # The config stores the seed as an int, so the manifest is written
        # and every file is the bytes seed=1 writes.
        config = AdaptationConfig(seed=np.int64(1))
        assert type(config.seed) is int
        run_adaptation(adaptation_corpus(), config, tmp_path / "numpy")
        run_adaptation(adaptation_corpus(), AdaptationConfig(seed=1), tmp_path / "int")
        written = {path.name: path.read_bytes() for path in sorted((tmp_path / "int").iterdir())}
        assert len(written) == 7
        assert {path.name: path.read_bytes() for path in sorted((tmp_path / "numpy").iterdir())} == written

    def test_manifest_that_cannot_be_serialized_writes_nothing(self, tmp_path, monkeypatch):
        # A loss trace of numpy floats, which json cannot write: the
        # manifest is serialized before any file is written.
        def float32_trace(*args):
            encoder, trace = train(*args)
            return encoder, [np.float32(x) for x in trace]

        train = pipeline.train_encoder
        monkeypatch.setattr(pipeline, "train_encoder", float32_trace)
        config = small_config()
        message = "^adaptation failed at stage 'persist': Object of type float32 is not JSON serializable$"
        with pytest.raises(RuntimeError, match=message):
            run_adaptation(adaptation_corpus(), config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_numpy_float_learning_rate_runs_as_its_float(self, tmp_path):
        config = small_config()
        config = replace(config, train=replace(config.train, learning_rate=np.float32(0.05)))
        assert type(config.train.learning_rate) is float
        run_adaptation(adaptation_corpus(), config, tmp_path)
        recorded = json.loads((tmp_path / "manifest.json").read_text())["config"]["train"]["learning_rate"]
        assert recorded == float(np.float32(0.05))

    def test_failed_write_leaves_no_manifest(self, tmp_path, monkeypatch):
        # A rerun into the same directory that fails part way removes the
        # first run's manifest, which no longer describes the files beside it.
        run_adaptation(adaptation_corpus(), small_config(), tmp_path)
        assert (tmp_path / "manifest.json").exists()

        def full(self, path):
            raise OSError("disk full")

        monkeypatch.setattr(DualEncoder, "save", full)
        with pytest.raises(RuntimeError, match="^adaptation failed at stage 'persist': disk full$"):
            run_adaptation(adaptation_corpus(), small_config(), tmp_path)
        assert not (tmp_path / "manifest.json").exists()
        assert [path.name for path in tmp_path.iterdir() if path.name.startswith(".")] == []

    @pytest.mark.parametrize(
        "name", ["retrieval_max_words", "generation_max_tokens", "examples_per_passage", "embedding_dim", "negative_depth"]
    )
    @pytest.mark.parametrize("value", [0, -1])
    def test_setting_below_one_is_refused_before_any_stage(self, name, value):
        # The config refuses it when built, so no stage of run_adaptation runs.
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            AdaptationConfig(**{name: value})

    @pytest.mark.parametrize(
        "name",
        ["seed", "retrieval_max_words", "generation_max_tokens", "examples_per_passage", "embedding_dim", "negative_depth"],
    )
    @pytest.mark.parametrize("value", [1.5, True, "3"], ids=["float", "bool", "str"])
    def test_setting_that_is_not_an_integer_is_refused_before_any_stage(self, name, value):
        # The config refuses it when built, not the first stage that uses it
        # (mine-negatives for negative_depth, train-encoder for embedding_dim).
        with pytest.raises(ValueError, match=f"^{name} must be an integer, not {re.escape(repr(value))}$"):
            AdaptationConfig(**{name: value})

    def test_manifest_config_is_the_config_that_ran(self):
        # Every field is recorded, so one added later is recorded too.
        config = replace(small_config(seed=3), examples_per_passage=4, negative_depth=50, filter=FilterConfig(0.5))
        recorded = run_adaptation(adaptation_corpus(), config).manifest["config"]
        names = {f.name for f in fields(AdaptationConfig)} - {"filter", "train"}
        assert set(recorded) == names | {"filter_threshold", "train", "sampler", "bm25"}
        assert {name: recorded[name] for name in names} == {name: getattr(config, name) for name in names}
        assert recorded["train"] == asdict(config.train)
        assert recorded["filter_threshold"] == 0.5

    def test_negative_seed_is_refused_before_any_stage(self):
        # In the CLI's --seed wording, not numpy's from the generate stage.
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            AdaptationConfig(seed=-1)
        assert AdaptationConfig(seed=0).seed == 0

    @pytest.mark.parametrize("make", [
        lambda seed: SamplerConfig(seed=seed),
        lambda seed: TrainConfig(seed=seed),
        lambda seed: DualEncoder.create(["alpha"], d=2, seed=seed),
        lambda seed: build_ivf_index(build_dense_index(["a"], np.ones((1, 2))), C=1, n_probe=1, seed=seed),
    ], ids=["SamplerConfig", "TrainConfig", "DualEncoder.create", "build_ivf_index"])
    def test_negative_seed_is_refused_where_it_is_set(self, make):
        # In AdaptationConfig's wording, not numpy's from the first draw.
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            make(-1)
        make(0)

    def test_adapted_retrievers_answer_their_topics(self):
        result = run_adaptation(adaptation_corpus(), small_config())
        texts = {p.id: p.text for p in result.retrieval_passages}
        sparse = make_sparse_retriever(result.sparse_index)
        dense = make_dense_retriever(result.dense_index, result.encoder)
        from hyqa.fusion import FusionConfig

        hybrid = make_hybrid_retriever(result.sparse_index, result.dense_index, result.encoder, FusionConfig(weight=0.5))
        top = sparse("what does the otter eat", 1)[0]
        assert "otter" in texts[top.passage_id]
        assert len(dense("what does the otter eat", 3)) == 3
        assert len(hybrid("what does the otter eat", 3)) == 3


@pytest.mark.usefixtures("small_blocks")
class TestShardedAdaptation:
    """run_adaptation with its token tables and its generate and mine
    stages split into shards, one per usable CPU (corpus.sharded), on
    blocks small enough for adaptation_corpus() to span several."""

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_every_file_equals_the_one_shard_run(self, tmp_path, usable_cpus, count_forks, cpus):
        usable_cpus(1)
        run_adaptation(adaptation_corpus(), small_config(), output_dir=tmp_path / "serial")
        usable_cpus(cpus)
        forks = count_forks()
        run_adaptation(adaptation_corpus(), small_config(), output_dir=tmp_path / "sharded")
        # generate, mine, and interning the retrieval passages and the
        # generation passages (one table for their BM25 index and the vocabulary)
        assert len(forks) == 4 * (cpus - 1)
        serial = {path.name: path.read_bytes() for path in sorted((tmp_path / "serial").iterdir())}
        sharded = {path.name: path.read_bytes() for path in sorted((tmp_path / "sharded").iterdir())}
        assert len(serial) == 7
        assert sharded == serial

    def test_failing_child_names_the_stage(self, monkeypatch, usable_cpus):
        # Six generation passages in blocks of 2: with three CPUs the ibex
        # passage, the last, is generated in the second child.
        generate = hyqa.syngen.generate_examples

        def refuse_ibex(passage, *args, **kwargs):
            if "ibex" in passage.text:
                raise ValueError(f"no examples for {passage.id!r}")
            return generate(passage, *args, **kwargs)

        monkeypatch.setattr(hyqa.syngen, "generate_examples", refuse_ibex)
        raised = []
        for cpus in (1, 3):
            usable_cpus(cpus)
            with pytest.raises(RuntimeError, match="^adaptation failed at stage 'generate': no examples for") as caught:
                run_adaptation(adaptation_corpus(), small_config())
            raised.append((str(caught.value), type(caught.value.__cause__), str(caught.value.__cause__)))
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert raised[0] == raised[1]


class TestHybridRetriever:
    """make_hybrid_retriever against the list path it replaces:
    fuse(sparse_search(pool), dense_search(pool))[:k]."""

    def indexes(self):
        from hyqa.corpus import chunk_retrieval_passages
        from hyqa.dense_index import build_dense_index
        from hyqa.encoder import DualEncoder, encode_passage
        from hyqa.sparse import build_sparse_index

        rng = np.random.default_rng(4)
        vocab = [f"w{i}" for i in range(25)]
        passages = [
            chunk_retrieval_passages(Document(id=f"d{i:02d}", title="", body=" ".join(rng.choice(vocab, size=8))))[0]
            for i in range(40)
        ]
        encoder = DualEncoder.from_texts([p.text for p in passages], d=8, seed=0)
        # The two indexes share 25 passages, listed in different orders, and
        # each has passages the other lacks; text repeats make score ties.
        sparse_passages = passages[:30] + passages[:2]
        sparse_passages = [replace(p, id=f"x{i}") if i >= 30 else p for i, p in enumerate(sparse_passages)]
        dense_passages = [passages[i] for i in rng.permutation(range(5, 40))]
        sparse = build_sparse_index(sparse_passages)
        dense = build_dense_index([p.id for p in dense_passages], np.stack([encode_passage(encoder, p.text) for p in dense_passages]))
        return sparse, dense, encoder, vocab, rng

    @pytest.mark.parametrize("pool_size", [3, 12, 2000])
    def test_equals_fused_lists(self, pool_size):
        from hyqa.dense_index import dense_search
        from hyqa.encoder import encode_query
        from hyqa.fusion import FusionConfig, fuse
        from hyqa.sparse import sparse_search

        sparse, dense, encoder, vocab, rng = self.indexes()
        config = FusionConfig(pool_size=pool_size, weight=0.6)
        retrieve = make_hybrid_retriever(sparse, dense, encoder, config)
        for _ in range(20):
            question = " ".join(rng.choice(vocab + ["oov"], size=rng.integers(1, 5)))
            expected = fuse(
                sparse_search(sparse, question, pool_size),
                dense_search(dense, encode_query(encoder, question), pool_size),
                config,
            )
            for k in (1, 5, 100):
                got = retrieve(question, k)
                assert [(r.passage_id, r.score.hex(), r.provenance) for r in got] == [
                    (r.passage_id, r.score.hex(), r.provenance) for r in expected[:k]
                ]

    def test_pool_boundary_inside_tie_blocks(self):
        from hyqa.corpus import chunk_retrieval_passages
        from hyqa.dense_index import build_dense_index, dense_search
        from hyqa.encoder import DualEncoder, encode_passage, encode_query
        from hyqa.fusion import FusionConfig, fuse
        from hyqa.sparse import build_sparse_index, sparse_search

        # Repeated texts tie on both sides: "w1 w2" x 7 and "w1 w3" x 5, with
        # ids listed out of order so the id rank decides each cut.
        bodies = ["w1 w2"] * 7 + ["w1 w3"] * 5 + ["w4 w5"] * 2
        rng = np.random.default_rng(7)
        passages = [
            replace(chunk_retrieval_passages(Document(id="d", title="", body=b))[0], id=f"p{i:02d}")
            for i, b in zip(rng.permutation(len(bodies)), bodies)
        ]
        encoder = DualEncoder.from_texts([p.text for p in passages], d=4, seed=1)
        sparse = build_sparse_index(passages)
        dense_passages = [passages[i] for i in rng.permutation(len(passages))]
        dense = build_dense_index([p.id for p in dense_passages], np.stack([encode_passage(encoder, p.text) for p in dense_passages]))

        def cut_in_tie(hits, pool_size):
            return len(hits) > pool_size and hits[pool_size - 1].score == hits[pool_size].score

        both_cut = 0
        for pool_size in (1, 2, 3, 4, 6, 9):
            config = FusionConfig(pool_size=pool_size, weight=0.4)
            retrieve = make_hybrid_retriever(sparse, dense, encoder, config)
            for question in ("w1", "w2", "w3 w1", "w2 w2 w1", "w4"):
                sparse_hits = sparse_search(sparse, question, len(passages))
                dense_hits = dense_search(dense, encode_query(encoder, question), len(passages))
                both_cut += cut_in_tie(sparse_hits, pool_size) and cut_in_tie(dense_hits, pool_size)
                expected = fuse(sparse_hits, dense_hits, config)
                for k in (1, 5, 100):
                    assert [(r.passage_id, r.score.hex()) for r in retrieve(question, k)] == [
                        (r.passage_id, r.score.hex()) for r in expected[:k]
                    ]
        assert both_cut >= 10  # cases whose pool cut falls inside a tie block on both sides

    def test_one_sort_per_retrieval(self, monkeypatch):
        import hyqa.scored
        from hyqa.fusion import FusionConfig

        sparse, dense, encoder, _, _ = self.indexes()
        calls = []

        def counted(*args):
            calls.append(args)
            return hyqa.scored.top_k(*args)

        for name in ("fusion", "sparse", "dense_index"):
            monkeypatch.setattr(sys.modules[f"hyqa.{name}"], "top_k", counted)
        retrieve = make_hybrid_retriever(sparse, dense, encoder, FusionConfig(pool_size=5))
        for k in (1, 40):
            calls.clear()
            retrieve("w1 w2 w3", k)
            assert len(calls) == 1

    def test_k_below_one_errors(self):
        from hyqa.fusion import FusionConfig

        sparse, dense, encoder, _, _ = self.indexes()
        with pytest.raises(ValueError):
            make_hybrid_retriever(sparse, dense, encoder, FusionConfig())("w1", 0)


RANKED_WORDS = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]


def ranked_indexes(texts, d=8, seed=0):
    """BM25, encoder and exact dense index over {passage id: text}."""
    from hyqa.corpus import Passage
    from hyqa.dense_index import build_dense_index
    from hyqa.encoder import DualEncoder, encode_passage
    from hyqa.sparse import build_sparse_index

    passages = [Passage(pid, pid, text, len(tokenize(text))) for pid, text in texts.items()]
    encoder = DualEncoder.from_texts(list(texts.values()), d=d, seed=seed)
    sparse = build_sparse_index(passages)
    dense = build_dense_index(list(texts), np.stack([encode_passage(encoder, text) for text in texts.values()]))
    return sparse, dense, encoder


def ranked_retriever(kind, texts, pool_size=2000, weight=0.5):
    from hyqa.fusion import FusionConfig

    sparse, dense, encoder = ranked_indexes(texts)
    if kind == "sparse":
        return make_sparse_retriever(sparse)
    if kind == "dense":
        return make_dense_retriever(dense, encoder)
    return make_hybrid_retriever(sparse, dense, encoder, FusionConfig(pool_size=pool_size, weight=weight))


class LogitsOnly:
    """A scorer with .logits and no .logits_pairs."""

    def __init__(self, scorer):
        self.logits = scorer.logits


@st.composite
def ranked_cases(draw):
    """A corpus of 2 to 30 passages (some with no tokens, some repeating
    an earlier text, so scores tie), a retriever over it, a scorer, a few
    golds and a config whose K may exceed the passages retrieved."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    texts = {}
    for i in range(draw(st.integers(2, 30))):
        roll = rng.random()
        if roll < 0.15:
            text = "(...)"
        elif roll < 0.35 and texts:
            text = list(texts.values())[int(rng.integers(len(texts)))]
        else:
            text = " ".join(rng.choice(RANKED_WORDS, size=int(rng.integers(1, 25))))
        texts[f"p{rng.integers(0, 100):02d}.{i}"] = text
    kind = draw(st.sampled_from(["sparse", "dense", "hybrid"]))
    retriever = ranked_retriever(kind, texts, draw(st.sampled_from([1, 3, 2000])), draw(st.sampled_from([0.0, 0.4, 1.0])))
    golds = [
        GoldSet(f"q{j}", " ".join(rng.choice(RANKED_WORDS + ["oov"], size=int(rng.integers(1, 4)))),
                (" ".join(rng.choice(RANKED_WORDS, size=int(rng.integers(1, 3)))),))
        for j in range(draw(st.integers(1, 4)))
    ]
    scorer = LexicalScorer()
    if draw(st.booleans()):
        scorer = LogitsOnly(scorer)
    config = PipelineConfig(
        K=draw(st.integers(1, 50)),
        ir_weight=draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
    )
    return retriever, scorer, texts, golds, config


def assert_ranked_equals_records(retriever, scorer, texts, golds, config):
    """The retriever's .ranked arrays equal its ScoredPassage records, id
    for id and score bit for bit, at the depths answer_question and
    evaluate_run read; and each of evaluate_run's per-query rows is the
    one that answer_question's candidates and the ranked ids give."""
    match_ks = (1, 5, 20)
    depth = max(max(match_ks), config.K)
    report = evaluate_run(golds, retriever, scorer, texts, config, match_ks)
    for gold in golds:
        for k in (config.K, depth):
            ids, scores = retriever.ranked(gold.question, k)
            assert [(pid, float(s).hex()) for pid, s in zip(ids, scores)] == [
                (r.passage_id, r.score.hex()) for r in retriever(gold.question, k)
            ]
        rank = first_match_rank(retriever.ranked(gold.question, depth)[0], gold, max(match_ks), texts)
        top5 = answer_question(gold.question, retriever, scorer, texts, config)[:5]
        f1 = [token_f1(c.text, gold.answers) for c in top5]
        assert report.per_query[gold.query_id] == {
            **{f"match@{k}": int(rank < k) for k in match_ks},
            "top1_f1": f1[0] if f1 else 0.0,
            "top5_f1": max(f1, default=0.0),
        }


class TestRankedMatchesRecords:
    @given(ranked_cases())
    @settings(max_examples=60, deadline=None)
    def test_field_for_field(self, case):
        assert_ranked_equals_records(*case)

    @pytest.mark.parametrize("kind", ["sparse", "dense", "hybrid"])
    def test_tied_combined_scores(self, kind):
        # Three copies of each text tie on every score, so their order is
        # the passage id order alone.
        texts = {f"p{i}": body for i, body in zip((4, 1, 7, 2, 9, 0), ["alpha beta gamma", "delta eps"] * 3)}
        retriever = ranked_retriever(kind, texts)
        config = PipelineConfig(K=len(texts), ir_weight=0.3)
        candidates = answer_question("alpha gamma", retriever, LexicalScorer(), texts, config)
        assert [c.passage_id for c in candidates[:3]] == ["p4", "p7", "p9"]
        assert len({c.combined for c in candidates[:3]}) == 1
        golds = [GoldSet("q0", "alpha gamma", ("beta",)), GoldSet("q1", "eps", ("delta eps",))]
        assert_ranked_equals_records(retriever, LexicalScorer(), texts, golds, config)


class TestEvaluateRunBuildsNoRecords:
    def test_no_scored_passage_span_or_candidate(self, monkeypatch):
        from hyqa.mrc import SpanScore
        from hyqa.pipeline import AnswerCandidate

        rng = np.random.default_rng(3)
        texts = {f"p{i:02d}": " ".join(rng.choice(RANKED_WORDS, size=12)) for i in range(60)}
        retriever = ranked_retriever("hybrid", texts)
        built = []
        for cls in (ScoredPassage, SpanScore, AnswerCandidate):
            original = cls.__init__

            def counted(self, *args, _original=original, _name=cls.__name__, **kwargs):
                built.append(_name)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        golds = [GoldSet(f"q{j}", f"alpha {RANKED_WORDS[j]}", ("beta",)) for j in range(4)]
        report = evaluate_run(golds, retriever, LexicalScorer(), texts, PipelineConfig(K=40))
        assert len(report.per_query) == 4
        assert built == []
        # The counters see the records that the public functions do build.
        candidates = answer_question("alpha beta", retriever, LexicalScorer(), texts, PipelineConfig(K=40))
        assert sorted(set(built)) == ["AnswerCandidate", "SpanScore"]
        assert len(built) == 2 * len(candidates) == 80
        built.clear()
        assert len(retriever("alpha beta", 40)) == 40 and built == ["ScoredPassage"] * 40

    @pytest.mark.parametrize("kind", ["dense", "hybrid"])
    def test_nan_dense_row_is_refused(self, kind):
        from hyqa.fusion import FusionConfig

        texts = {f"p{i}": text for i, text in enumerate(["alpha beta", "beta gamma", "gamma delta"])}
        sparse, dense, encoder = ranked_indexes(texts)
        dense.matrix[1] = np.nan  # build_dense_index refuses the row, so set it after the build
        if kind == "dense":
            retriever = make_dense_retriever(dense, encoder)
        else:
            retriever = make_hybrid_retriever(sparse, dense, encoder, FusionConfig())
        golds = [GoldSet("q0", "alpha", ("beta",))]
        with pytest.raises(ValueError, match="^non-finite score for passage 'p[0-9]'$") as raised:
            evaluate_run(golds, retriever, LexicalScorer(), texts, PipelineConfig())
        with pytest.raises(ValueError) as by_records:
            retriever("alpha", 3)
        assert str(raised.value) == str(by_records.value)


class TestOneRetrieverType:
    """answer_question and evaluate_run read a pipeline.Retriever's .ranked
    arrays, and refuse any other retriever."""

    RECORDS = [ScoredPassage("p1", 2.0, "sparse"), ScoredPassage("p2", 1.0, "sparse")]
    REFUSED = r"^retriever must be a pipeline\.Retriever\(ids, rows, provenance\), not \w+$"

    class HasRanked:
        """Not a Retriever, though it has .ranked and is callable."""

        def ranked(self, question, k):
            return ["p1", "p2"][:k], np.array([2.0, 1.0])[:k]

        def __call__(self, question, k):
            return TestOneRetrieverType.RECORDS[:k]

    @pytest.mark.parametrize("kind", ["plain callable", "object with .ranked"])
    @pytest.mark.parametrize("read", ["answer_question", "evaluate_run"])
    def test_any_other_retriever_is_refused(self, kind, read):
        retriever = (lambda q, k: self.RECORDS[:k]) if kind == "plain callable" else self.HasRanked()
        with pytest.raises(TypeError, match=self.REFUSED):
            if read == "answer_question":
                answer_question("alpha", retriever, LexicalScorer(), PASSAGE_TEXTS, PipelineConfig())
            else:
                golds = [GoldSet("q", "alpha", ("beta",))]
                evaluate_run(golds, retriever, LexicalScorer(), PASSAGE_TEXTS, PipelineConfig())

    def test_refused_even_without_golds(self):
        with pytest.raises(TypeError, match=self.REFUSED):
            evaluate_run([], lambda q, k: [], LexicalScorer(), {}, PipelineConfig())

    def test_a_custom_ranker_plugs_in(self):
        # Any ranker of rows over an id list: here the passages in reverse
        # id order, each scored by its row.
        ids = sorted(PASSAGE_TEXTS)

        def reverse(question, k):
            rows = np.arange(len(ids))[::-1][:k]
            return rows, rows.astype(np.float64)

        retriever = Retriever(ids, reverse, "custom")
        assert retriever.ranked("q", 2)[0] == ["p3", "p2"]
        assert [(r.passage_id, r.score, r.provenance) for r in retriever("q", 2)] == [
            ("p3", 2.0, "custom"), ("p2", 1.0, "custom"),
        ]
        config = PipelineConfig(K=3, ir_weight=1.0)
        candidates = answer_question("delta", retriever, LexicalScorer(), PASSAGE_TEXTS, config)
        assert [(c.passage_id, c.ir_score) for c in candidates] == [("p3", 2.0), ("p2", 1.0), ("p1", 0.0)]


class TestMissingPassageText:
    """A retrieved passage id that passage_texts lacks is a KeyError that
    names the passage and passage_texts."""

    MISSING = "^\"retrieved passage 'p2' not in passage_texts\"$"

    def retriever(self):
        return make_sparse_retriever(ranked_indexes({"p1": "alpha beta", "p2": "alpha gamma"})[0])

    def test_answer_question(self):
        with pytest.raises(KeyError, match=self.MISSING):
            answer_question("alpha", self.retriever(), LexicalScorer(), {"p1": "alpha beta"}, PipelineConfig())

    def test_evaluate_run(self):
        golds = [GoldSet("q", "alpha", ("nowhere",))]
        with pytest.raises(KeyError, match=self.MISSING):
            evaluate_run(golds, self.retriever(), LexicalScorer(), {"p1": "alpha beta"}, PipelineConfig())

    def test_evaluate_run_reading_past_the_match_depth(self):
        # Match@1 stops at p1, which holds the answer; the reader then
        # reads p2.
        golds = [GoldSet("q", "alpha", ("beta",))]
        with pytest.raises(KeyError, match=self.MISSING):
            evaluate_run(golds, self.retriever(), LexicalScorer(), {"p1": "alpha beta"}, PipelineConfig(), match_ks=(1,))
