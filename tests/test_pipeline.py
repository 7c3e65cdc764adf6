import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyqa
from hyqa.corpus import Document, tokenize
from hyqa.encoder import TrainConfig
from hyqa.evalkit import GoldSet
from hyqa.fusion import minmax_normalize
from hyqa.mrc import LexicalScorer, ScorerConfig, SpanLogits, best_spans
from hyqa.pipeline import (
    K_HYBRID,
    AdaptationConfig,
    PipelineConfig,
    answer_question,
    evaluate_run,
    make_dense_retriever,
    make_hybrid_retriever,
    make_sparse_retriever,
    run_adaptation,
)
from hyqa.scored import ScoredPassage


class TableScorer:
    """Looks up precomputed span logits keyed by passage id."""

    def __init__(self, table):
        self.table = table

    def logits(self, question, passage_id, passage_text):
        return self.table.get(passage_id)


def fixed_retriever(results):
    return lambda question, k: results[:k]


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

    def test_softmax_normalization_preserves_ranking_shape(self):
        config = PipelineConfig(K=3, ir_weight=0.0, normalization="softmax")
        candidates = answer_question("q", fixed_retriever(self.retrieved()), TableScorer(self.logit_table()), PASSAGE_TEXTS, config)
        assert candidates[0].passage_id == "p2"

    def test_depth_constants(self):
        assert K_HYBRID == 40
        assert PipelineConfig().K == 40
        assert PipelineConfig().ir_weight == 0.7

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PipelineConfig(ir_weight=1.5)
        with pytest.raises(ValueError):
            PipelineConfig(normalization="zscore")
        with pytest.raises(ValueError, match="max_answer_len"):
            PipelineConfig(max_answer_len=0)

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
        spans = best_spans(logits, ScorerConfig(max_answer_len=config.max_answer_len, top_n=1))
        tokens = tokenize(text)
        raw.append((sp, spans[0], text[tokens[spans[0].s - 1].start : tokens[spans[0].e - 1].end]))
    if not raw:
        return []

    def normalize(scores):
        if config.normalization == "softmax":
            exp = np.exp(np.asarray(scores, dtype=np.float64) - max(scores))
            return list(exp / exp.sum())
        return minmax_normalize(scores).tolist()

    ir_norm = normalize([sp.score for sp, _, _ in raw])
    mrc_norm = normalize([span.score for _, span, _ in raw])
    w = config.ir_weight
    rows = [
        (answer, sp.passage_id, span.s, span.e, span.score.hex(), sp.score.hex(), span.score.hex(),
         w * ir + (1 - w) * mrc)
        for (sp, span, answer), ir, mrc in zip(raw, ir_norm, mrc_norm)
    ]
    rows.sort(key=lambda r: (-r[-1], r[1]))
    return [(*r[:-1], r[-1].hex()) for r in rows]


def candidate_rows(candidates):
    return [
        (c.text, c.passage_id, c.span.s, c.span.e, c.span.score.hex(), c.ir_score.hex(), c.mrc_score.hex(),
         c.combined.hex())
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
        max_answer_len=draw(st.integers(1, 60)),
        normalization=draw(st.sampled_from(["minmax", "softmax"])),
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
        max_answer_len=draw(st.integers(1, 60)),
        normalization=draw(st.sampled_from(["minmax", "softmax"])),
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

    @pytest.mark.parametrize(
        "name", ["retrieval_max_words", "generation_max_tokens", "examples_per_passage", "embedding_dim", "negative_depth"]
    )
    @pytest.mark.parametrize("value", [0, -1])
    def test_setting_below_one_is_refused_before_any_stage(self, name, value):
        # The config refuses it when built, so no stage of run_adaptation runs.
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            AdaptationConfig(**{name: value})

    def test_negative_seed_is_refused_before_any_stage(self):
        # In the CLI's --seed wording, not numpy's from the generate stage.
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            AdaptationConfig(seed=-1)
        assert AdaptationConfig(seed=0).seed == 0

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
    """run_adaptation with its generate and mine stages split into shards,
    one per usable CPU (syngen._sharded), on blocks small enough for
    adaptation_corpus() to span several."""

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_every_file_equals_the_one_shard_run(self, tmp_path, monkeypatch, usable_cpus, cpus):
        usable_cpus(1)
        run_adaptation(adaptation_corpus(), small_config(), output_dir=tmp_path / "serial")
        usable_cpus(cpus)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        run_adaptation(adaptation_corpus(), small_config(), output_dir=tmp_path / "sharded")
        assert len(forks) == 2 * (cpus - 1)  # generate and mine
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
        max_answer_len=draw(st.integers(1, 10)),
        normalization=draw(st.sampled_from(["minmax", "softmax"])),
    )
    return retriever, scorer, texts, golds, config


def assert_ranked_equals_records(retriever, scorer, texts, golds, config):
    """answer_question and evaluate_run through the retriever's .ranked
    arrays equal their results through its ScoredPassage records."""
    records = lambda q, k: retriever(q, k)  # noqa: E731 - a plain callable, without .ranked
    for gold in golds:
        ids, scores = retriever.ranked(gold.question, config.K)
        assert [(pid, float(s).hex()) for pid, s in zip(ids, scores)] == [
            (r.passage_id, r.score.hex()) for r in retriever(gold.question, config.K)
        ]
        assert candidate_rows(answer_question(gold.question, retriever, scorer, texts, config)) == candidate_rows(
            answer_question(gold.question, records, scorer, texts, config)
        )
    match_ks = (1, 5, 20)
    got = evaluate_run(golds, retriever, scorer, texts, config, match_ks)
    expected = evaluate_run(golds, records, scorer, texts, config, match_ks)
    assert got.per_query == expected.per_query
    assert got.to_json().encode() == expected.to_json().encode()


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
            evaluate_run(golds, lambda q, k: retriever(q, k), LexicalScorer(), texts, PipelineConfig())
        assert str(raised.value) == str(by_records.value)
