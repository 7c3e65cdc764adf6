import json
from dataclasses import replace

import numpy as np
import pytest

from hyqa.corpus import Document
from hyqa.encoder import TrainConfig
from hyqa.evalkit import GoldSet
from hyqa.mrc import SpanLogits
from hyqa.pipeline import (
    K_HYBRID,
    K_SPARSE_ONLY,
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
        candidates = answer_question("q", fixed_retriever([]), TableScorer({}), PASSAGE_TEXTS)
        assert candidates == []

    def test_softmax_normalization_preserves_ranking_shape(self):
        config = PipelineConfig(K=3, ir_weight=0.0, normalization="softmax")
        candidates = answer_question("q", fixed_retriever(self.retrieved()), TableScorer(self.logit_table()), PASSAGE_TEXTS, config)
        assert candidates[0].passage_id == "p2"

    def test_depth_constants(self):
        assert K_SPARSE_ONLY == 100
        assert K_HYBRID == 40
        assert PipelineConfig().K == 40
        assert PipelineConfig().ir_weight == 0.7

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PipelineConfig(ir_weight=1.5)
        with pytest.raises(ValueError):
            PipelineConfig(normalization="zscore")


class TestEvaluateRun:
    def test_perfect_system(self):
        golds = [GoldSet("q1", "find alpha", ("alpha",))]
        retrieved = [ScoredPassage("p1", 1.0, "sparse")]
        table = {"p1": SpanLogits(start=(0.0, 2.0, 0.0, 0.0), end=(0.0, 2.0, 0.0, 0.0))}
        report = evaluate_run(golds, fixed_retriever(retrieved), TableScorer(table), PASSAGE_TEXTS, match_ks=(1,))
        assert report.metrics["match@1"] == 1.0
        assert report.metrics["top1_f1"] == 1.0
        assert report.per_query["q1"]["top5_f1"] == 1.0

    def test_empty_golds(self):
        report = evaluate_run([], fixed_retriever([]), TableScorer({}), {})
        assert report.metrics == {}
        assert report.query_count == 0

    def test_means_are_query_averages(self):
        golds = [
            GoldSet("q1", "find alpha", ("alpha",)),
            GoldSet("q2", "find missing", ("nowhere",)),
        ]
        retrieved = [ScoredPassage("p1", 1.0, "sparse")]
        table = {"p1": SpanLogits(start=(0.0, 2.0, 0.0, 0.0), end=(0.0, 2.0, 0.0, 0.0))}
        report = evaluate_run(golds, fixed_retriever(retrieved), TableScorer(table), PASSAGE_TEXTS, match_ks=(1,))
        assert report.metrics["match@1"] == 0.5


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

    def test_failure_names_stage(self):
        docs = [Document(id="d", title="", body="")]
        with pytest.raises(RuntimeError, match="stage"):
            run_adaptation(docs, small_config())

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

    def test_k_below_one_errors(self):
        from hyqa.fusion import FusionConfig

        sparse, dense, encoder, _, _ = self.indexes()
        with pytest.raises(ValueError):
            make_hybrid_retriever(sparse, dense, encoder, FusionConfig())("w1", 0)
