import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyqa
from hyqa.cli import main, parse_args
from hyqa.corpus import ingest_documents
from hyqa.encoder import TrainConfig
from hyqa.pipeline import AdaptationConfig, run_adaptation
from hyqa.syngen import example_to_record


def write_documents(path):
    topics = [
        ("falcon", "cliffs", "rodents"),
        ("otter", "rivers", "shellfish"),
        ("camel", "deserts", "thornbush"),
        ("penguin", "icefields", "krill"),
    ]
    with open(path, "w") as f:
        for i, (animal, place, food) in enumerate(topics):
            body = (
                f"The {animal} lives among the {place} all year. "
                f"Every {animal} eats {food} during the long season. "
                f"Observers count each {animal} near the {place} daily."
            )
            f.write(json.dumps({"id": f"doc{i}", "title": animal, "text": body}) + "\n")


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def workspace(tmp_path):
    docs = tmp_path / "documents.jsonl"
    write_documents(docs)
    out = tmp_path / "out"
    assert run(["--output-dir", out, "chunk", "--input", docs, "--mode", "retrieval"]) == 0
    assert run(["--output-dir", out, "chunk", "--input", docs, "--mode", "generation"]) == 0
    assert run(["--output-dir", out, "index-sparse", "--passages", out / "passages_retrieval.jsonl"]) == 0
    return docs, out


class TestChunkAndIndex:
    def test_ingest(self, tmp_path, capsys):
        docs = tmp_path / "documents.jsonl"
        write_documents(docs)
        assert run(["--output-dir", tmp_path / "o", "ingest", "--input", docs]) == 0
        assert "ingested 4 documents" in capsys.readouterr().out

    def test_artifacts_exist(self, workspace):
        _, out = workspace
        assert (out / "passages_retrieval.jsonl").exists()
        assert (out / "passages_generation.jsonl").exists()
        assert (out / "sparse.hyqa").exists()

    def test_dump_postings(self, workspace, capsys):
        _, out = workspace
        assert run(["dump", "--index", out / "sparse.hyqa"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert any("otter" in line for line in lines)


@pytest.fixture
def trained(workspace):
    docs, out = workspace
    gen = out / "passages_generation.jsonl"
    assert run(["--output-dir", out, "index-sparse", "--passages", gen]) == 0  # reuse path for mining
    assert run(["--seed", 0, "--output-dir", out, "generate", "--passages", gen, "--n", 4]) == 0
    assert run([
        "--output-dir", out, "filter",
        "--examples", out / "synthetic_raw.jsonl",
        "--passages", gen,
        "--threshold", 0.5,
    ]) == 0
    assert run([
        "--output-dir", out, "mine-negatives",
        "--examples", out / "synthetic_filtered.jsonl",
        "--passages", gen,
        "--index", out / "sparse.hyqa",
    ]) == 0
    assert run([
        "--seed", 0, "--output-dir", out, "train-encoder",
        "--instances", out / "train_instances.jsonl",
        "--passages", gen,
        "--epochs", 2, "--batch-size", 4, "--dim", 16,
    ]) == 0
    # Rebuild the retrieval-passage sparse index and add the dense one.
    assert run(["--output-dir", out, "index-sparse", "--passages", out / "passages_retrieval.jsonl"]) == 0
    assert run([
        "--output-dir", out, "index-dense",
        "--passages", out / "passages_retrieval.jsonl",
        "--encoder", out / "encoder.hyqa",
    ]) == 0
    return docs, out


class TestSynthesisChain:
    def test_artifacts(self, trained):
        _, out = trained
        for name in (
            "synthetic_raw.jsonl",
            "generation_summary.json",
            "synthetic_filtered.jsonl",
            "train_instances.jsonl",
            "encoder.hyqa",
            "dense.hyqa",
        ):
            assert (out / name).exists(), name

    def test_filtered_records_have_scores(self, trained):
        _, out = trained
        lines = (out / "synthetic_filtered.jsonl").read_text().strip().splitlines()
        assert lines
        for line in lines:
            rec = json.loads(line)
            assert rec["answerability"] >= 0.5

    def test_encode_exports_jsonl(self, trained, capsys):
        _, out = trained
        assert run([
            "--output-dir", out, "encode",
            "--passages", out / "passages_retrieval.jsonl",
            "--encoder", out / "encoder.hyqa",
        ]) == 0
        lines = (out / "embeddings.jsonl").read_text().strip().splitlines()
        rec = json.loads(lines[0])
        assert "id" in rec and len(rec["vector"]) == 16


class TestRetrievalCommands:
    def test_retrieve_sparse(self, trained, capsys):
        _, out = trained
        assert run(["retrieve", "--sparse", out / "sparse.hyqa", "--query", "what does the otter eat", "-k", 2]) == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert rows[0]["provenance"] == "sparse"
        assert "doc1" in rows[0]["passage_id"]

    def test_retrieve_hybrid(self, trained, capsys):
        _, out = trained
        assert run([
            "retrieve",
            "--sparse", out / "sparse.hyqa",
            "--dense", out / "dense.hyqa",
            "--encoder", out / "encoder.hyqa",
            "--query", "what does the otter eat",
            "-k", 3,
        ]) == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(rows) == 3
        assert all(r["provenance"] == "fused" for r in rows)

    def test_answer(self, trained, capsys):
        _, out = trained
        assert run([
            "answer",
            "--sparse", out / "sparse.hyqa",
            "--passages", out / "passages_retrieval.jsonl",
            "--question", "what does the otter eat",
            "--K", 4,
        ]) == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert rows
        assert {"answer", "passage_id", "combined"} <= set(rows[0])

    def test_retrieve_scores_independent_of_hash_seed(self, workspace):
        # Sparse scores sum term contributions in sorted term order, not in
        # string-hash order, so they are the same in every process.
        _, out = workspace
        query = "the otter camel penguin falcon eats lives among rivers deserts krill shellfish year"
        env = {**os.environ, "PYTHONPATH": str(Path(hyqa.__file__).parents[1])}
        stdouts = [
            subprocess.run(
                [sys.executable, "-m", "hyqa.cli", "retrieve", "--sparse", str(out / "sparse.hyqa"),
                 "--query", query, "-k", "20"],
                env={**env, "PYTHONHASHSEED": seed}, capture_output=True, check=True, text=True,
            ).stdout
            for seed in ("1", "2")
        ]
        assert stdouts[0].count("\n") > 1
        assert stdouts[0] == stdouts[1]

    def test_evaluate_and_ttest(self, trained, tmp_path, capsys):
        _, out = trained
        golds = tmp_path / "golds.jsonl"
        with open(golds, "w") as f:
            f.write(json.dumps({"id": "q1", "question": "what does the otter eat", "answers": ["shellfish"]}) + "\n")
            f.write(json.dumps({"id": "q2", "question": "what does the camel eat", "answers": ["thornbush"]}) + "\n")
        for sub, weight in (("a", "1.0"), ("b", "0.0")):
            assert run([
                "--output-dir", out / sub, "evaluate",
                "--sparse", out / "sparse.hyqa",
                "--dense", out / "dense.hyqa",
                "--encoder", out / "encoder.hyqa",
                "--weight", weight,
                "--golds", golds,
                "--passages", out / "passages_retrieval.jsonl",
                "--K", 4,
            ]) == 0
        report = json.loads((out / "a" / "report.json").read_text())
        assert report["query_count"] == 2
        assert report["metrics"]["match@20"] == 1.0
        capsys.readouterr()
        assert run(["ttest", "--a", out / "a" / "report.json", "--b", out / "b" / "report.json", "--metric", "top1_f1"]) == 0
        result = json.loads(capsys.readouterr().out.strip())
        assert result.get("degenerate") or "p_value" in result

    def test_tune_fusion(self, trained, tmp_path, capsys):
        _, out = trained
        golds = tmp_path / "golds.jsonl"
        with open(golds, "w") as f:
            f.write(json.dumps({"id": "q1", "question": "what does the otter eat", "answers": ["shellfish"]}) + "\n")
        assert run([
            "--output-dir", out, "tune-fusion",
            "--golds", golds,
            "--passages", out / "passages_retrieval.jsonl",
            "--sparse", out / "sparse.hyqa",
            "--dense", out / "dense.hyqa",
            "--encoder", out / "encoder.hyqa",
            "-k", 5,
        ]) == 0
        tuned = json.loads((out / "fusion_weight.json").read_text())
        assert 0.0 <= tuned["weight"] <= 1.0
        assert tuned["match@5"] == 1.0


class TestErrorHandling:
    def test_missing_input_exits_nonzero(self, tmp_path, capsys):
        assert run(["--output-dir", tmp_path, "index-sparse", "--passages", tmp_path / "absent.jsonl"]) == 1
        assert "error [index-sparse]" in capsys.readouterr().err

    def test_retrieve_without_index(self, capsys):
        assert run(["retrieve", "--mode", "sparse", "--query", "x"]) == 1
        assert "requires --sparse" in capsys.readouterr().err

    def test_seed_env_fallback(self, workspace, monkeypatch, capsys):
        docs, out = workspace
        monkeypatch.setenv("HYQA_SEED", "5")
        assert run(["--output-dir", out / "env", "generate", "--passages", out / "passages_generation.jsonl"]) == 0
        assert (out / "env" / "synthetic_raw.jsonl").exists()

    def test_config_file_defaults(self, workspace, tmp_path, capsys):
        docs, out = workspace
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k1": 2.0, "b": 0.5}))
        assert run([
            "--config", config, "--output-dir", out / "cfg",
            "index-sparse", "--passages", out / "passages_retrieval.jsonl",
        ]) == 0
        from hyqa.sparse import SparseIndex

        index = SparseIndex.load(out / "cfg" / "sparse.hyqa")
        assert index.params.k1 == 2.0
        assert index.params.b == 0.5

    @pytest.mark.parametrize("joined", [False, True])
    def test_explicit_flag_beats_config(self, tmp_path, joined):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"pool_size": 5, "seed": 4}))

        def flag(name, value):
            return [f"{name}={value}"] if joined else [name, value]

        args = parse_args(["--config", str(config), "retrieve", "--query", "x"])
        assert (args.pool_size, args.seed) == (5, 4)
        argv = ["--config", str(config), *flag("--seed", "9"), "retrieve", "--query", "x", *flag("--pool-size", "77")]
        args = parse_args(argv)
        assert (args.pool_size, args.seed) == (77, 9)

    def test_config_keys_of_other_subcommands_ignored(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k1": 2.0, "pool-size": 6}))
        args = parse_args(["--config", str(config), "retrieve", "--query", "x"])
        assert args.pool_size == 6
        assert not hasattr(args, "k1")

    @pytest.mark.parametrize("content", ["{not json", "[1, 2]", None])
    def test_bad_config_is_one_line_error(self, tmp_path, capsys, content):
        config = tmp_path / "config.json"
        if content is not None:
            config.write_text(content)
        assert run(["--config", config, "dump", "--index", tmp_path / "x.hyqa"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [config]: ") and str(config) in err
        assert err.count("\n") == 1

    def test_bad_seed_env_is_one_line_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HYQA_SEED", "abc")
        assert run(["dump", "--index", tmp_path / "x.hyqa"]) == 1
        assert capsys.readouterr().err == "error [config]: $HYQA_SEED='abc' is not an integer\n"

    def test_logits_with_shared_question_is_one_line_error(self, workspace, tmp_path, capsys):
        _, out = workspace
        golds = tmp_path / "golds.jsonl"
        golds.write_text("".join(
            json.dumps({"id": qid, "question": "what does the otter eat", "answers": ["shellfish"]}) + "\n"
            for qid in ("q1", "q2")
        ))
        logits = tmp_path / "logits.jsonl"
        logits.write_text(json.dumps({"question_id": "q2", "passage_id": "doc1#0", "start": [0.0], "end": [0.0]}) + "\n")
        assert run([
            "--output-dir", tmp_path / "eval", "evaluate",
            "--sparse", out / "sparse.hyqa",
            "--golds", golds,
            "--passages", out / "passages_retrieval.jsonl",
            "--logits", logits,
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [evaluate]: ") and "'q1'" in err and "'q2'" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "eval" / "report.json").exists()

    @pytest.mark.parametrize("command", ["evaluate", "answer"])
    @pytest.mark.parametrize("extra", [1, -1], ids=["longer", "shorter"])
    def test_logits_token_count_mismatch_is_one_line_error(self, workspace, tmp_path, capsys, command, extra):
        _, out = workspace
        passages = [json.loads(line) for line in (out / "passages_retrieval.jsonl").read_text().splitlines()]
        pid, n = passages[1]["id"], passages[1]["word_count"]
        golds = tmp_path / "golds.jsonl"
        golds.write_text(json.dumps({"id": "q1", "question": "what does the otter eat", "answers": ["shellfish"]}) + "\n")
        logits = tmp_path / "logits.jsonl"
        row = [0.0] * (n + 1 + extra)
        logits.write_text(json.dumps({"question_id": "q1", "passage_id": pid, "start": row, "end": row}) + "\n")
        args = ["--sparse", out / "sparse.hyqa", "--passages", out / "passages_retrieval.jsonl", "--logits", logits]
        if command == "evaluate":
            args += ["--golds", golds]
        else:
            args += ["--question", "q1"]
        assert run(["--output-dir", tmp_path / "eval", command, *args]) == 1
        err = capsys.readouterr().err
        assert err == f"error [{command}]: logits for ('q1', '{pid}') cover {n + extra} tokens, passage has {n}\n"
        assert not (tmp_path / "eval" / "report.json").exists()

    def test_index_dense_on_empty_passages(self, tmp_path, capsys):
        from hyqa.dense_index import DenseIndex
        from hyqa.encoder import DualEncoder

        DualEncoder.create(["alpha", "beta"], d=8).save(tmp_path / "encoder.hyqa")
        (tmp_path / "empty.jsonl").write_text("")
        out = tmp_path / "out"
        assert run(["--output-dir", out, "index-dense", "--passages", tmp_path / "empty.jsonl",
                    "--encoder", tmp_path / "encoder.hyqa"]) == 0
        assert "embedded 0 passages at d=8" in capsys.readouterr().out
        index = DenseIndex.load(out / "dense.hyqa")
        assert (index.n, index.d) == (0, 8)


class TestStageEquivalence:
    def test_generate_and_filter_match_run_adaptation(self, tmp_path):
        docs = tmp_path / "documents.jsonl"
        write_documents(docs)
        config = AdaptationConfig(
            seed=3,
            train=TrainConfig(learning_rate=0.05, epochs=1, batch_size=4, warmup_steps=0, seed=3),
            embedding_dim=8,
        )
        with open(docs) as f:
            result = run_adaptation(list(ingest_documents(f)), config, output_dir=tmp_path / "adapt")
        assert result.examples and result.filtered

        out = tmp_path / "cli"
        gen = out / "passages_generation.jsonl"
        assert run(["--output-dir", out, "chunk", "--input", docs, "--mode", "generation"]) == 0
        assert gen.read_bytes() == (tmp_path / "adapt" / "generation_passages.jsonl").read_bytes()
        assert run(["--seed", 3, "--output-dir", out, "generate", "--passages", gen]) == 0
        raw = (out / "synthetic_raw.jsonl").read_text().splitlines()
        assert raw == [json.dumps(example_to_record(ex), sort_keys=True) for ex in result.examples]
        assert run([
            "--output-dir", out, "filter",
            "--examples", out / "synthetic_raw.jsonl",
            "--passages", gen,
            "--threshold", 1.0,
        ]) == 0
        filtered = (out / "synthetic_filtered.jsonl").read_bytes()
        assert filtered == (tmp_path / "adapt" / "synthetic_examples.jsonl").read_bytes()
        summary = json.loads((out / "generation_summary.json").read_text())
        assert summary["discards"] == result.manifest["counts"]["generation_discards"]
