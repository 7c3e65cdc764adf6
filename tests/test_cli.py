import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyqa
from hyqa.cli import build_parser, main, parse_args
from hyqa.corpus import ingest_documents, tokenize
from hyqa.encoder import TrainConfig
from hyqa.fusion import FusionConfig
from hyqa.pipeline import AdaptationConfig, PipelineConfig, run_adaptation
from hyqa.sparse import BM25Params
from hyqa.syngen import FilterConfig, QAExample, SamplerConfig, example_to_record


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
        from hyqa.dense_index import DenseIndex

        _, out = trained
        assert run([
            "--output-dir", out, "encode",
            "--passages", out / "passages_retrieval.jsonl",
            "--encoder", out / "encoder.hyqa",
        ]) == 0
        records = [json.loads(line) for line in (out / "embeddings.jsonl").read_text().splitlines()]
        assert len(records[0]["vector"]) == 16
        # The f32-rounded rows that index-dense stores, row for row.
        index = DenseIndex.load(out / "dense.hyqa")
        assert [r["id"] for r in records] == index.ids
        assert [r["vector"] for r in records] == index.matrix.tolist()


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
        argv = [
            "answer",
            "--sparse", out / "sparse.hyqa",
            "--passages", out / "passages_retrieval.jsonl",
            "--question", "what does the otter eat",
            "--K", 4,
        ]
        assert run(argv) == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert rows
        assert {"answer", "passage_id", "combined"} <= set(rows[0])
        assert max(len(tokenize(r["answer"])) for r in rows) > 1

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


_FUSION, _PIPELINE, _ADAPTATION, _SAMPLER = FusionConfig(), PipelineConfig(), AdaptationConfig(), SamplerConfig()
_RETRIEVAL = {"weight": _FUSION.weight, "pool_size": _FUSION.pool_size}
_READING = {**_RETRIEVAL, "K": _PIPELINE.K, "ir_weight": _PIPELINE.ir_weight}


# Each stage command with only its required flags, and the library defaults
# its other flags must take.
_STAGE_DEFAULTS = [
    (["index-sparse", "--passages", "p"], {"k1": BM25Params().k1, "b": BM25Params().b}),
    (
        ["train-encoder", "--instances", "i", "--passages", "p"],
        {"lr": TrainConfig().learning_rate, "epochs": TrainConfig().epochs, "batch_size": TrainConfig().batch_size,
         "warmup": TrainConfig().warmup_steps, "dim": _ADAPTATION.embedding_dim},
    ),
    (["generate", "--passages", "p"], {"n": _ADAPTATION.examples_per_passage, "p": _SAMPLER.p, "k": _SAMPLER.k}),
    (["filter", "--examples", "e", "--passages", "p"], {"threshold": FilterConfig().threshold}),
    (["mine-negatives", "--examples", "e", "--passages", "p", "--index", "i"], {"depth": _ADAPTATION.negative_depth}),
    (["retrieve", "--query", "q"], _RETRIEVAL),
    (["answer", "--question", "q", "--passages", "p"], _READING),
    (["evaluate", "--golds", "g", "--passages", "p"], _READING),
    (
        ["tune-fusion", "--golds", "g", "--passages", "p", "--sparse", "s", "--dense", "d", "--encoder", "e"],
        {"k": 20, "pool_size": _FUSION.pool_size},
    ),
]


@pytest.mark.parametrize("argv, defaults", _STAGE_DEFAULTS, ids=[argv[0] for argv, _ in _STAGE_DEFAULTS])
def test_stage_flags_default_to_the_library_defaults(argv, defaults):
    args = parse_args(argv)
    assert {name: getattr(args, name) for name in defaults} == defaults


def refusal(command, flag, value, message):
    return pytest.param(command, flag, value, message, id=f"{command} {flag}")


# Each numeric flag of each subcommand with a value it refuses, and the
# refusal (test_bad_flag_is_refused_by_name_before_reading); a scan of the
# parser (test_every_numeric_flag_has_a_refusal_case) keeps it complete.
_FLAG_REFUSALS = [
    refusal("chunk", "--max-units", 0, "--max-units must be >= 1"),
    refusal("retrieve", "--pool-size", 0, "--pool-size must be >= 1"),
    refusal("retrieve", "--weight", 2, "--weight must lie in [0, 1]"),
    refusal("retrieve", "-k", 0, "-k must be >= 1"),
    refusal("answer", "--pool-size", 0, "--pool-size must be >= 1"),
    refusal("answer", "--weight", 2, "--weight must lie in [0, 1]"),
    refusal("answer", "--K", 0, "--K must be >= 1"),
    refusal("answer", "--ir-weight", 2, "--ir-weight must lie in [0, 1]"),
    refusal("answer", "--top", 0, "--top must be >= 1"),
    pytest.param("answer", "--top", -1, "--top must be >= 1", id="answer --top -1"),
    refusal("evaluate", "--pool-size", 0, "--pool-size must be >= 1"),
    refusal("evaluate", "--weight", 2, "--weight must lie in [0, 1]"),
    refusal("evaluate", "--K", 0, "--K must be >= 1"),
    refusal("evaluate", "--ir-weight", 2, "--ir-weight must lie in [0, 1]"),
    refusal("tune-fusion", "-k", 0, "-k must be >= 1"),
    refusal("tune-fusion", "--pool-size", 0, "--pool-size must be >= 1"),
    refusal("index-sparse", "--k1", 0, "--k1 must be finite and positive"),
    refusal("index-sparse", "--b", 2, "--b must lie in [0, 1]"),
    refusal("generate", "--n", 0, "--n must be >= 1"),
    refusal("generate", "--p", 0, "--p must lie in (0, 1]"),
    refusal("generate", "--k", 0, "--k must be >= 1"),
    refusal("filter", "--threshold", "nan", "--threshold must be a number, not NaN"),
    refusal("mine-negatives", "--depth", 0, "--depth must be >= 1"),
    refusal("train-encoder", "--lr", 0, "--lr must be finite and positive"),
    refusal("train-encoder", "--epochs", -1, "--epochs must be non-negative"),
    refusal("train-encoder", "--batch-size", 0, "--batch-size must be >= 1"),
    refusal("train-encoder", "--warmup", -1, "--warmup must be non-negative"),
    refusal("train-encoder", "--dim", 0, "--dim must be >= 1"),
]

# Numeric flags with no case in _FLAG_REFUSALS, each with the reason.
_REFUSED_ELSEWHERE = {
    "hyqa --seed": "a global flag, refused while parsing as error [config] "
    "(test_negative_seed_is_refused_where_it_is_parsed)",
}


def test_every_numeric_flag_has_a_refusal_case():
    """Each int or float option of hyqa and of every subcommand has a case
    in _FLAG_REFUSALS or a reason in _REFUSED_ELSEWHERE, and each case and
    reason names such an option, so a numeric flag added later is refused
    by name before reading, or says why not."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    numeric = {
        f"{command} {action.option_strings[0]}"
        for command, p in [("hyqa", parser), *subparsers.choices.items()]
        for action in p._actions
        if action.type in (int, float)
    }
    cases = {f"{case.values[0]} {case.values[1]}" for case in _FLAG_REFUSALS}
    assert cases.isdisjoint(_REFUSED_ELSEWHERE)
    assert cases | _REFUSED_ELSEWHERE.keys() == numeric


class TestErrorHandling:
    def test_missing_input_exits_nonzero(self, tmp_path, capsys):
        assert run(["--output-dir", tmp_path, "index-sparse", "--passages", tmp_path / "absent.jsonl"]) == 1
        assert "error [index-sparse]" in capsys.readouterr().err

    @pytest.mark.parametrize("k1", ["nan", "inf"])
    def test_index_sparse_refuses_non_finite_k1(self, workspace, k1, capsys):
        _, out = workspace
        target = out / "bad-k1"
        assert run(["--output-dir", target, "index-sparse", "--passages", out / "passages_retrieval.jsonl", "--k1", k1]) == 1
        assert capsys.readouterr().err == "error [index-sparse]: --k1 must be finite and positive\n"
        assert not (target / "sparse.hyqa").exists()

    def test_train_encoder_with_no_epochs(self, trained, tmp_path, capsys):
        _, out = trained
        instances = out / "train_instances.jsonl"
        capsys.readouterr()
        assert run([
            "--output-dir", tmp_path / "o", "train-encoder", "--instances", instances,
            "--passages", out / "passages_generation.jsonl", "--epochs", 0, "--dim", 16,
        ]) == 0
        count = len(instances.read_text().splitlines())
        assert capsys.readouterr().out == f"trained on {count} instances; no epochs run; saved {tmp_path / 'o' / 'encoder.hyqa'}\n"

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

    def test_config_key_that_names_no_option_is_refused(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k1": 2.0, "pool_sise": 5, "seeed": 3}))
        assert run(["--config", config, "retrieve", "--query", "x"]) == 1
        assert capsys.readouterr().err == f"error [config]: {config}: 'pool_sise' names no hyqa option\n"
        # --help and --config are options, but no file sets them.
        for key in ("help", "config"):
            config.write_text(json.dumps({"k1": 2.0, key: "other.json"}))
            assert run(["--config", config, "retrieve", "--query", "x"]) == 1
            assert capsys.readouterr().err == f"error [config]: {config}: {key!r} names no hyqa option\n"

    @pytest.mark.parametrize(
        "command, values, reason",
        [
            (["retrieve", "--query", "x"], {"k": 2.5}, "'k' is 2.5, not an integer"),
            (["answer", "--question", "x", "--passages", "p"], {"K": True}, "'K' is true, not an integer"),
            (["answer", "--question", "x", "--passages", "p"], {"top": "x"}, "'top' is \"x\", not an integer"),
            (["train-encoder", "--instances", "i", "--passages", "p"], {"lr": False}, "'lr' is false, not a number"),
            (["chunk", "--input", "d"], {"mode": "bogus"}, "'mode' is \"bogus\", not one of \"retrieval\", \"generation\""),
            (["retrieve", "--query", "x"], {"mode": "bogus"}, "'mode' is \"bogus\", not one of \"sparse\", \"dense\", \"hybrid\""),
            (["retrieve", "--query", "x"], {"pool-size": None}, "'pool-size' is null, not an integer"),
            (["ingest", "--input", "d"], {"output_dir": 3}, "'output_dir' is 3, not a string"),
        ],
        ids=["float-for-int", "bool-for-int", "word-for-int", "bool-for-float", "chunk-choice", "retrieve-choice",
             "null", "number-for-string"],
    )
    def test_config_value_is_parsed_as_its_flag_is(self, tmp_path, capsys, command, values, reason):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        assert run(["--config", config, "--output-dir", tmp_path / "o", *command]) == 1
        assert capsys.readouterr() == ("", f"error [config]: {config}: {reason}\n")
        assert not (tmp_path / "o").exists()

    def test_config_values_take_their_flags_types(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"weight": 1, "k": "3", "mode": None, "seed": None, "max-units": None}))
        args = parse_args(["--config", str(config), "retrieve", "--query", "x"])
        assert (args.weight, type(args.weight), args.k, args.mode) == (1.0, float, 3, None)

    @pytest.mark.parametrize("key, flag", [("max_answer_len", "--max-answer-len"), ("normalization", "--normalization")])
    def test_reader_settings_are_no_options(self, tmp_path, capsys, key, flag):
        # The reader's longest span and its min-max normalization are fixed,
        # so neither a --config key nor a flag sets them.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: 1}))
        assert run(["--config", config, "answer", "--question", "x", "--passages", tmp_path / "absent.jsonl"]) == 1
        assert capsys.readouterr().err == f"error [config]: {config}: {key!r} names no hyqa option\n"
        with pytest.raises(SystemExit):
            parse_args(["answer", "--question", "x", "--passages", "p", flag, "1"])
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "command", [["generate", "--passages", "p.jsonl"], ["train-encoder", "--instances", "i.jsonl", "--passages", "p.jsonl"]],
        ids=["generate", "train-encoder"],
    )
    def test_negative_seed_is_refused_where_it_is_parsed(self, tmp_path, monkeypatch, capsys, command):
        assert run(["--output-dir", tmp_path, "--seed", "-1", *command]) == 1
        assert capsys.readouterr().err == "error [config]: --seed must be >= 0\n"
        monkeypatch.setenv("HYQA_SEED", "-1")
        assert run(["--output-dir", tmp_path, *command]) == 1
        assert capsys.readouterr().err == "error [config]: $HYQA_SEED='-1' must be >= 0\n"

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

    @pytest.mark.parametrize("record, message", [
        ({"question_id": "q1", "passage_id": "doc1#0", "start": [0.0]}, "missing key 'end'"),
        ({"question_id": "q1", "passage_id": "doc1#0", "start": 1.0, "end": 1.0}, "object of type 'float' has no len()"),
        ({"question_id": "q1", "passage_id": "doc1#0", "start": [], "end": []}, "logit arrays must include the CLS slot"),
    ])
    def test_malformed_logits_record_is_located(self, workspace, tmp_path, capsys, record, message):
        _, out = workspace
        logits = tmp_path / "logits.jsonl"
        good = {"question_id": "q1", "passage_id": "doc0#0", "start": [0.0], "end": [0.0]}
        logits.write_text(json.dumps(good) + "\n\n" + json.dumps(record) + "\n")
        assert run([
            "--output-dir", tmp_path / "o", "answer", "--question", "q1",
            "--sparse", out / "sparse.hyqa", "--passages", out / "passages_retrieval.jsonl", "--logits", logits,
        ]) == 1
        assert capsys.readouterr().err == f"error [answer]: {logits} line 3: {message}\n"

    def test_duplicate_logits_record_is_one_line_error(self, workspace, tmp_path, capsys):
        _, out = workspace
        logits = tmp_path / "logits.jsonl"
        record = json.dumps({"question_id": "q1", "passage_id": "doc1#0", "start": [0.0], "end": [0.0]}) + "\n"
        other = json.dumps({"question_id": "q2", "passage_id": "doc1#0", "start": [0.0], "end": [0.0]}) + "\n"
        logits.write_text(record + other + record)
        examples = tmp_path / "examples.jsonl"
        examples.write_text(json.dumps(example_to_record(QAExample("doc1#0", "q1", "The", (0, 3)))) + "\n")
        assert run([
            "--output-dir", tmp_path / "o", "filter", "--examples", examples,
            "--passages", out / "passages_generation.jsonl", "--logits", logits,
        ]) == 1
        assert capsys.readouterr().err == "error [filter]: duplicate logits record for ('q1', 'doc1#0')\n"

    def test_filter_names_unknown_example_passage(self, workspace, tmp_path, capsys):
        _, out = workspace
        examples = tmp_path / "examples.jsonl"
        records = [QAExample("doc0#0", "what", "The", (0, 3)), QAExample("nope#0", "what", "The", (0, 3))]
        examples.write_text("".join(json.dumps(example_to_record(ex)) + "\n" for ex in records))
        assert run([
            "--output-dir", tmp_path / "o", "filter",
            "--examples", examples, "--passages", out / "passages_generation.jsonl",
        ]) == 1
        assert capsys.readouterr().err == "error [filter]: example passage 'nope#0' not in passage map (example 1)\n"
        assert not (tmp_path / "o" / "synthetic_filtered.jsonl").exists()

    def test_mine_negatives_names_unknown_example_passage(self, workspace, tmp_path, capsys):
        _, out = workspace
        examples = tmp_path / "examples.jsonl"
        records = [QAExample("doc0#0", "what", "The", (0, 3)), QAExample("nope#0", "what", "The", (0, 3))]
        examples.write_text("".join(json.dumps(example_to_record(ex)) + "\n" for ex in records))
        assert run([
            "--output-dir", tmp_path / "o", "mine-negatives", "--examples", examples,
            "--passages", out / "passages_generation.jsonl", "--index", out / "sparse.hyqa",
        ]) == 1
        assert capsys.readouterr().err == "error [mine-negatives]: example passage 'nope#0' not in passage map\n"
        assert not (tmp_path / "o" / "train_instances.jsonl").exists()

    @pytest.mark.parametrize("line, message", [
        ("{bad", "invalid JSON: Expecting property name enclosed in double quotes at column 2"),
        ("[1, 2]", "record is not a JSON object"),
    ])
    def test_invalid_json_line_is_located(self, workspace, tmp_path, capsys, line, message):
        _, out = workspace
        lines = (out / "passages_retrieval.jsonl").read_text().splitlines(keepends=True)
        bad = tmp_path / "passages.jsonl"
        bad.write_text(lines[0] + line + "\n" + "".join(lines[1:]))
        assert run(["--output-dir", tmp_path / "o", "index-sparse", "--passages", bad]) == 1
        assert capsys.readouterr().err == f"error [index-sparse]: {bad} line 2: {message}\n"

    @pytest.mark.parametrize("command, flag, good, record, message", [
        ("chunk", "--input", {"id": "d0", "text": "One."}, {"id": "d1"}, "missing or empty 'text' field"),
        ("evaluate", "--golds", {"question": "who", "answers": ["x"]}, {"answers": ["x"]}, "missing key 'question'"),
    ])
    def test_documents_and_golds_are_located(self, workspace, tmp_path, capsys, command, flag, good, record, message):
        _, out = workspace
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(good) + "\n\n" + json.dumps(record) + "\n")
        args = [flag, bad]
        if command == "evaluate":
            args += ["--sparse", out / "sparse.hyqa", "--passages", out / "passages_retrieval.jsonl"]
        assert run(["--output-dir", tmp_path / "o", command, *args]) == 1
        assert capsys.readouterr().err == f"error [{command}]: {bad} line 3: {message}\n"

    def test_ttest_without_shared_queries_is_a_stage_error(self, tmp_path, capsys):
        for name, qid in (("a", "q1"), ("b", "q2")):
            (tmp_path / f"{name}.json").write_text(json.dumps({"per_query": {qid: {"top5_f1": 1.0}}}))
        assert run(["ttest", "--a", tmp_path / "a.json", "--b", tmp_path / "b.json"]) == 1
        assert capsys.readouterr().err == "error [ttest]: no shared query ids between the two reports\n"

    @pytest.mark.parametrize(
        "report, reason",
        [
            ({"metrics": {}}, "missing key 'per_query'"),
            ([], "expected a JSON object"),
            ({"per_query": ["q1"]}, "'per_query' is not a JSON object"),
        ],
    )
    def test_ttest_report_without_per_query_is_named(self, tmp_path, capsys, report, reason):
        (tmp_path / "a.json").write_text(json.dumps({"per_query": {"q1": {"top5_f1": 1.0}}}))
        (tmp_path / "b.json").write_text(json.dumps(report))
        assert run(["ttest", "--a", tmp_path / "a.json", "--b", tmp_path / "b.json"]) == 1
        assert capsys.readouterr().err == f"error [ttest]: {tmp_path / 'b.json'}: {reason}\n"

    @pytest.mark.parametrize(
        "content, reason",
        [
            ("{bad", "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            ("[1, 2]", "expected a JSON object"),
            (None, "No such file or directory"),
        ],
        ids=["invalid", "list", "absent"],
    )
    def test_ttest_report_is_read_as_a_config_is(self, tmp_path, capsys, content, reason):
        bad = tmp_path / "bad.json"
        if content is not None:
            bad.write_text(content)
        (tmp_path / "a.json").write_text(json.dumps({"per_query": {"q1": {"top5_f1": 1.0}}}))
        assert run(["ttest", "--a", tmp_path / "a.json", "--b", bad]) == 1
        assert capsys.readouterr().err == f"error [ttest]: {bad}: {reason}\n"
        assert run(["--config", bad, "ttest", "--a", tmp_path / "a.json", "--b", tmp_path / "a.json"]) == 1
        assert capsys.readouterr().err == f"error [config]: {bad}: {reason}\n"

    @pytest.mark.parametrize(
        "value, shown",
        [("x", '"x"'), (None, "null"), (float("nan"), "NaN"), (float("inf"), "Infinity"),
         (10**400, "1" + "0" * 400), (True, "true"), ([1.0], "[1.0]")],
        ids=["string", "null", "nan", "infinity", "past-float-range", "bool", "list"],
    )
    def test_ttest_refuses_a_value_that_is_not_a_finite_number(self, tmp_path, capsys, value, shown):
        (tmp_path / "a.json").write_text(json.dumps({"per_query": {"q0": {"top5_f1": 0.5}, "q1": {"top5_f1": 1}}}))
        (tmp_path / "b.json").write_text(json.dumps({"per_query": {"q0": {"top5_f1": 0.0}, "q1": {"top5_f1": value}}}))
        assert run(["ttest", "--a", tmp_path / "a.json", "--b", tmp_path / "b.json"]) == 1
        assert capsys.readouterr() == (
            "", f"error [ttest]: {tmp_path / 'b.json'}: query 'q1': 'top5_f1' is {shown}, not a finite number\n"
        )

    @pytest.mark.parametrize("row", [{"top5_f1": 1.0}, 1.0])
    def test_ttest_report_without_metric_is_named(self, tmp_path, capsys, row):
        (tmp_path / "a.json").write_text(json.dumps({"per_query": {"q0": {"top1_f1": 0.5}, "q1": row}}))
        (tmp_path / "b.json").write_text(json.dumps({"per_query": {"q1": {"top1_f1": 1.0}}}))
        assert run(["ttest", "--a", tmp_path / "a.json", "--b", tmp_path / "b.json", "--metric", "top1_f1"]) == 1
        assert capsys.readouterr().err == f"error [ttest]: {tmp_path / 'a.json'}: query 'q1' is missing key 'top1_f1'\n"

    def test_missing_key_is_located(self, workspace, tmp_path, capsys):
        _, out = workspace
        record = {"passage_id": "doc0#0", "question": "what", "answer": "The", "span_start": 0, "span_end": 3}
        examples = tmp_path / "examples.jsonl"
        del record["span_start"]
        examples.write_text(json.dumps({**record, "span_start": 0}) + "\n\n" + json.dumps(record) + "\n")
        assert run([
            "--output-dir", tmp_path / "o", "filter",
            "--examples", examples, "--passages", out / "passages_generation.jsonl",
        ]) == 1
        assert capsys.readouterr().err == f"error [filter]: {examples} line 3: missing key 'span_start'\n"

    def test_unknown_passage_id_is_named(self, workspace, tmp_path, capsys):
        _, out = workspace
        instances = tmp_path / "instances.jsonl"
        instances.write_text(json.dumps({"question": "what", "positive_id": "doc0#0", "negative_ids": ["zz"]}) + "\n")
        assert run([
            "--output-dir", tmp_path / "o", "train-encoder",
            "--instances", instances, "--passages", out / "passages_generation.jsonl",
        ]) == 1
        assert capsys.readouterr().err == f"error [train-encoder]: {instances} line 1: unknown passage id 'zz'\n"

    @pytest.mark.parametrize("command, field, value, message", [
        ("index-sparse", "text", 5, "'text' is not a string"),
        ("index-sparse", "word_count", "3", "'word_count' is not an integer"),
        ("index-sparse", "hard_split", 0, "'hard_split' is not a boolean"),
        ("filter", "question", 7, "'question' is not a string"),
        ("filter", "span_end", 3.0, "'span_end' is not an integer"),
        ("train-encoder", "negative_ids", "doc1#0", "'negative_ids' is not a list of strings"),
        ("train-encoder", "positive_id", ["doc0#0"], "'positive_id' is not a string"),
    ])
    def test_field_of_the_wrong_type_is_located(self, workspace, tmp_path, capsys, command, field, value, message):
        _, out = workspace
        generation = out / "passages_generation.jsonl"
        flag, good, args = {
            "index-sparse": ("--passages", json.loads((out / "passages_retrieval.jsonl").read_text().splitlines()[0]), []),
            "filter": ("--examples", example_to_record(QAExample("doc0#0", "what", "The", (0, 3))), ["--passages", generation]),
            "train-encoder": (
                "--instances", {"question": "what", "positive_id": "doc0#0", "negative_ids": ["doc1#0"]}, ["--passages", generation]
            ),
        }[command]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(good) + "\n\n" + json.dumps({**good, field: value}) + "\n")
        assert run(["--output-dir", tmp_path / "o", command, flag, bad, *args]) == 1
        assert capsys.readouterr().err == f"error [{command}]: {bad} line 3: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_bytes_that_are_not_utf8_are_located(self, tmp_path, capsys):
        docs = tmp_path / "docs.jsonl"
        docs.write_bytes(b'{"id": "d0", "text": "Tea."}\r\n{"id": "d1", "text": "Caf\xe9 au lait."}\n')
        assert run(["--output-dir", tmp_path / "o", "ingest", "--input", docs]) == 1
        reason = "not valid UTF-8: byte 0xe9 (invalid continuation byte)"
        assert capsys.readouterr().err == f"error [ingest]: {docs} line 2: {reason}\n"
        config = tmp_path / "config.json"
        config.write_bytes(b'{\n"k1": 2.0, "b": "\xe9 "}')
        assert run(["--config", config, "dump", "--index", tmp_path / "x.hyqa"]) == 1
        assert capsys.readouterr().err == f"error [config]: {config}: {reason} on line 2\n"

    @pytest.mark.parametrize("command, flag, value, message", _FLAG_REFUSALS)
    def test_bad_flag_is_refused_by_name_before_reading(self, tmp_path, capsys, command, flag, value, message):
        # Every input named is absent, so a refusal after any read would
        # name a missing file instead.
        absent, index = tmp_path / "absent.jsonl", tmp_path / "absent.hyqa"
        indexes = [a for name in ("--sparse", "--dense", "--encoder") for a in (name, index)]
        argv = {
            "retrieve": ["--query", "x", *indexes],
            "answer": ["--question", "x", "--passages", absent, *indexes],
            "evaluate": ["--golds", absent, "--passages", absent, *indexes],
            "tune-fusion": ["--golds", absent, "--passages", absent, *indexes],
            "chunk": ["--input", absent],
            "index-sparse": ["--passages", absent],
            "generate": ["--passages", absent],
            "filter": ["--examples", absent, "--passages", absent],
            "mine-negatives": ["--examples", absent, "--passages", absent, "--index", index],
            "train-encoder": ["--instances", absent, "--passages", absent],
        }[command]
        assert run(["--output-dir", tmp_path / "o", command, *argv, flag, value]) == 1
        assert capsys.readouterr() == ("", f"error [{command}]: {message}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["answer", "evaluate", "tune-fusion", "mine-negatives"])
    def test_passages_lacking_an_indexed_passage_are_refused(self, trained, tmp_path, capsys, command):
        _, out = trained
        first, second = (out / "passages_retrieval.jsonl").read_text().splitlines()[:2]
        passages = tmp_path / "passages.jsonl"
        passages.write_text(first + "\n")
        golds = tmp_path / "golds.jsonl"
        golds.write_text(json.dumps({"question": "what does the otter eat", "answers": ["shellfish"]}) + "\n")
        # An example on the one passage whose question ranks the others.
        text = json.loads(first)["text"]
        start = text.index("eats ") + len("eats ")
        answer = text[start:].split()[0]
        example = QAExample(json.loads(first)["id"], "what does it eat during the season", answer, (start, start + len(answer)))
        examples = tmp_path / "examples.jsonl"
        examples.write_text(json.dumps(example_to_record(example)) + "\n")
        indexes = ["--sparse", out / "sparse.hyqa", "--dense", out / "dense.hyqa", "--encoder", out / "encoder.hyqa"]
        args = {"answer": [*indexes, "--question", "what does the otter eat"], "evaluate": [*indexes, "--golds", golds],
                "tune-fusion": [*indexes, "--golds", golds],
                "mine-negatives": ["--index", out / "sparse.hyqa", "--examples", examples]}[command]
        assert run(["--output-dir", tmp_path / "o", command, "--passages", passages, *args]) == 1
        missing = json.loads(second)["id"]
        assert capsys.readouterr() == (
            "", f"error [{command}]: {out / 'sparse.hyqa'} indexes passage {missing!r}, which {passages} does not hold\n"
        )
        assert not (tmp_path / "o").exists()

    def test_input_is_read_as_utf8_whatever_the_locale(self, tmp_path):
        docs = tmp_path / "docs.jsonl"
        docs.write_bytes('{"id": "d0", "text": "Caf\u00e9 au lait."}\n'.encode())
        env = {**os.environ, "PYTHONPATH": str(Path(hyqa.__file__).parents[1])}
        written = []
        for name, locale in (("c", {"PYTHONUTF8": "0", "LC_ALL": "C"}), ("utf8", {"PYTHONUTF8": "1"})):
            proc = subprocess.run(
                [sys.executable, "-m", "hyqa.cli", "--output-dir", str(tmp_path / name), "ingest", "--input", str(docs)],
                env={**env, **locale}, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            written.append((tmp_path / name / "documents.jsonl").read_bytes())
        assert written[0] == written[1] == b'{"id": "d0", "text": "Caf\\u00e9 au lait.", "title": ""}\n'

    @pytest.mark.parametrize("command, args, output", [
        ("index-sparse", [], "sparse.hyqa"),
        ("train-encoder", ["--instances", "instances.jsonl", "--epochs", "1"], "encoder.hyqa"),
        ("generate", ["--n", "2"], "synthetic_raw.jsonl"),
        ("encode", ["--encoder", "encoder.hyqa"], "embeddings.jsonl"),
    ])
    def test_repeated_passage_id_is_located(self, tmp_path, capsys, command, args, output):
        from hyqa.corpus import Passage, passage_to_record
        from hyqa.encoder import DualEncoder

        records = [passage_to_record(Passage("a#0", "a", text, 3)) for text in ("Alpha beta gamma.", "Delta eps zeta.")]
        passages = tmp_path / "passages.jsonl"
        passages.write_text("".join(json.dumps(r) + "\n" for r in records))
        (tmp_path / "instances.jsonl").write_text(
            json.dumps({"question": "alpha", "positive_id": "a#0", "negative_ids": []}) + "\n")
        DualEncoder.create(["alpha", "delta"], d=4, seed=0).save(tmp_path / "encoder.hyqa")
        argv = [tmp_path / a if a.endswith((".jsonl", ".hyqa")) else a for a in args]
        assert run(["--output-dir", tmp_path / "o", command, "--passages", passages, *argv]) == 1
        assert capsys.readouterr().err == f"error [{command}]: {passages} line 2: duplicate passage id 'a#0'\n"
        assert not (tmp_path / "o" / output).exists()

    @pytest.mark.parametrize("command, output", [("index-dense", "dense.hyqa"), ("encode", "embeddings.jsonl")])
    def test_non_finite_embedding_is_refused(self, tmp_path, capsys, command, output):
        from hyqa.corpus import Passage, passage_to_record
        from hyqa.encoder import DualEncoder

        encoder = DualEncoder.create(["alpha", "beta"], d=4, seed=0)
        encoder.params["p_emb"][:] = np.nan
        encoder.save(tmp_path / "encoder.hyqa")
        passages = tmp_path / "passages.jsonl"
        passages.write_text(json.dumps(passage_to_record(Passage("p1", "p", "Alpha beta.", 2))) + "\n")
        assert run(["--output-dir", tmp_path / "o", command, "--passages", passages,
                    "--encoder", tmp_path / "encoder.hyqa"]) == 1
        assert capsys.readouterr() == ("", f"error [{command}]: non-finite embedding for passage 'p1'\n")
        assert not (tmp_path / "o" / output).exists()

    def test_index_dense_on_empty_passages(self, tmp_path, capsys):
        from hyqa.dense_index import DenseIndex
        from hyqa.encoder import DualEncoder

        DualEncoder.create(["alpha", "beta"], d=8, seed=0).save(tmp_path / "encoder.hyqa")
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

    def test_every_stage_writes_the_artifacts_run_adaptation_writes(self, tmp_path):
        docs = tmp_path / "documents.jsonl"
        write_documents(docs)
        # A document of 180 words: two retrieval passages, one generation passage.
        heron = " ".join(f"Heron {i} fishes for minnows in the shallow marsh water near reeds." for i in range(15))
        with open(docs, "a") as f:
            f.write(json.dumps({"id": "doc4", "title": "heron", "text": heron}) + "\n")
        config = AdaptationConfig(
            seed=5,
            train=TrainConfig(learning_rate=0.05, epochs=2, batch_size=4, warmup_steps=1),
            embedding_dim=8,
            negative_depth=20,
        )
        with open(docs) as f:
            result = run_adaptation(ingest_documents(f), config, output_dir=tmp_path / "adapt")
        assert len(result.retrieval_passages) > len(result.generation_passages)

        out = tmp_path / "cli"
        ret, gen = out / "passages_retrieval.jsonl", out / "passages_generation.jsonl"
        for mode in ("retrieval", "generation"):
            assert run(["--output-dir", out, "chunk", "--input", docs, "--mode", mode]) == 0
        assert run(["--output-dir", out / "mining", "index-sparse", "--passages", gen]) == 0
        assert run(["--output-dir", out, "index-sparse", "--passages", ret]) == 0
        assert run(["--seed", 5, "--output-dir", out, "generate", "--passages", gen]) == 0
        assert run([
            "--output-dir", out, "filter",
            "--examples", out / "synthetic_raw.jsonl",
            "--passages", gen,
            "--threshold", 1.0,
        ]) == 0
        assert run([
            "--output-dir", out, "mine-negatives",
            "--examples", out / "synthetic_filtered.jsonl",
            "--passages", gen,
            "--index", out / "mining" / "sparse.hyqa",
            "--depth", 20,
        ]) == 0
        assert run([
            "--seed", 5, "--output-dir", out, "train-encoder",
            "--instances", out / "train_instances.jsonl",
            "--passages", gen,
            "--lr", 0.05, "--epochs", 2, "--batch-size", 4, "--warmup", 1, "--dim", 8,
        ]) == 0
        assert run(["--output-dir", out, "index-dense", "--passages", ret, "--encoder", out / "encoder.hyqa"]) == 0
        for name in ("sparse.hyqa", "encoder.hyqa", "dense.hyqa"):
            assert (out / name).read_bytes() == (tmp_path / "adapt" / name).read_bytes(), name
