"""Command-line interface.

Every subcommand reads and writes the documented JSONL/binary artifacts so
stages can be chained: ingest -> chunk -> index-sparse / train-encoder ->
index-dense -> retrieve / answer / evaluate. The adaptation subcommands
call the same stage functions as `pipeline.run_adaptation` (listed in the
`pipeline` docstring). Exit code 0 on success; failures print a
stage-tagged diagnostic and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .corpus import (
    IngestError,
    Passage,
    chunk_generation_passages,
    chunk_retrieval_passages,
    ingest_documents,
    passage_from_record,
    passage_to_record,
    read_jsonl,
    write_jsonl,
)
from .dense_index import DenseIndex
from .encoder import DualEncoder, IRTrainInstance, TrainConfig, encode_passage
from .evalkit import load_gold_jsonl, paired_t_test
from .fusion import FusionConfig, tune_weight
from .mrc import ExternalLogits, LexicalScorer
from .pipeline import (
    AdaptationConfig,
    PipelineConfig,
    answer_question,
    evaluate_run,
    index_dense,
    make_dense_retriever,
    make_hybrid_retriever,
    make_sparse_retriever,
    train_encoder,
)
from .sparse import BM25Params, SparseIndex, build_sparse_index
from .syngen import (
    FilterConfig,
    SamplerConfig,
    build_ir_training_set,
    example_from_record,
    example_to_record,
    filtered_records,
    generate_corpus,
    roundtrip_filter,
)

SEED_ENV = "HYQA_SEED"


def _read_lines(path):
    """The lines of the UTF-8 file at path, whatever the locale; a byte
    that is not UTF-8 raises IngestError naming its line."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.readlines()
    except UnicodeDecodeError:
        line_no, reason = _not_utf8(path)
        raise IngestError(line_no, reason, path) from None


def _not_utf8(path) -> tuple[int, str]:
    """The line (counted as readlines counts it) and a description of the
    first byte of the file at path that is not UTF-8. It reads the file
    again, so it is called only once a decode has failed."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        before = data[: e.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        return before.count("\n") + 1, f"not valid UTF-8: byte 0x{data[e.start]:02x} ({e.reason})"
    raise ValueError(f"{path}: changed while it was read")


def _load_jsonl(path, from_record):
    """read_jsonl of the file at path, its errors naming the file."""
    return read_jsonl(_read_lines(path), from_record, path)


def _load_passages(path):
    """The passages in the file at path; a repeated passage id refuses the
    later record, as ingest_documents refuses a repeated document id."""
    seen: set[str] = set()

    def passage(record: dict) -> Passage:
        p = passage_from_record(record)
        if p.id in seen:
            raise ValueError(f"duplicate passage id {p.id!r}")
        seen.add(p.id)
        return p

    return _load_jsonl(path, passage)


def _out_path(args, name: str) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _scorer(args, passages: dict[str, str], golds=None):
    """--logits looked up by question id, checked against the passages'
    token counts, or the lexical baseline."""
    if args.logits:
        records = _load_jsonl(args.logits, ExternalLogits.parse_record)
        qid_by_question: dict[str, str] = {}
        for g in golds or ():
            other = qid_by_question.setdefault(g.question, g.query_id)
            if other != g.query_id:
                raise ValueError(
                    f"gold queries {other!r} and {g.query_id!r} share the question {g.question!r}, "
                    "so --logits cannot tell their logits apart"
                )
        external = ExternalLogits.from_records(records, qid_by_question)
        external.validate_against(passages)
        return external
    return LexicalScorer()


def _check_indexed(index_path, ids, passages_path, passages: dict) -> None:
    """Refuse the index at index_path when its passage ids hold one that the
    passages file lacks, naming both files and the first such id."""
    missing = next((pid for pid in ids if pid not in passages), None)
    if missing is not None:
        raise ValueError(f"{index_path} indexes passage {missing!r}, which {passages_path} does not hold")


def _config(cls, args, *fields):
    """cls built from the flags of its `fields`, each flag the field's name
    after "--" with dashes for underscores; a value cls refuses is named by
    its flag, not its field."""
    try:
        return cls(**{name: getattr(args, name) for name in fields})
    except ValueError as e:
        message = str(e)
        name = next((name for name in fields if message.startswith(f"{name} ")), None)
        if name is None:
            raise
        raise ValueError(f"--{name.replace('_', '-')}{message[len(name):]}") from None


def _retriever(args, passages, fusion: FusionConfig):
    """The retriever the flags name, fusing at `fusion` in hybrid mode; with
    passages (the --passages file's id -> text, or None), an index holding a
    passage they lack is refused."""
    sparse_index = SparseIndex.load(args.sparse) if args.sparse else None
    dense_index = DenseIndex.load(args.dense) if args.dense else None
    if passages is not None:
        _check_indexed(args.sparse, sparse_index.doc_ids if sparse_index else (), args.passages, passages)
        _check_indexed(args.dense, dense_index.ids if dense_index else (), args.passages, passages)
    enc = DualEncoder.load(args.encoder) if args.encoder else None
    mode = args.mode or ("hybrid" if sparse_index and dense_index else "sparse" if sparse_index else "dense")
    if mode == "sparse":
        if sparse_index is None:
            raise ValueError("sparse retrieval requires --sparse")
        return make_sparse_retriever(sparse_index)
    if mode == "dense":
        if dense_index is None or enc is None:
            raise ValueError("dense retrieval requires --dense and --encoder")
        return make_dense_retriever(dense_index, enc)
    if sparse_index is None or dense_index is None or enc is None:
        raise ValueError("hybrid retrieval requires --sparse, --dense and --encoder")
    return make_hybrid_retriever(sparse_index, dense_index, enc, fusion)


def cmd_ingest(args):
    docs = ingest_documents(_read_lines(args.input), args.input)
    path = _out_path(args, "documents.jsonl")
    write_jsonl(path, ({"id": d.id, "title": d.title, "text": d.body, **d.meta} for d in docs))
    print(f"ingested {len(docs)} documents -> {path}")


def cmd_chunk(args):
    retrieval, adaptation = args.mode == "retrieval", AdaptationConfig()
    budget = adaptation.retrieval_max_words if retrieval else adaptation.generation_max_tokens
    max_units = budget if args.max_units is None else args.max_units
    if max_units < 1:
        raise ValueError("--max-units must be >= 1")
    docs = ingest_documents(_read_lines(args.input), args.input)
    chunker = chunk_retrieval_passages if retrieval else chunk_generation_passages
    passages = [p for doc in docs for p in chunker(doc, max_units)]
    path = _out_path(args, f"passages_{args.mode}.jsonl")
    write_jsonl(path, map(passage_to_record, passages))
    print(f"chunked {len(docs)} documents into {len(passages)} {args.mode} passages -> {path}")


def cmd_index_sparse(args):
    passages = _load_passages(args.passages)
    index = build_sparse_index(passages, BM25Params(k1=args.k1, b=args.b))
    path = _out_path(args, "sparse.hyqa")
    index.save(path)
    print(f"indexed {index.N} passages, {len(index.terms)} terms -> {path}")


def cmd_index_dense(args):
    index = index_dense(DualEncoder.load(args.encoder), _load_passages(args.passages))
    path = _out_path(args, "dense.hyqa")
    index.save(path)
    print(f"embedded {index.n} passages at d={index.d} -> {path}")


def cmd_encode(args):
    passages = _load_passages(args.passages)
    enc = DualEncoder.load(args.encoder)
    path = _out_path(args, "embeddings.jsonl")
    write_jsonl(path, ({"id": p.id, "vector": encode_passage(enc, p.text).tolist()} for p in passages))
    print(f"exported {len(passages)} embeddings -> {path}")


def cmd_train_encoder(args):
    passages = {p.id: p for p in _load_passages(args.passages)}

    def passage(pid):
        if pid not in passages:
            raise ValueError(f"unknown passage id {pid!r}")
        return passages[pid]

    def instance(rec: dict) -> IRTrainInstance:
        question, positive_id, negative_ids = rec["question"], rec["positive_id"], rec["negative_ids"]
        if not isinstance(question, str):
            raise TypeError("'question' is not a string")
        if not isinstance(positive_id, str):
            raise TypeError("'positive_id' is not a string")
        if not isinstance(negative_ids, list) or not all(isinstance(n, str) for n in negative_ids):
            raise TypeError("'negative_ids' is not a list of strings")
        return IRTrainInstance(question, passage(positive_id), tuple(map(passage, negative_ids)))

    instances = _load_jsonl(args.instances, instance)
    config = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        warmup_steps=args.warmup,
        seed=args.seed,
    )
    trained, trace = train_encoder(list(passages.values()), instances, args.dim, config)
    path = _out_path(args, "encoder.hyqa")
    trained.save(path)
    loss = f"loss {trace[0]:.4f} -> {trace[-1]:.4f}" if trace else "no epochs run"
    print(f"trained on {len(instances)} instances; {loss}; saved {path}")


def cmd_generate(args):
    passages = _load_passages(args.passages)
    result = generate_corpus(passages, args.n, SamplerConfig(p=args.p, k=args.k), args.seed)
    path = _out_path(args, "synthetic_raw.jsonl")
    write_jsonl(path, map(example_to_record, result.examples))
    summary = _out_path(args, "generation_summary.json")
    with open(summary, "w") as f:
        json.dump({"generated": len(result.examples), "discards": result.discards}, f, sort_keys=True, indent=2)
    print(f"generated {len(result.examples)} examples ({sum(result.discards.values())} discarded) -> {path}")


def cmd_filter(args):
    passages = {p.id: p.text for p in _load_passages(args.passages)}
    examples = _load_jsonl(args.examples, example_from_record)
    result = roundtrip_filter(examples, _scorer(args, passages), FilterConfig(threshold=args.threshold), passages)
    path = _out_path(args, "synthetic_filtered.jsonl")
    write_jsonl(path, filtered_records(examples, result))
    print(f"kept {len(result.kept)}/{len(examples)} at t={args.threshold} ({result.missing} missing logits) -> {path}")


def cmd_mine_negatives(args):
    if args.depth < 1:
        raise ValueError("--depth must be >= 1")
    passages = {p.id: p for p in _load_passages(args.passages)}
    index = SparseIndex.load(args.index)
    examples = _load_jsonl(args.examples, example_from_record)
    result = build_ir_training_set(examples, index, passages, depth=args.depth)
    path = _out_path(args, "train_instances.jsonl")
    write_jsonl(
        path,
        (
            {"question": inst.question, "positive_id": inst.positive.id, "negative_ids": [n.id for n in inst.hard_negatives]}
            for inst in result.instances
        ),
    )
    print(f"built {len(result.instances)} instances ({result.dropped} dropped) -> {path}")


def cmd_retrieve(args):
    if args.k < 1:
        raise ValueError("-k must be >= 1")
    retriever = _retriever(args, None, _config(FusionConfig, args, "pool_size", "weight"))
    results = retriever(args.query, args.k)
    for sp in results:
        print(json.dumps({"passage_id": sp.passage_id, "score": sp.score, "provenance": sp.provenance}))


def cmd_answer(args):
    if args.top < 1:
        raise ValueError("--top must be >= 1")
    fusion = _config(FusionConfig, args, "pool_size", "weight")
    config = _config(PipelineConfig, args, "K", "ir_weight", "max_answer_len", "normalization")
    passages = {p.id: p.text for p in _load_passages(args.passages)}
    retriever = _retriever(args, passages, fusion)
    candidates = answer_question(args.question, retriever, _scorer(args, passages), passages, config)
    for c in candidates[: args.top]:
        print(
            json.dumps(
                {
                    "answer": c.text,
                    "passage_id": c.passage_id,
                    "combined": c.combined,
                    "ir_score": c.ir_score,
                    "mrc_score": c.mrc_score,
                },
                sort_keys=True,
            )
        )


def cmd_evaluate(args):
    fusion = _config(FusionConfig, args, "pool_size", "weight")
    config = _config(PipelineConfig, args, "K", "ir_weight")
    passages = {p.id: p.text for p in _load_passages(args.passages)}
    golds = load_gold_jsonl(_read_lines(args.golds), args.golds)
    retriever = _retriever(args, passages, fusion)
    report = evaluate_run(golds, retriever, _scorer(args, passages, golds), passages, config)
    path = _out_path(args, "report.json")
    with open(path, "w") as f:
        f.write(report.to_json() + "\n")
    print(report.format_table())
    print(f"report -> {path}")


def cmd_tune_fusion(args):
    if args.k < 1:
        raise ValueError("-k must be >= 1")
    pool_size = _config(FusionConfig, args, "pool_size").pool_size
    passages = {p.id: p.text for p in _load_passages(args.passages)}
    golds = load_gold_jsonl(_read_lines(args.golds), args.golds)
    sparse_index, dense_index = SparseIndex.load(args.sparse), DenseIndex.load(args.dense)
    _check_indexed(args.sparse, sparse_index.doc_ids, args.passages, passages)
    _check_indexed(args.dense, dense_index.ids, args.passages, passages)
    sparse = make_sparse_retriever(sparse_index)
    dense = make_dense_retriever(dense_index, DualEncoder.load(args.encoder))
    sparse_runs = {g.query_id: sparse(g.question, pool_size) for g in golds}
    dense_runs = {g.query_id: dense(g.question, pool_size) for g in golds}
    w, metric = tune_weight(golds, sparse_runs, dense_runs, passages, k=args.k, pool_size=pool_size)
    path = _out_path(args, "fusion_weight.json")
    with open(path, "w") as f:
        json.dump({"weight": w, f"match@{args.k}": metric}, f, sort_keys=True, indent=2)
    print(f"best weight {w:.2f} with Match@{args.k} {metric:.4f} -> {path}")


def _report_scores(path: str, metric: str) -> dict:
    """Query id -> the metric's value, from the report at path; a missing
    key, or a value that is not a finite number, raises ValueError naming
    the file, the query and the key."""
    report = _read_json_object(path)
    if "per_query" not in report:
        raise ValueError(f"{path}: missing key 'per_query'")
    if not isinstance(report["per_query"], dict):
        raise ValueError(f"{path}: 'per_query' is not a JSON object")
    scores = {}
    for qid, row in report["per_query"].items():
        if not isinstance(row, dict) or metric not in row:
            raise ValueError(f"{path}: query {qid!r} is missing key {metric!r}")
        value = row[metric]
        # NaN fails both comparisons; an int past float's range, which the
        # t-test could not convert, fails one.
        if type(value) not in (int, float) or not -sys.float_info.max <= value <= sys.float_info.max:
            raise ValueError(f"{path}: query {qid!r}: {metric!r} is {json.dumps(value)}, not a finite number")
        scores[qid] = value
    return scores


def cmd_ttest(args):
    scores_a = _report_scores(args.a, args.metric)
    scores_b = _report_scores(args.b, args.metric)
    qids = sorted(scores_a.keys() & scores_b.keys())
    if not qids:
        raise ValueError("no shared query ids between the two reports")
    result = paired_t_test([scores_a[q] for q in qids], [scores_b[q] for q in qids])
    fields = {"degenerate": True} if result.degenerate else {"t": result.t, "p_value": result.p_value}
    print(json.dumps({**fields, "df": result.df, "queries": len(qids)}, sort_keys=True))


def cmd_dump(args):
    index = SparseIndex.load(args.index)
    for line in index.dump_postings():
        print(line)


def build_parser() -> argparse.ArgumentParser:
    bm25, sampler, fusion, training = BM25Params(), SamplerConfig(), FusionConfig(), TrainConfig()
    pipeline, adaptation = PipelineConfig(), AdaptationConfig()
    parser = argparse.ArgumentParser(prog="hyqa", description="Hybrid sparse/dense retrieval and extractive QA")
    parser.add_argument("--config", help="JSON config file; values become argument defaults")
    parser.add_argument("--seed", type=int, default=None, help=f"global seed (or ${SEED_ENV})")
    parser.add_argument("--output-dir", default=".", help="directory for written artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a document stream")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("chunk", help="split documents into passages")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["retrieval", "generation"], default="retrieval")
    p.add_argument("--max-units", type=int, default=None)
    p.set_defaults(func=cmd_chunk)

    p = sub.add_parser("index-sparse", help="build the BM25 inverted index")
    p.add_argument("--passages", required=True)
    p.add_argument("--k1", type=float, default=bm25.k1)
    p.add_argument("--b", type=float, default=bm25.b)
    p.set_defaults(func=cmd_index_sparse)

    p = sub.add_parser("index-dense", help="embed passages and build the dense index")
    p.add_argument("--passages", required=True)
    p.add_argument("--encoder", required=True)
    p.set_defaults(func=cmd_index_dense)

    p = sub.add_parser("encode", help="export passage embeddings as JSONL")
    p.add_argument("--passages", required=True)
    p.add_argument("--encoder", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("train-encoder", help="train the dual encoder")
    p.add_argument("--instances", required=True)
    p.add_argument("--passages", required=True)
    p.add_argument("--lr", type=float, default=training.learning_rate)
    p.add_argument("--epochs", type=int, default=training.epochs)
    p.add_argument("--batch-size", type=int, default=training.batch_size)
    p.add_argument("--warmup", type=int, default=training.warmup_steps)
    p.add_argument("--dim", type=int, default=adaptation.embedding_dim)
    p.set_defaults(func=cmd_train_encoder)

    p = sub.add_parser("generate", help="generate synthetic QA examples")
    p.add_argument("--passages", required=True)
    p.add_argument("--n", type=int, default=adaptation.examples_per_passage)
    p.add_argument("--p", type=float, default=sampler.p)
    p.add_argument("--k", type=int, default=sampler.k)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("filter", help="roundtrip-consistency filter")
    p.add_argument("--examples", required=True)
    p.add_argument("--passages", required=True)
    p.add_argument("--threshold", type=float, default=FilterConfig().threshold)
    p.add_argument("--logits", help="external precomputed logits JSONL")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("mine-negatives", help="mine BM25 hard negatives and assemble training instances")
    p.add_argument("--examples", required=True)
    p.add_argument("--passages", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--depth", type=int, default=adaptation.negative_depth)
    p.set_defaults(func=cmd_mine_negatives)

    def add_retrieval_args(p):
        p.add_argument("--sparse")
        p.add_argument("--dense")
        p.add_argument("--encoder")
        p.add_argument("--mode", choices=("sparse", "dense", "hybrid"))
        p.add_argument("--weight", type=float, default=fusion.weight)
        p.add_argument("--pool-size", type=int, default=fusion.pool_size)

    p = sub.add_parser("retrieve", help="run a retrieval query")
    add_retrieval_args(p)
    p.add_argument("--query", required=True)
    p.add_argument("-k", type=int, default=10)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("answer", help="answer one question end to end")
    add_retrieval_args(p)
    p.add_argument("--question", required=True)
    p.add_argument("--passages", required=True)
    p.add_argument("--K", type=int, default=pipeline.K)
    p.add_argument("--ir-weight", type=float, default=pipeline.ir_weight)
    p.add_argument("--max-answer-len", type=int, default=pipeline.max_answer_len)
    p.add_argument("--normalization", choices=["minmax", "softmax"], default=pipeline.normalization)
    p.add_argument("--logits")
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("evaluate", help="evaluate retrieval and end-to-end QA")
    add_retrieval_args(p)
    p.add_argument("--golds", required=True)
    p.add_argument("--passages", required=True)
    p.add_argument("--K", type=int, default=pipeline.K)
    p.add_argument("--ir-weight", type=float, default=pipeline.ir_weight)
    p.add_argument("--logits")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tune-fusion", help="grid-search the fusion weight on a dev set")
    p.add_argument("--golds", required=True)
    p.add_argument("--passages", required=True)
    p.add_argument("--sparse", required=True)
    p.add_argument("--dense", required=True)
    p.add_argument("--encoder", required=True)
    p.add_argument("-k", type=int, default=20)
    p.add_argument("--pool-size", type=int, default=fusion.pool_size)
    p.set_defaults(func=cmd_tune_fusion)

    p = sub.add_parser("ttest", help="paired t-test between two evaluation reports")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--metric", default="top5_f1")
    p.set_defaults(func=cmd_ttest)

    p = sub.add_parser("dump", help="print human-readable postings of a sparse index")
    p.add_argument("--index", required=True)
    p.set_defaults(func=cmd_dump)

    return parser


def _read_json_object(path: str) -> dict:
    """The JSON object in the UTF-8 file at path (a --config file or an
    evaluation report); an unreadable file, invalid JSON or any other JSON
    value raises ValueError naming the file."""
    try:
        values = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ValueError(f"{path}: {e.strerror}") from e
    except UnicodeDecodeError:
        line_no, reason = _not_utf8(path)
        raise ValueError(f"{path}: {reason} on line {line_no}") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(values, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return values


def parse_args(argv) -> argparse.Namespace:
    """Parse the command line. A --config file supplies defaults for the
    global flags and the chosen subcommand's flags, and a key of it that
    names no option of hyqa or of any subcommand is refused; --seed falls
    back to $HYQA_SEED. A negative seed is refused here, naming where it
    came from."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        config = _read_json_object(args.config)
        values = {key.replace("-", "_"): value for key, value in config.items()}
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {a.dest for p in (parser, *subparsers.choices.values()) for a in p._actions if a.option_strings}
        unknown = next((key for key in config if key.replace("-", "_") not in options), None)
        if unknown is not None:
            raise ValueError(f"{args.config}: {unknown!r} names no hyqa option")
        # Each value that names an option of the global or chosen parser
        # becomes its default, so an explicit flag still wins.
        for p in (parser, subparsers.choices[args.command]):
            dests = {action.dest for action in p._actions}
            p.set_defaults(**{key: value for key, value in values.items() if key in dests})
        args = parser.parse_args(argv)
    if args.seed is None:
        try:
            args.seed = int(os.environ.get(SEED_ENV, "0"))
        except ValueError:
            raise ValueError(f"${SEED_ENV}={os.environ[SEED_ENV]!r} is not an integer") from None
        if args.seed < 0:
            raise ValueError(f"${SEED_ENV}={os.environ[SEED_ENV]!r} must be >= 0")
    elif args.seed < 0:
        raise ValueError("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except ValueError as e:
        print(f"error [config]: {e}", file=sys.stderr)
        return 1
    try:
        args.func(args)
    except Exception as e:
        # str() of a KeyError is the repr of its argument, quotes included.
        message = e.args[0] if isinstance(e, KeyError) and e.args else e
        print(f"error [{args.command}]: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
