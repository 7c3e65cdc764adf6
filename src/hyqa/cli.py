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
    chunk_generation_passages,
    chunk_retrieval_passages,
    ingest_documents,
    passage_from_record,
    passage_to_record,
)
from .dense_index import DenseIndex
from .encoder import DualEncoder, IRTrainInstance, TrainConfig, export_embeddings, train
from .evalkit import load_gold_jsonl, paired_t_test
from .fusion import FusionConfig, tune_weight
from .mrc import ExternalLogits, LexicalScorer, ScorerConfig
from .pipeline import (
    PipelineConfig,
    answer_question,
    evaluate_run,
    index_dense,
    make_dense_retriever,
    make_hybrid_retriever,
    make_sparse_retriever,
    write_jsonl,
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
    with open(path) as f:
        return f.readlines()


def _load_jsonl(path, from_record):
    return [from_record(json.loads(line)) for line in _read_lines(path) if line.strip()]


def _load_passages(path):
    return _load_jsonl(path, passage_from_record)


def _out_path(args, name: str) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _scorer(args, passages: dict[str, str], golds=None):
    """--logits looked up by question id, checked against the passages'
    token counts, or the lexical baseline."""
    if getattr(args, "logits", None):
        external = ExternalLogits.load(_read_lines(args.logits))
        qid_by_question: dict[str, str] = {}
        for g in golds or ():
            other = qid_by_question.setdefault(g.question, g.query_id)
            if other != g.query_id:
                raise ValueError(
                    f"gold queries {other!r} and {g.query_id!r} share the question {g.question!r}, "
                    "so --logits cannot tell their logits apart"
                )
        external.validate_against(passages)

        class _Keyed:
            def logits(self, question, passage_id, passage_text):
                qid = qid_by_question.get(question, question)
                return external.lookup(qid, passage_id)

        return _Keyed()
    return LexicalScorer()


def _retriever(args):
    sparse_index = SparseIndex.load(args.sparse) if getattr(args, "sparse", None) else None
    dense_index = DenseIndex.load(args.dense) if getattr(args, "dense", None) else None
    enc = DualEncoder.load(args.encoder) if getattr(args, "encoder", None) else None
    mode = getattr(args, "mode", None) or ("hybrid" if sparse_index and dense_index else "sparse" if sparse_index else "dense")
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
    pool = getattr(args, "pool_size", 2000)
    weight = getattr(args, "weight", 0.5)
    return make_hybrid_retriever(sparse_index, dense_index, enc, FusionConfig(pool_size=pool, weight=weight))


def cmd_ingest(args):
    docs = list(ingest_documents(_read_lines(args.input)))
    path = _out_path(args, "documents.jsonl")
    write_jsonl(path, ({"id": d.id, "title": d.title, "text": d.body, **d.meta} for d in docs))
    print(f"ingested {len(docs)} documents -> {path}")


def cmd_chunk(args):
    docs = list(ingest_documents(_read_lines(args.input)))
    chunker = chunk_retrieval_passages if args.mode == "retrieval" else chunk_generation_passages
    kwargs = {}
    if args.max_units:
        key = "max_words" if args.mode == "retrieval" else "max_tokens"
        kwargs[key] = args.max_units
    passages = [p for doc in docs for p in chunker(doc, **kwargs)]
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
    with open(path, "w") as f:
        for line in export_embeddings(enc, passages):
            f.write(line + "\n")
    print(f"exported {len(passages)} embeddings -> {path}")


def cmd_train_encoder(args):
    passages = {p.id: p for p in _load_passages(args.passages)}
    instances = []
    for line in _read_lines(args.instances):
        if not line.strip():
            continue
        rec = json.loads(line)
        instances.append(
            IRTrainInstance(
                question=rec["question"],
                positive=passages[rec["positive_id"]],
                hard_negatives=tuple(passages[pid] for pid in rec["negative_ids"]),
            )
        )
    base = DualEncoder.from_texts([p.text for p in passages.values()], d=args.dim, seed=args.seed)
    config = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        warmup_steps=args.warmup,
        seed=args.seed,
    )
    trained, trace = train(base, instances, config)
    path = _out_path(args, "encoder.hyqa")
    trained.save(path)
    print(f"trained on {len(instances)} instances; loss {trace[0]:.4f} -> {trace[-1]:.4f}; saved {path}")


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
    retriever = _retriever(args)
    results = retriever(args.query, args.k)
    for sp in results:
        print(json.dumps({"passage_id": sp.passage_id, "score": sp.score, "provenance": sp.provenance}))


def cmd_answer(args):
    passages = {p.id: p.text for p in _load_passages(args.passages)}
    retriever = _retriever(args)
    config = PipelineConfig(
        K=args.K,
        ir_weight=args.ir_weight,
        scorer=ScorerConfig(max_answer_len=args.max_answer_len, top_n=1),
        normalization=args.normalization,
    )
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
    passages = {p.id: p.text for p in _load_passages(args.passages)}
    golds = load_gold_jsonl(_read_lines(args.golds))
    retriever = _retriever(args)
    config = PipelineConfig(K=args.K, ir_weight=args.ir_weight)
    report = evaluate_run(golds, retriever, _scorer(args, passages, golds), passages, config)
    path = _out_path(args, "report.json")
    with open(path, "w") as f:
        f.write(report.to_json() + "\n")
    print(report.format_table())
    print(f"report -> {path}")


def cmd_tune_fusion(args):
    passages_list = _load_passages(args.passages)
    passages = {p.id: p.text for p in passages_list}
    golds = load_gold_jsonl(_read_lines(args.golds))
    sparse_index = SparseIndex.load(args.sparse)
    dense_index = DenseIndex.load(args.dense)
    enc = DualEncoder.load(args.encoder)
    from .sparse import sparse_search
    from .dense_index import dense_search
    from .encoder import encode_query

    sparse_runs = {g.query_id: sparse_search(sparse_index, g.question, args.pool_size) for g in golds}
    dense_runs = {
        g.query_id: dense_search(dense_index, encode_query(enc, g.question), args.pool_size) for g in golds
    }
    w, metric = tune_weight(golds, sparse_runs, dense_runs, passages, k=args.k, pool_size=args.pool_size)
    path = _out_path(args, "fusion_weight.json")
    with open(path, "w") as f:
        json.dump({"weight": w, f"match@{args.k}": metric}, f, sort_keys=True, indent=2)
    print(f"best weight {w:.2f} with Match@{args.k} {metric:.4f} -> {path}")


def cmd_ttest(args):
    report_a = json.loads(Path(args.a).read_text())
    report_b = json.loads(Path(args.b).read_text())
    qids = sorted(set(report_a["per_query"]) & set(report_b["per_query"]))
    if not qids:
        raise SystemExit("no shared query ids between the two reports")
    a = [report_a["per_query"][q][args.metric] for q in qids]
    b = [report_b["per_query"][q][args.metric] for q in qids]
    result = paired_t_test(a, b)
    if result.degenerate:
        print(json.dumps({"degenerate": True, "df": result.df, "queries": len(qids)}))
    else:
        print(
            json.dumps(
                {"t": result.t, "p_value": result.p_value, "df": result.df, "queries": len(qids)},
                sort_keys=True,
            )
        )


def cmd_dump(args):
    index = SparseIndex.load(args.index)
    for line in index.dump_postings():
        print(line)


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--k1", type=float, default=1.2)
    p.add_argument("--b", type=float, default=0.75)
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
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--epochs", type=int, default=6)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--warmup", type=int, default=0)
    p.add_argument("--dim", type=int, default=64)
    p.set_defaults(func=cmd_train_encoder)

    p = sub.add_parser("generate", help="generate synthetic QA examples")
    p.add_argument("--passages", required=True)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--p", type=float, default=0.95)
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("filter", help="roundtrip-consistency filter")
    p.add_argument("--examples", required=True)
    p.add_argument("--passages", required=True)
    p.add_argument("--threshold", type=float, default=7.0)
    p.add_argument("--logits", help="external precomputed logits JSONL")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("mine-negatives", help="mine BM25 hard negatives and assemble training instances")
    p.add_argument("--examples", required=True)
    p.add_argument("--passages", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--depth", type=int, default=100)
    p.set_defaults(func=cmd_mine_negatives)

    def add_retrieval_args(p, mode_choices=("sparse", "dense", "hybrid")):
        p.add_argument("--sparse")
        p.add_argument("--dense")
        p.add_argument("--encoder")
        p.add_argument("--mode", choices=mode_choices)
        p.add_argument("--weight", type=float, default=0.5)
        p.add_argument("--pool-size", type=int, default=2000)

    p = sub.add_parser("retrieve", help="run a retrieval query")
    add_retrieval_args(p)
    p.add_argument("--query", required=True)
    p.add_argument("-k", type=int, default=10)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("answer", help="answer one question end to end")
    add_retrieval_args(p)
    p.add_argument("--question", required=True)
    p.add_argument("--passages", required=True)
    p.add_argument("--K", type=int, default=40)
    p.add_argument("--ir-weight", type=float, default=0.7)
    p.add_argument("--max-answer-len", type=int, default=30)
    p.add_argument("--normalization", choices=["minmax", "softmax"], default="minmax")
    p.add_argument("--logits")
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("evaluate", help="evaluate retrieval and end-to-end QA")
    add_retrieval_args(p)
    p.add_argument("--golds", required=True)
    p.add_argument("--passages", required=True)
    p.add_argument("--K", type=int, default=40)
    p.add_argument("--ir-weight", type=float, default=0.7)
    p.add_argument("--logits")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tune-fusion", help="grid-search the fusion weight on a dev set")
    p.add_argument("--golds", required=True)
    p.add_argument("--passages", required=True)
    p.add_argument("--sparse", required=True)
    p.add_argument("--dense", required=True)
    p.add_argument("--encoder", required=True)
    p.add_argument("-k", type=int, default=20)
    p.add_argument("--pool-size", type=int, default=2000)
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


def _config_defaults(parser: argparse.ArgumentParser, values: dict) -> None:
    """Make the config values that name one of `parser`'s options its
    defaults, so an explicit flag still wins."""
    dests = {action.dest for action in parser._actions}
    parser.set_defaults(**{key: value for key, value in values.items() if key in dests})


def _read_config(path: str) -> dict:
    try:
        values = json.loads(Path(path).read_text())
    except OSError as e:
        raise ValueError(f"{path}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(values, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return values


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line. A --config file supplies defaults for the
    global flags and the chosen subcommand's flags; --seed falls back to
    $HYQA_SEED."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        values = {key.replace("-", "_"): value for key, value in _read_config(args.config).items()}
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        _config_defaults(parser, values)
        _config_defaults(subparsers.choices[args.command], values)
        args = parser.parse_args(argv)
    if args.seed is None:
        try:
            args.seed = int(os.environ.get(SEED_ENV, "0"))
        except ValueError:
            raise ValueError(f"${SEED_ENV}={os.environ[SEED_ENV]!r} is not an integer") from None
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
        print(f"error [{args.command}]: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
