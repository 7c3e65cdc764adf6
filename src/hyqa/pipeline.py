"""End-to-end orchestration: retrieve, score spans, combine, evaluate,
and the full domain-adaptation run (generate -> filter -> mine -> train).

Every run is a deterministic function of its inputs and one seed; the
adaptation run writes a JSON manifest recording config and stage counts so
results can be reproduced and audited.

Each adaptation stage is one function, called both by `run_adaptation`
and by the CLI subcommand of the same name:

    chunk           corpus.chunk_retrieval_passages, corpus.chunk_generation_passages
    index-sparse    sparse.build_sparse_index
    generate        syngen.generate_corpus
    filter          syngen.roundtrip_filter
    mine-negatives  syngen.build_ir_training_set
    train-encoder   encoder.train
    index-dense     pipeline.index_dense
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .corpus import (
    Document,
    Passage,
    chunk_generation_passages,
    chunk_retrieval_passages,
    passage_to_record,
    token_bounds,
    write_jsonl,
)
from .dense_index import DenseIndex, build_dense_index, dense_scores, dense_search
from .encoder import DESK_PRESET, DualEncoder, TrainConfig, encode_passage, encode_query, train
from .evalkit import GoldSet, MetricReport, first_match_rank, top_n_f1
from .fusion import FusionConfig, fuse_top_k, minmax_normalize, shared_rows
from .mrc import MAX_ANSWER_LEN, LexicalScorer, SpanScore, best_span_each, logit_rows
from .scored import ScoredPassage, top_set
from .sparse import BM25Params, SparseIndex, build_sparse_index, sparse_hits_each, sparse_search
from .syngen import (
    FilterConfig,
    FilterResult,
    QAExample,
    SamplerConfig,
    build_ir_training_set,
    filtered_records,
    generate_corpus,
    roundtrip_filter,
)

__all__ = [
    "PipelineConfig",
    "AnswerCandidate",
    "Retriever",
    "answer_question",
    "evaluate_run",
    "make_sparse_retriever",
    "make_dense_retriever",
    "make_hybrid_retriever",
    "AdaptationConfig",
    "AdaptationResult",
    "index_dense",
    "run_adaptation",
]

K_SPARSE_ONLY = 100  # retrieval depth that works best for BM25 alone
K_HYBRID = 40  # retrieval depth for fused sparse+dense retrieval

Retriever = Callable[[str, int], list[ScoredPassage]]


@dataclass(frozen=True)
class PipelineConfig:
    K: int = K_HYBRID
    ir_weight: float = 0.7
    max_answer_len: int = MAX_ANSWER_LEN
    normalization: str = "minmax"  # or "softmax"

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.max_answer_len < 1:
            raise ValueError("max_answer_len must be >= 1")
        if not 0.0 <= self.ir_weight <= 1.0:
            raise ValueError("ir_weight must lie in [0, 1]")
        if self.normalization not in ("minmax", "softmax"):
            raise ValueError("normalization must be 'minmax' or 'softmax'")


@dataclass(frozen=True)
class AnswerCandidate:
    text: str
    passage_id: str
    span: SpanScore
    ir_score: float
    mrc_score: float
    combined: float


def _normalize(scores: list[float], mode: str) -> list[float]:
    if mode == "softmax":
        arr = np.asarray(scores, dtype=np.float64)
        arr = arr - arr.max()
        exp = np.exp(arr)
        return list(exp / exp.sum())
    return minmax_normalize(scores)


def answer_question(
    question: str,
    retriever: Retriever,
    scorer,
    passage_texts: dict[str, str],
    config: PipelineConfig = PipelineConfig(),
) -> list[AnswerCandidate]:
    """Retrieve top-K passages, take each passage's best span and score,
    normalize IR and span scores over the candidate pool, and rank by their
    convex combination (ties by ascending passage id).

    The K passages are read as one array: mrc.logit_rows scores the
    question with each passage (in one pass when the scorer has
    logits_pairs), a passage that is unscored or has no tokens is skipped,
    the other rows make one span band (mrc.span_band) of
    sum(n) * min(max_answer_len, n_max) float64 values over the passages'
    token counts n, each row's best span is its first maximum in
    (s asc, e asc) order, and every answer is cut from one token-offset
    pass over the passages' texts.
    A logit row longer than its passage's token count is a ValueError.
    """
    retrieved = retriever(question, config.K)
    ids = [sp.passage_id for sp in retrieved]
    rows, _ = logit_rows(scorer, [question] * len(ids), ids, [passage_texts[pid] for pid in ids])
    read, rows = rows.nonempty()
    if not read.size:
        return []
    passages = [retrieved[i] for i in read.tolist()]
    texts = [passage_texts[sp.passage_id] for sp in passages]
    # No token crosses the "\n" between two texts, so the tokens of the
    # joined text are those of each text in turn.
    joined = "\n".join(texts)
    tok_starts, tok_ends = token_bounds(joined)
    text_starts = np.cumsum([0] + [len(text) + 1 for text in texts])
    first = np.searchsorted(tok_starts, text_starts)  # each text's first token, and the total
    too_long = np.flatnonzero(rows.n > np.diff(first))
    if too_long.size:
        k = too_long[0]
        raise ValueError(
            f"logits for passage {passages[k].passage_id!r} cover {rows.n[k]} tokens, more than the passage has"
        )
    starts, ends, span_scores = best_span_each(rows, config.max_answer_len)
    cuts = zip(tok_starts[first[:-1] + starts - 1].tolist(), tok_ends[first[:-1] + ends - 1].tolist())
    raw = [
        (sp, SpanScore(s, e, score), joined[a:b])
        for sp, s, e, score, (a, b) in zip(passages, starts.tolist(), ends.tolist(), span_scores.tolist(), cuts)
    ]
    ir_norm = _normalize([sp.score for sp, _, _ in raw], config.normalization)
    mrc_norm = _normalize([span.score for _, span, _ in raw], config.normalization)
    w = config.ir_weight
    candidates = [
        AnswerCandidate(
            text=answer,
            passage_id=sp.passage_id,
            span=span,
            ir_score=sp.score,
            mrc_score=span.score,
            combined=w * ir + (1 - w) * mrc,
        )
        for (sp, span, answer), ir, mrc in zip(raw, ir_norm, mrc_norm)
    ]
    candidates.sort(key=lambda c: (-c.combined, c.passage_id))
    return candidates


def evaluate_run(
    golds: Sequence[GoldSet],
    retriever: Retriever,
    scorer,
    passage_texts: dict[str, str],
    config: PipelineConfig = PipelineConfig(),
    match_ks: Sequence[int] = (20, 40, 100),
) -> MetricReport:
    """Retrieval Match@k plus end-to-end Top-1/Top-5 F1, with per-query
    rows for significance testing; a repeated query id is a ValueError."""
    report = MetricReport(query_count=len(golds))
    if not golds:
        return report
    sums: dict[str, float] = {}
    if min(match_ks) < 1:
        raise ValueError("k must be >= 1")
    deepest = max(match_ks)
    depth = max(deepest, config.K)
    for gold in golds:
        if gold.query_id in report.per_query:
            raise ValueError(f"duplicate query id {gold.query_id!r}")
        retrieved = retriever(gold.question, depth)
        rank = first_match_rank(retrieved, gold, deepest, passage_texts)
        row: dict[str, float] = {f"match@{k}": int(rank < k) for k in match_ks}
        candidates = answer_question(gold.question, lambda q, k: retrieved[:k], scorer, passage_texts, config)
        answers = [c.text for c in candidates]
        row["top1_f1"] = top_n_f1(answers, gold, 1)
        row["top5_f1"] = top_n_f1(answers, gold, 5)
        report.per_query[gold.query_id] = row
        for name, value in row.items():
            sums[name] = sums.get(name, 0.0) + value
    report.metrics = {name: value / len(golds) for name, value in sums.items()}
    return report


def make_sparse_retriever(index: SparseIndex) -> Retriever:
    return lambda question, k: sparse_search(index, question, k)


def make_dense_retriever(index: DenseIndex, encoder: DualEncoder) -> Retriever:
    return lambda question, k: dense_search(index, encode_query(encoder, question), k)


def make_hybrid_retriever(
    sparse_index: SparseIndex,
    dense_index: DenseIndex,
    encoder: DualEncoder,
    fusion_config: FusionConfig,
) -> Retriever:
    """fuse(sparse_search(...), dense_search(...), fusion_config)[:k] at
    pool_size, computed on arrays: passages are rows of one id space, the
    sparse index's passages and then the ids only the dense index has.

    Fusion reads each pool as a set, so each side's pool is selected
    unsorted (top_set) and one question sorts once, for its final top k."""
    (sparse_to_row, dense_to_row), ids, id_rank = shared_rows(sparse_index.doc_ids, dense_index.ids)
    pool, w = fusion_config.pool_size, fusion_config.weight

    def retrieve(question: str, k: int) -> list[ScoredPassage]:
        if k < 1:
            raise ValueError("k must be >= 1")
        hits, sparse_scores = sparse_hits_each(sparse_index, [question])[0]
        sparse_pool = top_set(sparse_scores, sparse_index.id_rank[hits], pool)
        dense = dense_scores(dense_index, encode_query(encoder, question))
        dense_pool = top_set(dense, dense_index.id_rank, pool)
        top, scores = fuse_top_k(
            sparse_to_row[hits[sparse_pool]], sparse_scores[sparse_pool],
            dense_to_row[dense_pool], dense[dense_pool], w, id_rank, k,
        )
        return [ScoredPassage(ids[i], s, "fused") for i, s in zip(top.tolist(), scores.tolist())]

    return retrieve


def index_dense(encoder: DualEncoder, passages: Sequence[Passage]) -> DenseIndex:
    """Index-dense stage: embed each passage and build the exact index."""
    embeddings = np.reshape([encode_passage(encoder, p.text) for p in passages], (len(passages), encoder.d))
    return build_dense_index([p.id for p in passages], embeddings)


@dataclass(frozen=True)
class AdaptationConfig:
    """Settings of run_adaptation. `seed` overrides `sampler.seed` and `train.seed`;
    the roundtrip filter scores spans of up to mrc.MAX_ANSWER_LEN tokens."""

    seed: int = 0
    retrieval_max_words: int = 120
    generation_max_tokens: int = 288
    examples_per_passage: int = 5
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    filter: FilterConfig = field(default_factory=lambda: FilterConfig(threshold=1.0))
    bm25: BM25Params = field(default_factory=BM25Params)
    train: TrainConfig = DESK_PRESET
    embedding_dim: int = 64
    negative_depth: int = 100


@dataclass
class AdaptationResult:
    encoder: DualEncoder
    sparse_index: SparseIndex
    dense_index: DenseIndex
    retrieval_passages: list[Passage]
    generation_passages: list[Passage]
    examples: list[QAExample]
    filtered: list[QAExample]
    loss_trace: list[float]
    manifest: dict


def run_adaptation(
    documents: Sequence[Document],
    config: AdaptationConfig = AdaptationConfig(),
    output_dir: Optional[Path] = None,
) -> AdaptationResult:
    """Full domain-adaptation chain on a document collection.

    Stages: chunk -> generate synthetic examples -> roundtrip-filter ->
    mine hard negatives -> train the dual encoder -> embed and index the
    retrieval passages. All randomness flows from config.seed; the
    manifest records counts at every stage.
    """
    stage = "chunk"
    try:
        retrieval_passages: list[Passage] = []
        generation_passages: list[Passage] = []
        for doc in documents:
            retrieval_passages.extend(chunk_retrieval_passages(doc, config.retrieval_max_words))
            generation_passages.extend(chunk_generation_passages(doc, config.generation_max_tokens))

        stage = "index-sparse"
        sparse_index = build_sparse_index(retrieval_passages, config.bm25)
        gen_index = build_sparse_index(generation_passages, config.bm25)

        stage = "generate"
        generated = generate_corpus(generation_passages, config.examples_per_passage, config.sampler, config.seed)
        examples = generated.examples

        stage = "filter"
        gen_texts = {p.id: p.text for p in generation_passages}
        scorer = LexicalScorer()
        filtered = roundtrip_filter(examples, scorer, config.filter, gen_texts)

        stage = "mine-negatives"
        gen_passages_by_id = {p.id: p for p in generation_passages}
        training_set = build_ir_training_set(
            filtered.kept, gen_index, gen_passages_by_id, depth=config.negative_depth
        )

        stage = "train-encoder"
        all_texts = [p.text for p in retrieval_passages] + [p.text for p in generation_passages]
        base = DualEncoder.from_texts(all_texts, d=config.embedding_dim, seed=config.seed)
        if not training_set.instances:
            raise RuntimeError("no training instances survived generation and filtering")
        train_config = replace(config.train, seed=config.seed)
        trained, trace = train(base, training_set.instances, train_config)

        stage = "index-dense"
        dense = index_dense(trained, retrieval_passages)
    except Exception as e:
        raise RuntimeError(f"adaptation failed at stage {stage!r}: {e}") from e

    manifest = {
        "config": {
            "seed": config.seed,
            "retrieval_max_words": config.retrieval_max_words,
            "generation_max_tokens": config.generation_max_tokens,
            "examples_per_passage": config.examples_per_passage,
            "sampler": {"p": config.sampler.p, "k": config.sampler.k},
            "filter_threshold": config.filter.threshold,
            "bm25": {"k1": config.bm25.k1, "b": config.bm25.b},
            "train": asdict(train_config),
            "embedding_dim": config.embedding_dim,
            "negative_depth": config.negative_depth,
        },
        "counts": {
            "documents": len(documents),
            "retrieval_passages": len(retrieval_passages),
            "generation_passages": len(generation_passages),
            "generated_examples": len(examples),
            "generation_discards": dict(sorted(generated.discards.items())),
            "kept_after_filter": len(filtered.kept),
            "filter_missing_logits": filtered.missing,
            "train_instances": len(training_set.instances),
            "dropped_no_negative": training_set.dropped,
            "vocab_size": len(trained.vocab),
        },
        "loss_trace": [round(x, 10) for x in trace],
    }

    result = AdaptationResult(
        encoder=trained,
        sparse_index=sparse_index,
        dense_index=dense,
        retrieval_passages=retrieval_passages,
        generation_passages=generation_passages,
        examples=examples,
        filtered=filtered.kept,
        loss_trace=trace,
        manifest=manifest,
    )
    if output_dir is not None:
        _persist(result, filtered, Path(output_dir))
    return result


def _persist(result: AdaptationResult, filtered: FilterResult, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_jsonl(out / "retrieval_passages.jsonl", map(passage_to_record, result.retrieval_passages))
    write_jsonl(out / "generation_passages.jsonl", map(passage_to_record, result.generation_passages))
    write_jsonl(out / "synthetic_examples.jsonl", filtered_records(result.examples, filtered))
    result.sparse_index.save(out / "sparse.hyqa")
    result.dense_index.save(out / "dense.hyqa")
    result.encoder.save(out / "encoder.hyqa")
    with open(out / "manifest.json", "w") as f:
        json.dump(result.manifest, f, sort_keys=True, indent=2)
        f.write("\n")
