"""End-to-end orchestration: retrieve, score spans, combine, evaluate,
and the full domain-adaptation run (generate -> filter -> mine -> train).

Every run is a deterministic function of its inputs and one seed; the
adaptation run writes a JSON manifest recording config and stage counts so
results can be reproduced and audited.

The read path moves arrays: a Retriever ranks an index's rows,
.ranked(question, k) gives their passage ids and scores, and one reading
kernel (_read) turns those into best spans, combined scores and their
order. Every make_*_retriever returns a Retriever, and so does any other
ranker of rows over an id list, wrapped as Retriever(ids, rows,
provenance). Records (ScoredPassage, SpanScore, AnswerCandidate) are built
only where a public function returns them; evaluate_run builds none.

Each adaptation stage is one function, called both by `run_adaptation`
and by the CLI subcommand of the same name:

    chunk           corpus.chunk_retrieval_passages, corpus.chunk_generation_passages
    index-sparse    sparse.build_sparse_index
    generate        syngen.generate_corpus
    filter          syngen.roundtrip_filter
    mine-negatives  syngen.build_ir_training_set
    train-encoder   pipeline.train_encoder
    index-dense     pipeline.index_dense
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .corpus import (
    RETRIEVAL_MAX_WORDS,
    Document,
    Passage,
    chunk_generation_passages,
    chunk_retrieval_passages,
    passage_to_record,
    write_jsonl,
)
from .dense_index import DenseIndex, build_dense_index, dense_scores, dense_top_k
from .encoder import DualEncoder, IRTrainInstance, TrainConfig, encode_passage, encode_query, train
from .evalkit import GoldSet, MetricReport, first_match_rank, token_f1
from .fusion import FusionConfig, fuse_top_k, minmax_normalize, shared_rows
from .mrc import MAX_ANSWER_LEN, LexicalScorer, SpanScore, best_span_each, cut_answers, logit_rows
from .scored import ScoredPassage, id_ranks, ranked_passages, top_set
from .sparse import BM25Params, SparseIndex, build_sparse_index, sparse_hits_each, sparse_top_k_each
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
    "train_encoder",
    "run_adaptation",
]

K_HYBRID = 40  # retrieval depth for fused sparse+dense retrieval


@dataclass(frozen=True)
class PipelineConfig:
    K: int = K_HYBRID
    ir_weight: float = 0.7

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if not 0.0 <= self.ir_weight <= 1.0:
            raise ValueError("ir_weight must lie in [0, 1]")


@dataclass(frozen=True)
class AnswerCandidate:
    text: str
    passage_id: str
    span: SpanScore
    ir_score: float
    combined: float


class Retriever:
    """The one retriever type answer_question and evaluate_run take: an
    index's ids and `rows`, where rows(question, k) gives the positions in
    ids of the top k passages, best first, and their float64 scores.
    ranked(question, k) gives those passages' ids and scores, and calling
    it their ScoredPassage records; both refuse a non-finite score alike.
    Each make_*_retriever builds one, and any other ranker of rows over an
    id list fits the same way."""

    def __init__(self, ids: Sequence[str], rows: Callable[[str, int], tuple[np.ndarray, np.ndarray]], provenance: str):
        self._ids = ids
        self._rows = rows
        self._provenance = provenance

    def ranked(self, question: str, k: int) -> tuple[list[str], np.ndarray]:
        rows, scores = self._rows(question, k)
        if not np.isfinite(scores).all():
            ranked_passages(self._ids, rows, scores, self._provenance)  # raises, naming the first
        return [self._ids[i] for i in rows.tolist()], scores

    def __call__(self, question: str, k: int) -> list[ScoredPassage]:
        return ranked_passages(self._ids, *self._rows(question, k), self._provenance)


def _check_retriever(retriever) -> None:
    if not isinstance(retriever, Retriever):
        raise TypeError(f"retriever must be a pipeline.Retriever(ids, rows, provenance), not {type(retriever).__name__}")


class _Reading(NamedTuple):
    """The passages read for one question, one entry per passage in
    retrieval order, and `order`, the entries by descending combined score
    and then ascending passage id. Entry i's answer is span (starts[i],
    ends[i]) of texts[i]."""

    ids: list[str]
    texts: list[str]
    ir_scores: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    span_scores: np.ndarray
    combined: np.ndarray
    order: np.ndarray

    def answers(self, n: int) -> list[str]:
        """The texts of the first n answers in order, cut from those n
        passages' texts alone."""
        first = self.order[:n]
        return cut_answers([self.texts[i] for i in first.tolist()], self.starts[first], self.ends[first])


def _read(
    question: str,
    ids: list[str],
    ir_scores: np.ndarray,
    scorer,
    passage_texts: dict[str, str],
    config: PipelineConfig,
) -> Optional[_Reading]:
    """The reading kernel: the best span of each retrieved passage, its
    combined score, and their order; None when no passage can be read."""
    try:
        texts = [passage_texts[pid] for pid in ids]
    except KeyError as e:
        raise KeyError(f"retrieved passage {e.args[0]!r} not in passage_texts") from None
    rows, _ = logit_rows(scorer, [question] * len(ids), ids, texts)
    read, rows = rows.nonempty()
    if not read.size:
        return None
    read_list = read.tolist()
    ids = [ids[i] for i in read_list]
    starts, ends, span_scores = best_span_each(rows, MAX_ANSWER_LEN)
    ir = ir_scores[read]
    w = config.ir_weight
    # Elementwise f64: the same IEEE operations as w * ir + (1 - w) * mrc on
    # each candidate's floats.
    combined = w * minmax_normalize(ir) + (1 - w) * minmax_normalize(span_scores)
    order = np.lexsort((id_ranks(ids), -combined))
    return _Reading(ids, [texts[i] for i in read_list], ir, starts, ends, span_scores, combined, order)


def answer_question(
    question: str,
    retriever: Retriever,
    scorer,
    passage_texts: dict[str, str],
    config: PipelineConfig,
) -> list[AnswerCandidate]:
    """Retrieve top-K passages, take each passage's best span of at most
    mrc.MAX_ANSWER_LEN tokens and its score, min-max normalize IR and span
    scores over the candidate pool, and rank by their convex combination
    (ties by ascending passage id).

    The K passages are read as one array (the reading kernel, _read):
    mrc.logit_rows scores the question with each passage (in one pass when
    the scorer has logits_pairs), a passage that is unscored or has no
    tokens is skipped, mrc.best_span_each finds each other row's best span,
    its first maximum in (s asc, e asc) order, from a sliding maximum of
    the end logits over the passages' sum(n) tokens and the MAX_ANSWER_LEN
    cells of one start per passage, and the answers returned are cut with
    mrc.cut_answers, one token-offset pass over their passages' texts. The
    IR scores are the retriever's .ranked arrays. Records are built only
    for the candidates returned.
    A retriever that is not a Retriever is a TypeError; a retrieved passage
    missing from passage_texts is a KeyError; a .logits row longer than its
    passage's token count is a ValueError (mrc.logit_rows).
    """
    _check_retriever(retriever)
    reading = _read(question, *retriever.ranked(question, config.K), scorer, passage_texts, config)
    if reading is None:
        return []
    order = reading.order
    return [
        AnswerCandidate(text, pid, SpanScore(s, e, span), ir, combined)
        for text, pid, s, e, span, ir, combined in zip(
            reading.answers(len(order)),
            [reading.ids[i] for i in order.tolist()],
            reading.starts[order].tolist(),
            reading.ends[order].tolist(),
            reading.span_scores[order].tolist(),
            reading.ir_scores[order].tolist(),
            reading.combined[order].tolist(),
        )
    ]


def evaluate_run(
    golds: Sequence[GoldSet],
    retriever: Retriever,
    scorer,
    passage_texts: dict[str, str],
    config: PipelineConfig,
    match_ks: Sequence[int] = (20, 40, 100),
) -> MetricReport:
    """Retrieval Match@k plus end-to-end Top-1/Top-5 F1, with per-query
    rows for significance testing. A repeated query id, an empty match_ks
    or a k below 1 is a ValueError, the last two even without golds; a
    retriever that is not a Retriever is a TypeError, even without golds.

    Each question is retrieved once, at depth max(max(match_ks), K), as
    the retriever's .ranked id and score arrays. Match@k scans those ids;
    the first K are read by the reading kernel that answer_question uses,
    and only the top 5 answers are cut and scored, one token F1 each. No
    per-passage record is built. A retrieved passage missing from
    passage_texts is a KeyError.
    """
    _check_retriever(retriever)
    if not match_ks:
        raise ValueError("match_ks must hold at least one k")
    if min(match_ks) < 1:
        raise ValueError("every k in match_ks must be >= 1")
    report = MetricReport(query_count=len(golds))
    if not golds:
        return report
    sums: dict[str, float] = {}
    deepest = max(match_ks)
    depth = max(deepest, config.K)
    for gold in golds:
        if gold.query_id in report.per_query:
            raise ValueError(f"duplicate query id {gold.query_id!r}")
        ids, scores = retriever.ranked(gold.question, depth)
        rank = first_match_rank(ids, gold, deepest, passage_texts)
        row: dict[str, float] = {f"match@{k}": int(rank < k) for k in match_ks}
        reading = _read(gold.question, ids[: config.K], scores[: config.K], scorer, passage_texts, config)
        f1 = [] if reading is None else [token_f1(answer, gold.answers) for answer in reading.answers(5)]
        row["top1_f1"] = f1[0] if f1 else 0.0
        row["top5_f1"] = max(f1, default=0.0)
        report.per_query[gold.query_id] = row
        for name, value in row.items():
            sums[name] = sums.get(name, 0.0) + value
    report.metrics = {name: value / len(golds) for name, value in sums.items()}
    return report


def make_sparse_retriever(index: SparseIndex) -> Retriever:
    """sparse_search as a Retriever."""
    return Retriever(index.doc_ids, lambda q, k: sparse_top_k_each(index, [q], k)[0], "sparse")


def make_dense_retriever(index: DenseIndex, encoder: DualEncoder) -> Retriever:
    """dense_search of the encoded question as a Retriever."""
    return Retriever(index.ids, lambda q, k: dense_top_k(index, encode_query(encoder, q), k), "dense")


def make_hybrid_retriever(
    sparse_index: SparseIndex,
    dense_index: DenseIndex,
    encoder: DualEncoder,
    fusion_config: FusionConfig,
) -> Retriever:
    """fuse(sparse_search(...), dense_search(...), fusion_config)[:k] at
    pool_size, computed on arrays, as a Retriever: passages are rows of one
    id space, the sparse index's passages and then the ids only the dense
    index has.

    Fusion reads each pool as a set, so each side's pool is selected
    unsorted (top_set) and one question sorts once, for its final top k."""
    (sparse_to_row, dense_to_row), ids, id_rank = shared_rows(sparse_index.doc_ids, dense_index.ids)
    pool, w = fusion_config.pool_size, fusion_config.weight

    def rows(question: str, k: int) -> tuple[np.ndarray, np.ndarray]:
        if k < 1:
            raise ValueError("k must be >= 1")
        hits, sparse_scores = sparse_hits_each(sparse_index, [question])[0]
        sparse_pool = top_set(sparse_scores, sparse_index.id_rank[hits], pool)
        dense = dense_scores(dense_index, encode_query(encoder, question))
        dense_pool = top_set(dense, dense_index.id_rank, pool)
        return fuse_top_k(
            sparse_to_row[hits[sparse_pool]], sparse_scores[sparse_pool],
            dense_to_row[dense_pool], dense[dense_pool], w, id_rank, k,
        )

    return Retriever(ids, rows, "fused")


def index_dense(encoder: DualEncoder, passages: Sequence[Passage]) -> DenseIndex:
    """Index-dense stage: embed each passage and build the exact index."""
    embeddings = np.reshape([encode_passage(encoder, p.text) for p in passages], (len(passages), encoder.d))
    return build_dense_index([p.id for p in passages], embeddings)


def train_encoder(
    passages: Sequence[Passage],
    instances: Sequence[IRTrainInstance],
    d: int,
    config: TrainConfig,
) -> tuple[DualEncoder, list[float]]:
    """Train-encoder stage: an encoder whose vocabulary is the passages'
    terms (seeded by config.seed), trained on the instances; returns
    encoder.train's (trained copy, per-epoch mean loss)."""
    encoder = DualEncoder.from_texts([p.text for p in passages], d=d, seed=config.seed)
    return train(encoder, instances, config)


@dataclass(frozen=True)
class AdaptationConfig:
    """Settings of run_adaptation. `seed` is the generation sampler's seed
    and overrides `train.seed`. Generation samples at SamplerConfig's
    default p and k and both BM25 indexes use BM25Params' default k1 and b;
    the manifest records all four. The roundtrip filter, like the reader,
    scores spans of up to mrc.MAX_ANSWER_LEN tokens. A negative seed, or a
    size or count below 1, is a ValueError here, before any stage runs."""

    seed: int = 0
    retrieval_max_words: int = RETRIEVAL_MAX_WORDS
    generation_max_tokens: int = 288
    examples_per_passage: int = 5
    filter: FilterConfig = field(default_factory=lambda: FilterConfig(threshold=1.0))
    train: TrainConfig = TrainConfig()
    embedding_dim: int = 64
    negative_depth: int = 100

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("retrieval_max_words", "generation_max_tokens", "examples_per_passage", "embedding_dim", "negative_depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


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
    bm25, sampler = BM25Params(), SamplerConfig(seed=config.seed)
    stage = "chunk"
    try:
        retrieval_passages: list[Passage] = []
        generation_passages: list[Passage] = []
        for doc in documents:
            retrieval_passages.extend(chunk_retrieval_passages(doc, config.retrieval_max_words))
            generation_passages.extend(chunk_generation_passages(doc, config.generation_max_tokens))

        stage = "index-sparse"
        sparse_index = build_sparse_index(retrieval_passages, bm25)
        gen_index = build_sparse_index(generation_passages, bm25)

        stage = "generate"
        generated = generate_corpus(generation_passages, config.examples_per_passage, sampler)
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
        if not training_set.instances:
            raise RuntimeError("no training instances survived generation and filtering")
        train_config = replace(config.train, seed=config.seed)
        trained, trace = train_encoder(generation_passages, training_set.instances, config.embedding_dim, train_config)

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
            "sampler": {"p": sampler.p, "k": sampler.k},
            "filter_threshold": config.filter.threshold,
            "bm25": {"k1": bm25.k1, "b": bm25.b},
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
