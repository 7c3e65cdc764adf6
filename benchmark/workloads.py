"""The three benchmark workloads, each a closed loop with one client.

qa-hybrid    the read path: one question at a time through evaluate_run
             over in-memory BM25, dual-encoder and exact dense indexes.
adapt        the training path: run_adaptation (generate, filter, mine,
             train, index) on a few hundred short documents.
index-build  the write path: chunk, build, encode, save and load back the
             three artifacts over ~12k passages.

Every workload reports the same end-to-end metrics, each measured on what
that workload does (see README.md), and runs its output checks outside the
timers. Times are taken with the run's calib.Speed and reported at its
reference speed.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calib
import checks
import inputs
from hyqa.corpus import chunk_retrieval_passages, ingest_documents
from hyqa.dense_index import DenseIndex, build_dense_index, dense_search
from hyqa.encoder import DualEncoder, encode_passage, encode_query
from hyqa.evalkit import GoldSet, match_at_k
from hyqa.fusion import FusionConfig
from hyqa.mrc import LexicalScorer
from hyqa.pipeline import AdaptationConfig, PipelineConfig, evaluate_run, make_hybrid_retriever, run_adaptation
from hyqa.sparse import SparseIndex, build_sparse_index, sparse_search

N_QUALITY = 2 * inputs.SHAPE_CYCLE  # questions behind match_at_20 and top1_f1
N_CHECK = 5  # questions per output check
N_AGREE = 20  # questions behind dense_index.roundtrip_top10_agree
N_BUILD_QUALITY = 10  # questions answered over index-build's reloaded artifacts
ARTIFACTS = ("sparse.hyqa", "dense.hyqa", "encoder.hyqa")  # run_adaptation's names too
EMBEDDING_DIM = AdaptationConfig().embedding_dim


Reading = tuple[float, float]  # calib.Speed.now(): perf_counter, kernel seconds so far
Interval = tuple[Reading, Reading]  # start and end of one timed step


@dataclass
class Outcome:
    """What one workload run measured, before formatting."""

    e2e: dict[str, float] = field(default_factory=dict)
    wall: dict[str, float] = field(default_factory=dict)  # unscaled wall time behind each timed e2e metric
    samples: dict[str, int] = field(default_factory=dict)  # sample count per e2e metric
    raw: dict[str, list] = field(default_factory=dict)  # timed samples behind e2e metrics, and the kernel's
    aliases: list[tuple[str, float, str, int]] = field(default_factory=list)  # printed-only metrics
    layer: dict[str, float] = field(default_factory=dict)  # layer metrics measured outside spans
    traced: list[Interval] = field(default_factory=list)
    untraced: list[Interval] = field(default_factory=list)


class Run:
    def __init__(self, seed: int, seconds: float, tracer, speed: calib.Speed, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.speed = speed
        self.work = work
        self.attempted = 0
        self.failed = 0

    @property
    def tracing(self) -> bool:
        return self.tracer is not None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    @contextmanager
    def unit(self, phase: str, run_id: str, traced: bool):
        """One set-up, operation or load; traced only when asked."""
        if not traced:
            yield
            return
        self.tracer.install()
        self.tracer.begin(phase, run_id)
        try:
            yield
        finally:
            self.tracer.uninstall()

    def timed(self, phase: str, run_id: str, fn):
        """Run fn once as a unit of `phase` (traced in a traced run), from a
        freshly collected heap; return (interval, result)."""
        gc.collect()
        with self.unit(phase, run_id, self.tracing):
            t0 = self.speed.now()
            result = fn()
            t1 = self.speed.now()
        return (t0, t1), result

    def scaled(self, intervals: list[Interval]) -> list[float]:
        """Seconds of each interval at the calibration's reference speed."""
        return [self.speed.scaled(a, b) for a, b in intervals]

    def wall(self, intervals: list[Interval]) -> list[float]:
        """Wall seconds of each interval, calibration kernels excluded."""
        return [self.speed.wall(a, b) for a, b in intervals]

    def ops(self, op, min_ops: int, min_pairs: int, out: Outcome, after=None, long_ops: bool = False,
            block: int = 1) -> None:
        """Closed loop: call op(i) until `seconds` have passed and at least
        min_ops have run, in whole blocks of `block` ops, then after(i), if
        given, outside the op's timer. `long_ops` collects the heap before
        each op. A traced run alternates untraced and traced operations, so
        their difference is the tracing overhead, and needs min_pairs of
        each. Records each op's interval in `out`."""
        start = time.perf_counter()
        i = 0
        while True:
            traced = self.tracing and i % 2 == 1
            if long_ops:
                gc.collect()
            with self.unit("op", f"op{i}", traced):
                t0 = self.speed.now()
                try:
                    op(i)
                    ok = True
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    ok = False
                t1 = self.speed.now()
            self.attempted += 1
            self.failed += not ok
            (out.traced if traced else out.untraced).append((t0, t1))
            if after is not None:
                after(i)
            i += 1
            elapsed = time.perf_counter() - start
            if self.tracing:
                done = min(len(out.traced), len(out.untraced)) >= min_pairs
            else:
                done = len(out.untraced) >= min_ops and len(out.untraced) % block == 0
            if done and elapsed >= self.seconds:
                return


# -- shared steps ------------------------------------------------------------


def _build(lines: list[str], seed: int):
    """Ingest, chunk, BM25, encoder vocabulary, passage encoding, dense index."""
    docs = list(ingest_documents(lines))
    passages = [p for d in docs for p in chunk_retrieval_passages(d)]
    sparse = build_sparse_index(passages)
    encoder = DualEncoder.from_texts([p.text for p in passages], d=EMBEDDING_DIM, seed=seed)
    embeddings = np.stack([encode_passage(encoder, p.text) for p in passages])
    dense = build_dense_index([p.id for p in passages], embeddings)
    return passages, sparse, encoder, dense


def _save(paths: list[Path], sparse, dense, encoder) -> None:
    paths[0].parent.mkdir(parents=True, exist_ok=True)
    sparse.save(paths[0])
    dense.save(paths[1])
    encoder.save(paths[2])


def _load(paths: list[Path]):
    return SparseIndex.load(paths[0]), DenseIndex.load(paths[1]), DualEncoder.load(paths[2])


def _golds(facts) -> list[GoldSet]:
    return [GoldSet(f"q{i}", f.question, (f.answer,)) for i, f in enumerate(facts)]


def _check_indexes(run: Run, golds, texts, sparse, dense, encoder, loaded) -> None:
    """BM25 against the direct formula, dense search against a numpy scan,
    and the reloaded sparse index against the in-memory one."""
    oracle = checks.BM25Oracle(texts)
    for g in golds[:N_CHECK]:
        run.check(checks.sparse_matches_oracle(sparse_search, sparse, oracle, g.question), f"bm25 oracle {g.query_id}")
        q = encode_query(encoder, g.question)
        run.check(checks.dense_matches_scan(dense_search, dense, q), f"dense scan {g.query_id}")
        run.check(
            checks.same_results(sparse_search(loaded[0], g.question, 100), sparse_search(sparse, g.question, 100)),
            f"sparse reload {g.query_id}",
        )


def _roundtrip_agree(golds, dense, encoder, loaded) -> float:
    """Share of questions whose dense top-10 ids agree between the
    in-memory index and the saved-and-reloaded one."""
    agree = 0
    sample = golds[:N_AGREE]
    for g in sample:
        a = dense_search(dense, encode_query(encoder, g.question), 10)
        b = dense_search(loaded[1], encode_query(loaded[2], g.question), 10)
        agree += [r.passage_id for r in a] == [r.passage_id for r in b]
    return agree / len(sample)


def _quality(rows: list[dict]) -> tuple[float, float]:
    return (
        statistics.fmean(r["match@20"] for r in rows),
        statistics.fmean(r["top1_f1"] for r in rows),
    )


def _peak_rss_mb() -> float:
    """Peak resident set so far; read before the output checks, whose
    oracles are the benchmark's own memory."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _size(paths: list[Path]) -> int:
    return sum(p.stat().st_size for p in paths)


def _fill(run: Run, out: Outcome, setup: list[Interval], loads: list[Interval],
          artifact_bytes: int, input_bytes: int, rows: list[dict]) -> None:
    """The end-to-end metrics every workload reports. Times are at the
    calibration's reference speed; their unscaled medians go to out.wall."""
    match_at_20, top1_f1 = _quality(rows)
    timed = {"setup_s": (setup, 1.0), "op_p50_ms": (out.untraced, 1000.0), "load_s": (loads, 1.0)}
    for name, (intervals, unit) in timed.items():
        out.raw[name] = run.wall(intervals)
        out.raw[name + ".scaled"] = run.scaled(intervals)
        out.raw[name + ".intervals"] = [[*a, *b] for a, b in intervals]
        out.e2e[name] = unit * statistics.median(out.raw[name + ".scaled"])
        out.wall[name] = unit * statistics.median(out.raw[name])
        out.samples[name] = len(intervals)
    ops = run.scaled(out.untraced)
    out.e2e["ops_per_s"] = len(ops) / sum(ops)
    out.wall["ops_per_s"] = len(ops) / sum(run.wall(out.untraced))
    out.samples["ops_per_s"] = len(ops)
    out.e2e.update(artifact_bytes_per_input_byte=artifact_bytes / input_bytes, match_at_20=match_at_20)
    out.samples.update(artifact_bytes_per_input_byte=1, peak_rss_mb=1, match_at_20=len(rows))
    out.raw["calibration_s"] = run.speed.took
    out.raw["calibration_at"] = run.speed.at
    out.aliases.append(("top1_f1", top1_f1, "fraction", len(rows)))


# -- workloads ---------------------------------------------------------------


def qa_hybrid(run: Run) -> Outcome:
    """~6.6k passages; per question: BM25 and dense retrieval at pool 2000,
    fusion of the union, reading K=40 passages, Match@k and Top-n F1."""
    out = Outcome()
    inp = inputs.generate(run.seed, n_docs=1600, sentences_per_doc=(20, 50), fact_share=0.2, vocab_size=30000)
    paths = [run.work / "qa" / name for name in ARTIFACTS]
    setup: list[Interval] = []
    loads: list[Interval] = []
    state = loaded = None
    # Loads follow each set-up, so their samples spread over the run.
    for s in range(1 if run.tracing else 2):
        state = loaded = None  # let the previous set-up go before building the next
        span, state = run.timed("setup", f"setup{s}", lambda: _build(inp.lines, run.seed))
        setup.append(span)
        if s == 0:
            _, sparse, encoder, dense = state
            run.timed("save", "save0", lambda: _save(paths, sparse, dense, encoder))
        for j in range(2):
            loaded = None
            span, loaded = run.timed("load", f"load{s}.{j}", lambda: _load(paths))
            loads.append(span)
    passages, sparse, encoder, dense = state
    texts = {p.id: p.text for p in passages}
    golds = _golds(inp.facts)
    retriever = make_hybrid_retriever(sparse, dense, encoder, FusionConfig())
    scorer = LexicalScorer()
    config = PipelineConfig()
    rows: dict[int, dict] = {}

    def op(i: int) -> None:
        # A traced run asks each question twice, untraced then traced, so
        # the tracing overhead compares the same questions.
        q = i // 2 if run.tracing else i
        gold = golds[q % len(golds)]
        report = evaluate_run([gold], retriever, scorer, texts, config)
        if q < N_QUALITY:
            rows[q] = report.per_query[gold.query_id]

    run.ops(op, min_ops=4 * inputs.SHAPE_CYCLE, min_pairs=N_QUALITY, out=out, block=inputs.SHAPE_CYCLE)
    out.e2e["peak_rss_mb"] = _peak_rss_mb()
    run.check(len(rows) == N_QUALITY, "quality sample answered")

    _check_indexes(run, golds, texts, sparse, dense, encoder, loaded)
    out.layer["dense_index.roundtrip_top10_agree"] = _roundtrip_agree(golds, dense, encoder, loaded)
    _fill(run, out, setup, loads, _size(paths), inp.input_bytes, [rows[i] for i in sorted(rows)])
    answers = run.scaled(out.untraced)
    n = len(answers)
    # p90 needs at least ten samples beyond it.
    p90 = 1000.0 * statistics.quantiles(answers, n=10)[-1] if n >= 100 else float("nan")
    out.aliases += [
        ("answer_p50_ms", out.e2e["op_p50_ms"], "ms", n),
        ("answer_p90_ms", p90, "ms", n),
        ("answer_qps", out.e2e["ops_per_s"], "1/s", n),
    ]
    return out


def adapt(run: Run) -> Outcome:
    """run_adaptation with the default AdaptationConfig on 500 short
    documents (a vocabulary of a few thousand terms), artifacts written."""
    out = Outcome()
    inp = inputs.generate(run.seed, n_docs=500, sentences_per_doc=(2, 4), fact_share=0.3, vocab_size=4000)
    config = AdaptationConfig(seed=run.seed)
    setup: list[Interval] = []
    loads: list[Interval] = []
    manifests: list[bytes] = []
    last: dict = {}

    # One ingest or one load takes milliseconds, so each is repeated, and
    # the repeats are spread over the run, between adaptations.
    def ingest(i: int) -> None:
        for s in range(8):
            span, last["docs"] = run.timed("setup", f"setup{i}.{s}", lambda: list(ingest_documents(inp.lines)))
            setup.append(span)

    def op(i: int) -> None:
        last.pop("result", None)
        last["result"] = run_adaptation(last["docs"], config, output_dir=run.work / f"adapt{i}")

    def after(i: int) -> None:
        target = run.work / f"adapt{i}"
        manifests.append((target / "manifest.json").read_bytes())
        for j in range(12):
            last.pop("loaded", None)
            span, last["loaded"] = run.timed("load", f"load{i}.{j}", lambda: _load([target / a for a in ARTIFACTS]))
            loads.append(span)
        last["paths"] = [target / a for a in ARTIFACTS]
        ingest(i + 1)

    ingest(0)
    run.ops(op, min_ops=3, min_pairs=2, out=out, after=after, long_ops=True)
    out.e2e["peak_rss_mb"] = _peak_rss_mb()
    for i, m in enumerate(manifests[1:], start=1):
        run.check(m == manifests[0], f"manifest of adaptation {i} is byte-identical to the first")

    result, loaded = last["result"], last["loaded"]
    texts = {p.id: p.text for p in result.retrieval_passages}
    golds = _golds(inp.facts)
    _check_indexes(run, golds, texts, result.sparse_index, result.dense_index, result.encoder, loaded)
    out.layer["dense_index.roundtrip_top10_agree"] = _roundtrip_agree(
        golds, result.dense_index, result.encoder, loaded
    )
    sample = golds[:N_QUALITY]
    retriever = make_hybrid_retriever(result.sparse_index, result.dense_index, result.encoder, FusionConfig())
    report = evaluate_run(sample, retriever, LexicalScorer(), texts, PipelineConfig())
    m5 = statistics.fmean(
        match_at_k(dense_search(result.dense_index, encode_query(result.encoder, g.question), 5), g, 5, texts)
        for g in sample
    )
    out.layer["encoder.adapted_match_at_5"] = m5
    _fill(run, out, setup, loads, _size(last["paths"]), inp.input_bytes, list(report.per_query.values()))
    out.aliases += [
        ("adapt_s", out.e2e["op_p50_ms"] / 1000.0, "s", out.samples["op_p50_ms"]),
        ("adapt_match_at_5", m5, "fraction", len(sample)),
    ]
    return out


def index_build(run: Run) -> Outcome:
    """~12k passages: build, save and reload the sparse, dense and encoder
    artifacts; every search and the reader are bypassed while timed."""
    out = Outcome()
    inp = inputs.generate(run.seed, n_docs=3000, sentences_per_doc=(20, 50), fact_share=0.03, vocab_size=30000)
    paths = [run.work / "index" / name for name in ARTIFACTS]
    build_save: list[Interval] = []
    loads: list[Interval] = []
    state: dict = {}

    def op(i: int) -> None:
        state.clear()
        t0 = run.speed.now()
        passages, sparse, encoder, dense = _build(inp.lines, run.seed)
        _save(paths, sparse, dense, encoder)
        t1 = run.speed.now()
        loaded = _load(paths)
        if i % 2 == 0 or not run.tracing:  # untraced cycles only
            build_save.append((t0, t1))
        state.update(passages=passages, sparse=sparse, encoder=encoder, dense=dense, loaded=loaded)

    def after(i: int) -> None:
        # load_s comes from separate loads of the cycle's artifacts, each
        # from a collected heap as in the other workloads.
        for j in range(2):
            state.pop("loaded", None)
            span, state["loaded"] = run.timed("load", f"load{i}.{j}", lambda: _load(paths))
            loads.append(span)

    run.ops(op, min_ops=2, min_pairs=1, out=out, after=after, long_ops=True)
    out.e2e["peak_rss_mb"] = _peak_rss_mb()
    texts = {p.id: p.text for p in state["passages"]}
    golds = _golds(inp.facts)
    sparse, encoder, dense, loaded = state["sparse"], state["encoder"], state["dense"], state["loaded"]
    _check_indexes(run, golds, texts, sparse, dense, encoder, loaded)
    run.check(
        all(np.array_equal(encoder.params[k], loaded[2].params[k]) for k in encoder.params)
        and encoder.vocab == loaded[2].vocab,
        "encoder reload is exact",
    )
    out.layer["dense_index.roundtrip_top10_agree"] = _roundtrip_agree(golds, dense, encoder, loaded)
    sample = golds[:N_BUILD_QUALITY]
    retriever = make_hybrid_retriever(loaded[0], loaded[1], loaded[2], FusionConfig())
    report = evaluate_run(sample, retriever, LexicalScorer(), texts, PipelineConfig())
    _fill(run, out, build_save, loads, _size(paths), inp.input_bytes, list(report.per_query.values()))
    return out


WORKLOADS = {"qa-hybrid": qa_hybrid, "adapt": adapt, "index-build": index_build}
