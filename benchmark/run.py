"""hyqa benchmark entry point.

    python3 benchmark/run.py --workload qa-hybrid --seed 1 --seconds 5 --trace 0

Run from the repository root. --trace 0 prints the end-to-end metrics;
--trace 1 runs the same workload with the span tracer and prints the
per-layer metrics. The last line of standard output is one JSON object
{correct, attempted, failed, metrics}; the lines before it are a readable
table, and the environment. The result, with the environment, is also
written to .bench_out/<workload>-seed<n>-trace<t>.json, and a traced run
writes its spans beside it.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "load_s": "s",
    "artifact_bytes_per_input_byte": "ratio",
    "peak_rss_mb": "MB",
    "match_at_20": "fraction",
}


def _blas() -> dict:
    """BLAS library name and its thread count, capped at nproc."""
    import numpy as np

    info = {"name": "unknown", "threads": None}
    try:
        info["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*.so*")
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for prefix in ("scipy_openblas_", "openblas_", "scipy_openblas64_"):
            for suffix in ("64_", ""):
                getter = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
                if getter is None:
                    continue
                getter.restype = ctypes.c_int
                threads = getter()
                nproc = len(os.sched_getaffinity(0))
                if threads > nproc:
                    setter = getattr(handle, f"{prefix}set_num_threads{suffix}")
                    setter.argtypes = [ctypes.c_int]
                    setter.restype = None
                    setter(nproc)
                    threads = getter()
                info["threads"] = threads
                return info
    return info


def _source_digest() -> str:
    """SHA-256 over hyqa's sources, which names the code under test also
    where there is no git checkout."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "hyqa").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "seed": seed,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def layer_metrics(tracer, run, out) -> dict[str, float]:
    t = tracer
    steps = t.calls_per_unit("encoder.loss_gradient")
    train_s = t.per_unit("encoder.train")
    sequences = t.count_total("syngen.sequences")
    filter_in = t.count_total("syngen.filter_in")
    mine_in = t.count_total("syngen.mine_in")
    fuse_calls = sum(1 for s in t.spans if s.name == "fusion.fuse")
    traced = [1000.0 * x for x in run.scaled(out.traced)]
    untraced = [1000.0 * x for x in run.scaled(out.untraced)]
    m = {
        "corpus.chunk_s": t.per_unit("corpus.chunk"),
        "corpus.passages": t.count_per_unit("corpus.passages"),
        "sparse.build_s": t.per_unit("sparse.build"),
        "sparse.save_s": t.per_unit("sparse.save"),
        "sparse.load_s": t.per_unit("sparse.load"),
        "sparse.bytes": t.count_per_unit("sparse.bytes"),
        "sparse.search_calls": t.calls_per_unit("sparse.search"),
        "sparse.search_ms_p50": t.call_ms_p50("sparse.search"),
        "sparse.search_s": t.per_unit("sparse.search"),
        "encoder.vocab_init_s": t.per_unit("encoder.vocab_init"),
        "encoder.encode_passage_calls": t.calls_per_unit("encoder.encode_passage"),
        "encoder.encode_passage_s": t.per_unit("encoder.encode_passage"),
        "encoder.encode_query_ms_p50": t.call_ms_p50("encoder.encode_query"),
        "encoder.train_s": train_s,
        "encoder.train_steps": steps,
        "encoder.step_ms": 1000.0 * train_s / steps if steps else 0.0,
        "encoder.save_s": t.per_unit("encoder.save"),
        "encoder.load_s": t.per_unit("encoder.load"),
        "encoder.bytes": t.count_per_unit("encoder.bytes"),
        "encoder.adapted_match_at_5": out.layer.get("encoder.adapted_match_at_5", 0.0),
        "dense_index.build_s": t.per_unit("dense_index.build"),
        "dense_index.search_ms_p50": t.call_ms_p50("dense_index.search"),
        "dense_index.search_s": t.per_unit("dense_index.search"),
        "dense_index.save_s": t.per_unit("dense_index.save"),
        "dense_index.load_s": t.per_unit("dense_index.load"),
        "dense_index.bytes": t.count_per_unit("dense_index.bytes"),
        "dense_index.roundtrip_top10_agree": out.layer["dense_index.roundtrip_top10_agree"],
        "fusion.fuse_ms_p50": t.call_ms_p50("fusion.fuse"),
        "fusion.pool_passages": t.count_total("fusion.pool_passages") / fuse_calls if fuse_calls else 0.0,
        "mrc.logits_s": t.per_unit("mrc.logits"),
        "mrc.best_spans_s": t.per_unit("mrc.best_spans"),
        "mrc.best_spans_calls": t.calls_per_unit("mrc.best_spans"),
        "mrc.spans_enumerated": t.count_per_unit("mrc.spans_enumerated"),
        "mrc.answerability_s": t.per_unit("mrc.answerability"),
        "mrc.answerability_calls": t.calls_per_unit("mrc.answerability"),
        "syngen.generate_s": t.per_unit("syngen.generate"),
        "syngen.generate_yield": t.count_total("syngen.examples") / sequences if sequences else 0.0,
        "syngen.filter_s": t.per_unit("syngen.filter"),
        "syngen.filter_keep_ratio": t.count_total("syngen.filter_kept") / filter_in if filter_in else 0.0,
        "syngen.mine_s": t.per_unit("syngen.mine"),
        "syngen.mine_drop_ratio": t.count_total("syngen.mine_dropped") / mine_in if mine_in else 0.0,
        "pipeline.answer_self_ms": 1000.0 * t.self_mean("pipeline.answer"),
        "pipeline.adapt_self_s": t.self_mean("pipeline.adapt"),
        "evalkit.metrics_s": t.per_unit("evalkit.metrics"),
        "container.save_s": t.per_unit("container.save"),
        "container.load_s": t.per_unit("container.load"),
        "container.bytes": t.count_per_unit("container.bytes"),
        "trace.op_p50_ms": statistics.median(traced),
        "trace.overhead_ms": statistics.median(traced) - statistics.median(untraced),
        "trace.spans": float(len(t.spans)),
    }
    return m


def layer_unit(name: str) -> str:
    metric = name.split(".", 1)[1]
    if metric.endswith("_ms") or "_ms_" in metric:
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric == "bytes":
        return "bytes"
    if metric.endswith(("_ratio", "_yield", "_agree", "match_at_5")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["qa-hybrid", "adapt", "index-build"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hyqa" / "__init__.py").is_file():
        print(f"error: hyqa sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment(args.seed)
    import calib
    import tracer as tracing
    import workloads

    speed = calib.Speed()
    tracer = tracing.Tracer(speed, callers=[workloads]) if args.trace else None
    out_dir = ROOT / ".bench_out"
    work = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(args.seed, args.seconds, tracer, speed, work)
    speed.start()
    try:
        out = workloads.WORKLOADS[args.workload](run)
    finally:
        speed.stop()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = layer_metrics(tracer, run, out)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        metrics = {k: {"value": out.e2e[k], "unit": u} for k, u in E2E_UNITS.items()}

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        n = out.samples.get(name, "")
        wall = f"  (wall {out.wall[name]:.6g})" if name in out.wall and not args.trace else ""
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<8} {'n=' + str(n) if n else ''}{wall}")
    for name, value, unit, n in out.aliases:
        if math.isnan(value):
            continue
        print(f"  {name:<36} {value:>14.6g} {unit:<8} n={n}")
    error_rate = run.failed / run.attempted
    print(f"  {'error_rate':<36} {error_rate:>14.6g} {'ratio':<8} n={run.attempted}")
    print("env " + json.dumps(env, sort_keys=True))

    out_dir.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.dump(out_dir / f"{label}.spans.jsonl")
    result = {
        "correct": run.failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values()),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    with open(out_dir / f"{label}.json", "w") as f:
        json.dump({"env": env, "error_rate": error_rate, "wall": out.wall, "aliases": out.aliases, "raw": out.raw, **result}, f, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
