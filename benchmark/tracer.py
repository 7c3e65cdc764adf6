"""Span tracer that wraps hyqa's public functions from outside the package.

`Tracer.install()` replaces each traced function, in its defining module and
in every hyqa module that imported it by name, with a wrapper that records
a span (name, start, end, parent, run id) and, for some functions, a count.
Because callers look such names up at call time, this also times calls made
inside the program, e.g. `pipeline.best_spans` or `syngen.answerability`.
`uninstall()` puts the original objects back, so untraced operations run
the unmodified code.

Spans are held in memory and written out by `dump()` when the run ends.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    # A tuple of plain values, so the garbage collector stops tracking it
    # and a traced run does not trigger more full collections.
    name: str
    start: float
    end: float
    paused: float  # seconds of calibration kernels inside the span
    parent: int  # index into Tracer.spans, -1 for a root span
    run_id: str
    phase: str

    @property
    def dur(self) -> float:
        return self.end - self.start - self.paused


def _n_spans(n: int, max_len: int) -> int:
    """Spans best_spans enumerates over n tokens: sum of min(max_len, j)."""
    if n <= max_len:
        return n * (n + 1) // 2
    return max_len * (max_len + 1) // 2 + (n - max_len) * max_len


# Counts recorded at the traced boundaries: (args, kwargs, result) -> {key: amount}.
def _count_passages(a, kw, r):
    return {"corpus.passages": len(r)}


def _count_spans(a, kw, r):
    logits = a[0]
    config = a[1] if len(a) > 1 else kw.get("config")
    max_len = config.max_answer_len if config is not None else 30
    return {"mrc.spans_enumerated": _n_spans(logits.n, max_len)}


def _count_generation(a, kw, r):
    n = a[2] if len(a) > 2 else kw.get("n", 5)
    return {"syngen.sequences": n, "syngen.examples": len(r.examples)}


def _count_filter(a, kw, r):
    return {"syngen.filter_in": len(r.scores), "syngen.filter_kept": len(r.kept)}


def _count_mining(a, kw, r):
    return {"syngen.mine_in": len(r.instances) + r.dropped, "syngen.mine_dropped": r.dropped}


def _count_fusion(a, kw, r):
    return {"fusion.pool_passages": len(r)}


def _saved_bytes(layer, path_arg):
    """Size of the file written; the path is positional argument path_arg."""

    def count(a, kw, r):
        return {f"{layer}.bytes": os.path.getsize(a[path_arg] if len(a) > path_arg else kw["path"])}

    return count


# (module, owner attribute or None, function name, span name, counter)
TARGETS = [
    ("corpus", None, "chunk_retrieval_passages", "corpus.chunk", _count_passages),
    ("corpus", None, "chunk_generation_passages", "corpus.chunk", _count_passages),
    ("sparse", None, "build_sparse_index", "sparse.build", None),
    ("sparse", None, "sparse_search", "sparse.search", None),
    ("sparse", "SparseIndex", "save", "sparse.save", _saved_bytes("sparse", 1)),
    ("sparse", "SparseIndex", "load", "sparse.load", None),
    ("encoder", "DualEncoder", "from_texts", "encoder.vocab_init", None),
    ("encoder", "DualEncoder", "save", "encoder.save", _saved_bytes("encoder", 1)),
    ("encoder", "DualEncoder", "load", "encoder.load", None),
    ("encoder", None, "encode_passage", "encoder.encode_passage", None),
    ("encoder", None, "encode_query", "encoder.encode_query", None),
    ("encoder", None, "train", "encoder.train", None),
    ("encoder", None, "loss_gradient", "encoder.loss_gradient", None),
    ("encoder", None, "batch_loss", "encoder.batch_loss", None),
    ("dense_index", None, "build_dense_index", "dense_index.build", None),
    ("dense_index", None, "dense_search", "dense_index.search", None),
    ("dense_index", "DenseIndex", "save", "dense_index.save", _saved_bytes("dense_index", 1)),
    ("dense_index", "DenseIndex", "load", "dense_index.load", None),
    ("fusion", None, "fuse", "fusion.fuse", _count_fusion),
    ("mrc", "LexicalScorer", "logits", "mrc.logits", None),
    ("mrc", None, "best_spans", "mrc.best_spans", _count_spans),
    ("mrc", None, "answerability", "mrc.answerability", None),
    ("mrc", None, "extract_answer", "mrc.extract_answer", None),
    ("syngen", None, "candidate_targets", "syngen.generate", None),
    ("syngen", "NgramLM", "fit", "syngen.generate", None),
    ("syngen", None, "generate_examples", "syngen.generate", _count_generation),
    ("syngen", None, "roundtrip_filter", "syngen.filter", _count_filter),
    ("syngen", None, "build_ir_training_set", "syngen.mine", _count_mining),
    ("pipeline", None, "run_adaptation", "pipeline.adapt", None),
    ("pipeline", None, "evaluate_run", "pipeline.evaluate", None),
    ("pipeline", None, "answer_question", "pipeline.answer", None),
    ("evalkit", None, "match_at_k", "evalkit.metrics", None),
    ("evalkit", None, "top_n_f1", "evalkit.metrics", None),
    ("container", None, "save", "container.save", _saved_bytes("container", 0)),
    ("container", None, "load", "container.load", None),
]


class Tracer:
    def __init__(self, speed, callers=()):
        """`speed`: the run's calib.Speed, which reads the clock and scales
        span times to reference speed. `callers`: modules outside hyqa that
        import traced names directly."""
        self.speed = speed
        self.callers = list(callers)
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.units: dict[str, int] = defaultdict(int)  # phase -> traced units
        self.phase = ""
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._durations: list[float] = []

    # -- recording -------------------------------------------------------

    def begin(self, phase: str, run_id: str) -> None:
        """Start one traced unit (a set-up, an operation, a load) of `phase`."""
        self.phase = phase
        self.run_id = run_id
        self.units[phase] += 1

    def _wrap(self, fn, name: str, counter):
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)  # reserve the index children refer to
            tracer._stack.append(idx)
            start, p0 = tracer.speed.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end, p1 = tracer.speed.now()
                tracer._stack.pop()
                tracer.spans[idx] = Span(name, start, end, p1 - p0, parent, tracer.run_id, tracer.phase)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    tracer.counts[tracer.phase][key] += amount
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "hyqa" or n.startswith("hyqa.")] + self.callers
        for mod_name, owner_name, attr, span_name, counter in TARGETS:
            module = sys.modules[f"hyqa.{mod_name}"]
            if owner_name is None:
                original = getattr(module, attr)
                wrapper = self._wrap(original, span_name, counter)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, wrapper)
                continue
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(raw.__func__, span_name, counter))
            else:
                wrapper = self._wrap(raw, span_name, counter)
            self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction -------------------------------------------------------

    def durations(self) -> list[float]:
        """Each span's seconds at reference speed (see calib.py)."""
        if len(self._durations) != len(self.spans):
            self._durations = [s.dur * self.speed.scale(s.start, s.end) for s in self.spans]
        return self._durations

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        durs = self.durations()
        child = [0.0] * len(self.spans)
        for s, d in zip(self.spans, durs):
            if s.parent >= 0:
                child[s.parent] += d
        return [d - c for d, c in zip(durs, child)]

    def per_unit(self, name: str) -> float:
        """Seconds in spans called `name`, per traced unit of each phase,
        summed over phases (per set-up plus per operation plus per load)."""
        totals: dict[str, float] = defaultdict(float)
        for s, d in zip(self.spans, self.durations()):
            if s.name == name:
                totals[s.phase] += d
        return sum(t / self.units[p] for p, t in totals.items())

    def calls_per_unit(self, name: str) -> float:
        totals: dict[str, int] = defaultdict(int)
        for s in self.spans:
            if s.name == name:
                totals[s.phase] += 1
        return sum(t / self.units[p] for p, t in totals.items())

    def count_per_unit(self, key: str) -> float:
        return sum(c[key] / self.units[p] for p, c in self.counts.items() if key in c)

    def count_total(self, key: str) -> float:
        return sum(c.get(key, 0.0) for c in self.counts.values())

    def call_ms_p50(self, name: str) -> float:
        durs = [d for s, d in zip(self.spans, self.durations()) if s.name == name]
        return 1000.0 * statistics.median(durs) if durs else 0.0

    def self_mean(self, name: str) -> float:
        selfs = self.self_times()
        vals = [t for s, t in zip(self.spans, selfs) if s.name == name]
        return statistics.fmean(vals) if vals else 0.0

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "paused": s.paused,
                            "parent": s.parent,
                            "run_id": s.run_id,
                            "phase": s.phase,
                        }
                    )
                    + "\n"
                )
