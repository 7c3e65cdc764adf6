"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of the CPU this process gets swings by 15-50%
from one fraction of a second to the next, and a fixed pure-Python loop
swings with it. While a run measures, a timer signal runs a small fixed
kernel (`kernel`: the kinds of work hyqa does) every PERIOD_S seconds and
records how long it took. A timed step is reported as

    (its wall time minus the kernels inside it) * mean(REFERENCE_S / kernel time)

over the kernels that ran during the step and within WINDOW_S of it, that
is, in seconds of a machine on which the kernel takes REFERENCE_S. On a
host as fast as the one the benchmark was written on the scale is about 1.
The kernel never touches hyqa, so a change to hyqa moves the scaled time as
it moves the wall time, while a change in host speed moves the kernel too
and cancels. Unscaled wall times are kept beside the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import re
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Median kernel time on the 2-core Xeon host the benchmark was written on.
REFERENCE_S = 0.0035
# Seconds between kernels.
PERIOD_S = 0.2
# Kernels this close to a step calibrate it, together with those inside it.
WINDOW_S = 0.5
# At least this many kernels, the nearest ones, calibrate a step.
MIN_SAMPLES = 4

_KEYS = [(i * 7919) % 1009 for i in range(4500)]
_MATRIX = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
_ROWS = np.linspace(-1.0, 1.0, 300 * 64).reshape(300, 64)
_VECTOR = np.linspace(0.0, 1.0, 64)
_TEXT = " ".join(f"Wo{i % 37}rd{(i * 13) % 101}" for i in range(1200))
_TOKEN = re.compile(r"[0-9A-Za-z]+")


@dataclass(frozen=True)
class _Span:
    s: int
    e: int
    score: float


def kernel() -> float:
    """Fixed work in the proportions that calibrate best against a hyqa
    question: dict counting, regex tokenizing, creating and sorting small
    dataclasses, and numpy calls on 64-d vectors."""
    counts: dict[int, int] = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    words: dict[str, int] = {}
    for m in _TOKEN.finditer(_TEXT):
        w = m.group(0).lower()
        words[w] = words.get(w, 0) + 1
    spans = [_Span(i, i + j, float((i * 31 + j * 17) % 97)) for i in range(50) for j in range(20)]
    spans.sort(key=lambda sp: (-sp.score, sp.s, sp.e))
    v = _VECTOR
    for _ in range(225):
        v = np.tanh(_MATRIX @ v)
    total = 0.0
    for row in _ROWS:
        total += float(row @ v)
    return total + len(ranked) + len(words) + spans[0].s


class Speed:
    """Kernel timings taken over a run, and the scale they give a step."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter midpoints, ascending
        self.took: list[float] = []
        self.paused = 0.0  # seconds spent in kernels so far
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        # With the collector off, a collection of the run's own heap never
        # lands inside the kernel.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.at.append((t0 + t1) / 2)
            self.took.append(t1 - t0)
            self.paused += time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def now(self) -> tuple[float, float]:
        """(perf_counter, seconds spent in kernels so far), read together."""
        while True:
            paused = self.paused
            t = time.perf_counter()
            if self.paused == paused:
                return t, paused

    def scale(self, start: float, end: float) -> float:
        """Mean of REFERENCE_S / kernel time near [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi - lo >= MIN_SAMPLES:
            near = self.took[lo:hi]
        else:
            mid = (start + end) / 2
            i = bisect.bisect_left(self.at, mid)
            around = range(max(0, i - MIN_SAMPLES), min(len(self.at), i + MIN_SAMPLES))
            nearest = sorted(around, key=lambda j: abs(self.at[j] - mid))[:MIN_SAMPLES]
            near = [self.took[j] for j in nearest]
        return statistics.fmean(REFERENCE_S / t for t in near)

    def wall(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Wall seconds between two `now()` readings, kernels excluded."""
        return (end[0] - start[0]) - (end[1] - start[1])

    def scaled(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Seconds between two `now()` readings at reference speed."""
        return self.wall(start, end) * self.scale(start[0], end[0])
