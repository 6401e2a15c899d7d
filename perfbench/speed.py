"""Host speed, from a fixed reference kernel timed between units of work.

A shared host changes speed in phases that last from seconds to minutes,
and a whole run can sit in one of them, so no statistic taken over a single
run removes that drift.  The benchmark therefore times a small reference
kernel between its units of work (``Engine.run`` rounds, search steps,
set-ups) and divides each unit's time by the host's speed factor around it.
The kernel (:data:`PARTS`: a float32 GEMM, a pure-Python loop and a 4 MiB
copy) is written here, so no change to the program under test can move it;
the factor is the geometric mean over its parts of their times over their
nominal times in :data:`perfbench.params.SPEED`.  A scaled time therefore
reads in milliseconds at the nominal host speed; on a calm host the factor
is close to 1.

On a 2-vCPU Intel Xeon virtual machine (OpenBLAS, one thread), over 90 s of
``Engine.run`` rounds with the kernel timed between them, the kernel's time
correlated 0.7-0.8 with each round's latency, and the spread (coefficient
of variation) of 30-round medians fell from 10% measured to 3% scaled.
The kernel does not track everything: a paper-scale arch step (~3 s, over
a gigabyte of activations) varied 6% from step to step with no link to it.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

from perfbench import params

P = params.SPEED

#: :meth:`HostSpeed.factor` uses the samples taken within this many seconds
#: of a span: a few ``Engine.run`` rounds, or a few search steps.
WINDOW_S = 0.5


def _gemm(state: dict) -> None:
    matrix = state["matrix"]
    for _ in range(P["gemm_reps"]):
        matrix @ matrix


def _loop(state: dict) -> None:
    total = 0
    for i in range(P["loop_iters"]):
        total += i * i


def _stream(state: dict) -> None:
    np.copyto(state["dst"], state["src"])


#: The kernel's parts, each timed on its own: BLAS compute, interpreter
#: dispatch, and a copy larger than a core's private caches.
PARTS = {"gemm": _gemm, "loop": _loop, "stream": _stream}


class HostSpeed:
    """Reference-kernel samples of a run, and the speed factor around a span.

    Each sample runs every part of the kernel ``repeats`` times and takes
    each part's median time, so one interrupt does not move it; the sample's
    factor is the geometric mean over parts of that time over the part's
    nominal time.

    Args:
        every_s: :meth:`maybe_sample` skips sampling when the last sample is
            younger than this.
    """

    def __init__(self, every_s: float = 0.0) -> None:
        self.every_s = every_s
        #: perf_counter() at the end of each sample, ascending.
        self.times: list[float] = []
        self.factors: list[float] = []
        #: Per part, each sample's median time over its nominal time.
        self.part_ratios: dict[str, list[float]] = {name: [] for name in PARTS}
        #: Wall seconds spent in the kernel so far.
        self.spent_s = 0.0
        rng = np.random.default_rng(0)
        n = P["gemm_size"]
        self._state = {
            "matrix": rng.standard_normal((n, n)).astype(np.float32),
            "src": np.ones(P["stream_floats"], dtype=np.float32),
            "dst": np.empty(P["stream_floats"], dtype=np.float32),
        }

    def sample(self) -> float:
        """Time the reference kernel once; returns the seconds it took."""
        start = time.perf_counter()
        logs = 0.0
        for name, part in PARTS.items():
            times = []
            for _ in range(P["repeats"]):
                begun = time.perf_counter()
                part(self._state)
                times.append(time.perf_counter() - begun)
            ratio = float(np.median(times)) * 1e3 / P[f"{name}_ms"]
            self.part_ratios[name].append(ratio)
            logs += math.log(ratio)
        end = time.perf_counter()
        self.factors.append(math.exp(logs / len(PARTS)))
        self.times.append(end)
        self.spent_s += end - start
        return end - start

    def maybe_sample(self) -> float:
        """:meth:`sample` unless the last sample is younger than ``every_s``."""
        if self.times and time.perf_counter() - self.times[-1] < self.every_s:
            return 0.0
        return self.sample()

    def factor(self, start: float, end: float) -> float:
        """Median factor of the samples within ``WINDOW_S`` of ``[start, end]``.

        Falls back to the nearest sample when none is that close.

        Raises:
            ValueError: If nothing has been sampled.
        """
        if not self.times:
            raise ValueError("no host speed sample taken")
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo < hi:
            return float(np.median(self.factors[lo:hi]))
        # Every sample is before or after the window: take the closer side.
        near = [i for i in (lo - 1, lo) if 0 <= i < len(self.times)]
        best = min(near, key=lambda i: min(abs(self.times[i] - start),
                                           abs(self.times[i] - end)))
        return self.factors[best]

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """``seconds``, spent within ``[start, end]``, at nominal host speed."""
        return seconds / self.factor(start, end)

    def summary(self) -> dict:
        """Sample count, median factor and kernel time, for the run record."""
        if not self.factors:
            return {"samples": 0, "spent_s": self.spent_s}
        return {
            "samples": len(self.factors),
            "median_factor": float(np.median(self.factors)),
            "median_part_ratio": {name: float(np.median(ratios))
                                  for name, ratios in self.part_ratios.items()},
            "spent_s": self.spent_s,
        }
