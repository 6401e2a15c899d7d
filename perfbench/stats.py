"""Summary statistics shared by every workload.

The closed loops (search steps and epochs, ``Engine.run`` calls) report
whole-run medians of times first put at nominal host speed by
:mod:`perfbench.speed`; the open loop (serve) reports whole-run
percentiles of measured latency, p90 to p99, whose tail moved least
between runs.  Its p50 jumped between latency modes (thread workers
handing the GIL back and forth), so it is recorded but not gated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class Quantile:
    """A percentile of a sample, with the sample count it rests on."""

    q: float
    value: float
    n: int

    @property
    def beyond(self) -> float:
        """Expected number of samples above this percentile."""
        return self.n * (100.0 - self.q) / 100.0

    @property
    def supported(self) -> bool:
        """True when at least ten samples lie beyond the percentile."""
        return self.beyond >= 10.0

    def to_dict(self) -> dict:
        """JSON form, as recorded in the run metadata."""
        return {"q": self.q, "value": self.value, "n": self.n,
                "supported": self.supported}


def percentile(values: Sequence[float], q: float) -> Quantile:
    """The ``q``-th percentile (linear interpolation) and the sample count.

    Raises:
        ValueError: On an empty sample or ``q`` outside ``[0, 100]``.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    arr = np.asarray(values, dtype=np.float64)
    return Quantile(q=float(q), value=float(np.percentile(arr, q)), n=len(arr))


def median(values: Sequence[float]) -> Quantile:
    """The 50th percentile, with its sample count."""
    return percentile(values, 50.0)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values.

    Raises:
        ValueError: On an empty input or a non-positive value.
    """
    values = [float(v) for v in values]
    if not values or min(values) <= 0.0:
        raise ValueError(f"geomean needs positive values, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))
