"""Serving metrics: per-model and fleet-wide counters behind one lock.

Every admission decision and every served batch is recorded here, so
``fleet.stats()`` can answer the operational questions a serving tier gets
asked: how much traffic is each model taking, how much was rejected or shed,
what are the tail latencies, how well is batching coalescing, and how busy
are the workers.  The invariant the tests pin down::

    accepted == completed + failed + shed + still-queued

holds per model and fleet-wide at every quiescent point.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any

import numpy as np

#: Default reservoir capacity for latency samples.  2048 points keep the
#: p99 estimate within a fraction of a percentile rank of the exact value
#: while bounding a long-running fleet's memory at O(capacity) per model.
LATENCY_RESERVOIR = 2048


def _latency_summary(values, mean: float, max_value: float) -> dict[str, float]:
    """The five-key latency block: given mean/max, percentiles of ``values``."""
    arr = np.asarray(values, dtype=np.float64)
    return {
        "mean": float(mean),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(max_value),
    }


def latency_percentiles(samples_ms) -> dict[str, float]:
    """Mean/p50/p95/p99/max summary of a latency sample list (ms).

    The one latency-summary shape: fleet metrics and the ``repro infer``
    payload both report it.
    """
    arr = np.asarray(list(samples_ms), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("latency_percentiles needs at least one sample")
    return _latency_summary(arr, arr.mean(), arr.max())


class ReservoirSample:
    """Bounded uniform sample (Algorithm R) with exact count/mean/max.

    Replaces the unbounded per-model latency lists: a long-running fleet
    records millions of latencies, but percentile estimates only need a
    uniform sample.  Count, sum (hence mean) and max stay exact; the
    percentiles in :meth:`summary` come from the reservoir, which holds a
    uniform random subset of everything ever added.  Deterministically
    seeded so metrics snapshots are reproducible in tests.
    """

    __slots__ = ("capacity", "count", "total", "max_value", "_values", "_rng")

    def __init__(self, capacity: int = LATENCY_RESERVOIR, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.count = 0
        self.total = 0.0
        self.max_value = float("-inf")
        self._values: list[float] = []
        self._rng = random.Random(0x5EED ^ seed)

    def add(self, value: float) -> None:
        """Record one observation (kept with probability capacity/count)."""
        value = float(value)
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value
        if len(self._values) < self.capacity:
            self._values.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                self._values[slot] = value

    def extend(self, values) -> None:
        """Record every observation in ``values``."""
        for value in values:
            self.add(value)

    def values(self) -> list[float]:
        """Copy of the current reservoir contents (unordered)."""
        return list(self._values)

    def __len__(self) -> int:
        return self.count

    def summary(self) -> dict[str, float]:
        """Exact mean/max plus reservoir-estimated p50/p95/p99.

        Matches the :func:`latency_percentiles` schema.  Raises
        ``ValueError`` when empty, like :func:`latency_percentiles`.
        """
        if self.count == 0:
            raise ValueError("ReservoirSample.summary needs at least one sample")
        return _latency_summary(
            self._values, self.total / self.count, self.max_value
        )


class _ModelCounters:
    """Mutable per-model tallies (guarded by the owning metrics lock).

    Latencies live in a bounded :class:`ReservoirSample`; batch sizes are
    tallied straight into a histogram.  Memory per model is O(reservoir
    capacity) no matter how long the fleet serves, and a snapshot costs one
    percentile pass over the reservoir instead of a full re-sort of every
    latency ever recorded.
    """

    __slots__ = (
        "accepted", "rejected", "shed", "completed", "failed",
        "latency_sample", "batches", "batch_total", "batch_hist",
    )

    def __init__(self, seed: int = 0) -> None:
        self.accepted = 0
        self.rejected = 0
        self.shed = 0
        self.completed = 0
        self.failed = 0
        self.latency_sample = ReservoirSample(seed=seed)
        self.batches = 0
        self.batch_total = 0
        self.batch_hist: dict[str, int] = {}

    def record_batch_size(self, size: int) -> None:
        self.batches += 1
        self.batch_total += size
        key = str(size)
        self.batch_hist[key] = self.batch_hist.get(key, 0) + 1

    def snapshot(self, queue_depth: int) -> dict[str, Any]:
        out: dict[str, Any] = {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "shed": self.shed,
            "completed": self.completed,
            "failed": self.failed,
            "queue_depth": queue_depth,
        }
        if self.latency_sample.count:
            out["latency_ms"] = self.latency_sample.summary()
        if self.batches:
            out["batches"] = self.batches
            out["mean_batch"] = self.batch_total / self.batches
            out["batch_hist"] = dict(self.batch_hist)
        return out


class ServingMetrics:
    """Thread-safe counters for one fleet: admission, latency, utilisation.

    Workers and the submit path record into it concurrently; ``snapshot``
    returns a JSON-serialisable dict (per-model blocks plus a fleet-wide
    aggregate).  Worker busy-time is reported as utilisation — busy seconds
    over wall seconds since the fleet started.
    """

    def __init__(self, workers: int) -> None:
        self._lock = threading.Lock()
        self._models: dict[str, _ModelCounters] = {}
        self._worker_busy_s = [0.0] * workers
        self._worker_batches = [0] * workers
        self._worker_crashes = [0] * workers
        self.started_at = time.perf_counter()

    def _model(self, model: str) -> _ModelCounters:
        counters = self._models.get(model)
        if counters is None:
            counters = self._models[model] = _ModelCounters(
                seed=len(self._models)
            )
        return counters

    # -- admission ----------------------------------------------------------
    def record_accepted(self, model: str) -> None:
        """One request admitted to ``model``'s queue."""
        with self._lock:
            self._model(model).accepted += 1

    def record_unaccepted(self, model: str) -> None:
        """Atomically reclassify one accepted request as rejected.

        The submit path records acceptance *before* enqueueing so the
        ``accepted >= completed + failed + shed`` invariant holds at every
        instant (a worker can serve a request the moment it is queued); when
        the enqueue itself then fails (queue full, fleet closed), this moves
        the head-start count over to ``rejected`` in one locked step.
        """
        with self._lock:
            counters = self._model(model)
            counters.accepted -= 1
            counters.rejected += 1

    # -- serving ------------------------------------------------------------
    def record_shed(self, model: str, count: int = 1) -> None:
        """``count`` queued requests shed on deadline before compute."""
        with self._lock:
            self._model(model).shed += count

    def record_failed(self, model: str, count: int = 1) -> None:
        """``count`` requests failed by an engine-side error."""
        with self._lock:
            self._model(model).failed += count

    def record_batch(
        self,
        model: str,
        latencies_ms: list[float],
        worker: int,
        busy_s: float,
    ) -> None:
        """One served batch: per-request latencies plus worker busy time."""
        with self._lock:
            counters = self._model(model)
            counters.completed += len(latencies_ms)
            counters.latency_sample.extend(latencies_ms)
            counters.record_batch_size(len(latencies_ms))
            self._worker_busy_s[worker] += busy_s
            self._worker_batches[worker] += 1

    def record_worker_busy(self, worker: int, busy_s: float) -> None:
        """Busy time that served no batch (e.g. a shed-only dequeue)."""
        with self._lock:
            self._worker_busy_s[worker] += busy_s

    def record_crash(self, worker: int) -> None:
        """One crash (dead pipe / dead process / missed heartbeats)."""
        with self._lock:
            self._worker_crashes[worker] += 1

    # -- reporting ----------------------------------------------------------
    def snapshot(self, queue_depths: dict[str, int] | None = None) -> dict[str, Any]:
        """JSON-serialisable state: per-model blocks + fleet aggregate."""
        depths = queue_depths or {}
        with self._lock:
            wall_s = max(time.perf_counter() - self.started_at, 1e-9)
            per_model = {
                name: counters.snapshot(depths.get(name, 0))
                for name, counters in sorted(self._models.items())
            }
            workers = [
                {
                    "busy_s": busy,
                    "batches": batches,
                    "crashes": crashes,
                    "utilization": busy / wall_s,
                }
                for busy, batches, crashes in zip(
                    self._worker_busy_s,
                    self._worker_batches,
                    self._worker_crashes,
                )
            ]
            # Fleet-wide latency: count/mean/max are exact (merged from the
            # per-model exact tallies); percentiles are estimated over the
            # pooled reservoirs.
            pooled: list[float] = []
            lat_count = 0
            lat_total = 0.0
            lat_max = float("-inf")
            for counters in self._models.values():
                sample = counters.latency_sample
                if sample.count:
                    pooled.extend(sample.values())
                    lat_count += sample.count
                    lat_total += sample.total
                    lat_max = max(lat_max, sample.max_value)
        fleet = {
            key: sum(block[key] for block in per_model.values())
            for key in ("accepted", "rejected", "shed", "completed", "failed")
        }
        fleet["queue_depth"] = sum(depths.values())
        if lat_count:
            fleet["latency_ms"] = _latency_summary(
                pooled, lat_total / lat_count, lat_max
            )
        return {
            "uptime_s": wall_s,
            "fleet": fleet,
            "models": per_model,
            "workers": workers,
        }
