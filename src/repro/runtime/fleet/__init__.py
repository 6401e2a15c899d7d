"""The serving tier: one multi-worker inference fleet for one or many models.

Every compiled plan is served here, from a one-model roster upwards: N
workers over shared read-only baked weights (one memmap per plan),
continuous batching across concurrent request streams, bounded-queue
admission control with deadline shedding, per-model routing, and a
serving-metrics surface (``fleet.stats()``) that ``repro serve`` reports
next to the analytic device-model prediction.

Workers come in two tiers: ``kind="thread"`` (in-process, overlap bounded
by the GIL) and ``kind="process"`` (child processes cold-started from the
weight packs, driven over a pipe protocol with heartbeat crash detection
and respawn — see :mod:`~repro.runtime.fleet.worker`).  Test doubles
(:class:`~repro.runtime.fleet.testing.FakeClock`, a scripted engine) live in
:mod:`~repro.runtime.fleet.testing`; process-worker fault scripts use the
shared action vocabulary of :mod:`repro.resilience.testing`.

Entry points: :class:`ServingFleet` directly, :func:`repro.api.serve_fleet`,
or ``repro serve --model NAME`` (one model) / ``--models a,b --workers N
--worker-kind process``.  Open-loop load against the fleet comes from the
benchmark harness (``perfbench/run.py --workload serve``).
"""

from repro.runtime.fleet.fleet import WORKER_KINDS, ServingFleet
from repro.runtime.fleet.metrics import ServingMetrics, latency_percentiles
from repro.runtime.fleet.requests import (
    DeadlineExceeded,
    FleetClosed,
    FleetHandle,
    QueueFull,
    WorkerCrashed,
)
from repro.runtime.fleet.scheduler import FleetScheduler
from repro.runtime.fleet.weights import PlanWeightPack, pack_plan_memmap
from repro.runtime.fleet.worker import ProcessWorker

__all__ = [
    "ServingFleet",
    "WORKER_KINDS",
    "FleetHandle",
    "FleetScheduler",
    "ProcessWorker",
    "QueueFull",
    "DeadlineExceeded",
    "FleetClosed",
    "WorkerCrashed",
    "ServingMetrics",
    "latency_percentiles",
    "PlanWeightPack",
    "pack_plan_memmap",
]
