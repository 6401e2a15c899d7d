"""Traffic traces and open-loop replay for serving benchmarks.

A trace is a sorted list of :class:`TraceEvent` arrival offsets.  The
generators are seeded and deterministic:

* :func:`poisson_trace` — open-loop Poisson arrivals (exponential
  inter-arrival gaps) at a target rate, the standard steady-load model;
* :func:`burst_trace` — clustered arrivals separated by idle gaps, the
  worst case for admission control and deadline shedding;
* :func:`merge_traces` — interleave per-model traces into one multi-tenant
  timeline.

:func:`replay` drives a :class:`~repro.runtime.fleet.fleet.ServingFleet`
with a trace *open-loop*: submission times come from the trace alone, never
from completions, so a slow fleet visibly builds queue depth, sheds
deadlines, and rejects on backpressure instead of quietly slowing the
client down (closed-loop replay would hide exactly the tail behaviour a
serving benchmark exists to measure).  For the same reason each request's
latency runs from its *due* time, not from its enqueue: a generator that
falls behind its schedule shows up in the latency of every request it
delayed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.runtime.fleet import clock
from repro.runtime.fleet.fleet import ServingFleet
from repro.runtime.fleet.metrics import latency_percentiles
from repro.runtime.fleet.requests import (
    DeadlineExceeded,
    FleetHandle,
    QueueFull,
)


@dataclass(frozen=True)
class TraceEvent:
    """One arrival: offset from trace start (seconds) and target model."""

    t: float
    model: str


def poisson_trace(
    model: str,
    rate_hz: float,
    duration_s: float,
    seed: int = 0,
) -> list[TraceEvent]:
    """Open-loop Poisson arrivals for ``model`` at ``rate_hz`` requests/s."""
    if rate_hz <= 0:
        raise ValueError(f"rate_hz must be > 0, got {rate_hz}")
    rng = np.random.default_rng(seed)
    events: list[TraceEvent] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate_hz))
        if t >= duration_s:
            return events
        events.append(TraceEvent(t=t, model=model))


def burst_trace(
    model: str,
    bursts: int,
    burst_size: int,
    gap_s: float,
    spacing_s: float = 0.0,
) -> list[TraceEvent]:
    """``bursts`` clusters of ``burst_size`` arrivals, ``gap_s`` apart.

    Within a burst, arrivals are ``spacing_s`` apart (0 = simultaneous).
    """
    if bursts < 1 or burst_size < 1:
        raise ValueError("bursts and burst_size must be >= 1")
    events = [
        TraceEvent(t=burst * gap_s + hit * spacing_s, model=model)
        for burst in range(bursts)
        for hit in range(burst_size)
    ]
    return sorted(events, key=lambda event: event.t)


def merge_traces(*traces: list[TraceEvent]) -> list[TraceEvent]:
    """Interleave traces into one timeline, stably sorted by arrival."""
    merged = [event for trace in traces for event in trace]
    return sorted(merged, key=lambda event: event.t)


def replay(
    fleet: ServingFleet,
    trace: list[TraceEvent],
    inputs: dict[str, np.ndarray],
    deadline_ms: float | None = None,
    timeout: float = 60.0,
) -> dict[str, Any]:
    """Drive ``fleet`` with ``trace`` open-loop; summarise the outcome.

    Args:
        fleet: The fleet under test (left open; caller owns its lifecycle).
        trace: Sorted arrivals; each event submits ``inputs[event.model]``.
        inputs: One sample per model named in the trace.
        deadline_ms: Optional per-request deadline applied to every submit.
        timeout: Wait bound for the final outstanding handle.

    Returns a JSON-serialisable record: offered/served counts, outcome split
    (completed / rejected / shed / failed), wall-clock, served throughput in
    requests/s, ``max_late_ms`` (how far behind its schedule the generator
    sent a request), and latency percentiles over completed requests, each
    measured on the fleet clock from the event's due time (trace start +
    ``event.t``) to completion.
    """
    sent: list[tuple[float, FleetHandle]] = []
    rejected = 0
    max_late_s = 0.0
    start = clock.now()
    for event in trace:
        due = start + event.t
        wait = due - clock.now()
        if wait > 0:
            time.sleep(wait)
        max_late_s = max(max_late_s, clock.now() - due)
        try:
            handle = fleet.submit(event.model, inputs[event.model], deadline_ms)
        except QueueFull:
            rejected += 1
        else:
            sent.append((due, handle))
    completed = shed = failed = 0
    latencies: list[float] = []
    per_model: dict[str, list[float]] = {}
    for due, handle in sent:
        try:
            handle.result(timeout)
        except DeadlineExceeded:
            shed += 1
        except Exception:  # FleetClosed, TimeoutError, engine errors
            failed += 1
        else:
            completed += 1
            latency_ms = (handle.completed_at - due) * 1e3
            latencies.append(latency_ms)
            per_model.setdefault(handle.model, []).append(latency_ms)
    wall_s = clock.now() - start
    record: dict[str, Any] = {
        "offered": len(trace),
        "accepted": len(sent),
        "rejected": rejected,
        "completed": completed,
        "shed": shed,
        "failed": failed,
        "wall_s": wall_s,
        "throughput_rps": completed / wall_s if wall_s > 0 else 0.0,
        "max_late_ms": max_late_s * 1e3,
    }
    if latencies:
        record["latency_ms"] = latency_percentiles(latencies)
        record["per_model"] = {
            model: {
                "completed": len(samples),
                "latency_ms": latency_percentiles(samples),
            }
            for model, samples in sorted(per_model.items())
        }
    return record
