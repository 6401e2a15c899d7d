"""Trace summaries: top ops by self-time, per-model queue-wait percentiles.

Consumes Chrome-schema events (microsecond ``ts``/``dur``) as produced by
:func:`repro.obs.sinks.load_trace`, so it works on both the Chrome JSON and
the JSONL sink output.  Self-time is a span's duration minus the durations
of its directly nested children within the same ``(pid, tid)`` lane — the
metric that makes "where does time actually go" answerable when spans nest
(``request`` > ``request.compute`` > ``engine.run``).

Read by ``repro trace summary``.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

__all__ = ["summarize_trace", "render_trace_summary"]

#: Span name the fleet emits for the enqueue→dispatch wait of one request.
QUEUE_SPAN = "request.queued"
#: Span name of the whole request lifecycle.
REQUEST_SPAN = "request"


def _self_times(spans: list[dict]) -> dict[str, dict]:
    """Per-name {calls, total_us, self_us} via a per-lane stack walk."""
    lanes: dict[tuple, list[dict]] = {}
    for span in spans:
        lanes.setdefault((span.get("pid"), span.get("tid")), []).append(span)
    ops: dict[str, dict] = {}

    def account(name: str, dur: float, child: float) -> None:
        row = ops.setdefault(name, {"calls": 0, "total_us": 0.0, "self_us": 0.0})
        row["calls"] += 1
        row["total_us"] += dur
        row["self_us"] += max(dur - child, 0.0)

    for lane in lanes.values():
        # Sort by start; ties open the longer span first so it parents the
        # shorter one.
        lane.sort(key=lambda s: (s.get("ts", 0), -s.get("dur", 0)))
        stack: list[list] = []  # [name, end_ts, dur, child_us]
        for span in lane:
            ts = float(span.get("ts", 0))
            dur = float(span.get("dur", 0))
            while stack and ts >= stack[-1][1]:
                done = stack.pop()
                account(done[0], done[2], done[3])
            if stack:
                stack[-1][3] += dur
            stack.append([span.get("name", "?"), ts + dur, dur, 0.0])
        while stack:
            done = stack.pop()
            account(done[0], done[2], done[3])
    return ops


def summarize_trace(events: Iterable[Mapping]) -> dict:
    """Aggregate a trace into op self-times and request queue-wait stats.

    Returns ``{"events", "spans", "requests", "ops", "queue_wait_ms"}`` where
    ``ops`` is sorted by self-time (descending, milliseconds) and
    ``queue_wait_ms`` maps model name to count/p50/p95/max of the
    enqueue→dispatch wait taken from ``request.queued`` spans.
    """
    events = list(events)
    spans = [e for e in events if e.get("ph") == "X"]
    ops = _self_times(spans)
    op_rows = sorted(
        (
            {
                "name": name,
                "calls": row["calls"],
                "total_ms": row["total_us"] / 1e3,
                "self_ms": row["self_us"] / 1e3,
            }
            for name, row in ops.items()
        ),
        key=lambda row: row["self_ms"],
        reverse=True,
    )
    waits: dict[str, list[float]] = {}
    for span in spans:
        if span.get("name") != QUEUE_SPAN:
            continue
        model = str((span.get("args") or {}).get("model", "?"))
        waits.setdefault(model, []).append(float(span.get("dur", 0)) / 1e3)
    queue_wait = {}
    for model, samples in sorted(waits.items()):
        arr = np.asarray(samples, dtype=np.float64)
        queue_wait[model] = {
            "count": int(arr.size),
            "p50_ms": float(np.percentile(arr, 50)),
            "p95_ms": float(np.percentile(arr, 95)),
            "max_ms": float(arr.max()),
        }
    return {
        "events": len(events),
        "spans": len(spans),
        "requests": sum(1 for s in spans if s.get("name") == REQUEST_SPAN),
        "ops": op_rows,
        "queue_wait_ms": queue_wait,
    }


def render_trace_summary(summary: Mapping, top: int = 15) -> str:
    """Human-readable rendering of a :func:`summarize_trace` result."""
    lines = [
        f"{summary['events']} events, {summary['spans']} spans, "
        f"{summary['requests']} requests",
    ]
    if summary["ops"]:
        lines.append("")
        lines.append(f"top {min(top, len(summary['ops']))} ops by self-time:")
        lines.append(
            f"{'name':28s} {'calls':>7s} {'self ms':>10s} {'total ms':>10s}"
        )
        for row in summary["ops"][:top]:
            lines.append(
                f"{row['name'][:28]:28s} {row['calls']:7d} "
                f"{row['self_ms']:10.3f} {row['total_ms']:10.3f}"
            )
    if summary["queue_wait_ms"]:
        lines.append("")
        lines.append("queue wait per model (enqueue -> dispatch):")
        lines.append(
            f"{'model':20s} {'count':>7s} {'p50 ms':>9s} {'p95 ms':>9s} "
            f"{'max ms':>9s}"
        )
        for model, stats in summary["queue_wait_ms"].items():
            lines.append(
                f"{model[:20]:20s} {stats['count']:7d} {stats['p50_ms']:9.3f} "
                f"{stats['p95_ms']:9.3f} {stats['max_ms']:9.3f}"
            )
    return "\n".join(lines)
