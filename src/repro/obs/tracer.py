"""Monotonic-clock tracer: spans and counters with a near-zero disabled path.

The tracer is the event producer of :mod:`repro.obs`.  Events are plain
dicts held in memory (timestamps in *seconds* on a monotonic clock) and are
converted to the Chrome trace-event microsecond schema only at export time
(:mod:`repro.obs.sinks`).

Design constraints, in order:

1. **Disabled must be almost free.**  ``Tracer.span()`` on a disabled tracer
   returns a module-level singleton context manager — no allocation, no
   clock read, one attribute check.  The hot runtime loop
   (:meth:`repro.runtime.engine.Engine.run`) checks ``tracer.enabled`` once
   per call, not per op.
2. **Process safe.**  Child fleet workers cannot share the parent's event
   list; they record spans relative to their own clock and ship them over
   the existing RESULT pipe frame.  :func:`reanchor_spans` translates those
   relative timestamps into the parent's timeline.
3. **Deterministic under test.**  The clock is injectable per tracer, and
   :meth:`Tracer.add_span` accepts externally measured ``start``/``duration``
   so fleet code can stamp spans with the fleet clock
   (:mod:`repro.runtime.fleet.clock`), which tests replace with ``FakeClock``.
"""

from __future__ import annotations

import math
import os
import threading
import time
from typing import Callable, Iterable, Mapping

__all__ = [
    "Tracer",
    "get_tracer",
    "set_tracer",
    "enable_tracing",
    "disable_tracing",
    "reanchor_spans",
]

# Chrome trace-event phase codes used by this tracer.
PH_SPAN = "X"      # complete event: ts + dur
PH_COUNTER = "C"   # counter sample


class _NullSpan:
    """No-op context manager returned by a disabled tracer's ``span()``.

    A single module-level instance is reused for every call so the disabled
    path allocates nothing (pinned by the tracemalloc test in
    ``tests/test_obs_tracer.py``).
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        """Return self; nothing is recorded."""
        return self

    def __exit__(self, *exc: object) -> bool:
        """Never suppress exceptions."""
        return False


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager that records one complete span on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_tid", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: Mapping[str, object] | None, tid: int | None) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args
        self._tid = tid
        self._start = 0.0

    def __enter__(self) -> "_SpanContext":
        """Stamp the span start from the tracer clock."""
        self._start = self._tracer.clock()
        return self

    def __exit__(self, *exc: object) -> bool:
        """Stamp the end, append the event, never suppress exceptions."""
        tracer = self._tracer
        tracer.add_span(
            self._name,
            self._start,
            tracer.clock() - self._start,
            cat=self._cat,
            args=self._args,
            tid=self._tid,
        )
        return False


class Tracer:
    """In-memory span/counter recorder with an injectable monotonic clock.

    Events are dicts with keys ``ph`` (phase), ``name``, ``cat``, ``ts``
    (seconds), ``dur`` (seconds, spans only), ``pid``, ``tid`` and optional
    ``args``.  They stay in tracer-clock seconds until a sink converts them
    (:func:`repro.obs.sinks.write_chrome_trace` /
    :func:`~repro.obs.sinks.write_jsonl_trace`).

    Appends rely on the GIL-atomicity of ``list.append`` plus a lock only
    for multi-event operations, so tracing from fleet worker threads is
    safe.
    """

    def __init__(self, enabled: bool = True,
                 clock: Callable[[], float] | None = None) -> None:
        self.enabled = bool(enabled)
        self.clock = clock if clock is not None else time.perf_counter
        self.pid = os.getpid()
        self._events: list[dict] = []
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, cat: str = "",
             args: Mapping[str, object] | None = None,
             tid: int | None = None) -> object:
        """Context manager timing a block into one complete span.

        On a disabled tracer this returns a shared no-op singleton; nothing
        is allocated or recorded.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _SpanContext(self, name, cat, args, tid)

    def add_span(self, name: str, start: float, duration: float,
                 cat: str = "", args: Mapping[str, object] | None = None,
                 tid: int | None = None) -> None:
        """Record an externally timed span (``start``/``duration`` in seconds).

        ``start`` must come from the same clock family as the tracer's other
        events (fleet code passes :func:`repro.runtime.fleet.clock.now`
        stamps, which is what makes fleet spans deterministic under
        ``FakeClock``).
        """
        if not self.enabled:
            return
        event = {
            "ph": PH_SPAN,
            "name": name,
            "cat": cat,
            "ts": float(start),
            "dur": max(float(duration), 0.0),
            "pid": self.pid,
            "tid": self._tid(tid),
        }
        if args:
            event["args"] = dict(args)
        self._events.append(event)

    def counter(self, name: str, value: float, cat: str = "",
                tid: int | None = None) -> None:
        """Record a counter sample at the current clock time.

        Non-finite values are dropped: ``NaN``/``inf`` are not valid JSON and
        would poison the exported trace (search losses can go non-finite).
        """
        if not self.enabled:
            return
        value = float(value)
        if not math.isfinite(value):
            return
        self._events.append({
            "ph": PH_COUNTER,
            "name": name,
            "cat": cat,
            "ts": float(self.clock()),
            "pid": self.pid,
            "tid": self._tid(tid),
            "args": {"value": value},
        })

    def extend(self, events: Iterable[dict]) -> None:
        """Append pre-built event dicts (e.g. re-anchored child-worker spans)."""
        if not self.enabled:
            return
        events = list(events)
        with self._lock:
            self._events.extend(events)

    # -- inspection --------------------------------------------------------

    def events(self) -> list[dict]:
        """Snapshot copy of all recorded events."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        """Drop all recorded events."""
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def _tid(self, tid: int | None) -> int:
        if tid is not None:
            return int(tid)
        return threading.get_ident() & 0x7FFFFFFF


# -- global default tracer -------------------------------------------------

_global_tracer = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """Return the process-global tracer (disabled by default)."""
    return _global_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-global tracer; return the previous one."""
    global _global_tracer
    previous = _global_tracer
    _global_tracer = tracer
    return previous


def enable_tracing(clock: Callable[[], float] | None = None) -> Tracer:
    """Install and return a fresh enabled global tracer."""
    tracer = Tracer(enabled=True, clock=clock)
    set_tracer(tracer)
    return tracer


def disable_tracing() -> Tracer:
    """Install and return a fresh disabled global tracer."""
    tracer = Tracer(enabled=False)
    set_tracer(tracer)
    return tracer


def reanchor_spans(events: Iterable[dict], anchor: float,
                   pid: int | None = None, tid: int | None = None,
                   extra_args: Mapping[str, object] | None = None) -> list[dict]:
    """Translate relative-time span events onto a parent timeline.

    Fleet child workers record spans with ``ts`` relative to the moment they
    received the batch (their time zero).  The parent re-anchors them by
    adding ``anchor`` — the parent-clock start of its own submit span — so
    the child spans nest inside it: a child span's relative end can never
    exceed the parent's send→receive interval.

    ``pid``/``tid`` override the child-recorded ids so the spans group under
    the parent's process and the dispatching worker lane in trace viewers;
    ``extra_args`` is merged into each span's ``args``.
    """
    anchored: list[dict] = []
    for event in events:
        moved = dict(event)
        moved["ts"] = float(moved.get("ts", 0.0)) + float(anchor)
        if pid is not None:
            moved["pid"] = int(pid)
        if tid is not None:
            moved["tid"] = int(tid)
        if extra_args:
            merged = dict(moved.get("args") or {})
            merged.update(extra_args)
            moved["args"] = merged
        anchored.append(moved)
    return anchored
