"""Unified observability layer: spans, counters, sinks, per-op profiles.

``repro.obs`` is the cross-cutting telemetry subsystem threaded through the
three execution tiers of the reproduction:

* the **search** tier (:class:`repro.core.engine.SearchEngine`) emits
  phase/epoch spans and loss/temperature counters;
* the **runtime** tier (:class:`repro.runtime.engine.Engine`) emits a span
  per ``run`` and, with ``profile=True``, a per-op measured table that joins
  against the analytic per-op estimate;
* the **serving** tier (:class:`repro.runtime.fleet.ServingFleet`) emits
  request-lifecycle spans (queued → dispatch → compute) across both the
  thread and the process worker tiers, child-process spans shipped over the
  SUBMIT/RESULT pipe protocol and re-anchored to parent time.

The tracer is disabled by default and near-free when disabled.  Traces
export as Chrome trace-event JSON (``chrome://tracing``-loadable) or JSONL,
and fleet counters render as Prometheus text.  Entry points:
:func:`repro.api.trace_session`, ``repro serve --trace-out``, ``repro infer
--profile``, ``repro trace summary``.
"""

from repro.obs.profile import profile_report, render_profile_table
from repro.obs.sinks import (
    export_events,
    load_trace,
    prometheus_text,
    write_chrome_trace,
    write_jsonl_trace,
    write_trace,
)
from repro.obs.summary import render_trace_summary, summarize_trace
from repro.obs.tracer import (
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    reanchor_spans,
    set_tracer,
)

__all__ = [
    "Tracer",
    "get_tracer",
    "set_tracer",
    "enable_tracing",
    "disable_tracing",
    "reanchor_spans",
    "export_events",
    "write_chrome_trace",
    "write_jsonl_trace",
    "write_trace",
    "load_trace",
    "prometheus_text",
    "profile_report",
    "render_profile_table",
    "summarize_trace",
    "render_trace_summary",
]
