"""Tracer/sink unit surface: disabled-path cost, export schema, re-anchoring.

The contracts pinned here are the ones the serving hot path and CI depend
on:

* a **disabled** tracer allocates nothing and records nothing (the
  ``span()`` fast path returns one shared singleton — tracemalloc-verified);
* the Chrome export is valid JSON with integer-microsecond ``ts``/``dur``
  and round-trips through :func:`repro.obs.load_trace` in both formats;
* :func:`repro.obs.reanchor_spans` translates child-relative timestamps so
  process-worker spans nest inside the parent's submit span;
* the latency reservoir keeps count/mean/max exact while bounding memory.
"""

from __future__ import annotations

import json
import logging
import math
import tracemalloc

import numpy as np
import pytest

from repro.obs import (
    Tracer,
    export_events,
    load_trace,
    prometheus_text,
    reanchor_spans,
    render_trace_summary,
    set_tracer,
    summarize_trace,
    write_chrome_trace,
    write_jsonl_trace,
    write_trace,
)
from repro.obs.tracer import _NULL_SPAN
from repro.runtime.fleet.metrics import (
    LATENCY_RESERVOIR,
    ReservoirSample,
    latency_percentiles,
)


class _StepClock:
    """Deterministic clock: each call returns start, start+step, ..."""

    def __init__(self, start: float = 100.0, step: float = 0.25) -> None:
        self.time = start
        self.step = step

    def __call__(self) -> float:
        now = self.time
        self.time += self.step
        return now


class TestTracer:
    def test_span_records_complete_event_in_seconds(self):
        tracer = Tracer(clock=_StepClock(start=10.0, step=0.5))
        with tracer.span("work", cat="test", args={"k": 1}, tid=7):
            pass
        (event,) = tracer.events()
        assert event["ph"] == "X"
        assert event["name"] == "work"
        assert event["cat"] == "test"
        assert event["ts"] == 10.0
        assert event["dur"] == 0.5
        assert event["tid"] == 7
        assert event["args"] == {"k": 1}

    def test_add_span_clamps_negative_duration(self):
        tracer = Tracer()
        tracer.add_span("x", 5.0, -1.0)
        assert tracer.events()[0]["dur"] == 0.0

    def test_counter_drops_non_finite_values(self):
        tracer = Tracer(clock=_StepClock())
        tracer.counter("loss", float("nan"))
        tracer.counter("loss", float("inf"))
        tracer.counter("loss", 1.5)
        events = tracer.events()
        assert len(events) == 1
        assert events[0]["ph"] == "C"
        assert events[0]["args"] == {"value": 1.5}

    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("work"):
            pass
        tracer.add_span("x", 0.0, 1.0)
        tracer.counter("c", 1.0)
        tracer.extend([{"ph": "X", "name": "y", "ts": 0.0, "dur": 1.0}])
        assert len(tracer) == 0

    def test_disabled_span_is_shared_singleton(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is _NULL_SPAN
        assert tracer.span("b") is tracer.span("c")

    def test_disabled_span_path_allocates_nothing(self):
        tracer = Tracer(enabled=False)
        span = tracer.span  # bind outside the traced window
        with tracer.span("warm"):
            pass
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(1000):
            with span("hot"):
                pass
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        growth = sum(
            stat.size_diff for stat in after.compare_to(before, "filename")
            if stat.size_diff > 0
        )
        # tracemalloc's own bookkeeping can show up; anything per-iteration
        # would be >= 1000 * minimal object size (~28 KiB).
        assert len(tracer) == 0
        assert growth < 4096

    def test_extend_and_clear(self):
        tracer = Tracer()
        tracer.extend([{"ph": "X", "name": "a", "ts": 0.0, "dur": 1.0}])
        assert len(tracer) == 1
        tracer.clear()
        assert tracer.events() == []

    def test_set_tracer_returns_previous(self):
        first = Tracer(enabled=False)
        previous = set_tracer(first)
        try:
            second = Tracer(enabled=False)
            assert set_tracer(second) is first
        finally:
            set_tracer(previous)


class TestReanchor:
    def test_child_spans_nest_inside_parent_interval(self):
        # Parent submit span: [5.0, 6.0).  Child recorded relative to its
        # own receipt time (t=0): compute at 0.1 for 0.5 s.
        child = [{
            "ph": "X", "name": "worker.compute", "cat": "fleet",
            "ts": 0.1, "dur": 0.5, "pid": 4242, "tid": 0,
            "args": {"model": "a"},
        }]
        (anchored,) = reanchor_spans(
            child, 5.0, pid=1, tid=3, extra_args={"worker": 3}
        )
        assert anchored["ts"] == pytest.approx(5.1)
        assert anchored["dur"] == 0.5
        assert anchored["pid"] == 1
        assert anchored["tid"] == 3
        assert anchored["args"] == {"model": "a", "worker": 3}
        assert 5.0 <= anchored["ts"]
        assert anchored["ts"] + anchored["dur"] <= 6.0

    def test_original_events_are_not_mutated(self):
        child = [{"ph": "X", "name": "x", "ts": 0.0, "dur": 1.0, "tid": 0}]
        reanchor_spans(child, 10.0, tid=5)
        assert child[0]["ts"] == 0.0
        assert child[0]["tid"] == 0


class TestSinks:
    @staticmethod
    def _events():
        tracer = Tracer(clock=_StepClock(start=1.0, step=0.001))
        with tracer.span("outer", cat="t"):
            pass
        tracer.counter("gauge", 2.5)
        return tracer.events()

    def test_chrome_trace_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        count = write_chrome_trace(self._events(), path)
        assert count == 2
        payload = json.loads((tmp_path / "trace.json").read_text())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert [e["ph"] for e in events] == ["X", "C"]
        span = events[0]
        assert isinstance(span["ts"], int) and span["ts"] == 1_000_000
        assert isinstance(span["dur"], int) and span["dur"] == 1_000
        assert "pid" in span and "tid" in span
        assert "dur" not in events[1]  # counters carry no duration
        assert load_trace(path) == events

    def test_jsonl_round_trip_holds_same_objects(self, tmp_path):
        events = self._events()
        chrome = str(tmp_path / "t.json")
        jsonl = str(tmp_path / "t.jsonl")
        write_chrome_trace(events, chrome)
        write_jsonl_trace(events, jsonl)
        assert load_trace(jsonl) == load_trace(chrome) == export_events(events)

    def test_write_trace_dispatches_on_extension(self, tmp_path):
        events = self._events()
        jsonl = str(tmp_path / "t.jsonl")
        chrome = str(tmp_path / "t.json")
        write_trace(events, jsonl)
        write_trace(events, chrome)
        assert (tmp_path / "t.jsonl").read_text().count("\n") == 2
        assert (tmp_path / "t.json").read_text().startswith("{")

    def test_load_trace_accepts_bare_array_and_empty(self, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps([{"ph": "X", "name": "a"}]))
        assert load_trace(str(bare)) == [{"ph": "X", "name": "a"}]
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert load_trace(str(empty)) == []


class TestPrometheusText:
    STATS = {
        "uptime_s": 12.5,
        "models": {
            "net-a": {
                "accepted": 5, "rejected": 1, "shed": 0, "completed": 4,
                "failed": 0, "queue_depth": 2,
                "latency_ms": {"mean": 3.0, "p50": 2.5, "p95": 4.0,
                               "p99": 4.5, "max": 5.0},
                "batches": 2,
            },
        },
        "workers": [{"busy_s": 1.25, "batches": 2, "crashes": 1,
                     "utilization": 0.1}],
    }

    def test_emits_expected_series(self):
        text = prometheus_text(self.STATS)
        assert ('repro_fleet_requests_total{model="net-a",'
                'outcome="completed"} 4.0') in text
        assert 'repro_fleet_queue_depth{model="net-a"} 2.0' in text
        assert ('repro_fleet_latency_ms{model="net-a",quantile="0.95"} '
                '4.0') in text
        assert 'repro_fleet_worker_crashes_total{worker="0"} 1.0' in text
        assert "repro_fleet_uptime_seconds 12.5" in text
        assert text.endswith("\n")

    def test_label_values_are_escaped(self):
        stats = {"models": {'a"b': {"accepted": 1}}, "workers": []}
        assert 'model="a\\"b"' in prometheus_text(stats)


class TestSummarizeTrace:
    def test_self_time_subtracts_direct_children(self):
        # Chrome-schema (µs): parent [0, 10000), child [2000, 5000).
        events = [
            {"ph": "X", "name": "request", "ts": 0, "dur": 10_000,
             "pid": 1, "tid": 1},
            {"ph": "X", "name": "request.compute", "ts": 2_000, "dur": 3_000,
             "pid": 1, "tid": 1},
            {"ph": "C", "name": "gauge", "ts": 0, "pid": 1, "tid": 1,
             "args": {"value": 1}},
        ]
        summary = summarize_trace(events)
        assert summary["events"] == 3
        assert summary["spans"] == 2
        assert summary["requests"] == 1
        rows = {row["name"]: row for row in summary["ops"]}
        assert rows["request"]["self_ms"] == pytest.approx(7.0)
        assert rows["request"]["total_ms"] == pytest.approx(10.0)
        assert rows["request.compute"]["self_ms"] == pytest.approx(3.0)

    def test_queue_wait_percentiles_group_by_model(self):
        events = [
            {"ph": "X", "name": "request.queued", "ts": i * 100,
             "dur": 1_000 * (i + 1), "pid": 1, "tid": 0,
             "args": {"model": "m"}}
            for i in range(4)
        ]
        summary = summarize_trace(events)
        wait = summary["queue_wait_ms"]["m"]
        assert wait["count"] == 4
        assert wait["max_ms"] == pytest.approx(4.0)
        assert wait["p50_ms"] == pytest.approx(2.5)
        text = render_trace_summary(summary, top=3)
        assert "queue wait per model" in text
        assert "request.queued" in text


class TestReservoirSample:
    def test_small_sample_matches_exact_percentiles(self):
        values = [float(v) for v in range(1, 50)]
        sample = ReservoirSample()
        sample.extend(values)
        assert sample.summary() == latency_percentiles(values)

    def test_exact_tallies_and_bounded_memory_past_capacity(self):
        n = LATENCY_RESERVOIR * 3
        rng = np.random.default_rng(7)
        values = rng.exponential(10.0, size=n)
        sample = ReservoirSample()
        sample.extend(values)
        assert sample.count == len(sample) == n
        assert len(sample.values()) == LATENCY_RESERVOIR
        summary = sample.summary()
        assert summary["mean"] == pytest.approx(values.mean())
        assert summary["max"] == pytest.approx(values.max())
        # Percentiles are estimates from a uniform subsample: loose check.
        assert summary["p50"] == pytest.approx(
            float(np.percentile(values, 50)), rel=0.25
        )

    def test_deterministic_for_same_seed(self):
        values = list(np.random.default_rng(0).normal(size=5000))
        first = ReservoirSample(capacity=64, seed=3)
        second = ReservoirSample(capacity=64, seed=3)
        first.extend(values)
        second.extend(values)
        assert first.values() == second.values()

    def test_empty_summary_raises_like_latency_percentiles(self):
        with pytest.raises(ValueError):
            ReservoirSample().summary()
        with pytest.raises(ValueError):
            latency_percentiles([])

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ReservoirSample(capacity=0)


class TestLogLevels:
    def test_set_level_applies_and_returns_numeric(self):
        from repro.utils import log

        try:
            assert log.set_level("debug") == logging.DEBUG
            assert logging.getLogger("repro").level == logging.DEBUG
        finally:
            log.set_level("info")

    def test_parse_rejects_unknown_names(self):
        from repro.utils.log import _parse_level

        with pytest.raises(ValueError):
            _parse_level("loud")
        assert _parse_level("WARNING") == logging.WARNING
        assert _parse_level(17) == 17

    def test_env_level_configures_root(self, monkeypatch):
        from repro.utils import log

        monkeypatch.setenv("REPRO_LOG_LEVEL", "error")
        monkeypatch.setattr(log, "_configured", False)
        try:
            log.get_logger("obs.test")
            assert logging.getLogger("repro").level == logging.ERROR
        finally:
            log.set_level("info")

    def test_env_level_falls_back_silently_on_garbage(self, monkeypatch):
        from repro.utils import log

        monkeypatch.setenv("REPRO_LOG_LEVEL", "not-a-level")
        assert log._env_level() == logging.INFO


def test_nan_counter_never_breaks_chrome_export(tmp_path):
    """A trace containing only finite values must export with allow_nan=False."""
    tracer = Tracer(clock=_StepClock())
    tracer.counter("loss", math.nan)
    tracer.counter("loss", 0.25)
    path = str(tmp_path / "t.json")
    assert write_chrome_trace(tracer.events(), path) == 1
    assert load_trace(path)[0]["args"]["value"] == 0.25
