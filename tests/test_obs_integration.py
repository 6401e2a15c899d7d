"""End-to-end observability: per-op profiles, search spans, fleet traces.

What must hold across the layers this PR wires together:

* ``Engine.run(profile=True)`` accumulates a per-op table, and
  :func:`repro.obs.profile_report` joins every op against the analytic
  per-op prediction for a GPU target;
* an enabled global tracer makes the search loop emit per-epoch spans and
  loss/temperature counters;
* both fleet tiers emit the request lifecycle
  (``request`` ⊃ ``request.queued``/``request.dispatch``/``request.compute``)
  with child-process worker spans re-anchored inside the parent's
  ``fleet.submit`` span;
* :func:`repro.api.trace_session` scopes the above and writes the files.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import api
from repro.cli import build_parser, main
from repro.nas.arch_spec import ArchSpec, FCBlock, MBConvBlock, PoolBlock, StemBlock
from repro.obs import load_trace, profile_report, render_profile_table
from repro.obs.tracer import Tracer, get_tracer, set_tracer
from repro.runtime import Engine, compile_spec
from repro.runtime.fleet import ServingFleet

WAIT = 30.0


def _tiny_spec(name: str, out_features: int = 4) -> ArchSpec:
    return ArchSpec(
        name,
        [
            StemBlock(out_ch=8, kernel=3, stride=2),
            MBConvBlock(expansion=2, kernel=3, out_ch=8),
            PoolBlock(kernel=2, stride=2, mode="max"),
            FCBlock(out_features=out_features),
        ],
        input_size=12,
        input_channels=3,
    )


@pytest.fixture(scope="module")
def plans():
    return {
        "a": compile_spec(_tiny_spec("a"), seed=0),
        "b": compile_spec(_tiny_spec("b", out_features=3), seed=1),
    }


@pytest.fixture
def sample():
    return np.random.default_rng(0).standard_normal((3, 12, 12))


@pytest.fixture
def enabled_tracer():
    """Install a fresh enabled global tracer; restore the previous on exit."""
    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    yield tracer
    set_tracer(previous)


def _spans(tracer, name):
    return [e for e in tracer.events()
            if e.get("ph") == "X" and e["name"] == name]


def _within(child, parent, slack=0.0):
    return (parent["ts"] - slack <= child["ts"] and
            child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + slack)


class TestEngineProfile:
    def test_op_profile_accumulates_per_op_rows(self, plans, sample):
        engine = Engine(plans["a"])
        engine.run(sample)  # unprofiled warm-up must not touch the table
        engine.run(sample, profile=True)
        engine.run(sample, profile=True)
        rows = engine.op_profile()
        assert len(rows) == engine.plan.num_ops()
        assert engine.profiled_runs == 2
        for row in rows:
            assert row["calls"] == 2
            assert row["total_ms"] >= 0.0
            assert row["mean_ms"] == pytest.approx(row["total_ms"] / 2)
        engine.reset_profile()
        assert all(r["calls"] == 0 and r["mean_ms"] is None
                   for r in engine.op_profile())

    def test_profiled_run_matches_unprofiled_output(self, plans, sample):
        engine = Engine(plans["a"])
        plain = engine.run(sample)
        profiled = engine.run(sample, profile=True)
        np.testing.assert_array_equal(plain, profiled)

    def test_run_emits_engine_span_when_traced(
        self, plans, sample, enabled_tracer
    ):
        engine = Engine(plans["a"])
        engine.run(sample)
        (span,) = _spans(enabled_tracer, "engine.run")
        assert span["cat"] == "runtime"
        assert span["args"]["plan"] == engine.plan.name
        assert span["args"]["batch"] == 1
        assert span["dur"] > 0.0

    def test_profile_report_joins_every_op_against_gpu_prediction(
        self, plans, sample
    ):
        engine = Engine(plans["a"])
        engine.run(sample, profile=True)
        payload = profile_report(engine, target="gpu")
        assert payload["target"] == "gpu"
        assert payload["device"]
        assert len(payload["rows"]) == engine.plan.num_ops()
        for row in payload["rows"]:
            assert row["mean_ms"] is not None
            assert row["predicted_ms"] is not None
            assert row["measured_over_predicted"] is not None
        assert payload["total_predicted_ms"] > 0.0
        assert payload["total_measured_ms"] > 0.0
        table = render_profile_table(payload)
        assert "predicted" in table


class TestSearchSpans:
    def test_epoch_spans_and_counters(self, enabled_tracer):
        api.search(target="gpu", epochs=2, blocks=2, seed=0)
        epochs = _spans(enabled_tracer, "search.epoch")
        assert len(epochs) == 2
        assert [s["args"]["epoch"] for s in epochs] == [0, 1]
        names = {e["name"] for e in enabled_tracer.events()
                 if e.get("ph") == "C"}
        assert {"search.train_loss", "search.total_loss",
                "search.temperature"} <= names
        phases = {e["name"] for e in enabled_tracer.events()
                  if e.get("ph") == "X" and e["name"].startswith("search.")}
        assert len(phases) > 1  # epoch plus at least one timed phase


class TestFleetTracing:
    def _submit_and_close(self, fleet, plans, sample, per_model=3):
        handles = []
        for name in plans:
            handles += [fleet.submit(name, sample) for _ in range(per_model)]
        for handle in handles:
            handle.result(timeout=WAIT)
        fleet.close()
        return len(handles)

    def test_thread_tier_request_lifecycle_nests(
        self, plans, sample, enabled_tracer
    ):
        with ServingFleet(plans, workers=2, kind="thread") as fleet:
            total = self._submit_and_close(fleet, plans, sample)
        requests = _spans(enabled_tracer, "request")
        assert len(requests) == total
        by_req = {s["args"]["req"]: s for s in requests}
        for stage in ("request.queued", "request.dispatch", "request.compute"):
            stages = _spans(enabled_tracer, stage)
            assert len(stages) == total
            for span in stages:
                parent = by_req[span["args"]["req"]]
                assert _within(span, parent, slack=1e-6)
                assert span["tid"] == parent["tid"]
        assert _spans(enabled_tracer, "engine.run")  # runtime layer joined in

    def test_process_tier_reanchors_child_spans(
        self, plans, sample, enabled_tracer
    ):
        with ServingFleet(plans, workers=1, kind="process") as fleet:
            total = self._submit_and_close(fleet, plans, sample, per_model=2)
        assert len(_spans(enabled_tracer, "request")) == total
        submits = _spans(enabled_tracer, "fleet.submit")
        computes = _spans(enabled_tracer, "worker.compute")
        builds = _spans(enabled_tracer, "worker.engine_build")
        assert submits and computes
        assert len(builds) == len(plans)  # one cold engine build per model
        # Re-anchored child spans live on the parent pid and the worker lane,
        # inside the submit span that shipped their batch.
        parent_pid = enabled_tracer.pid
        for child in computes + builds:
            assert child["pid"] == parent_pid
            assert child["args"]["worker"] == 0
            assert any(
                _within(child, submit, slack=1e-6)
                and submit["tid"] == child["tid"]
                for submit in submits
            ), f"{child['name']} span not inside any fleet.submit span"

    def test_disabled_tracer_serves_without_events(self, plans, sample):
        assert not get_tracer().enabled
        with ServingFleet(plans, workers=1, kind="thread") as fleet:
            fleet.submit("a", sample).result(timeout=WAIT)
        assert len(get_tracer()) == 0


class TestTraceSession:
    def test_writes_both_sinks_and_restores_previous(self, plans, sample,
                                                     tmp_path):
        chrome = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        before = get_tracer()
        with api.trace_session(chrome=str(chrome), jsonl=str(jsonl)) as tracer:
            assert get_tracer() is tracer
            Engine(plans["a"]).run(sample)
        assert get_tracer() is before
        chrome_events = load_trace(str(chrome))
        assert load_trace(str(jsonl)) == chrome_events
        assert any(e["name"] == "engine.run" for e in chrome_events)


SCALE = ["--width", "0.1", "--input-size", "16", "--classes", "4"]


class TestObservabilityCLI:
    def test_parser_accepts_new_flags(self):
        args = build_parser().parse_args(
            ["--log-level", "warning", "serve", "--models", "EDD-Net-1",
             "--trace-out", "t.json", "--metrics-out", "m.txt"]
        )
        assert args.log_level == "warning"
        assert args.trace_out == "t.json"
        assert args.metrics_out == "m.txt"
        args = build_parser().parse_args(
            ["infer", "--model", "EDD-Net-1", "--profile",
             "--profile-out", "p.json", "--target", "gpu"]
        )
        assert args.profile and args.profile_out == "p.json"
        args = build_parser().parse_args(["trace", "summary", "t.json",
                                          "--top", "3"])
        assert args.file == "t.json" and args.top == 3

    def test_infer_profile_json_payload(self, capsys, tmp_path):
        out = tmp_path / "profile.json"
        rc = main(["infer", "--model", "EDD-Net-1", *SCALE, "--runs", "2",
                   "--profile", "--profile-out", str(out), "--target", "gpu",
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        profile = payload["profile"]
        assert profile["target"] == "gpu"
        assert all(row["predicted_ms"] is not None
                   for row in profile["rows"])
        assert json.loads(out.read_text())["rows"] == profile["rows"]

    def test_serve_trace_out_then_trace_summary(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        rc = main(["serve", "--models", "EDD-Net-1", "--workers", "1",
                   "--requests", "2", *SCALE, "--trace-out", str(trace)])
        assert rc == 0
        assert f"wrote trace to {trace}" in capsys.readouterr().out
        events = load_trace(str(trace))
        names = {e["name"] for e in events if e.get("ph") == "X"}
        assert {"request", "request.queued", "request.dispatch",
                "request.compute"} <= names
        rc = main(["trace", "summary", str(trace), "--format", "json"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["requests"] == 2
        assert "EDD-Net-1" in summary["queue_wait_ms"]
