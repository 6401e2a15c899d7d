"""Serving fleet: shared weights, scheduling, admission control, metrics."""

import json
import threading
import time

import numpy as np
import pytest

from repro import api
from repro.nas.arch_spec import ArchSpec, FCBlock, MBConvBlock, PoolBlock, StemBlock
from repro.runtime import Engine, compile_spec
from repro.runtime.fleet import (
    DeadlineExceeded,
    FleetClosed,
    FleetScheduler,
    QueueFull,
    ServingFleet,
    latency_percentiles,
    pack_plan_memmap,
)
from repro.runtime.fleet.requests import _FleetRequest


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


class _GatedEngine:
    """Engine stub whose run() blocks on a gate and counts invocations."""

    instances: list["_GatedEngine"] = []

    def __init__(self, plan):
        self.plan = plan
        self.gate = threading.Event()
        self.run_calls = 0
        _GatedEngine.instances.append(self)

    def run(self, batch):
        self.run_calls += 1
        self.gate.wait(timeout=10.0)
        return np.zeros((len(batch), 2))


@pytest.fixture
def gated_fleet(plans, monkeypatch):
    """One-worker fleet whose engines block until their gate opens."""
    _GatedEngine.instances = []
    monkeypatch.setattr("repro.runtime.fleet.fleet.Engine", _GatedEngine)
    fleet = ServingFleet({"a": plans["a"]}, workers=1, max_batch=4, max_queue=2)
    yield fleet
    for engine in _GatedEngine.instances:
        engine.gate.set()
    fleet.close()


def _wait_until(predicate, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return
        time.sleep(0.002)
    raise AssertionError("condition not reached in time")


class TestPlanWeightPack:
    def test_restore_matches_original_plan(self, plans, sample):
        pack = pack_plan_memmap(plans["a"])
        try:
            restored = pack.restore()
            np.testing.assert_array_equal(
                Engine(plans["a"]).run(sample), Engine(restored).run(sample)
            )
        finally:
            pack.unlink()

    def test_structural_plan_holds_no_weights(self, plans):
        pack = pack_plan_memmap(plans["a"])
        try:
            assert all(
                op.weight is None and op.bias is None for op in pack.plan.ops
            )
            assert pack.nbytes == sum(
                (op.weight.nbytes if op.weight is not None else 0)
                + (op.bias.nbytes if op.bias is not None else 0)
                for op in plans["a"].ops
            )
        finally:
            pack.unlink()

    def test_restored_weights_are_readonly_memmaps(self, plans):
        pack = pack_plan_memmap(plans["a"])
        try:
            restored = pack.restore()
            weighted = [op for op in restored.ops if op.weight is not None]
            assert weighted
            for op in weighted:
                assert isinstance(op.weight, np.memmap)
                with pytest.raises(ValueError):
                    op.weight[...] = 0.0
        finally:
            pack.unlink()

    def test_unlink_is_idempotent_and_maps_survive(self, plans, sample):
        pack = pack_plan_memmap(plans["a"])
        restored = pack.restore()
        pack.unlink()
        pack.unlink()
        # POSIX: live maps keep the pages readable after the unlink.
        np.testing.assert_array_equal(
            Engine(plans["a"]).run(sample), Engine(restored).run(sample)
        )


class TestFleetScheduler:
    def test_global_fifo_picks_oldest_head(self):
        scheduler = FleetScheduler(max_queue=8, max_batch=4)
        scheduler.add_model("a")
        scheduler.add_model("b")
        first = _FleetRequest("a", np.zeros(1))
        time.sleep(0.002)
        second = _FleetRequest("b", np.zeros(1))
        scheduler.submit(second)
        scheduler.submit(first)  # admission order must not matter
        model, live, shed = scheduler.next_batch()
        assert model == "a" and live == [first] and shed == []

    def test_batches_are_per_model(self):
        scheduler = FleetScheduler(max_queue=8, max_batch=4)
        for name in ("a", "b"):
            scheduler.add_model(name)
        requests = [_FleetRequest("a", np.zeros(1)) for _ in range(3)]
        other = _FleetRequest("b", np.zeros(1))
        for request in requests:
            scheduler.submit(request)
        scheduler.submit(other)
        model, live, _ = scheduler.next_batch()
        assert model == "a" and live == requests
        model, live, _ = scheduler.next_batch()
        assert model == "b" and live == [other]

    def test_next_batch_returns_none_when_closed_and_empty(self):
        scheduler = FleetScheduler()
        scheduler.add_model("a")
        scheduler.close()
        assert scheduler.next_batch() is None

    def test_validation(self):
        with pytest.raises(ValueError, match="max_queue"):
            FleetScheduler(max_queue=0)
        with pytest.raises(ValueError, match="max_batch"):
            FleetScheduler(max_batch=0)


class TestServingFleet:
    def test_multi_tenant_round_trip_matches_engines(self, plans, sample):
        with ServingFleet(plans, workers=2) as fleet:
            handle_a = fleet.submit("a", sample)
            handle_b = fleet.submit("b", sample)
            np.testing.assert_array_equal(
                handle_a.result(10.0), Engine(plans["a"]).run(sample)
            )
            np.testing.assert_array_equal(
                handle_b.result(10.0), Engine(plans["b"]).run(sample)
            )
            assert handle_a.model == "a"
            assert handle_a.latency_ms > 0
            assert handle_a.batch_size >= 1

    def test_zero_workers_rejected(self, plans):
        with pytest.raises(ValueError, match="workers"):
            ServingFleet(plans, workers=0)

    def test_empty_plans_rejected(self):
        with pytest.raises(ValueError, match="at least one plan"):
            ServingFleet({})

    def test_unregistered_model_rejected_with_roster(self, plans, sample):
        with ServingFleet(plans, workers=1) as fleet:
            with pytest.raises(ValueError, match="unknown model 'c'.*a, b"):
                fleet.submit("c", sample)

    def test_wrong_shape_rejected(self, plans):
        with ServingFleet(plans, workers=1) as fleet:
            with pytest.raises(ValueError, match="shape"):
                fleet.submit("a", np.zeros((3, 8, 8)))

    def test_queue_full_rejects_and_counts(self, gated_fleet, sample):
        first = gated_fleet.submit("a", sample)  # worker picks this up
        _wait_until(lambda: gated_fleet._scheduler.depths()["a"] == 0)
        gated_fleet.submit("a", sample)
        gated_fleet.submit("a", sample)  # queue now at max_queue=2
        with pytest.raises(QueueFull, match="full"):
            gated_fleet.submit("a", sample)
        _GatedEngine.instances[0].gate.set()
        first.result(10.0)
        stats = gated_fleet.stats()
        assert stats["models"]["a"]["rejected"] == 1
        assert stats["fleet"]["rejected"] == 1
        # The rejected submit's provisional acceptance was rolled back.
        assert stats["models"]["a"]["accepted"] == 3

    def test_deadline_shed_before_compute(self, gated_fleet, sample):
        blocker = gated_fleet.submit("a", sample)  # occupies the one worker
        _wait_until(lambda: gated_fleet._scheduler.depths()["a"] == 0)
        doomed = gated_fleet.submit("a", sample, deadline_ms=5.0)
        time.sleep(0.03)  # deadline passes while queued
        engine = _GatedEngine.instances[0]
        engine.gate.set()
        blocker.result(10.0)
        with pytest.raises(DeadlineExceeded, match="deadline"):
            doomed.result(10.0)
        # The shed request never reached the engine: one run for the blocker.
        _wait_until(lambda: gated_fleet.stats()["models"]["a"]["shed"] == 1)
        assert engine.run_calls == 1

    def test_shed_and_live_split_preserves_arrival_order(self, plans, sample):
        # Directly exercise the dequeue-time split: expired head, live tail.
        scheduler = FleetScheduler(max_queue=8, max_batch=4)
        scheduler.add_model("a")
        expired = _FleetRequest("a", sample, deadline_ms=0.0)
        alive = _FleetRequest("a", sample, deadline_ms=10_000.0)
        scheduler.submit(expired)
        scheduler.submit(alive)
        time.sleep(0.002)
        model, live, shed = scheduler.next_batch()
        assert model == "a"
        assert shed == [expired]
        assert live == [alive]

    def test_close_fails_queued_requests(self, plans, sample, monkeypatch):
        _GatedEngine.instances = []
        monkeypatch.setattr("repro.runtime.fleet.fleet.Engine", _GatedEngine)
        fleet = ServingFleet({"a": plans["a"]}, workers=1, max_queue=8)
        blocker = fleet.submit("a", sample)
        _wait_until(lambda: fleet._scheduler.depths()["a"] == 0)
        queued = [fleet.submit("a", sample) for _ in range(3)]
        _GatedEngine.instances[0].gate.set()
        fleet.close()
        blocker.result(10.0)
        for handle in queued:
            with pytest.raises(FleetClosed, match="shut down"):
                handle.result(10.0)
        with pytest.raises(FleetClosed):
            fleet.submit("a", sample)

    def test_close_is_idempotent(self, plans):
        fleet = ServingFleet(plans, workers=1)
        fleet.close()
        fleet.close()

    def test_stats_consistent_under_concurrent_submitters(self, plans, sample):
        per_thread = 20
        threads = 4
        with ServingFleet(plans, workers=2, max_queue=256) as fleet:
            def flood(model):
                for _ in range(per_thread):
                    fleet.submit(model, sample).result(30.0)

            workers = [
                threading.Thread(target=flood, args=("a" if i % 2 else "b",))
                for i in range(threads)
            ]
            for t in workers:
                t.start()
            for t in workers:
                t.join()
            stats = fleet.stats()
        fleet_block = stats["fleet"]
        assert fleet_block["accepted"] == threads * per_thread
        # Quiescent invariant: every accepted request was accounted for.
        assert fleet_block["accepted"] == (
            fleet_block["completed"] + fleet_block["failed"]
            + fleet_block["shed"] + fleet_block["queue_depth"]
        )
        for block in stats["models"].values():
            assert block["accepted"] == (
                block["completed"] + block["failed"] + block["shed"]
                + block["queue_depth"]
            )
        assert sum(
            block["accepted"] for block in stats["models"].values()
        ) == fleet_block["accepted"]

    def test_stats_are_json_serialisable_and_report_sharing(self, plans, sample):
        with ServingFleet(plans, workers=3) as fleet:
            fleet.infer("a", sample, timeout=10.0)
            stats = fleet.stats()
        json.dumps(stats)
        weights = stats["weights"]
        assert weights["shared_bytes"] > 0
        assert weights["unshared_bytes"] == 3 * weights["shared_bytes"]
        assert set(weights["per_model_bytes"]) == {"a", "b"}
        assert stats["config"]["workers"] == 3
        assert stats["config"]["kind"] == "thread"
        assert stats["config"]["models"] == ["a", "b"]
        assert len(stats["workers"]) == 3
        for block in stats["workers"]:
            assert block["crashes"] == 0
            assert block["kind"] == "thread"
            assert block["pid"] is None

    def test_engine_error_propagates_and_counts_failed(self, plans, sample,
                                                      monkeypatch):
        class _BoomEngine:
            def __init__(self, plan):
                self.plan = plan

            def run(self, batch):
                raise RuntimeError("kaboom")

        monkeypatch.setattr("repro.runtime.fleet.fleet.Engine", _BoomEngine)
        with ServingFleet({"a": plans["a"]}, workers=1) as fleet:
            handle = fleet.submit("a", sample)
            with pytest.raises(RuntimeError, match="kaboom"):
                handle.result(10.0)
            _wait_until(
                lambda: fleet.stats()["models"]["a"]["failed"] == 1
            )


class TestTraffic:
    """The latency summary every serving report shares."""

    def test_latency_percentiles_requires_samples(self):
        with pytest.raises(ValueError, match="at least one sample"):
            latency_percentiles([])
        summary = latency_percentiles([1.0, 2.0, 3.0])
        assert set(summary) == {"mean", "p50", "p95", "p99", "max"}


class TestServeFleetFacade:
    def test_serve_fleet_round_trip(self):
        rng = np.random.default_rng(1)
        with api.serve_fleet(
            ["EDD-Net-1", "MobileNet-V2"], workers=2,
            width_mult=0.1, input_size=16, num_classes=4,
        ) as fleet:
            x = rng.normal(size=(3, 16, 16))
            logits = fleet.infer("EDD-Net-1", x, timeout=30.0)
            assert logits.shape == (4,)
            assert fleet.models() == ["EDD-Net-1", "MobileNet-V2"]
            stats = fleet.stats()
        assert stats["fleet"]["completed"] == 1

    def test_serve_fleet_accepts_mapping_and_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one model"):
            api.serve_fleet([])
        with api.serve_fleet(
            {"tiny": "MobileNet-V2"}, workers=1,
            width_mult=0.1, input_size=16, num_classes=4,
        ) as fleet:
            assert fleet.models() == ["tiny"]
