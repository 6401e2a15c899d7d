"""Fault injection against the serving fleet: crashes, hangs, close races.

Process-tier scenarios drive real child processes through scripted fault
actions from :mod:`repro.resilience.testing` (``fault_scripts=``);
thread-tier races are choreographed with :class:`ScriptedEngine` gates.
The common contract under test: **no client ``result()`` call ever hangs**
— every submitted request resolves with an output or a typed error, and
the metrics invariant ``accepted == completed + failed + shed + queued``
survives every scenario.
"""

import threading

import numpy as np
import pytest

from repro.nas.arch_spec import ArchSpec, FCBlock, StemBlock
from repro.runtime import compile_spec
from repro.runtime.fleet import (
    FleetClosed,
    QueueFull,
    ServingFleet,
    WorkerCrashed,
)
from repro.resilience.testing import CRASH, ERROR, HANG, slow
from repro.runtime.fleet.testing import ScriptedEngine

# Generous guard rail: a hit means a client hung, the bug these tests exist
# to catch — never a tuning knob for slow hosts.
WAIT = 30.0


def _fault_spec(name: str = "faulty") -> ArchSpec:
    return ArchSpec(
        name,
        [StemBlock(out_ch=4, kernel=3, stride=2), FCBlock(out_features=3)],
        input_size=8,
        input_channels=3,
    )


@pytest.fixture(scope="module")
def plan():
    return compile_spec(_fault_spec(), seed=0)


@pytest.fixture
def sample():
    return np.random.default_rng(7).standard_normal((3, 8, 8))


def _assert_quiescent_invariant(stats):
    fleet_counters = stats["fleet"]
    assert fleet_counters["queue_depth"] == 0
    assert fleet_counters["accepted"] == (
        fleet_counters["completed"]
        + fleet_counters["failed"]
        + fleet_counters["shed"]
    )


class TestProcessFaults:
    def test_crash_mid_batch_fails_fast_then_respawn_serves(
        self, plan, sample
    ):
        with ServingFleet(
            {"faulty": plan},
            workers=1,
            kind="process",
            fault_scripts={0: [CRASH]},
        ) as fleet:
            handle = fleet.submit("faulty", sample)
            with pytest.raises(WorkerCrashed):
                handle.result(timeout=WAIT)
            # The respawned worker serves the very next request.
            out = fleet.infer("faulty", sample, timeout=WAIT)
            assert out.shape == (3,)
            stats = fleet.stats()
            assert stats["workers"][0]["restarts"] == 1
            assert stats["workers"][0]["crashes"] == 1
            assert stats["workers"][0]["alive"]
            _assert_quiescent_invariant(stats)

    def test_crashed_slot_retires_and_survivor_drains_queue(
        self, plan, sample
    ):
        with ServingFleet(
            {"faulty": plan},
            workers=2,
            kind="process",
            max_queue=256,
            respawn=False,
            fault_scripts={0: [CRASH]},
        ) as fleet:
            # Single-sample round trips until the doomed worker wins a
            # dequeue race and dies; every call resolves, none hangs.
            crashes = 0
            for _ in range(200):
                try:
                    fleet.infer("faulty", sample, timeout=WAIT)
                except WorkerCrashed:
                    crashes += 1
                    break
            assert crashes == 1, "scripted crash never fired"
            # Slot 0 is retired (respawn off); the survivor drains a flood.
            handles = [fleet.submit("faulty", sample) for _ in range(16)]
            for handle in handles:
                assert handle.result(timeout=WAIT).shape == (3,)
            stats = fleet.stats()
            assert not stats["workers"][0]["alive"]
            assert stats["workers"][0]["restarts"] == 0
            assert stats["workers"][1]["alive"]
            _assert_quiescent_invariant(stats)

    def test_hang_detected_via_missed_heartbeats(self, plan, sample):
        with ServingFleet(
            {"faulty": plan},
            workers=1,
            kind="process",
            heartbeat_s=0.05,
            max_missed_heartbeats=4,
            fault_scripts={0: [HANG]},
        ) as fleet:
            handle = fleet.submit("faulty", sample)
            with pytest.raises(WorkerCrashed, match="heartbeat"):
                handle.result(timeout=WAIT)
            out = fleet.infer("faulty", sample, timeout=WAIT)
            assert out.shape == (3,)
            assert fleet.stats()["workers"][0]["restarts"] == 1

    def test_slow_batch_outlives_heartbeat_budget(self, plan, sample):
        # slow(0.6) far exceeds the 0.2 s silence budget — but the child
        # keeps heartbeating, so supervision must NOT kill it.
        with ServingFleet(
            {"faulty": plan},
            workers=1,
            kind="process",
            heartbeat_s=0.05,
            max_missed_heartbeats=4,
            fault_scripts={0: [slow(0.6)]},
        ) as fleet:
            out = fleet.infer("faulty", sample, timeout=WAIT)
            assert out.shape == (3,)
            stats = fleet.stats()
            assert stats["workers"][0]["crashes"] == 0
            assert stats["workers"][0]["restarts"] == 0

    def test_engine_error_fails_batch_but_worker_survives(
        self, plan, sample
    ):
        with ServingFleet(
            {"faulty": plan},
            workers=1,
            kind="process",
            fault_scripts={0: [ERROR]},
        ) as fleet:
            handle = fleet.submit("faulty", sample)
            with pytest.raises(RuntimeError, match="injected") as excinfo:
                handle.result(timeout=WAIT)
            assert not isinstance(excinfo.value, WorkerCrashed)
            out = fleet.infer("faulty", sample, timeout=WAIT)
            assert out.shape == (3,)
            stats = fleet.stats()
            assert stats["workers"][0]["restarts"] == 0
            assert stats["workers"][0]["crashes"] == 0
            assert stats["fleet"]["failed"] == 1
            _assert_quiescent_invariant(stats)

    def test_close_during_inflight_process_batch_drains_gracefully(
        self, plan, sample
    ):
        fleet = ServingFleet(
            {"faulty": plan},
            workers=1,
            kind="process",
            fault_scripts={0: [slow(0.5)]},
        )
        try:
            handle = fleet.submit("faulty", sample)
            # Wait until the batch is dispatched (out of the queue, into
            # the slow child), then close mid-compute.
            deadline = threading.Event()
            for _ in range(2000):
                if fleet.stats()["fleet"]["queue_depth"] == 0:
                    break
                deadline.wait(0.005)
            fleet.close()
            # Graceful drain: the in-flight request was answered, not
            # abandoned.
            assert handle.result(timeout=1.0).shape == (3,)
            _assert_quiescent_invariant(fleet.stats())
        finally:
            fleet.close()


class TestThreadCloseRaces:
    @pytest.fixture
    def scripted(self, monkeypatch):
        ScriptedEngine.reset()
        monkeypatch.setattr(
            "repro.runtime.fleet.fleet.Engine", ScriptedEngine
        )
        yield ScriptedEngine
        ScriptedEngine.release()

    def test_close_races_with_blocked_batch(self, plan, sample, scripted):
        scripted.reset(["block"])
        fleet = ServingFleet({"faulty": plan}, workers=1, max_queue=8)
        try:
            blocked = fleet.submit("faulty", sample)
            for _ in range(2000):
                if scripted.instances and scripted.instances[0].run_calls:
                    break
                threading.Event().wait(0.002)
            assert scripted.instances[0].run_calls == 1
            # These land behind the frozen batch and must not be served
            # after close() — they fail with FleetClosed instead.
            queued = [fleet.submit("faulty", sample) for _ in range(2)]
            closer = threading.Thread(target=fleet.close)
            closer.start()
            closer.join(timeout=0.2)
            assert closer.is_alive(), "close() returned with a batch in flight"
            scripted.release()
            closer.join(timeout=WAIT)
            assert not closer.is_alive()
            assert blocked.result(timeout=1.0).shape == (2,)
            for handle in queued:
                with pytest.raises(FleetClosed):
                    handle.result(timeout=1.0)
            stats = fleet.stats()
            assert stats["fleet"]["accepted"] == 3
            assert stats["fleet"]["completed"] == 1
            assert stats["fleet"]["failed"] == 2
            _assert_quiescent_invariant(stats)
        finally:
            scripted.release()
            fleet.close()

    def test_submit_close_race_stress_resolves_every_handle(
        self, plan, sample, scripted
    ):
        scripted.reset()  # every batch serves "ok" instantly
        fleet = ServingFleet(
            {"faulty": plan}, workers=2, max_queue=16, max_batch=4
        )
        handles = []
        lock = threading.Lock()
        start = threading.Barrier(5)

        def submitter():
            start.wait()
            for _ in range(40):
                try:
                    handle = fleet.submit("faulty", sample)
                except (QueueFull, FleetClosed):
                    continue
                with lock:
                    handles.append(handle)

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        for thread in threads:
            thread.start()
        start.wait()
        # Mid-flight snapshots may observe queued work already completed
        # (depths and counters are sampled apart), but completions can
        # never outrun acceptance.
        for _ in range(20):
            counters = fleet.stats()["fleet"]
            assert counters["accepted"] >= (
                counters["completed"] + counters["failed"] + counters["shed"]
            )
        fleet.close()
        for thread in threads:
            thread.join(WAIT)
            assert not thread.is_alive()
        resolved = failed = 0
        for handle in handles:
            try:
                handle.result(timeout=WAIT)
                resolved += 1
            except FleetClosed:
                failed += 1
        assert resolved + failed == len(handles)
        stats = fleet.stats()
        assert stats["fleet"]["completed"] == resolved
        assert stats["fleet"]["failed"] == failed
        _assert_quiescent_invariant(stats)
