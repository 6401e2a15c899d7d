"""Process worker tier: cross-process packs, tier parity, liveness stats.

Three contracts:

* **weight packs cross the process boundary** — a
  :class:`~repro.runtime.fleet.weights.PlanWeightPack` restored inside a
  freshly *spawned* interpreter yields read-only memmapped weights and
  byte-identical engine outputs (the cold-start path every process worker
  takes);
* **tier parity** — for the same inputs, thread and process fleets return
  numerically identical outputs and their ``stats()`` documents share one
  schema (so dashboards and ``repro serve`` reports need no per-tier code);
* **liveness surface** — process workers report real pids and respawn
  counts, thread workers the same keys with ``pid: None``.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro import api
from repro.nas.arch_spec import ArchSpec, FCBlock, MBConvBlock, PoolBlock, StemBlock
from repro.runtime import Engine, compile_spec
from repro.runtime.fleet import ServingFleet, pack_plan_memmap

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


def _pack_child(pack, sample_bytes, shape, dtype, queue):
    """Spawned-subprocess body: restore the pack and run one sample.

    Module-level so the spawn start method can pickle it from the test
    module (spawn ships the parent's ``sys.path``).
    """
    plan = pack.restore()
    writable = 0
    checked = 0
    for op in plan.ops:
        for array in (op.weight, op.bias):
            if array is None:
                continue
            checked += 1
            try:
                array[...] = 0.0
                writable += 1
            except (ValueError, OSError):
                pass
    sample = np.frombuffer(sample_bytes, dtype=dtype).reshape(shape)
    out = np.asarray(Engine(plan).run(sample))
    queue.put({
        "checked": checked,
        "writable": writable,
        "out_bytes": out.tobytes(),
        "out_dtype": str(out.dtype),
        "out_shape": out.shape,
    })


class TestCrossProcessPack:
    def test_spawned_subprocess_restores_readonly_and_byte_identical(
        self, plans, sample
    ):
        pack = pack_plan_memmap(plans["a"])
        try:
            ctx = mp.get_context("spawn")
            queue = ctx.Queue()
            proc = ctx.Process(
                target=_pack_child,
                args=(
                    pack,
                    sample.tobytes(),
                    sample.shape,
                    str(sample.dtype),
                    queue,
                ),
            )
            proc.start()
            try:
                report = queue.get(timeout=WAIT)
            finally:
                proc.join(WAIT)
            assert proc.exitcode == 0
            assert report["checked"] > 0
            assert report["writable"] == 0  # every array is read-only
            expected = np.asarray(Engine(plans["a"]).run(sample))
            assert report["out_dtype"] == str(expected.dtype)
            assert tuple(report["out_shape"]) == expected.shape
            assert report["out_bytes"] == expected.tobytes()
        finally:
            pack.unlink()


def _schema(obj):
    """Key structure of a stats document, with leaves erased."""
    if isinstance(obj, dict):
        return {key: _schema(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_schema(value) for value in obj]
    return None


class TestProcessFleet:
    def test_round_trip_matches_engines(self, plans, sample):
        with ServingFleet(plans, workers=2, kind="process") as fleet:
            out_a = fleet.infer("a", sample, timeout=WAIT)
            out_b = fleet.infer("b", sample, timeout=WAIT)
            np.testing.assert_array_equal(
                out_a, Engine(plans["a"]).run(sample)
            )
            np.testing.assert_array_equal(
                out_b, Engine(plans["b"]).run(sample)
            )
            stats = fleet.stats()
        assert stats["fleet"]["completed"] == 2
        assert stats["config"]["kind"] == "process"

    def test_thread_and_process_tiers_are_equivalent(self, plans):
        # Six sequential requests alternating between the two models (no
        # coalescing races), so both tiers complete every request and emit
        # fully-populated stats documents.
        rng = np.random.default_rng(2)
        requests = [
            ("ab"[i % 2], rng.standard_normal((3, 12, 12))) for i in range(6)
        ]
        outputs = {}
        stats = {}
        for kind in ("thread", "process"):
            with ServingFleet(plans, workers=2, kind=kind) as fleet:
                outputs[kind] = [
                    fleet.infer(model, x, timeout=WAIT) for model, x in requests
                ]
                stats[kind] = fleet.stats()
        # Numerically identical answers, request by request...
        for thread_out, process_out in zip(outputs["thread"],
                                           outputs["process"]):
            np.testing.assert_array_equal(thread_out, process_out)
        # ...every request completed on both tiers...
        for kind in ("thread", "process"):
            counters = stats[kind]["fleet"]
            assert counters["completed"] == len(requests)
            assert counters["rejected"] == 0
            assert counters["failed"] == 0
            assert counters["shed"] == 0
        # ...and one stats schema across tiers (only leaf values differ).
        assert _schema(stats["thread"]) == _schema(stats["process"])

    def test_worker_liveness_blocks(self, plans):
        with ServingFleet(plans, workers=2, kind="process") as proc_fleet:
            proc_workers = proc_fleet.stats()["workers"]
        with ServingFleet(plans, workers=2, kind="thread") as thread_fleet:
            thread_workers = thread_fleet.stats()["workers"]
        assert len(proc_workers) == len(thread_workers) == 2
        pids = set()
        for block in proc_workers:
            assert block["kind"] == "process"
            assert block["alive"] is True
            assert block["restarts"] == 0
            assert isinstance(block["pid"], int)
            pids.add(block["pid"])
        assert len(pids) == 2  # distinct real processes
        for block in thread_workers:
            assert block["kind"] == "thread"
            assert block["pid"] is None
            assert block["restarts"] == 0
            assert block.keys() == proc_workers[0].keys()

    def test_invalid_kind_rejected(self, plans):
        with pytest.raises(ValueError, match="kind"):
            ServingFleet(plans, workers=1, kind="goroutine")

    def test_api_serve_fleet_passes_worker_kind(self):
        with api.serve_fleet(
            {"tiny": "MobileNet-V2"}, workers=1, worker_kind="process",
            width_mult=0.1, input_size=16, num_classes=4,
        ) as fleet:
            x = np.random.default_rng(2).normal(size=(3, 16, 16))
            logits = fleet.infer("tiny", x, timeout=WAIT)
            assert logits.shape == (4,)
            assert fleet.stats()["config"]["kind"] == "process"
