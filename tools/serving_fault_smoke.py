#!/usr/bin/env python
"""CI fault-injection smoke: kill one process worker, fleet keeps serving.

Stands up a 2-worker process fleet over two zoo models with a scripted
``CRASH`` on worker slot 0, then asserts the failure semantics from
``docs/serving.md``: the crashed batch fails fast with ``WorkerCrashed``
(no call ever hangs), the worker is respawned exactly once, both tenants
are served afterwards, and the metrics invariant holds at quiescence.

Must run as a real file (not ``python - <<heredoc``): the ``spawn`` start
method re-imports ``__main__`` in the child, which requires an importable
path — hence the ``__main__`` guard below.

Run::

    PYTHONPATH=src python tools/serving_fault_smoke.py
"""

import numpy as np


def main() -> None:
    """Drive the scripted-crash scenario end to end; raises on violation."""
    from repro import api
    from repro.runtime.fleet import ServingFleet, WorkerCrashed
    from repro.resilience.testing import CRASH

    plans = {
        name: api.compile_model(
            name, width_mult=0.1, input_size=16, num_classes=4, seed=0
        ).plan
        for name in ("EDD-Net-1", "MobileNet-V2")
    }
    x = np.random.default_rng(0).normal(size=(3, 16, 16))
    with ServingFleet(
        plans, workers=2, kind="process", fault_scripts={0: [CRASH]}
    ) as fleet:
        # Round-trip until the scripted crash fires; every call must
        # resolve (result or WorkerCrashed), none may hang.
        crashes = 0
        for _ in range(200):
            try:
                fleet.infer("EDD-Net-1", x, timeout=30.0)
            except WorkerCrashed:
                crashes += 1
                break
        assert crashes == 1, "scripted crash never fired"
        # The fleet keeps serving both tenants after the crash.
        for name in plans:
            out = fleet.infer(name, x, timeout=30.0)
            assert out.shape == (4,), (name, out.shape)
        stats = fleet.stats()
    workers = stats["workers"]
    assert sum(w["crashes"] for w in workers) == 1, workers
    assert sum(w["restarts"] for w in workers) == 1, workers
    fleet_counters = stats["fleet"]
    assert fleet_counters["accepted"] == (
        fleet_counters["completed"]
        + fleet_counters["failed"]
        + fleet_counters["shed"]
    ), fleet_counters
    assert fleet_counters["failed"] >= 1, fleet_counters
    print("fault smoke ok:", {
        key: fleet_counters[key]
        for key in ("accepted", "completed", "failed")
    })


if __name__ == "__main__":
    main()
