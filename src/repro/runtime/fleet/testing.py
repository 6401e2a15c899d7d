"""Deterministic test doubles for the serving fleet.

A serving tier is only trustworthy if worker death, hangs and queue races
are *tested*, not hoped away — and those tests must be reproducible, never
"sleep and pray".  This module holds the fleet-specific injection points:

* :class:`FakeClock` — a pausable, manually-advanced time source installed
  into :mod:`repro.runtime.fleet.clock`.  Deadline expiry, queue-age
  fairness and latency stamps become pure functions of the test script:
  nothing expires unless the test advances time past it.
* :class:`ScriptedEngine` — an in-process fake worker engine whose
  behaviour per ``run`` call follows a script (``OK``, ``"block"`` on a
  releasable gate, ``ERROR``); monkeypatch it over
  ``repro.runtime.fleet.fleet.Engine`` to choreograph thread-tier
  interleavings (a request mid-compute while ``close()`` lands, etc.).

Process workers take fault scripts in the shared action vocabulary of
:mod:`repro.resilience.testing` (``ServingFleet(fault_scripts={0: [CRASH]})``,
``HANG``, ``ERROR``, ``slow(s)``), consumed one per batch inside the child.
Every failure mode in ``docs/serving.md``'s failure-semantics table maps to
one of these hooks, so CI can replay each scenario exactly.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.resilience.testing import ERROR, OK
from repro.runtime.fleet import clock


class FakeClock:
    """Manually-advanced fleet time source; install via context manager.

    While installed, :func:`repro.runtime.fleet.clock.now` returns this
    clock's time, so request deadlines and the scheduler's global-FIFO age
    comparison move only when the test calls :meth:`advance` — deadline
    sheds become deterministic.  Heartbeat supervision of real child
    processes intentionally stays on real time.

    Example::

        with FakeClock() as fake:
            request = _FleetRequest("a", x, deadline_ms=10.0)
            fake.advance(0.011)          # now the deadline has passed
            assert request.expired()
    """

    def __init__(self, start: float = 0.0) -> None:
        self._time = float(start)
        self._lock = threading.Lock()
        self._saved = None

    def now(self) -> float:
        """Current fake time in seconds."""
        with self._lock:
            return self._time

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` (>= 0); returns the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds}")
        with self._lock:
            self._time += float(seconds)
            return self._time

    def install(self) -> "FakeClock":
        """Make this clock the fleet time source (remember the old one)."""
        self._saved = clock.time_source()
        clock.set_time_source(self.now)
        return self

    def uninstall(self) -> None:
        """Restore the time source that was active at :meth:`install`."""
        clock.set_time_source(self._saved)
        self._saved = None

    def __enter__(self) -> "FakeClock":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


class ScriptedEngine:
    """Scriptable in-process engine stub for thread-tier fault tests.

    Substitute for :class:`repro.runtime.engine.Engine` (same constructor
    shape: one plan) via monkeypatching.  Each ``run`` call consumes the
    next action from the class-level :attr:`script`:

    * ``OK`` — return zeros of shape ``(batch, out_features)``;
    * ``"block"`` — wait on :attr:`gate` until the test releases it (a
      batch frozen mid-compute: the close()/drain race window);
    * ``ERROR`` — raise ``RuntimeError``.

    An exhausted script keeps serving ``OK``.  Class-level state
    (:attr:`instances`, :attr:`script`, :attr:`gate`) is reset with
    :meth:`reset` so tests do not leak into each other.
    """

    #: Every constructed instance, in creation order.
    instances: list["ScriptedEngine"] = []
    #: Shared action script consumed across instances, one entry per run.
    script: list[str] = []
    #: Gate that ``"block"`` actions wait on.
    gate = threading.Event()
    #: Output feature count of the fake logits.
    out_features = 2
    _lock = threading.Lock()

    def __init__(self, plan) -> None:
        self.plan = plan
        self.run_calls = 0
        with ScriptedEngine._lock:
            ScriptedEngine.instances.append(self)

    @classmethod
    def reset(cls, script: list[str] | None = None) -> None:
        """Clear instances, install ``script``, re-arm the gate."""
        with cls._lock:
            cls.instances = []
            cls.script = list(script or [])
            cls.gate = threading.Event()

    @classmethod
    def release(cls) -> None:
        """Open the gate: every blocked ``run`` proceeds."""
        cls.gate.set()

    def run(self, batch) -> np.ndarray:
        """Serve one batch according to the next scripted action."""
        self.run_calls += 1
        with ScriptedEngine._lock:
            action = (
                ScriptedEngine.script.pop(0) if ScriptedEngine.script else OK
            )
        if action == "block":
            if not ScriptedEngine.gate.wait(timeout=30.0):
                raise RuntimeError("ScriptedEngine gate never released")
        elif action == ERROR:
            raise RuntimeError("scripted engine error")
        return np.zeros((len(batch), self.out_features))
