"""Deterministic fault injection: one action vocabulary for both tiers.

:data:`CRASH`, :data:`HANG`, :data:`ERROR`, :data:`OK` and :func:`slow` are
the fault actions of every scripted failure in the repo.  Each tier runs
them with its own executor, because each supervisor sees a fault
differently — a HANG must outlast a per-task timeout in the search tier
but silence a fleet child's heartbeats in the serving tier:

* **serving tier** — ``ServingFleet(fault_scripts={slot: [...]})`` hands a
  script to a process worker, which consumes one action per batch
  (:mod:`repro.runtime.fleet.worker`);
* **search tier** — :class:`FaultyTask`, the rest of this module.

The fault-tolerance claims of :class:`repro.core.parallel.ParallelEvaluator`
(crash recovery, timeout kills, retry backoff, poison quarantine, and —
above all — rankings bit-identical to the fault-free run) must be
*replayed*, not hoped for.  The obstacle is that retried tasks cross
process boundaries: a payload cannot carry "fail on the first attempt
only" as in-memory state, because each attempt may run in a different
worker process — or in a freshly rebuilt pool.  The harness therefore
keeps attempt counts in an **on-disk ledger**: every execution of task
``i`` appends one byte to ``<ledger>/task-<i>.attempts`` and the byte
count *is* the attempt index, valid across workers, pool rebuilds, and
``os._exit`` crashes (the byte is flushed before the fault fires).

Fault scripts are per-task tuples of actions consumed one per attempt::

    task = FaultyTask(train_spec_worker)
    payloads = [
        task.payload(0, ledger, p0),                      # always clean
        task.payload(1, ledger, p1, faults=(CRASH, OK)),  # die once, then fine
        task.payload(2, ledger, p2, faults=(ERROR, ERROR, OK)),
    ]
    results = ParallelEvaluator(workers=4, retry=policy).map(task, payloads)

In a task, :data:`CRASH` is ``os._exit`` (→ ``BrokenProcessPool``),
:data:`HANG` sleeps forever (→ per-task timeout), :data:`ERROR` raises
:class:`FaultInjected`, :func:`slow` delays then runs, :data:`OK` runs.
Attempts beyond the script run clean, so innocent tasks resubmitted after
a pool rebuild are unaffected and results depend only on the payload —
which is what makes the ranking-equality assertions exact.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = [
    "CRASH",
    "ERROR",
    "HANG",
    "OK",
    "FaultInjected",
    "FaultyPayload",
    "FaultyTask",
    "slow",
    "slow_seconds",
]

#: Fault action: kill the worker process mid-task or mid-batch
#: (``os._exit``) — the evaluator sees ``BrokenProcessPool`` and rebuilds
#: the executor; the fleet sees a dead pipe and raises ``WorkerCrashed``.
CRASH = "crash"
#: Fault action: stay alive but never finish — exercises the per-task
#: timeout kill (search) or the missed-heartbeat kill (serving).
HANG = "hang"
#: Fault action: fail the work but keep the worker healthy — a flaky task
#: retried in place (search) or an engine error shipped to the batch's
#: waiters (serving).
ERROR = "error"
#: Fault action: run normally.
OK = "ok"

_HANG_SECONDS = 3600.0
_SLOW_PREFIX = "slow:"


def slow(seconds: float) -> str:
    """Fault action: delay one attempt or batch by ``seconds``, then run.

    A slow fleet batch keeps heartbeating, so it is *not* a crash — the
    parent must keep waiting.
    """
    return f"{_SLOW_PREFIX}{float(seconds)}"


def slow_seconds(action: str) -> float | None:
    """The delay encoded by a :func:`slow` action, else ``None``."""
    if action.startswith(_SLOW_PREFIX):
        return float(action[len(_SLOW_PREFIX):])
    return None


class FaultInjected(RuntimeError):
    """Scripted task failure raised by the :data:`ERROR` action."""

    def __init__(self, task_id: int, attempt: int) -> None:
        super().__init__(f"injected fault: task {task_id} attempt {attempt}")
        #: Ledger id of the failing task.
        self.task_id = task_id
        #: Zero-based attempt index the fault fired on.
        self.attempt = attempt


def _claim_attempt(ledger: str, task_id: int) -> int:
    """Atomically claim and return this execution's attempt index.

    Appends one byte to the task's ledger file and reads the resulting
    size; O_APPEND makes concurrent claims safe, and the flush *before*
    the fault action fires means even an ``os._exit`` crash leaves its
    attempt recorded.
    """
    path = os.path.join(ledger, f"task-{task_id}.attempts")
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, b".")
        return os.fstat(fd).st_size - 1
    finally:
        os.close(fd)


def attempts_made(ledger: str, task_id: int) -> int:
    """Return how many times task ``task_id`` has started executing."""
    path = os.path.join(ledger, f"task-{task_id}.attempts")
    try:
        return os.stat(path).st_size
    except FileNotFoundError:
        return 0


@dataclass(frozen=True)
class FaultyPayload:
    """One task's payload plus its fault script and ledger coordinates.

    Plain picklable data — this is what actually crosses the process
    boundary.  ``payload`` is forwarded untouched to the wrapped function
    once the scripted faults for the current attempt are exhausted.
    """

    #: Stable id keying the attempt ledger (independent of submit order).
    task_id: int
    #: Directory holding the per-task attempt files.
    ledger: str
    #: Fault actions consumed one per attempt; attempts beyond run clean.
    faults: tuple[str, ...]
    #: The real payload for the wrapped worker function.
    payload: object


@dataclass(frozen=True)
class FaultyTask:
    """Picklable wrapper running a fault script before the real function.

    ``fn`` must itself be picklable (a module-level function) for process
    pools, exactly like any other :class:`ParallelEvaluator` task.
    """

    #: The real worker function invoked with ``FaultyPayload.payload``.
    fn: Callable[[object], object]

    def payload(
        self,
        task_id: int,
        ledger: str,
        payload: object,
        faults: Sequence[str] = (),
    ) -> FaultyPayload:
        """Build the scripted payload for one task."""
        return FaultyPayload(task_id, str(ledger), tuple(faults), payload)

    def __call__(self, scripted: FaultyPayload) -> object:
        """Claim an attempt, perform its scripted action, then run ``fn``."""
        attempt = _claim_attempt(scripted.ledger, scripted.task_id)
        action = (
            scripted.faults[attempt] if attempt < len(scripted.faults) else OK
        )
        if action == CRASH:
            os._exit(17)
        elif action == HANG:
            time.sleep(_HANG_SECONDS)
        elif action == ERROR:
            raise FaultInjected(scripted.task_id, attempt)
        delay = slow_seconds(action)
        if delay is not None:
            time.sleep(delay)
        return self.fn(scripted.payload)
