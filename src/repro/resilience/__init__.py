"""Fault tolerance for the search tier: crash-safe, preemptable, self-healing.

A multi-hour bilevel search must survive the four ways long jobs actually
die: machine/process crashes (durable atomic checkpoints — see
:mod:`repro.core.checkpoint`), numerical divergence
(:class:`DivergenceGuard`: rollback to the last good checkpoint plus a
deterministic LR intervention, budgeted by ``max_rollbacks``), flaky or
wedged parallel workers (:class:`RetryPolicy` + the fault-tolerant
:class:`~repro.core.parallel.ParallelEvaluator`), and preemption signals
(:class:`PreemptionGuard`: checkpoint-then-exit with
:data:`PREEMPTION_EXIT_CODE`).  Every failure has a typed exception —
:class:`CorruptCheckpoint`, :class:`DivergenceError`, :class:`PoisonTask`,
:class:`Preempted` — and every recovery emits :mod:`repro.obs` spans and
counters so resilience events are visible in traces, not silent.

:mod:`repro.resilience.testing` defines the fault actions (crash, hang,
error, slow) that both the search and the serving tier script, plus the
search-tier harness (scripted crash/hang/flaky tasks over an on-disk
attempt ledger) that CI uses to replay each failure mode.  See
``docs/resilience.md`` for the failure-semantics table.
"""

from repro.resilience.errors import (
    CorruptCheckpoint,
    DivergenceError,
    PoisonTask,
    Preempted,
)
from repro.resilience.retry import RetryPolicy
from repro.resilience.preemption import (
    PREEMPTION_EXIT_CODE,
    PreemptionCallback,
    PreemptionGuard,
    preemption_requested,
)
from repro.resilience.divergence import DivergenceGuard

__all__ = [
    "CorruptCheckpoint",
    "DivergenceError",
    "DivergenceGuard",
    "PoisonTask",
    "Preempted",
    "PreemptionCallback",
    "PreemptionGuard",
    "PREEMPTION_EXIT_CODE",
    "RetryPolicy",
    "preemption_requested",
]
