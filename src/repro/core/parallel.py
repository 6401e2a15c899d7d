"""Deterministic parallel fan-out of candidate evaluations.

The black-box baselines (random search, regularized evolution) and the
multi-seed front door (:func:`repro.api.search_many`) all have the same
shape: N independent, CPU-bound evaluations whose inputs are pure data and
whose outputs must not depend on scheduling.  :class:`ParallelEvaluator`
wraps ``concurrent.futures`` with the three properties that make that safe:

* **submission-order results** — ``map`` returns results in the order the
  payloads were given, never completion order, so rankings are stable;
* **per-payload seeding** — every payload carries its own seed (the callers
  construct payloads sequentially from one parent RNG), so ``workers=1`` and
  ``workers=8`` produce bit-identical outputs;
* **module-level workers** — evaluation functions must be importable
  (picklable by qualified name), which keeps payloads plain data and the
  workers free of shared mutable state.

``workers <= 1`` short-circuits to a plain in-process loop — no executor, no
pickling — so the serial path stays the reference semantics and the parallel
path is a pure speed-up.

The evaluator is also the search tier's **fault boundary**: with a
:class:`repro.resilience.RetryPolicy` and/or ``task_timeout`` it retries
failed tasks with deterministic decorrelated-jitter backoff, kills and
rebuilds the pool on worker crashes (``BrokenProcessPool``) or per-task
timeouts, and quarantines a task that keeps failing as a typed
:class:`~repro.resilience.errors.PoisonTask` instead of wedging the map.
Because results are keyed by submission order and every payload carries its
own seed, none of this changes *values*: a run with injected crashes,
hangs and flaky errors returns bit-identical results (hence rankings) to
the fault-free run — asserted by ``tests/test_core_parallel_faults.py``
via the :mod:`repro.resilience.testing` harness.

Bulk context crosses the process boundary once per worker via the executor
initializer; when it is the synthetic task's :class:`DatasetSplits`, the
arrays additionally travel as a tempfile ``np.memmap``
(:func:`pack_splits_memmap`) rather than a pickle, so spawn-platform workers
map the same pages instead of each materialising a private copy.
"""

from __future__ import annotations

import os
import tempfile
import time
from collections.abc import Callable, Sequence
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass
from typing import Any, TypeVar

import numpy as np

from repro.obs.tracer import get_tracer
from repro.resilience.errors import PoisonTask
from repro.resilience.retry import RetryPolicy
from repro.utils.log import get_logger

logger = get_logger("parallel")

# Sentinel marking a task whose result has not settled yet.
_PENDING = object()

_P = TypeVar("_P")
_R = TypeVar("_R")

#: Executor kinds accepted by :class:`ParallelEvaluator`.
EXECUTOR_KINDS = ("process", "thread")

# Per-worker slot for bulk read-only context (e.g. the dataset splits every
# candidate trains on).  Installed once per worker via the executor
# initializer instead of being pickled into every payload.
_SHARED: Any = None


@dataclass(frozen=True)
class MemmapSplits:
    """Picklable descriptor of :class:`~repro.data.synthetic.DatasetSplits`
    arrays parked in one tempfile.

    Shipping the descriptor instead of the arrays means a spawn-platform
    worker pays a few hundred bytes of pickle plus a page-faulted ``mmap``
    instead of re-pickling (and copying) the whole synthetic task per
    worker; fork platforms get the same file-backed sharing without relying
    on copy-on-write.  ``restore`` rebuilds a ``DatasetSplits`` whose arrays
    are read-only ``np.memmap`` views of the file.
    """

    path: str
    config: Any
    #: (split, field, dtype str, shape, byte offset) per array.
    fields: tuple[tuple[str, str, str, tuple[int, ...], int], ...]

    def restore(self) -> Any:
        """Worker-side rebuild: memmap-backed ``DatasetSplits``."""
        from repro.data.synthetic import Dataset, DatasetSplits

        arrays: dict[tuple[str, str], np.ndarray] = {}
        for split, field, dtype, shape, offset in self.fields:
            arrays[(split, field)] = np.memmap(
                self.path, dtype=np.dtype(dtype), mode="r",
                offset=offset, shape=tuple(shape),
            )
        return DatasetSplits(
            train=Dataset(arrays[("train", "images")], arrays[("train", "labels")]),
            val=Dataset(arrays[("val", "images")], arrays[("val", "labels")]),
            test=Dataset(arrays[("test", "images")], arrays[("test", "labels")]),
            config=self.config,
        )


def pack_splits_memmap(splits: Any) -> MemmapSplits:
    """Write a ``DatasetSplits``'s arrays into one tempfile for memmapping.

    The caller owns the file and should ``os.unlink`` it once the consuming
    workers are done (on POSIX, live memmaps keep the data reachable after
    the unlink).
    """
    fd, path = tempfile.mkstemp(prefix="repro-splits-", suffix=".bin")
    fields: list[tuple[str, str, str, tuple[int, ...], int]] = []
    offset = 0
    with os.fdopen(fd, "wb") as handle:
        for split in ("train", "val", "test"):
            dataset = getattr(splits, split)
            for field in ("images", "labels"):
                array = np.ascontiguousarray(getattr(dataset, field))
                fields.append(
                    (split, field, array.dtype.str, array.shape, offset)
                )
                handle.write(array.tobytes())
                offset += array.nbytes
    return MemmapSplits(
        path=path, config=getattr(splits, "config", None), fields=tuple(fields)
    )


def _is_dataset_splits(value: Any) -> bool:
    """Cheap type probe without importing the data package eagerly."""
    return type(value).__name__ == "DatasetSplits"


def _install_shared(value: Any) -> None:
    global _SHARED
    if isinstance(value, MemmapSplits):
        value = value.restore()
    _SHARED = value


def get_shared() -> Any:
    """Worker-side accessor for the object passed as ``map(..., shared=...)``.

    Returns:
        Whatever the driving process handed to :meth:`ParallelEvaluator.map`
        via ``shared`` (``None`` when nothing was shared).  Treat it as
        read-only: process workers each hold their own copy, thread workers
        and the serial path all see the caller's object.
    """
    return _SHARED


class ParallelEvaluator:
    """Orders-preserving parallel ``map`` over worker processes (or threads).

    Args:
        workers: Worker count.  ``<= 1`` evaluates serially in-process (the
            reference path); ``> 1`` fans out over an executor.
        kind: ``"process"`` (default; true CPU parallelism, payloads and
            results must pickle) or ``"thread"`` (shared memory; useful when
            the work releases the GIL or for tests that must not fork).
        task_timeout: Optional per-task wall-clock budget in seconds.  A
            task exceeding it has its (process-kind) pool terminated and
            rebuilt, the hung attempt counted as a failure, and — budget
            permitting — is resubmitted.  Thread workers cannot be killed:
            the timeout still fires, but the wedged thread leaks until its
            work returns, so hang-prone work belongs on process workers.
        retry: Optional :class:`repro.resilience.RetryPolicy` granting each
            task ``max_retries`` extra attempts (crash, timeout, or raise)
            with deterministic decorrelated-jitter backoff.  ``None`` keeps
            the historical fail-fast behaviour.
        quarantine_after: Optional hard cap on failed attempts per task
            before it is quarantined as a :class:`~repro.resilience.errors.
            PoisonTask`, even if ``retry`` would allow more.

    Raises:
        ValueError: If ``workers < 1``, ``kind`` is unknown, or a
            non-positive ``task_timeout``/``quarantine_after`` is given.
    """

    def __init__(
        self,
        workers: int = 1,
        kind: str = "process",
        *,
        task_timeout: float | None = None,
        retry: RetryPolicy | None = None,
        quarantine_after: int | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if kind not in EXECUTOR_KINDS:
            raise ValueError(f"kind must be one of {EXECUTOR_KINDS}, got {kind!r}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {task_timeout}")
        if quarantine_after is not None and quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, got {quarantine_after}"
            )
        self.workers = workers
        self.kind = kind
        self.task_timeout = task_timeout
        self.retry = retry
        self.quarantine_after = quarantine_after

    @property
    def _resilient(self) -> bool:
        return (
            self.task_timeout is not None
            or self.retry is not None
            or self.quarantine_after is not None
        )

    def _attempt_budget(self) -> int:
        budget = (self.retry.max_retries if self.retry else 0) + 1
        if self.quarantine_after is not None:
            budget = min(budget, self.quarantine_after)
        return budget

    def _backoff(self, schedule: list[float], attempt_failures: int) -> None:
        if not schedule:
            return
        delay = schedule[min(attempt_failures - 1, len(schedule) - 1)]
        if delay > 0:
            time.sleep(delay)

    def _make_executor(self, tasks: int, shared: Any) -> Executor:
        size = min(self.workers, tasks)
        if self.kind == "thread":
            return ThreadPoolExecutor(
                max_workers=size, initializer=_install_shared, initargs=(shared,)
            )
        return ProcessPoolExecutor(
            max_workers=size, initializer=_install_shared, initargs=(shared,)
        )

    def map(
        self,
        fn: Callable[[_P], _R],
        payloads: Sequence[_P],
        shared: Any = None,
    ) -> list[_R]:
        """Evaluate ``fn`` over ``payloads``; results in payload order.

        Args:
            fn: Module-level callable (must be picklable for process workers).
            payloads: The inputs, each self-contained (carrying its own seed).
            shared: Optional bulk read-only context, shipped to each worker
                once (executor initializer) instead of once per payload;
                ``fn`` reads it back through :func:`get_shared`.

        Returns:
            ``[fn(p) for p in payloads]`` — same values and order as the
            serial loop, regardless of worker count or completion order.

        Raises:
            PoisonTask: When resilience is configured (``retry`` /
                ``task_timeout`` / ``quarantine_after``) and one task
                exhausted its attempt budget.
            Exception: Without resilience, the first payload's exception
                (by submission order) is re-raised; later results are
                discarded.
        """
        payloads = list(payloads)
        previous = get_shared()
        if self.workers <= 1 or len(payloads) <= 1:
            _install_shared(shared)
            try:
                if not self._resilient:
                    return [fn(p) for p in payloads]
                return [
                    self._call_serial(fn, p, i) for i, p in enumerate(payloads)
                ]
            finally:
                _install_shared(previous)
        pack: MemmapSplits | None = None
        if self.kind == "process" and _is_dataset_splits(shared):
            # Ship the synthetic-task arrays through one tempfile np.memmap
            # instead of pickling them into every worker (spawn platforms
            # re-build the arrays per worker otherwise; fork platforms drop
            # the reliance on copy-on-write).  Workers reconstruct a real
            # DatasetSplits in _install_shared, so fn sees the same object
            # type either way.
            pack = pack_splits_memmap(shared)
            shared = pack
        try:
            if self._resilient:
                return self._map_resilient(fn, payloads, shared)
            with self._make_executor(len(payloads), shared) as executor:
                futures = [executor.submit(fn, p) for p in payloads]
                return [future.result() for future in futures]
        finally:
            # Thread workers share this process's slot; restore it so one
            # map() cannot leak its context into the next.
            _install_shared(previous)
            if pack is not None:
                # Workers are gone (executor shut down); drop the tempfile.
                try:
                    os.unlink(pack.path)
                except OSError:
                    pass

    # -- fault-tolerant path ---------------------------------------------------
    def _call_serial(self, fn: Callable[[_P], _R], payload: _P, index: int) -> _R:
        """Serial-path evaluation with the same retry/quarantine budget."""
        budget = self._attempt_budget()
        schedule = self.retry.schedule() if self.retry else []
        failures: list[str] = []
        while True:
            try:
                return fn(payload)
            except Exception as err:
                failures.append(f"{type(err).__name__}: {err}")
                if len(failures) >= budget:
                    raise PoisonTask(index, failures) from err
                self._backoff(schedule, len(failures))

    def _rebuild(
        self, executor: Executor, tasks: int, shared: Any, kill: bool
    ) -> Executor:
        """Tear an executor down (terminating its workers if asked) and replace it."""
        if kill:
            # A hung worker never returns on its own; SIGTERM the pool's
            # children before abandoning it (process kind only — threads
            # cannot be killed and simply leak until their work returns).
            processes = getattr(executor, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:  # pragma: no cover - already-dead race
                    pass
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - broken pools may refuse
            pass
        return self._make_executor(tasks, shared)

    def _map_resilient(
        self, fn: Callable[[_P], _R], payloads: list[_P], shared: Any
    ) -> list[_R]:
        """Order-preserving map with retries, timeouts and pool rebuilds.

        Results settle in submission order; a pool rebuild resubmits every
        task without a settled result, but only the task that actually
        crashed/timed out has the failure counted against its budget —
        innocent tasks get their re-run for free, and since every payload
        is self-seeded the values (and any ranking built on them) stay
        bit-identical to a fault-free run.
        """
        tracer = get_tracer()
        budget = self._attempt_budget()
        schedule = self.retry.schedule() if self.retry else []
        n = len(payloads)
        executor = self._make_executor(n, shared)
        futures = [executor.submit(fn, p) for p in payloads]
        results: list[Any] = [_PENDING] * n
        failures: list[list[str]] = [[] for _ in range(n)]
        totals = {"retries": 0, "timeouts": 0, "rebuilds": 0}
        clean_exit = False
        try:
            for i in range(n):
                while results[i] is _PENDING:
                    try:
                        results[i] = futures[i].result(timeout=self.task_timeout)
                        continue
                    except BrokenExecutor as err:
                        kind, caught = "crash", err
                        failures[i].append(
                            f"worker crashed ({type(err).__name__})"
                        )
                    except FuturesTimeout as err:
                        # In 3.11+ futures.TimeoutError is the builtin
                        # TimeoutError, so a task *raising* TimeoutError
                        # lands here too — done() tells the cases apart.
                        if futures[i].done():
                            kind, caught = "error", err
                            failures[i].append(f"{type(err).__name__}: {err}")
                        else:
                            kind, caught = "timeout", err
                            totals["timeouts"] += 1
                            failures[i].append(
                                f"timeout after {self.task_timeout}s"
                            )
                    except Exception as err:
                        kind, caught = "error", err
                        failures[i].append(f"{type(err).__name__}: {err}")

                    retryable = len(failures[i]) < budget
                    logger.warning(
                        "task %d attempt %d failed (%s): %s%s",
                        i, len(failures[i]), kind, failures[i][-1],
                        "; retrying" if retryable else "; quarantining",
                    )
                    if kind in ("crash", "timeout"):
                        # The pool is unusable (broken, or its workers were
                        # just terminated): rebuild it and resubmit every
                        # task whose result has not settled.
                        totals["rebuilds"] += 1
                        executor = self._rebuild(
                            executor, n, shared, kill=kind == "timeout"
                        )
                        if tracer.enabled:
                            tracer.counter(
                                "parallel.pool_rebuilds",
                                float(totals["rebuilds"]), cat="parallel",
                            )
                        for j in range(i, n):
                            if results[j] is not _PENDING:
                                continue
                            future = futures[j]
                            settled_ok = future.done() and (
                                future.exception() is None
                            )
                            if j == i:
                                if retryable:
                                    futures[j] = executor.submit(
                                        fn, payloads[j]
                                    )
                            elif not settled_ok:
                                futures[j] = executor.submit(fn, payloads[j])
                    elif retryable:
                        futures[i] = executor.submit(fn, payloads[i])

                    if not retryable:
                        raise PoisonTask(i, failures[i]) from caught
                    totals["retries"] += 1
                    if tracer.enabled:
                        tracer.counter(
                            "parallel.retries", float(totals["retries"]),
                            cat="parallel",
                        )
                        if kind == "timeout":
                            tracer.counter(
                                "parallel.timeouts", float(totals["timeouts"]),
                                cat="parallel",
                            )
                    self._backoff(schedule, len(failures[i]))
            clean_exit = True
            return results
        finally:
            executor.shutdown(wait=clean_exit, cancel_futures=not clean_exit)


def train_spec_payload(spec: Any, epochs: int, batch_size: int, seed: int) -> tuple:
    """Build the payload :func:`train_spec_worker` expects.

    The dataset splits are deliberately *not* part of the payload — pass
    them as ``map(..., shared=splits)`` so they cross the process boundary
    once per worker rather than once per candidate.
    """
    return (spec, epochs, batch_size, seed)


def train_spec_worker(payload: tuple) -> Any:
    """Proxy-train one candidate spec (the shared worker of both baselines).

    Args:
        payload: ``(spec, epochs, batch_size, seed)`` from
            :func:`train_spec_payload`; the dataset comes from
            :func:`get_shared`.

    Returns:
        The :class:`repro.core.results.TrainResult`.

    Raises:
        RuntimeError: If no dataset splits were passed via ``shared``.
    """
    from repro.core.trainer import train_from_spec

    spec, epochs, batch_size, seed = payload
    splits = get_shared()
    if splits is None:
        raise RuntimeError(
            "train_spec_worker needs the dataset splits via map(..., shared=splits)"
        )
    return train_from_spec(
        spec, splits, epochs=epochs, batch_size=batch_size, seed=seed
    )
