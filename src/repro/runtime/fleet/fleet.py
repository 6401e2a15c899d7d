"""ServingFleet: N workers, shared baked weights, one multi-tenant door.

The fleet is the one serving path of the compiled runtime: a single model
is a one-plan roster, and one fleet hosts many compiled plans behind
``submit(model, x)``:

* each plan's baked arrays are packed once into a single memmap
  (:func:`~repro.runtime.fleet.weights.pack_plan_memmap`) and every worker's
  engine reads the same read-only pages — weight memory is O(1) in the
  worker count, and spinning up a worker touches no weight bytes;
* workers come in two kinds.  ``kind="thread"`` runs worker threads, each
  with its own :class:`~repro.runtime.engine.Engine` per model (private
  arena slice); threads overlap only while numpy kernels release the GIL.
  ``kind="process"`` runs worker *processes* that cold-start from the same
  weight packs and are driven over a pipe control protocol
  (:mod:`~repro.runtime.fleet.worker`) — true core parallelism, heartbeat
  crash detection, and optional respawn;
* the :class:`~repro.runtime.fleet.scheduler.FleetScheduler` provides
  continuous batching, bounded-queue admission control, and deadline
  shedding; every decision lands in
  :class:`~repro.runtime.fleet.metrics.ServingMetrics`, surfaced as
  ``fleet.stats()``.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.obs.tracer import Tracer, get_tracer, reanchor_spans
from repro.runtime.engine import Engine
from repro.runtime.fleet import clock
from repro.runtime.fleet.metrics import ServingMetrics
from repro.runtime.fleet.requests import (
    DeadlineExceeded,
    FleetClosed,
    FleetHandle,
    QueueFull,
    WorkerCrashed,
    _FleetRequest,
)
from repro.runtime.fleet.scheduler import FleetScheduler
from repro.runtime.fleet.weights import pack_plan_memmap
from repro.runtime.fleet.worker import ProcessWorker
from repro.runtime.plan import ExecutionPlan

if TYPE_CHECKING:  # runtime import is deferred inside submit_with_retry
    from repro.resilience.retry import RetryPolicy

#: Worker tiers a fleet can run.
WORKER_KINDS = ("thread", "process")


class ServingFleet:
    """Multi-worker, multi-tenant serving frontend over compiled plans.

    Args:
        plans: Mapping of model name to compiled
            :class:`~repro.runtime.plan.ExecutionPlan`; each becomes a
            routing key for :meth:`submit`.
        workers: Worker count (``>= 1``).
        max_batch: Largest coalesced batch a worker pulls per model.
        max_queue: Per-model admission bound; submits beyond it raise
            :class:`~repro.runtime.fleet.requests.QueueFull`.
        kind: ``"thread"`` (in-process workers, GIL-bound) or ``"process"``
            (one child process per worker: true core scaling, crash
            isolation, heartbeat supervision).
        heartbeat_s: Process tier only — child heartbeat interval.
        max_missed_heartbeats: Process tier only — silent intervals before
            a worker is declared hung and killed
            (:class:`~repro.runtime.fleet.requests.WorkerCrashed`).
        respawn: Process tier only — replace crashed workers with fresh
            ones (the in-flight batch still fails fast; later traffic is
            served).  When ``False`` a crashed worker's slot retires and
            the remaining workers carry the load.
        start_method: Process tier only — ``multiprocessing`` start method
            (default ``spawn``; the cold-start path the deploy story uses).
        fault_scripts: Deterministic fault-injection hook (tests/CI only):
            per worker slot, a list of actions consumed one per batch —
            ``CRASH``, ``HANG``, ``slow(s)``, ``ERROR`` from
            :mod:`repro.resilience.testing`.

    Use as a context manager or call :meth:`close` — workers (threads and
    dispatcher threads alike) are non-daemonic.
    """

    def __init__(
        self,
        plans: dict[str, ExecutionPlan],
        workers: int = 2,
        max_batch: int = 8,
        max_queue: int = 64,
        kind: str = "thread",
        heartbeat_s: float = 0.25,
        max_missed_heartbeats: int = 8,
        respawn: bool = True,
        start_method: str | None = None,
        fault_scripts: dict[int, list[str]] | None = None,
    ) -> None:
        if not plans:
            raise ValueError("ServingFleet needs at least one plan")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if kind not in WORKER_KINDS:
            raise ValueError(
                f"kind must be one of {WORKER_KINDS}, got {kind!r}"
            )
        self.workers = int(workers)
        self.max_batch = int(max_batch)
        self.kind = kind
        self.heartbeat_s = float(heartbeat_s)
        self.max_missed_heartbeats = int(max_missed_heartbeats)
        self._respawn_enabled = bool(respawn)
        self._start_method = start_method
        self._packs = {
            name: pack_plan_memmap(plan) for name, plan in plans.items()
        }
        # One memmap-backed plan per model, shared by every worker.
        self._plans = {
            name: pack.restore() for name, pack in self._packs.items()
        }
        if kind == "thread":
            # Pages stay reachable through the live memmaps; process fleets
            # keep the files until close() so respawned workers can re-map.
            for pack in self._packs.values():
                pack.unlink()
        self._scheduler = FleetScheduler(max_queue=max_queue, max_batch=max_batch)
        for name in plans:
            self._scheduler.add_model(name)
        self.metrics = ServingMetrics(self.workers)
        self._closed = False
        self._close_lock = threading.Lock()
        self._procs: list[ProcessWorker | None] = [None] * self.workers
        self._restarts = [0] * self.workers
        if kind == "process":
            scripts = fault_scripts or {}
            try:
                for index in range(self.workers):
                    self._procs[index] = ProcessWorker(
                        index,
                        self._packs,
                        heartbeat_s=self.heartbeat_s,
                        max_missed=self.max_missed_heartbeats,
                        fault_script=scripts.get(index),
                        start_method=start_method,
                    )
            except BaseException:
                for proc in self._procs:
                    if proc is not None:
                        proc.kill()
                for pack in self._packs.values():
                    pack.unlink()
                raise
            loop = self._process_worker_loop
        else:
            loop = self._worker_loop
        # Engines (thread tier) are built lazily per (worker, model): a
        # worker allocates a model's arena only once it serves that model.
        self._threads = [
            threading.Thread(
                target=loop,
                args=(index,),
                name=f"fleet-worker-{index}",
            )
            for index in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- shared dequeue handling ---------------------------------------------
    def _shed_requests(
        self, model: str, shed: list[_FleetRequest], worker_index: int
    ) -> None:
        tracer = get_tracer()
        for request in shed:
            request.fail(DeadlineExceeded(
                f"request for {model!r} shed after exceeding its deadline"
            ))
            if tracer.enabled:
                tracer.add_span(
                    "request.shed", request.enqueued_at,
                    request.dispatched_at - request.enqueued_at,
                    cat="fleet", tid=worker_index,
                    args={"model": model, "req": request.req_id},
                )
        if shed:
            self.metrics.record_shed(model, len(shed))

    def _emit_request_spans(
        self,
        tracer: Tracer,
        model: str,
        live: list[_FleetRequest],
        compute_start: float,
        compute_end: float,
        worker_index: int,
    ) -> None:
        """Lifecycle spans for a completed batch, on the worker's trace lane.

        Per request (joined by the ``req`` arg): ``request`` (enqueue →
        completion), ``request.queued`` (enqueue → scheduler dispatch),
        ``request.dispatch`` (dispatch → compute start: shed filtering plus
        batch assembly) and ``request.compute`` (the batch's compute
        interval).  All timestamps come from the fleet clock
        (:mod:`repro.runtime.fleet.clock`), so traces are deterministic
        under ``FakeClock``.
        """
        for request in live:
            queued_s = request.dispatched_at - request.enqueued_at
            args = {
                "model": model,
                "req": request.req_id,
                "queue_wait_ms": queued_s * 1e3,
                "batch": request.batch_size,
            }
            tracer.add_span(
                "request", request.enqueued_at, request.latency_ms / 1e3,
                cat="fleet", tid=worker_index, args=args,
            )
            tracer.add_span(
                "request.queued", request.enqueued_at, queued_s,
                cat="fleet", tid=worker_index,
                args={"model": model, "req": request.req_id},
            )
            tracer.add_span(
                "request.dispatch", request.dispatched_at,
                compute_start - request.dispatched_at,
                cat="fleet", tid=worker_index,
                args={"model": model, "req": request.req_id},
            )
            tracer.add_span(
                "request.compute", compute_start,
                compute_end - compute_start,
                cat="fleet", tid=worker_index,
                args={
                    "model": model, "req": request.req_id,
                    "batch": request.batch_size,
                },
            )

    # -- thread worker loop --------------------------------------------------
    def _worker_loop(self, worker_index: int) -> None:
        engines: dict[str, Engine] = {}
        while True:
            picked = self._scheduler.next_batch()
            if picked is None:
                return
            model, live, shed = picked
            start = time.perf_counter()
            tracer = get_tracer()
            self._shed_requests(model, shed, worker_index)
            if not live:
                self.metrics.record_worker_busy(
                    worker_index, time.perf_counter() - start
                )
                continue
            engine = engines.get(model)
            if engine is None:
                engine = engines[model] = Engine(self._plans[model])
            try:
                batch = np.stack([request.x for request in live])
                compute_start = clock.now()
                outputs = engine.run(batch)
                compute_end = clock.now()
            except Exception as error:  # engine failures reach the callers
                for request in live:
                    request.fail(error)
                self.metrics.record_failed(model, len(live))
                self.metrics.record_worker_busy(
                    worker_index, time.perf_counter() - start
                )
                continue
            for row, request in enumerate(live):
                request.complete(np.array(outputs[row]), len(live))
            if tracer.enabled:
                self._emit_request_spans(
                    tracer, model, live, compute_start, compute_end,
                    worker_index,
                )
            self.metrics.record_batch(
                model,
                [request.latency_ms for request in live],
                worker_index,
                time.perf_counter() - start,
            )

    # -- process worker loop (parent-side dispatcher) ------------------------
    def _process_worker_loop(self, worker_index: int) -> None:
        while True:
            picked = self._scheduler.next_batch()
            if picked is None:
                break
            model, live, shed = picked
            start = time.perf_counter()
            tracer = get_tracer()
            self._shed_requests(model, shed, worker_index)
            if not live:
                self.metrics.record_worker_busy(
                    worker_index, time.perf_counter() - start
                )
                continue
            batch = np.stack([request.x for request in live])
            outputs = None
            child_spans: list[dict] | None = None
            compute_start = compute_end = 0.0
            crash: WorkerCrashed | None = None
            error: Exception | None = None
            attempts = 0
            while True:
                worker = self._procs[worker_index]
                if worker is None:
                    crash = WorkerCrashed(
                        f"worker {worker_index} is gone and respawn is off"
                    )
                    break
                try:
                    compute_start = clock.now()
                    outputs, child_spans = worker.run_batch(
                        model, batch, trace=tracer.enabled
                    )
                    compute_end = clock.now()
                    break
                except WorkerCrashed as failure:
                    self.metrics.record_crash(worker_index)
                    try:
                        replacement = self._respawn(worker_index)
                    except Exception:
                        # Cold start of the replacement failed: retire the
                        # slot rather than hang this batch's waiters.
                        self._procs[worker_index] = None
                        replacement = None
                    # A batch the child never received may retry once on
                    # the fresh worker; anything else fails fast (the
                    # child may have started computing it).
                    if (replacement is not None and not failure.delivered
                            and attempts == 0):
                        attempts += 1
                        continue
                    crash = failure
                    break
                except Exception as failure:
                    error = failure
                    break
            if crash is not None:
                for request in live:
                    request.fail(crash)
                self.metrics.record_failed(model, len(live))
                self.metrics.record_worker_busy(
                    worker_index, time.perf_counter() - start
                )
                if self._procs[worker_index] is None:
                    # Slot retired: remaining workers keep draining the
                    # queue; leftovers are failed at close().
                    return
                continue
            if error is not None:
                for request in live:
                    request.fail(error)
                self.metrics.record_failed(model, len(live))
                self.metrics.record_worker_busy(
                    worker_index, time.perf_counter() - start
                )
                continue
            for row, request in enumerate(live):
                request.complete(np.array(outputs[row]), len(live))
            if tracer.enabled:
                # The SUBMIT round trip is the batch's compute interval on
                # the parent timeline; the child's relative spans re-anchor
                # to its start, so they nest inside ``fleet.submit``.
                tracer.add_span(
                    "fleet.submit", compute_start,
                    compute_end - compute_start,
                    cat="fleet", tid=worker_index,
                    args={
                        "model": model, "batch": len(live),
                        "worker": worker_index,
                    },
                )
                if child_spans:
                    tracer.extend(reanchor_spans(
                        child_spans, compute_start,
                        pid=tracer.pid, tid=worker_index,
                        extra_args={"worker": worker_index},
                    ))
                self._emit_request_spans(
                    tracer, model, live, compute_start, compute_end,
                    worker_index,
                )
            self.metrics.record_batch(
                model,
                [request.latency_ms for request in live],
                worker_index,
                time.perf_counter() - start,
            )
        # Graceful drain: every batch handed to this dispatcher is resolved;
        # now let the child exit cleanly.
        worker = self._procs[worker_index]
        if worker is not None:
            worker.shutdown()

    def _respawn(self, worker_index: int) -> ProcessWorker | None:
        """Replace a crashed worker process, or retire its slot."""
        old = self._procs[worker_index]
        if old is not None:
            old.kill()
        if not self._respawn_enabled or self._closed:
            self._procs[worker_index] = None
            return None
        replacement = ProcessWorker(
            worker_index,
            self._packs,
            heartbeat_s=self.heartbeat_s,
            max_missed=self.max_missed_heartbeats,
            start_method=self._start_method,
        )
        self._procs[worker_index] = replacement
        self._restarts[worker_index] += 1
        return replacement

    # -- client API ----------------------------------------------------------
    def submit(
        self,
        model: str,
        x: np.ndarray,
        deadline_ms: float | None = None,
    ) -> FleetHandle:
        """Enqueue one sample for ``model``; returns a waitable handle.

        Raises:
            ValueError: For an unregistered model name or a batched input.
            FleetClosed: After :meth:`close`.
            QueueFull: When ``model``'s queue is at ``max_queue`` — the
                rejection is also counted in the metrics.
        """
        if model not in self._plans:
            raise ValueError(
                f"unknown model {model!r}; registered: "
                f"{', '.join(sorted(self._plans))}"
            )
        x = np.asarray(x)
        expected = tuple(self._plans[model].input_shape)
        if x.shape != expected:
            raise ValueError(
                f"model {model!r} expects one sample of shape "
                f"{expected}, got {x.shape}"
            )
        request = _FleetRequest(model, x, deadline_ms)
        # Acceptance is recorded *before* the enqueue: the moment the
        # request is visible to a worker it may complete, and the metrics
        # invariant (accepted >= completed + failed + shed) must hold at
        # every snapshot, not only at quiescence.
        self.metrics.record_accepted(model)
        try:
            self._scheduler.submit(request)
        except Exception:
            self.metrics.record_unaccepted(model)
            raise
        return FleetHandle(request)

    def submit_with_retry(
        self,
        model: str,
        x: np.ndarray,
        deadline_ms: float | None = None,
        retry: "RetryPolicy | None" = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> FleetHandle:
        """:meth:`submit` with bounded, backed-off retries on ``QueueFull``.

        Backpressure is transient by design — a full queue drains as
        workers pull batches — so the client-side answer is a few spaced
        retries rather than instant failure.  Uses the shared
        :class:`repro.resilience.RetryPolicy` (default:
        ``RetryPolicy()``, 2 retries with decorrelated-jitter backoff) and
        re-raises ``QueueFull`` once the budget is spent.  Only
        ``QueueFull`` is retried: ``FleetClosed`` (and every other error)
        propagates immediately — retrying a shut-down fleet can never
        succeed.  ``sleep`` is injectable for deterministic tests.

        Raises:
            QueueFull: When the queue is still full after the last retry.
            FleetClosed: Immediately after :meth:`close` — never retried.
            ValueError: For unknown models or bad shapes — never retried.
        """
        from repro.resilience.retry import RetryPolicy

        policy = retry if retry is not None else RetryPolicy()
        tracer = get_tracer()
        delays = iter(policy.schedule())
        attempt = 0
        while True:
            try:
                return self.submit(model, x, deadline_ms)
            except QueueFull:
                attempt += 1
                if attempt > policy.max_retries:
                    raise
                if tracer.enabled:
                    tracer.counter("fleet.submit_retries", float(attempt),
                                   cat="fleet")
                sleep(next(delays))

    def infer(
        self,
        model: str,
        x: np.ndarray,
        deadline_ms: float | None = None,
        timeout: float | None = None,
    ) -> np.ndarray:
        """Blocking convenience wrapper: ``submit(...).result(timeout)``."""
        return self.submit(model, x, deadline_ms).result(timeout)

    def models(self) -> list[str]:
        """Registered model names, sorted."""
        return sorted(self._plans)

    # -- observability -------------------------------------------------------
    def _worker_info(self, index: int) -> dict:
        """Process-tier liveness block for one worker slot."""
        if self.kind == "thread":
            return {
                "kind": "thread",
                "alive": self._threads[index].is_alive(),
                "restarts": 0,
                "pid": None,
            }
        worker = self._procs[index]
        return {
            "kind": "process",
            "alive": worker.alive if worker is not None else False,
            "restarts": self._restarts[index],
            "pid": worker.pid if worker is not None else None,
        }

    def stats(self) -> dict:
        """JSON-serialisable serving state.

        Per-model and fleet-wide counters and latency percentiles from
        :class:`~repro.runtime.fleet.metrics.ServingMetrics`; per-worker
        blocks carry the worker kind, liveness, pid and respawn count (the
        schema is identical across tiers — thread workers report
        ``pid: None`` and ``restarts: 0``); plus the weight-sharing ledger:
        bytes of baked weights mapped once per model versus what
        ``workers`` private copies would have cost.
        """
        snapshot = self.metrics.snapshot(self._scheduler.depths())
        for index, block in enumerate(snapshot["workers"]):
            block.update(self._worker_info(index))
        shared = sum(pack.nbytes for pack in self._packs.values())
        snapshot["config"] = {
            "workers": self.workers,
            "kind": self.kind,
            "max_batch": self.max_batch,
            "max_queue": self._scheduler.max_queue,
            "models": self.models(),
        }
        snapshot["weights"] = {
            "shared_bytes": shared,
            "unshared_bytes": shared * self.workers,
            "per_model_bytes": {
                name: pack.nbytes for name, pack in sorted(self._packs.items())
            },
        }
        return snapshot

    # -- lifecycle -----------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Shut down: stop admission, drain workers, fail leftovers.

        Dispatcher/worker threads finish the batch they hold (graceful
        drain — in-flight requests are answered, not abandoned), process
        workers receive SHUTDOWN and are joined (escalating to kill on
        timeout), and requests still queued when the workers exit are
        failed with :class:`~repro.runtime.fleet.requests.FleetClosed` — no
        waiter hangs.  Idempotent.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._scheduler.close()
        for thread in self._threads:
            thread.join(timeout)
        for proc in self._procs:
            # Normally shut down by their dispatcher; this catches workers
            # whose dispatcher thread had to be abandoned on join timeout.
            if proc is not None and proc.alive:
                proc.kill()
        leftovers = self._scheduler.drain()
        for request in leftovers:
            request.fail(FleetClosed(
                "fleet shut down before serving this request"
            ))
        if leftovers:
            by_model: dict[str, int] = {}
            for request in leftovers:
                by_model[request.model] = by_model.get(request.model, 0) + 1
            for model, count in by_model.items():
                self.metrics.record_failed(model, count)
        if self.kind == "process":
            for pack in self._packs.values():
                pack.unlink()

    def __enter__(self) -> "ServingFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
