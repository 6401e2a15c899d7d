"""Process worker tier: pipe control protocol, heartbeats, crash detection.

Thread workers share the parent's memory; process workers get true core
parallelism (no GIL) at the cost of an explicit control protocol.  One
worker = one child process + one duplex pipe, driven by a parent-side
dispatcher thread.  Frames on the wire (plain picklable tuples):

========= =========== ===================================================
direction frame        meaning
========= =========== ===================================================
child →   ``READY``    cold start finished: every plan's weights are
                       memmapped (read-only, pages shared with the parent
                       and every sibling worker), pid attached
child →   ``HB``       heartbeat — sent every ``heartbeat_s`` by a
                       background thread; silence is how hangs are caught
child →   ``RESULT``   ``(seq, outputs, spans)`` for an earlier ``SUBMIT``;
                       ``spans`` is ``None`` unless tracing was requested,
                       else a list of span events with timestamps relative
                       to the child's receipt of the batch (the parent
                       re-anchors them — :func:`repro.obs.reanchor_spans`)
child →   ``ERROR``    ``(seq, exception)`` — engine-side failure; the
                       worker is still healthy and keeps serving
parent →  ``SUBMIT``   ``(seq, model, batch, trace)`` — run one coalesced
                       batch; ``trace`` asks the child to time its work
                       into RESULT's span list
parent →  ``SHUTDOWN`` graceful drain: finish nothing new, exit cleanly
========= =========== ===================================================

Crash detection is the parent's job: a dead pipe (``EOFError`` /
``BrokenPipeError``), a dead process, or ``max_missed`` heartbeat intervals
of silence all raise :class:`~repro.runtime.fleet.requests.WorkerCrashed`
from :meth:`ProcessWorker.run_batch` — the dispatcher fails the in-flight
batch fast (no waiter ever hangs) and may respawn the worker.

Cold start ships **no weight bytes**: the child receives each model's
:class:`~repro.runtime.fleet.weights.PlanWeightPack` (structural plan +
memmap file path) and restores read-only ``np.memmap`` views, so weights
stay one shared file-backed copy per model across the whole fleet.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from typing import Any, Mapping

import numpy as np

from repro.resilience import testing as faults
from repro.runtime.fleet.requests import WorkerCrashed
from repro.runtime.fleet.weights import PlanWeightPack

#: Frame tags of the control protocol (first tuple element).
READY = "READY"
HEARTBEAT = "HB"
RESULT = "RESULT"
ERROR = "ERROR"
SUBMIT = "SUBMIT"
SHUTDOWN = "SHUTDOWN"

#: Default child start method: ``spawn`` is fork-safety-proof (the parent
#: runs dispatcher threads) and exercises the true cold-start path.
DEFAULT_START_METHOD = "spawn"


def _apply_fault(action: str, stop_heartbeat: threading.Event) -> None:
    """Execute one scripted fault ``action`` inside the child (test hook)."""
    if action == faults.CRASH:
        # Die mid-batch without a goodbye — the parent sees a dead pipe.
        os._exit(13)
    elif action == faults.HANG:
        # Go silent: stop heartbeating but stay alive, holding the batch.
        # Only the parent's missed-heartbeat kill can end this state.
        stop_heartbeat.set()
        time.sleep(3600.0)
    delay = faults.slow_seconds(action)
    if delay is not None:
        # Slow batch: compute is delayed but heartbeats keep flowing, so
        # the parent must NOT declare this worker dead.
        time.sleep(delay)


def worker_main(
    conn,
    packs: Mapping[str, PlanWeightPack],
    heartbeat_s: float,
    fault_script: list[str] | None = None,
) -> None:
    """Child-process entry point: restore plans, heartbeat, serve batches.

    Restores every pack's weights as read-only memmaps *before* sending
    ``READY`` (the parent may unlink the backing files only after the fleet
    closes), then loops on control frames.  Engines are built lazily per
    model.  ``fault_script`` is the deterministic test hook: one action
    per SUBMIT, consumed in order, from :mod:`repro.resilience.testing`
    (``CRASH``, ``HANG``, ``slow(s)``, ``ERROR``; anything else serves
    normally).
    """
    from repro.runtime.engine import Engine

    plans = {name: pack.restore() for name, pack in packs.items()}
    engines: dict[str, Any] = {}
    script = list(fault_script or [])
    send_lock = threading.Lock()
    stop_heartbeat = threading.Event()

    def _send(frame) -> None:
        with send_lock:
            conn.send(frame)

    def _beat() -> None:
        while not stop_heartbeat.wait(heartbeat_s):
            try:
                _send((HEARTBEAT,))
            except (OSError, ValueError):
                return

    _send((READY, os.getpid()))
    heartbeat = threading.Thread(
        target=_beat, name="fleet-heartbeat", daemon=True
    )
    heartbeat.start()
    try:
        while True:
            try:
                frame = conn.recv()
            except (EOFError, OSError):
                return
            if frame[0] == SHUTDOWN:
                return
            _, seq, model, batch, trace = frame
            # Span timestamps are relative to batch receipt (the child's
            # time zero); the parent re-anchors them onto its own timeline.
            received = time.perf_counter()
            spans: list[dict] | None = [] if trace else None
            action = script.pop(0) if script else faults.OK
            _apply_fault(action, stop_heartbeat)
            try:
                if action == faults.ERROR:
                    raise RuntimeError(
                        f"injected engine error for model {model!r}"
                    )
                engine = engines.get(model)
                if engine is None:
                    build_start = time.perf_counter()
                    engine = engines[model] = Engine(plans[model])
                    if spans is not None:
                        spans.append({
                            "ph": "X", "name": "worker.engine_build",
                            "cat": "fleet", "ts": build_start - received,
                            "dur": time.perf_counter() - build_start,
                            "pid": os.getpid(), "tid": 0,
                            "args": {"model": model},
                        })
                run_start = time.perf_counter()
                outputs = np.asarray(engine.run(batch))
                if spans is not None:
                    spans.append({
                        "ph": "X", "name": "worker.compute", "cat": "fleet",
                        "ts": run_start - received,
                        "dur": time.perf_counter() - run_start,
                        "pid": os.getpid(), "tid": 0,
                        "args": {"model": model, "batch": int(len(batch))},
                    })
            except Exception as error:
                try:
                    _send((ERROR, seq, error))
                except Exception:
                    # Unpicklable exception: ship the repr instead.
                    _send((ERROR, seq, RuntimeError(repr(error))))
                continue
            _send((RESULT, seq, outputs, spans))
    finally:
        stop_heartbeat.set()
        try:
            conn.close()
        except OSError:
            pass


class ProcessWorker:
    """Parent-side handle for one fleet worker process.

    Owns the child process, its pipe, the SUBMIT sequence counter and the
    heartbeat ledger.  Exactly one dispatcher thread drives each instance —
    the pipe's parent end is single-reader by construction.

    Args:
        index: Fleet worker slot (names the process).
        packs: Per-model weight packs the child cold-starts from.
        heartbeat_s: Child heartbeat interval in seconds.
        max_missed: Heartbeat intervals of silence before the worker is
            declared hung and killed.
        start_timeout: Bound on cold start (process spawn + plan restore).
        fault_script: Optional deterministic fault actions (tests only).
        start_method: ``multiprocessing`` start method; default ``spawn``.
    """

    def __init__(
        self,
        index: int,
        packs: Mapping[str, PlanWeightPack],
        heartbeat_s: float = 0.25,
        max_missed: int = 8,
        start_timeout: float = 60.0,
        fault_script: list[str] | None = None,
        start_method: str | None = None,
    ) -> None:
        self.index = index
        self.heartbeat_s = float(heartbeat_s)
        self.max_missed = int(max_missed)
        ctx = mp.get_context(start_method or DEFAULT_START_METHOD)
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=worker_main,
            args=(child_conn, dict(packs), self.heartbeat_s, fault_script),
            name=f"fleet-proc-{index}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.last_seen = time.monotonic()
        self.seq = 0
        self.pid: int | None = None
        try:
            frame = self._recv(start_timeout)
        except WorkerCrashed:
            self.kill()
            raise
        if frame is None or frame[0] != READY:
            self.kill()
            raise WorkerCrashed(
                f"worker {index} failed to cold-start within {start_timeout}s"
            )
        self.pid = frame[1]

    # -- wire helpers --------------------------------------------------------
    def _recv(self, timeout: float):
        """One frame from the child, or ``None`` after ``timeout`` seconds.

        Raises:
            WorkerCrashed: On a dead pipe or a dead child process.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            try:
                if self.conn.poll(min(remaining, self.heartbeat_s)):
                    frame = self.conn.recv()
                    self.last_seen = time.monotonic()
                    return frame
            except (EOFError, OSError) as error:
                raise WorkerCrashed(
                    f"worker {self.index} (pid {self.pid}) closed its pipe: "
                    f"{error!r}"
                ) from error
            if not self.proc.is_alive():
                # Dead process with an empty pipe: nothing more is coming.
                raise WorkerCrashed(
                    f"worker {self.index} (pid {self.pid}) exited with code "
                    f"{self.proc.exitcode}"
                )

    # -- batch execution -----------------------------------------------------
    def run_batch(
        self, model: str, batch: np.ndarray, trace: bool = False
    ) -> tuple[np.ndarray, list[dict] | None]:
        """Ship one batch and block for its result.

        Multiplexes heartbeats while waiting; a slow batch that keeps
        heartbeating waits indefinitely, a silent one is killed after
        ``max_missed`` intervals.

        Returns ``(outputs, spans)``: with ``trace=True`` the child times
        its engine build/compute into ``spans`` (timestamps relative to its
        receipt of the batch, for the parent to re-anchor); otherwise
        ``spans`` is ``None``.

        Raises:
            WorkerCrashed: Dead pipe / dead process / missed heartbeats.
                ``delivered=False`` when the SUBMIT frame never reached the
                child (safe to retry elsewhere).
            Exception: An engine-side error, re-raised as shipped.
        """
        self.seq += 1
        seq = self.seq
        try:
            self.conn.send((SUBMIT, seq, model, batch, bool(trace)))
        except (OSError, ValueError) as error:
            self.kill()
            raise WorkerCrashed(
                f"worker {self.index} (pid {self.pid}) pipe rejected a "
                f"batch: {error!r}",
                delivered=False,
            ) from error
        # Silence is measured from submission: while idle the dispatcher
        # does not drain the pipe, so heartbeats accumulate unread and
        # ``last_seen`` goes stale without the worker being unhealthy.
        self.last_seen = time.monotonic()
        silence_budget = self.heartbeat_s * self.max_missed
        while True:
            frame = self._recv(
                self.last_seen + silence_budget - time.monotonic()
            )
            if frame is None:
                self.kill()
                raise WorkerCrashed(
                    f"worker {self.index} (pid {self.pid}) missed "
                    f"{self.max_missed} heartbeats while serving {model!r}"
                )
            if frame[0] == HEARTBEAT:
                continue
            if frame[0] == RESULT and frame[1] == seq:
                return frame[2], frame[3]
            if frame[0] == ERROR and frame[1] == seq:
                error = frame[2]
                if isinstance(error, BaseException):
                    raise error
                raise RuntimeError(str(error))
            # Stale frame from a pre-respawn lifetime: ignore and keep
            # waiting for this sequence number.

    # -- lifecycle -----------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the child process is running."""
        return self.proc.is_alive()

    def shutdown(self, timeout: float = 5.0) -> None:
        """Graceful drain: send SHUTDOWN, join; escalate to kill on timeout."""
        try:
            self.conn.send((SHUTDOWN,))
        except (OSError, ValueError):
            pass
        self.proc.join(timeout)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout)
        self._close_conn()

    def kill(self) -> None:
        """Hard-stop the child (crash path); idempotent."""
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(5.0)
        self._close_conn()

    def _close_conn(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
