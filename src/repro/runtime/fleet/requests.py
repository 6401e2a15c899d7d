"""Request objects and admission-control exceptions of the serving fleet.

A submitted sample becomes a :class:`_FleetRequest` (the fleet's internal
record) wrapped in a :class:`FleetHandle` (the caller-side future).  The
exception vocabulary is explicit so clients can route on it:

* :class:`QueueFull` — admission control rejected the request (bounded
  per-model queue at capacity); the client should back off or shed load.
* :class:`DeadlineExceeded` — the request's deadline passed while it was
  still queued; the fleet shed it *before* spending compute on it.
* :class:`FleetClosed` — submitted to a fleet that is shutting down (or a
  request was still queued when shutdown drained the queues).
* :class:`WorkerCrashed` — the process worker holding this request's batch
  died (dead pipe) or went silent (missed heartbeats); the fleet failed the
  batch fast instead of letting its waiters hang.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from repro.runtime.fleet import clock

#: Monotonic request ids — stable join key between a request's lifecycle
#: spans (``request`` / ``request.queued`` / ``request.compute`` share the
#: same ``req`` arg in the trace).
_REQUEST_IDS = itertools.count(1)


class QueueFull(RuntimeError):
    """Admission control rejected the request: the model's queue is full."""


class DeadlineExceeded(RuntimeError):
    """The request's deadline expired while queued; it was shed unserved."""


class FleetClosed(RuntimeError):
    """The fleet is shut down (or shut down before serving this request)."""


class WorkerCrashed(RuntimeError):
    """A process worker died or went silent while holding this request.

    Raised to waiters when crash detection (dead pipe, process exit, or
    ``max_missed_heartbeats`` silent intervals) fires while their batch was
    in flight.  ``delivered`` records whether the batch was ever handed to
    the worker: ``False`` means the control frame never left the parent, so
    the fleet may safely retry the batch on a fresh worker; ``True`` means
    the worker may have started computing and a retry could double-serve.
    """

    def __init__(self, message: str, delivered: bool = True) -> None:
        super().__init__(message)
        self.delivered = delivered


class _FleetRequest:
    """One in-flight sample: payload, deadline, and its completion event."""

    __slots__ = (
        "model", "x", "event", "output", "error", "enqueued_at",
        "dispatched_at", "deadline_at", "completed_at", "batch_size",
        "latency_ms", "req_id",
    )

    def __init__(
        self, model: str, x: np.ndarray, deadline_ms: float | None = None
    ) -> None:
        self.model = model
        self.x = x
        self.event = threading.Event()
        self.output: np.ndarray | None = None
        self.error: BaseException | None = None
        self.req_id = next(_REQUEST_IDS)
        self.enqueued_at = clock.now()
        # Stamped by the scheduler when a worker pops the request; the
        # enqueue→dispatch gap is the queue wait the trace layer reports.
        self.dispatched_at = self.enqueued_at
        self.deadline_at = (
            self.enqueued_at + deadline_ms / 1e3
            if deadline_ms is not None else None
        )
        self.completed_at: float | None = None
        self.batch_size = 0
        self.latency_ms = 0.0

    def expired(self, now: float | None = None) -> bool:
        """True once the deadline (if any) has passed."""
        if self.deadline_at is None:
            return False
        return (clock.now() if now is None else now) >= self.deadline_at

    def fail(self, error: BaseException) -> None:
        """Complete the request exceptionally and wake the waiter."""
        self.error = error
        self.event.set()

    def complete(self, output: np.ndarray, batch_size: int) -> None:
        """Complete the request with its logits and wake the waiter."""
        self.completed_at = clock.now()
        self.latency_ms = (self.completed_at - self.enqueued_at) * 1e3
        self.output = output
        self.batch_size = batch_size
        self.event.set()


class FleetHandle:
    """Caller-side future for a request submitted to a :class:`ServingFleet`.

    ``result`` blocks until the fleet answers; shed and shutdown outcomes
    surface as :class:`DeadlineExceeded` / :class:`FleetClosed` so callers
    can distinguish them from engine failures.
    """

    __slots__ = ("_request",)

    def __init__(self, request: _FleetRequest) -> None:
        self._request = request

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block until served; returns the logits.

        Raises:
            TimeoutError: If the fleet does not answer within ``timeout``.
            DeadlineExceeded: If the request was shed on deadline.
            FleetClosed: If the fleet shut down before serving it.
            Exception: Any engine-side error, re-raised.
        """
        if not self._request.event.wait(timeout):
            raise TimeoutError(
                f"fleet request for {self._request.model!r} timed out"
            )
        if self._request.error is not None:
            raise self._request.error
        assert self._request.output is not None
        return self._request.output

    def done(self) -> bool:
        """True once the request completed (successfully or not)."""
        return self._request.event.is_set()

    @property
    def model(self) -> str:
        """Name of the model this request was routed to."""
        return self._request.model

    @property
    def latency_ms(self) -> float:
        """Enqueue-to-completion latency (valid once served)."""
        return self._request.latency_ms

    @property
    def completed_at(self) -> float | None:
        """Fleet-clock time the request was served (``None`` until then)."""
        return self._request.completed_at

    @property
    def batch_size(self) -> int:
        """Size of the coalesced batch this request rode in."""
        return self._request.batch_size
