"""Open-loop load generator that times each request from its due time.

:func:`schedule` fixes every arrival in advance from a seed: Poisson arrivals
at an absolute rate plus periodic bursts.  :func:`drive` submits each one
when it is due, from the calling thread, and records how late it was sent.
:func:`collect` then waits for the answers.  A request's latency runs from
when it was *due*, not from when it was enqueued, so a stalled submit (or a
generator that falls behind) shows up in the latency of every request it
delayed, and the lateness itself is reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class Arrival:
    """One request of the schedule: when it is due, for which model/input."""

    due: float  # seconds after the start of the trace
    model: str
    index: int  # input index in the model's pool


@dataclass
class Sent:
    """One submitted (or refused) request."""

    arrival: Arrival
    late: float  # seconds between the due time and the submit call
    handle: Any = None
    error: BaseException | None = None


@dataclass
class Answer:
    """The outcome of one request."""

    arrival: Arrival
    latency_ms: float | None  # from the due time; None when it failed
    output: Any = None
    error: BaseException | None = None


def schedule(seed: int, rate: float, seconds: float, models: Sequence[str],
             pool: int, burst_size: int, burst_period: float) -> list[Arrival]:
    """Seeded arrivals over ``[0, seconds)``, sorted by due time.

    Poisson arrivals at ``rate`` per second, plus ``burst_size`` requests
    due together at every multiple of ``burst_period``.  Each request picks
    its model and input uniformly.

    Raises:
        ValueError: For a non-positive rate, duration or burst period.
    """
    if rate <= 0 or seconds <= 0 or burst_period <= 0:
        raise ValueError("rate, seconds and burst_period must be positive")
    rng = np.random.default_rng([seed, 2])
    dues: list[float] = []
    t = rng.exponential(1.0 / rate)
    while t < seconds:
        dues.append(t)
        t += rng.exponential(1.0 / rate)
    burst = burst_period
    while burst < seconds:
        dues.extend([burst] * burst_size)
        burst += burst_period
    dues.sort()
    picks = rng.integers(len(models), size=len(dues))
    inputs = rng.integers(pool, size=len(dues))
    return [
        Arrival(float(due), models[int(m)], int(i))
        for due, m, i in zip(dues, picks, inputs)
    ]


def drive(arrivals: Sequence[Arrival], submit: Callable[[str, int], Any],
          refused: tuple[type[BaseException], ...] = (),
          clock: Callable[[], float] = time.perf_counter,
          sleep: Callable[[float], None] = time.sleep) -> list[Sent]:
    """Submit every arrival at its due time from this thread.

    ``submit(model, index)`` returns a handle with ``result(timeout)`` and
    ``latency_ms`` (enqueue to answer).  Exceptions of the ``refused`` types
    are recorded as refusals; any other exception propagates.
    """
    start = clock()
    sent = []
    for arrival in arrivals:
        wait = start + arrival.due - clock()
        if wait > 0:
            sleep(wait)
        late = clock() - (start + arrival.due)
        try:
            handle = submit(arrival.model, arrival.index)
        except refused as error:
            sent.append(Sent(arrival, late, error=error))
            continue
        sent.append(Sent(arrival, late, handle=handle))
    return sent


def collect(sent: Sequence[Sent], timeout: float,
            clock: Callable[[], float] = time.perf_counter) -> list[Answer]:
    """Wait (``timeout`` seconds in all) for every answer.

    A request that was refused, failed, or was not answered in time is an
    :class:`Answer` with ``latency_ms=None`` and the error.
    """
    deadline = clock() + timeout
    answers = []
    for item in sent:
        if item.handle is None:
            answers.append(Answer(item.arrival, None, error=item.error))
            continue
        try:
            output = item.handle.result(max(deadline - clock(), 0.0))
        except Exception as error:  # shed, closed, crashed, timed out
            answers.append(Answer(item.arrival, None, error=error))
            continue
        latency = item.late * 1e3 + item.handle.latency_ms
        answers.append(Answer(item.arrival, latency, output=output))
    return answers
