"""The ``serve`` workload: an open loop against ``api.serve_fleet``.

Two networks are served with the product defaults (two thread workers,
``max_batch`` 8, ``max_queue`` 64).  One generator thread offers seeded
Poisson arrivals at a fixed absolute rate plus periodic bursts
(:mod:`perfbench.loadgen`), and latency runs from each request's due time.
Every answer is compared with an ``Engine.run`` reference for its input.
The traced pass replays the same schedule on the same fleet with the
process tracer on, and reads queue wait and compute from the fleet's own
request spans.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from perfbench import checks, loadgen, params
from perfbench.host import peak_rss_mib
from perfbench.metrics import Outcome
from perfbench.speed import HostSpeed
from perfbench.stats import median, percentile

P = params.SERVE
#: Latency percentiles recorded; p90, p95 and p99 are the gated slots.
_QUANTILES = (50.0, 90.0, 95.0, 99.0)


def _start_fleet():
    from repro import api

    return api.serve_fleet(
        {name: name for name in P["models"]},
        workers=P["workers"], worker_kind=P["worker_kind"],
        seed=P["weight_seed"], width_mult=P["width_mult"],
        input_size=P["input_size"], num_classes=P["num_classes"],
        max_batch=P["max_batch"], max_queue=P["max_queue"],
    )


def _warm(fleet, pools: dict) -> None:
    """Send bursts until every worker has served every model once.

    Thread workers build a model's engine on the first batch they take for
    it, so until then a request can pay that cost.

    Raises:
        RuntimeError: If some worker never takes a batch of some model.
    """
    burst = 2 * P["max_batch"]
    for model in fleet.models():
        for _ in range(50):
            before = [w["batches"] for w in fleet.stats()["workers"]]
            pool = pools[model]
            handles = [fleet.submit(model, pool[i % len(pool)])
                       for i in range(burst)]
            for handle in handles:
                handle.result(P["drain_timeout_s"])
            after = [w["batches"] for w in fleet.stats()["workers"]]
            if all(a > b for a, b in zip(after, before)):
                break
        else:
            raise RuntimeError(f"a worker never served {model!r} during warm-up")


def _setup(pools: dict, speed: HostSpeed) -> tuple[object, float]:
    """Start and warm a fleet; returns it and the seconds that took.

    The host speed is sampled before and after, and the seconds are at
    nominal host speed.
    """
    speed.sample()
    start = time.perf_counter()
    fleet = _start_fleet()
    try:
        _warm(fleet, pools)
    except BaseException:
        fleet.close()
        raise
    end = time.perf_counter()
    speed.sample()
    return fleet, speed.scaled(end - start, start, end)


def _pools(seed: int) -> dict[str, list[np.ndarray]]:
    rng = np.random.default_rng([seed, 3])
    shape = (3, P["input_size"], P["input_size"])
    return {
        model: [rng.standard_normal(shape).astype(np.float32)
                for _ in range(P["inputs_per_model"])]
        for model in P["models"]
    }


def _references(pools: dict) -> dict[str, list[np.ndarray]]:
    """Engine.run of each pooled input, one sample at a time."""
    from repro.baselines.model_zoo import get_model
    from repro.nas.arch_spec import scale_spec
    from repro.runtime import Engine, compile_spec

    refs = {}
    for model, pool in pools.items():
        spec = scale_spec(
            get_model(model, num_classes=P["num_classes"]),
            width_mult=P["width_mult"], input_size=P["input_size"],
            num_classes=P["num_classes"],
        )
        engine = Engine(compile_spec(spec, seed=P["weight_seed"]))
        refs[model] = [engine.run(x) for x in pool]
    return refs


def _fleet_totals(stats: dict) -> dict[str, float]:
    fleet = stats["fleet"]
    return {
        "completed": fleet["completed"],
        "rejected": fleet["rejected"],
        "shed": fleet["shed"],
        "failed": fleet["failed"],
        "batches": sum(w["batches"] for w in stats["workers"]),
        "busy_s": sum(w["busy_s"] for w in stats["workers"]),
    }


def _pass(fleet, pools: dict, arrivals: list) -> dict:
    from repro.runtime.fleet import QueueFull

    before = _fleet_totals(fleet.stats())
    start = time.perf_counter()
    sent = loadgen.drive(
        arrivals, lambda model, index: fleet.submit(model, pools[model][index]),
        refused=(QueueFull,),
    )
    answers = loadgen.collect(sent, P["drain_timeout_s"])
    wall = time.perf_counter() - start
    after = _fleet_totals(fleet.stats())
    return {
        "sent": sent,
        "answers": answers,
        "wall_s": wall,
        "delta": {key: after[key] - before[key] for key in after},
    }


def _latencies(answers: list) -> list[float]:
    return [a.latency_ms for a in answers if a.latency_ms is not None]


def _check(answers: list, refs: dict, what: str) -> list[str]:
    problems = []
    for answer in answers:
        if answer.output is None:
            continue
        arrival = answer.arrival
        problems += checks.outputs_close(
            answer.output, refs[arrival.model][arrival.index],
            params.OUTPUT_ATOL, params.OUTPUT_RTOL,
            f"{what} {arrival.model} input {arrival.index}",
        )
        if problems:
            break  # one mismatch is enough to fail the run
    return problems


def _span_durations_ms(events: list, name: str) -> list[float]:
    return [e["dur"] * 1e3 for e in events
            if e.get("ph") == "X" and e["name"] == name]


def _batch_compute_ms(events: list) -> list[float]:
    """One compute duration per served batch (its requests share the span)."""
    batches = {}
    for e in events:
        if e.get("ph") == "X" and e["name"] == "request.compute":
            batches[(e["tid"], e["ts"])] = e["dur"] * 1e3
    return list(batches.values())


def run(seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    """The ``serve`` workload."""
    from repro.obs import Tracer, set_tracer

    outcome = Outcome()
    pools = _pools(seed)
    arrivals = loadgen.schedule(
        seed, P["rate_rps"], seconds, P["models"], P["inputs_per_model"],
        P["burst_size"], P["burst_period_s"],
    )
    # One start-up before the passes, the others after them, so their
    # median is not taken in one phase of the host.
    speed = HostSpeed()
    fleet, first_setup = _setup(pools, speed)
    setups = [first_setup]
    try:
        plain = _pass(fleet, pools, arrivals)
        rss = peak_rss_mib()
        if trace:
            tracer = Tracer(enabled=True)
            previous = set_tracer(tracer)
            try:
                traced = _pass(fleet, pools, arrivals)
            finally:
                set_tracer(previous)
    finally:
        fleet.close()
    if not trace:
        for _ in range(params.SETUP_REPEATS - 1):
            extra, setup_s = _setup(pools, speed)
            extra.close()
            setups.append(setup_s)

    refs = _references(pools)
    passes = [("untraced pass", plain)] + ([("traced pass", traced)] if trace else [])
    for what, result in passes:
        outcome.attempted += len(result["answers"])
        outcome.failed += sum(1 for a in result["answers"] if a.latency_ms is None)
        outcome.problems += _check(result["answers"], refs, what)

    lat = _latencies(plain["answers"])
    if not lat:
        outcome.problems.append("no request was answered")
        return outcome
    quantiles = {q: percentile(lat, q) for q in _QUANTILES}
    within = sum(1 for v in lat if v <= P["latency_limit_ms"])
    setup = median(setups)
    outcome.details["samples"] = {"setup_s": setup.n, "offered": len(arrivals)}
    outcome.details["host_speed"] = speed.summary()
    outcome.details["latency_ms"] = [q.to_dict() for q in quantiles.values()]
    outcome.details["errors"] = sorted({
        type(a.error).__name__ for _, r in passes for a in r["answers"]
        if a.error is not None
    })
    if not trace:
        outcome.end_to_end = {
            "setup_s": setup.value,
            "peak_rss_mib": rss,
            "lat_low_ms": quantiles[90.0].value,
            "lat_mid_ms": quantiles[95.0].value,
            "lat_high_ms": quantiles[99.0].value,
            "work_per_s": within / seconds,
        }
        return outcome

    events = tracer.events()
    waits = _span_durations_ms(events, "request.queued")
    computes = _batch_compute_ms(events)
    delta = traced["delta"]
    late = [s.late * 1e3 for s in traced["sent"]]
    outcome.per_layer = {
        "fleet.queue_wait_p50_ms": percentile(waits, 50).value if waits else 0.0,
        "fleet.queue_wait_p99_ms": percentile(waits, 99).value if waits else 0.0,
        "fleet.compute_ms_per_batch": float(np.mean(computes)) if computes else 0.0,
        "fleet.mean_batch": delta["completed"] / max(delta["batches"], 1),
        "fleet.worker_util": delta["busy_s"] / (P["workers"] * traced["wall_s"]),
        "fleet.rejected": float(delta["rejected"]),
        "fleet.shed": float(delta["shed"]),
        "fleet.failed": float(delta["failed"]),
        "loadgen.late_p99_ms": percentile(late, 99).value,
        "obs.trace_overhead": (
            percentile(_latencies(traced["answers"]), 50.0).value
            / quantiles[50.0].value
        ),
        "obs.trace_events": float(len(events)),
    }
    outcome.details["trace_events"] = events
    return outcome
