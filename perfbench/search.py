"""The search workload, ``search-reduced``.

It runs whole ``api.search`` calls on the reduced space, with a checkpoint
every epoch, until the run time is spent.

An untraced run measures steps and epochs with :class:`SearchProbe`, which
also samples the host speed before steps (:mod:`perfbench.speed`); every
step, epoch and set-up is reported at nominal host speed.  A traced run
repeats the untraced pass, then makes a second pass with the process tracer
on and the layer timers installed.
"""

from __future__ import annotations

import math
import tempfile
import time
from pathlib import Path

import numpy as np

from perfbench import checks, params
from perfbench.host import peak_rss_mib
from perfbench.layers import SearchProbe, step_layer_names
from perfbench.metrics import Outcome
from perfbench.speed import HostSpeed
from perfbench.stats import median

#: Least time between host speed samples: the steps take ~20 ms, so
#: sampling before each would add a quarter to the run.
_SAMPLE_EVERY_S = 0.1


def search_seed(seed: int, index: int) -> int:
    """The seed of the ``index``-th search of a run with ``seed``."""
    state = np.random.SeedSequence([seed, index]).generate_state(1)
    return int(state[0] >> 1)


def _pass(seed: int, seconds: float, probe: SearchProbe,
                  tmp: Path) -> dict:
    """Whole api.search calls until ``seconds`` have passed.

    Set-ups are ``(seconds, start, end)``: call start to first weight step.
    """
    from repro import api

    setups, specs = [], []
    probe.speed.sample()
    start = time.perf_counter()
    with probe:
        index = 0
        while True:
            with tempfile.TemporaryDirectory(dir=tmp) as ckpt_dir:
                probe.first_step_at = None
                called = time.perf_counter()
                report = api.search(api.SearchRequest(
                    seed=search_seed(seed, index), checkpoint_dir=ckpt_dir,
                    **params.SEARCH_REDUCED,
                ))
            setups.append((probe.first_step_at - called, called,
                           probe.first_step_at))
            specs.append(report.result.spec)
            index += 1
            if time.perf_counter() - start >= seconds:
                break
    return {"setups": setups, "specs": specs}


def _reference_loss(tmp: Path) -> float:
    from repro import api

    with tempfile.TemporaryDirectory(dir=tmp) as ckpt_dir:
        config = dict(params.SEARCH_REDUCED, epochs=1)
        report = api.search(api.SearchRequest(
            seed=params.REFERENCE_SEED, checkpoint_dir=ckpt_dir, **config,
        ))
    return report.result.history[0].train_loss


def _scaled_ms(probe: SearchProbe, speed: HostSpeed | None) -> dict:
    """Every step and arch-step epoch in ms, at nominal host speed.

    With ``speed=None`` the times are left as measured.  Only epochs that
    ran arch steps count, so the weight-only warm-up epoch of a reduced
    search never stands in for one.
    """
    def scale(seconds: float, start: float, end: float) -> float:
        if speed is None:
            return seconds * 1e3
        return speed.scaled(seconds, start, end) * 1e3

    out = {
        kind: [scale(w, s, s + w)
               for s, w in zip(probe.step_at[kind], probe.step_s[kind])]
        for kind in ("weight", "arch")
    }
    epochs = [e for e in probe.epochs if e.arch]
    out["epoch"] = [scale(e.wall, e.start, e.end) for e in epochs]
    out["epoch_images"] = [e.images for e in epochs]
    return out


def _medians(times: dict) -> dict:
    return {kind: median(times[kind]).value
            for kind in ("weight", "arch", "epoch")}


def _end_to_end(probe: SearchProbe, setups: list[tuple],
                speed: HostSpeed) -> tuple[dict, dict]:
    """Whole-run medians of steps, epochs and set-ups at nominal speed."""
    times = _scaled_ms(probe, speed)
    setup = median([speed.scaled(*s) for s in setups])
    run = _medians(times)
    metrics = {
        "setup_s": setup.value,
        "lat_low_ms": run["weight"],
        "lat_mid_ms": run["arch"],
        "lat_high_ms": run["epoch"],
        "work_per_s": sum(times["epoch_images"]) / sum(times["epoch"]) * 1e3,
    }
    details = {
        "samples": {
            "setup_s": setup.n,
            "weight_steps": len(times["weight"]),
            "arch_steps": len(times["arch"]),
            "epochs_with_arch_steps": len(times["epoch"]),
        },
        "measured_median_ms": _medians(_scaled_ms(probe, None)),
        "measured_setup_s": median([s[0] for s in setups]).value,
        "host_speed": speed.summary(),
    }
    return metrics, details


def _per_layer(probe: SearchProbe) -> tuple[dict, list[str]]:
    epochs = len(probe.epochs)
    problems = []
    if epochs == 0:
        return {}, ["traced pass completed no epoch"]
    layers = {
        f"{name}_ms": probe.layer_s.get(name, 0.0) * 1e3 / epochs
        for name in step_layer_names()
    }
    step_wall = sum(e.steps for e in probe.epochs) * 1e3 / epochs
    step_other = step_wall - sum(layers.values())
    if step_other < 0:
        problems.append(
            f"wrapped layers ({sum(layers.values()):.3f} ms) exceed the step "
            f"wall ({step_wall:.3f} ms): a layer was counted twice"
        )
    out = dict(layers)
    out.update({
        "core.step_other_ms": step_other,
        "core.step_wall_ms": step_wall,
        "core.checkpoint_ms": sum(e.checkpoint for e in probe.epochs) * 1e3 / epochs,
        "core.epoch_other_ms": sum(e.other for e in probe.epochs) * 1e3 / epochs,
        "core.epoch_wall_ms": sum(e.wall for e in probe.epochs) * 1e3 / epochs,
        "search.cpu_per_wall": probe.step_cpu_s / probe.step_wall_s,
        "search.weight_steps": float(len(probe.step_s["weight"])),
        "search.arch_steps": float(len(probe.step_s["arch"])),
    })
    return out, problems


def _non_finite(losses: list[float]) -> int:
    return sum(1 for value in losses if not math.isfinite(value))


def _check_pass(probe: SearchProbe, specs: list, what: str) -> list[str]:
    problems = checks.finite_losses(probe.losses, f"{what} step losses")
    for spec in specs:
        problems += checks.buildable(spec, what)
    return problems


def run(seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    """The ``search-reduced`` workload."""
    from repro.obs import Tracer, set_tracer

    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    speed = HostSpeed(every_s=_SAMPLE_EVERY_S)

    plain = SearchProbe(speed=speed)
    first = _pass(seed, seconds, plain, tmp)
    speed.sample()  # the last step's later neighbour
    rss = peak_rss_mib()
    outcome.problems += _check_pass(plain, first["specs"], "untraced pass")
    metrics, details = _end_to_end(plain, first["setups"], speed)
    outcome.attempted = plain.steps
    outcome.failed = _non_finite(plain.losses)
    outcome.details.update(details)

    if not trace:
        metrics["peak_rss_mib"] = rss
        outcome.end_to_end = metrics
    else:
        tracer = Tracer(enabled=True)
        traced = SearchProbe(layers=True, tracer=tracer, speed=speed)
        previous = set_tracer(tracer)
        try:
            second = _pass(seed, seconds, traced, tmp)
        finally:
            set_tracer(previous)
        speed.sample()
        outcome.problems += _check_pass(traced, second["specs"], "traced pass")
        layers, problems = _per_layer(traced)
        outcome.problems += problems
        layers["obs.trace_overhead"] = (
            _medians(_scaled_ms(traced, speed))["epoch"] / metrics["lat_high_ms"]
        )
        layers["obs.trace_events"] = float(len(tracer))
        outcome.per_layer = layers
        outcome.attempted += traced.steps
        outcome.failed += _non_finite(traced.losses)
        outcome.details["trace_events"] = tracer.events()

    loss = _reference_loss(tmp)
    outcome.problems += checks.reference_loss(
        loss, params.REFERENCE_LOSS, params.REFERENCE_RTOL,
        f"reference seed {params.REFERENCE_SEED}",
    )
    outcome.details["reference_loss"] = loss
    return outcome
