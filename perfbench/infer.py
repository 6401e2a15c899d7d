"""The ``infer`` workload: a closed loop over ``Engine.run`` on one thread.

Six zoo networks are compiled with ``compile_spec`` and called at batch 1, 8
and 32, one call at a time, in a seeded order that covers every (model,
batch) pair once per round.  The host speed is sampled before every round
(:mod:`perfbench.speed`), and every call and set-up is reported at nominal
host speed.  The traced pass runs the same loop with the process tracer on
and ``Engine.run(profile=True)``, and splits each call's wall time into op
classes by the plan ops' attributes, plus dispatch (the call's wall time
not spent inside any op); those per-layer times are as measured.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from perfbench import checks, params
from perfbench.host import peak_rss_mib
from perfbench.metrics import BATCHES, OP_CLASSES, Outcome
from perfbench.speed import HostSpeed
from perfbench.stats import geomean, median

P = params.INFER


def op_class(op) -> str:
    """Time class of a plan op, from its kind and weight geometry."""
    if op.kind == "conv":
        _, in_per_group, kh, kw = op.weight.shape
        if op.attrs["groups"] > 1 and in_per_group == 1:
            return "conv_dw"
        if kh == kw == 1:
            return "conv_1x1"
        return "conv_kxk"
    if op.kind in ("maxpool", "avgpool", "gap"):
        return "pool"
    if op.kind == "linear":
        return "linear"
    return "add_concat"  # add, concat and flatten move data only


def _spec(name: str):
    from repro.baselines.model_zoo import get_model
    from repro.nas.arch_spec import scale_spec

    return scale_spec(
        get_model(name, num_classes=P["num_classes"]),
        width_mult=P["width_mult"], input_size=P["input_size"],
        num_classes=P["num_classes"],
    )


def _build() -> tuple[dict, float, float]:
    """Compile every model and run each batch size once (first arena)."""
    from repro.runtime import Engine, compile_spec

    start = time.perf_counter()
    compile_s = 0.0
    engines = {}
    shape = (3, P["input_size"], P["input_size"])
    for name in P["models"]:
        spec = _spec(name)
        begun = time.perf_counter()
        plan = compile_spec(spec, seed=P["weight_seed"])
        compile_s += time.perf_counter() - begun
        engine = Engine(plan)
        for batch in BATCHES:
            engine.run(np.zeros((batch,) + shape, dtype=np.float32))
        engines[name] = engine
    return engines, time.perf_counter() - start, compile_s * 1e3


def _inputs(seed: int) -> dict[int, list[np.ndarray]]:
    rng = np.random.default_rng(seed)
    shape = (3, P["input_size"], P["input_size"])
    return {
        batch: [
            rng.standard_normal((batch,) + shape).astype(np.float32)
            for _ in range(P["inputs_per_batch"])
        ]
        for batch in BATCHES
    }


def _loop(engines: dict, inputs: dict, seconds: float, seed: int,
          speed: HostSpeed, profile: bool = False) -> dict:
    """Whole rounds over every (model, batch) pair until ``seconds`` pass.

    The host speed is sampled before each round and once after the last.
    """
    pairs = [(name, batch) for name in engines for batch in BATCHES]
    classes = {name: [op_class(op) for op in engine.plan.ops]
               for name, engine in engines.items()}
    order_rng = np.random.default_rng([seed, 1])
    rounds = []
    class_ms = {batch: dict.fromkeys(OP_CLASSES, 0.0) for batch in BATCHES}
    calls_at = dict.fromkeys(BATCHES, 0)
    start = time.perf_counter()
    while True:
        speed.sample()
        round_start = time.perf_counter()
        latency = {}
        for index in order_rng.permutation(len(pairs)):
            name, batch = pairs[index]
            engine = engines[name]
            x = inputs[batch][calls_at[batch] % len(inputs[batch])]
            if profile:
                engine.reset_profile()
            begun = time.perf_counter()
            engine.run(x, profile=profile)
            latency[(name, batch)] = (time.perf_counter() - begun) * 1e3
            calls_at[batch] += 1
            if profile:
                spent = class_ms[batch]
                inside = 0.0
                for row, cls in zip(engine.op_profile(), classes[name]):
                    spent[cls] += row["total_ms"]
                    inside += row["total_ms"]
                spent["dispatch"] += engine.last_ms - inside
        round_end = time.perf_counter()
        rounds.append({
            "latency": latency,
            "start": round_start,
            "end": round_end,
            "wall_s": round_end - round_start,
            "images": sum(batch for _, batch in pairs),
        })
        if round_end - start >= seconds:
            break
    speed.sample()
    return {"rounds": rounds, "calls_at": calls_at, "class_ms": class_ms}


def _scaled(rounds: list[dict], speed: HostSpeed) -> list[dict]:
    """The rounds with every latency and wall at nominal host speed."""
    out = []
    for r in rounds:
        factor = speed.factor(r["start"], r["end"])
        out.append(dict(
            r, wall_s=r["wall_s"] / factor,
            latency={key: ms / factor for key, ms in r["latency"].items()},
        ))
    return out


def _by_batch(rounds: list[dict], statistic) -> dict[int, float]:
    """Per batch size: geomean over models of ``statistic`` of their latencies."""
    names = sorted({name for name, _ in rounds[0]["latency"]})
    return {
        batch: geomean(
            statistic([r["latency"][(name, batch)] for r in rounds])
            for name in names
        )
        for batch in BATCHES
    }


def _run_median(values: list[float]) -> float:
    return median(values).value


def _summary(rounds: list[dict]) -> dict:
    """Whole-run median latency per batch size and the run's image rate."""
    return {
        "run": _by_batch(rounds, _run_median),
        "run_rate": sum(r["images"] for r in rounds)
        / sum(r["wall_s"] for r in rounds),
    }


def _predicted_table(engines: dict) -> dict:
    """Measured vs analytic per-op time at batch 1, grouped by op class."""
    from repro.obs import profile_report

    shape = (1, 3, P["input_size"], P["input_size"])
    x = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
    table = {}
    for name, engine in engines.items():
        engine.reset_profile()
        for _ in range(P["predicted_calls"]):
            engine.run(x, profile=True)
        report = profile_report(engine, target=P["predicted_target"])
        grouped = {cls: {"measured_ms": 0.0, "predicted_ms": 0.0}
                   for cls in OP_CLASSES if cls != "dispatch"}
        for row in report["rows"]:
            cls = op_class(engine.plan.ops[row["index"]])
            grouped[cls]["measured_ms"] += row["mean_ms"] or 0.0
            grouped[cls]["predicted_ms"] += row.get("predicted_ms") or 0.0
        for cell in grouped.values():
            cell["measured_over_predicted"] = (
                cell["measured_ms"] / cell["predicted_ms"]
                if cell["predicted_ms"] else None
            )
        table[name] = {
            "target": report["target"],
            "device": report["device"],
            "bits": report["bits"],
            "classes": grouped,
            "total_measured_ms": report["total_measured_ms"],
            "total_predicted_ms": report.get("total_predicted_ms"),
        }
    return table


def _check(engines: dict, inputs: dict) -> list[str]:
    """Engine.run against BuiltNetwork.forward in eval mode, every model/batch."""
    from repro.autograd.tensor import Tensor, no_grad
    from repro.nas.network import build_network

    problems = []
    for name, engine in engines.items():
        net = build_network(_spec(name), seed=P["weight_seed"])
        net.eval()
        for batch in BATCHES:
            x = inputs[batch][0]
            with no_grad():
                expected = net(Tensor(x)).data
            problems += checks.outputs_close(
                engine.run(x), expected, params.OUTPUT_ATOL,
                params.OUTPUT_RTOL, f"infer {name} batch {batch}",
            )
    return problems


def run(seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    """The ``infer`` workload."""
    from repro.obs import Tracer, set_tracer

    outcome = Outcome()
    inputs = _inputs(seed)
    speed = HostSpeed()
    # The set-ups are spread over the run, each followed by its share of the
    # timed loop, so their median is not taken in one phase of the host.
    repeats = 1 if trace else params.SETUP_REPEATS
    setups, rounds, calls = [], [], 0
    for part in range(repeats):
        speed.sample()
        begun = time.perf_counter()
        engines, setup_s, compile_ms = _build()
        setups.append((setup_s, begun, begun + setup_s))
        plain = _loop(engines, inputs, seconds / repeats, seed + part, speed)
        rounds += plain["rounds"]
        calls += sum(plain["calls_at"].values())
    rss = peak_rss_mib()
    summary = _summary(_scaled(rounds, speed))
    measured = _summary(rounds)
    outcome.attempted = calls
    setup = median([speed.scaled(*s) for s in setups])
    outcome.details["samples"] = {
        "setup_s": setup.n,
        "rounds": len(rounds),
    }
    outcome.details["measured_median_ms"] = {
        f"b{batch}": value for batch, value in measured["run"].items()
    }
    outcome.details["measured_images_per_s"] = measured["run_rate"]
    outcome.details["measured_setup_s"] = median([s[0] for s in setups]).value
    outcome.details["host_speed"] = speed.summary()
    if not trace:
        outcome.end_to_end = {
            "setup_s": setup.value,
            "peak_rss_mib": rss,
            "lat_low_ms": summary["run"][1],
            "lat_mid_ms": summary["run"][8],
            "lat_high_ms": summary["run"][32],
            "work_per_s": summary["run_rate"],
        }
    else:
        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            traced = _loop(engines, inputs, seconds, seed, speed, profile=True)
        finally:
            set_tracer(previous)
        outcome.attempted += sum(traced["calls_at"].values())
        layers = {}
        for batch in BATCHES:
            calls = traced["calls_at"][batch]
            for cls, total in traced["class_ms"][batch].items():
                layers[f"runtime.{cls}_ms.b{batch}"] = total / calls
            layers[f"runtime.arena_kib.b{batch}"] = sum(
                engine.arena_bytes(batch) for engine in engines.values()
            ) / 1024.0
        layers["runtime.compile_ms"] = compile_ms
        traced_run = _by_batch(_scaled(traced["rounds"], speed), _run_median)
        layers["obs.trace_overhead"] = geomean(
            traced_run[batch] / summary["run"][batch] for batch in BATCHES
        )
        layers["obs.trace_events"] = float(len(tracer))
        outcome.per_layer = layers
        outcome.details["trace_events"] = tracer.events()
        table = _predicted_table(engines)
        (out_dir / "infer-predicted.json").write_text(
            json.dumps(table, indent=2) + "\n"
        )
    outcome.problems += _check(engines, inputs)
    return outcome
