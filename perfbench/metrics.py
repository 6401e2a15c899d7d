"""Names and units of every metric the benchmark prints.

``BENCHMARK.json`` lists the same names; ``perfbench/tests/test_perfbench_metrics.py``
keeps the two in step.  Every workload prints every end-to-end metric, so
the three latency slots and the work rate are defined per workload by
:data:`SLOTS`.  The search and infer times, and every ``setup_s``, are at
nominal host speed (:mod:`perfbench.speed`); serve's are as measured.  Per-layer metrics are the union over workloads; a layer a
workload does not exercise reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "lat_low_ms": "ms",
    "lat_mid_ms": "ms",
    "lat_high_ms": "ms",
    "work_per_s": "1/s",
}

#: What each end-to-end slot measures on each workload.
SLOTS: dict[str, dict[str, str]] = {
    "search-reduced": {
        "setup_s": "median over api.search calls: call start to first weight step",
        "lat_low_ms": "median weight step",
        "lat_mid_ms": "median arch step",
        "lat_high_ms": "median epoch with arch steps, checkpoint save included",
        "work_per_s": "training images per second of such epochs",
    },
    "infer": {
        "setup_s": "median of compile + first run per batch size, all models",
        "lat_low_ms": "geomean over models of the median batch-1 Engine.run",
        "lat_mid_ms": "geomean over models of the median batch-8 Engine.run",
        "lat_high_ms": "geomean over models of the median batch-32 Engine.run",
        "work_per_s": "images per second through the closed loop",
    },
    "serve": {
        "setup_s": "median of fleet start-up until every worker built every engine",
        "lat_low_ms": "p90 latency from each request's due time",
        "lat_mid_ms": "p95 latency from each request's due time",
        "lat_high_ms": "p99 latency from each request's due time",
        "work_per_s": "goodput: requests answered within the latency limit per second",
    },
}

_SEARCH_MS = [
    "nas.sample_ms",
    "nas.forward_weight_ms",
    "nas.forward_arch_ms",
    "autograd.backward_weight_ms",
    "autograd.backward_arch_ms",
    "hw.evaluate_ms",
    "nn.optim_ms",
    "core.step_other_ms",
    "core.step_wall_ms",
    "core.checkpoint_ms",
    "core.epoch_other_ms",
    "core.epoch_wall_ms",
]

#: Engine.run time classes, by plan op attributes (see infer.op_class).
OP_CLASSES = (
    "conv_dw", "conv_1x1", "conv_kxk", "pool", "linear", "add_concat",
    "dispatch",
)
BATCHES = (1, 8, 32)


def _per_layer() -> dict[str, str]:
    table = dict.fromkeys(_SEARCH_MS, "ms")
    table["search.cpu_per_wall"] = "ratio"
    table["search.weight_steps"] = "count"
    table["search.arch_steps"] = "count"
    for cls in OP_CLASSES:
        for batch in BATCHES:
            table[f"runtime.{cls}_ms.b{batch}"] = "ms"
    table["runtime.compile_ms"] = "ms"
    for batch in BATCHES:
        table[f"runtime.arena_kib.b{batch}"] = "KiB"
    table.update({
        "fleet.queue_wait_p50_ms": "ms",
        "fleet.queue_wait_p99_ms": "ms",
        "fleet.compute_ms_per_batch": "ms",
        "fleet.mean_batch": "count",
        "fleet.worker_util": "ratio",
        "fleet.rejected": "count",
        "fleet.shed": "count",
        "fleet.failed": "count",
        "loadgen.late_p99_ms": "ms",
        "obs.trace_overhead": "ratio",
        "obs.trace_events": "count",
    })
    return table


#: Per-layer metric name -> unit.
PER_LAYER: dict[str, str] = _per_layer()

WORKLOADS = tuple(SLOTS)


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``end_to_end`` is filled by untraced runs, ``per_layer`` by traced runs;
    ``details`` carries sample counts and anything else worth recording.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    details: dict = field(default_factory=dict)
