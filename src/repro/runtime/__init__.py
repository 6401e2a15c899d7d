"""Compiled inference runtime: plan, arena planner, executor, serving.

The deployment half of the co-search: once a network (searched or from the
zoo) is derived into an :class:`~repro.nas.arch_spec.ArchSpec`, this package
turns it into something that *runs fast* —

* :func:`compile_spec` lowers the network into a static
  :class:`ExecutionPlan` (BatchNorm folded, quantisation baked);
* :func:`plan_arena` assigns every intermediate an offset in one
  preallocated arena with buffer reuse (:class:`ArenaLayout`);
* :class:`Engine` executes the plan autograd-free with out-buffer kernels;
* :class:`ServingFleet` (:mod:`repro.runtime.fleet`) serves one or many
  compiled plans from thread or process workers, with continuous batching,
  admission control and per-request latency metrics.

See ``docs/runtime.md`` and ``docs/serving.md`` for the full walkthrough.
"""

from repro.runtime.arena import ArenaLayout, LiveRange, live_ranges, plan_arena
from repro.runtime.compile import compile_spec
from repro.runtime.engine import Engine
from repro.runtime.fleet import ServingFleet
from repro.runtime.plan import BufferSpec, ExecutionPlan, PlanOp

__all__ = [
    "ArenaLayout",
    "BufferSpec",
    "Engine",
    "ExecutionPlan",
    "LiveRange",
    "PlanOp",
    "ServingFleet",
    "compile_spec",
    "live_ranges",
    "plan_arena",
]
