"""Autograd-free plan executor over a preallocated arena.

:class:`Engine` runs an :class:`~repro.runtime.plan.ExecutionPlan` with the
out-buffer inference kernels of :mod:`repro.autograd.ops_nn`: every op reads
and writes slices of one arena array, so a steady-state ``run`` call
allocates no activation or scratch per op (a depthwise conv copies only its
``C·k²`` taps) — the headroom ROADMAP attributes to
``BuiltNetwork.forward`` (graph construction + fresh arrays per op) is gone.

Because every buffer scales linearly with the batch, the per-sample arena
layout is valid for any batch size: offsets are just multiplied by ``N``.
Arenas are cached per batch size, so a serving loop alternating between
coalesced batch sizes pays each allocation once.
"""

from __future__ import annotations

import time

import numpy as np

from repro.autograd import ops_nn
from repro.obs.tracer import get_tracer
from repro.runtime.arena import ArenaLayout, plan_arena
from repro.runtime.plan import ExecutionPlan, PlanOp


class Engine:
    """Executes a compiled plan; numerically matches the source network.

    Construction plans the arena (unless a prebuilt
    :class:`~repro.runtime.arena.ArenaLayout` is supplied) and validates its
    invariants.  ``run`` accepts one sample ``(C, H, W)`` or a batch
    ``(N, C, H, W)`` and returns the logits as a fresh array (the arena is
    reused by the next call).
    """

    def __init__(self, plan: ExecutionPlan, layout: ArenaLayout | None = None) -> None:
        self.plan = plan
        self.layout = layout if layout is not None else plan_arena(plan)
        self.layout.validate(plan)
        self._arenas: dict[int, np.ndarray] = {}
        self._views: dict[int, dict[int, np.ndarray]] = {}
        self.last_ms = 0.0
        self.profiled_runs = 0
        self._op_total_ms = [0.0] * len(plan.ops)
        self._op_calls = [0] * len(plan.ops)

    # -- memory -------------------------------------------------------------
    def arena_bytes(self, batch: int = 1) -> int:
        """Arena footprint in bytes for a given batch size."""
        return self.layout.arena_elems * batch * self.plan.dtype.itemsize

    def _views_for(self, batch: int) -> dict[int, np.ndarray]:
        views = self._views.get(batch)
        if views is None:
            arena = np.empty(
                self.layout.arena_elems * batch, dtype=self.plan.dtype
            )
            self._arenas[batch] = arena
            views = {}
            for buf in self.plan.buffers:
                offset = self.layout.offsets[buf.id] * batch
                views[buf.id] = arena[offset:offset + buf.elems * batch].reshape(
                    (batch,) + buf.shape
                )
            self._views[batch] = views
        return views

    # -- execution ----------------------------------------------------------
    def run(self, x: np.ndarray, profile: bool = False) -> np.ndarray:
        """Execute the plan on ``x``; returns the logits.

        ``x`` may be one sample (no batch axis) or a batch; the output keeps
        the same convention.  Input is cast to the plan dtype.

        With ``profile=True`` each op is timed individually into the per-op
        table returned by :meth:`op_profile` (one extra clock read per op —
        leave it off on the serving hot path).  When the global tracer
        (:func:`repro.obs.get_tracer`) is enabled, every call also emits one
        ``engine.run`` span; when it is disabled the only cost is a single
        attribute check.
        """
        x = np.asarray(x, dtype=self.plan.dtype)
        single = x.ndim == len(self.plan.input_shape)
        if single:
            x = x[None]
        if x.shape[1:] != self.plan.input_shape:
            raise ValueError(
                f"input shape {x.shape[1:]} does not match plan input "
                f"{self.plan.input_shape}"
            )
        tracer = get_tracer()
        traced = tracer.enabled
        if traced:
            trace_start = tracer.clock()
        start = time.perf_counter()
        views = self._views_for(x.shape[0])
        np.copyto(views[self.plan.input_buffer], x)
        if profile:
            op_ms = self._op_total_ms
            op_calls = self._op_calls
            for index, op in enumerate(self.plan.ops):
                op_start = time.perf_counter()
                _OP_TABLE[op.kind](op, views)
                op_ms[index] += (time.perf_counter() - op_start) * 1e3
                op_calls[index] += 1
            self.profiled_runs += 1
        else:
            for op in self.plan.ops:
                _OP_TABLE[op.kind](op, views)
        out = views[self.plan.output_buffer].copy()
        self.last_ms = (time.perf_counter() - start) * 1e3
        if traced:
            tracer.add_span(
                "engine.run", trace_start, tracer.clock() - trace_start,
                cat="runtime",
                args={"plan": self.plan.name, "batch": int(x.shape[0])},
            )
        return out[0] if single else out

    # -- profiling ----------------------------------------------------------
    def op_profile(self) -> list[dict]:
        """Per-op timing table accumulated by ``run(..., profile=True)`` calls.

        One row per plan op (aligned by index, including ops never profiled):
        ``{index, label, kind, calls, total_ms, mean_ms}`` with ``mean_ms``
        being milliseconds per profiled call (``None`` before any profiled
        run).  Join against the analytic estimate with
        :func:`repro.obs.profile_report`.
        """
        rows = []
        for index, op in enumerate(self.plan.ops):
            calls = self._op_calls[index]
            total = self._op_total_ms[index]
            rows.append({
                "index": index,
                "label": op.label or op.kind,
                "kind": op.kind,
                "calls": calls,
                "total_ms": total,
                "mean_ms": total / calls if calls else None,
            })
        return rows

    def reset_profile(self) -> None:
        """Zero the per-op profile accumulators."""
        self.profiled_runs = 0
        self._op_total_ms = [0.0] * len(self.plan.ops)
        self._op_calls = [0] * len(self.plan.ops)


# -- op implementations -----------------------------------------------------
def _exec_conv(op: PlanOp, views: dict[int, np.ndarray]) -> None:
    attrs = op.attrs
    pad_buf = attrs["pad_buf"]
    col_buf = attrs["col_buf"]
    add_buf = attrs.get("add_buf")
    ops_nn.conv2d_into(
        views[op.inputs[0]], op.weight,
        stride=attrs["stride"], padding=attrs["padding"],
        groups=attrs["groups"], bias=op.bias, act=op.act,
        out=views[op.output],
        pad_buf=views[pad_buf] if pad_buf is not None else None,
        cols=views[col_buf] if col_buf is not None else None,
        residual=views[add_buf] if add_buf is not None else None,
    )


def _exec_linear(op: PlanOp, views: dict[int, np.ndarray]) -> None:
    ops_nn.linear_into(
        views[op.inputs[0]], op.weight, bias=op.bias, act=op.act,
        out=views[op.output],
    )


def _exec_maxpool(op: PlanOp, views: dict[int, np.ndarray]) -> None:
    attrs = op.attrs
    pad_buf = attrs["pad_buf"]
    ops_nn.max_pool2d_into(
        views[op.inputs[0]], attrs["kernel"], stride=attrs["stride"],
        padding=attrs["padding"], out=views[op.output],
        pad_buf=views[pad_buf] if pad_buf is not None else None,
    )


def _exec_avgpool(op: PlanOp, views: dict[int, np.ndarray]) -> None:
    ops_nn.avg_pool2d_into(
        views[op.inputs[0]], op.attrs["kernel"], out=views[op.output]
    )


def _exec_gap(op: PlanOp, views: dict[int, np.ndarray]) -> None:
    ops_nn.global_avg_pool2d_into(views[op.inputs[0]], out=views[op.output])


def _exec_flatten(op: PlanOp, views: dict[int, np.ndarray]) -> None:
    src = views[op.inputs[0]]
    np.copyto(views[op.output], src.reshape(src.shape[0], -1))


def _exec_add(op: PlanOp, views: dict[int, np.ndarray]) -> None:
    out = views[op.output]
    np.add(views[op.inputs[0]], views[op.inputs[1]], out=out)
    for extra in op.inputs[2:]:
        out += views[extra]


def _exec_concat(op: PlanOp, views: dict[int, np.ndarray]) -> None:
    out = views[op.output]
    offset = 0
    for buf, channels in zip(op.inputs, op.attrs["channels"]):
        out[:, offset:offset + channels] = views[buf]
        offset += channels


_OP_TABLE = {
    "conv": _exec_conv,
    "linear": _exec_linear,
    "maxpool": _exec_maxpool,
    "avgpool": _exec_avgpool,
    "gap": _exec_gap,
    "flatten": _exec_flatten,
    "add": _exec_add,
    "concat": _exec_concat,
}
