"""Per-layer deployment plans — the implementation artefact a hardware
engineer would take from the co-search.

Given any :class:`ArchSpec` and a device, render the layer-by-layer
implementation table the analytic models compute internally:

* **pipelined plan** — stage DSP allocations, per-stage time, bottleneck;
* **recursive plan** — per-layer cycles on the shared IPs plus invocation
  overheads;
* **gpu plan** — per-kernel time split into floor / compute / memory terms.

Exposed on the CLI as ``python -m repro explore --model X --plan <flow>``.
"""

from __future__ import annotations

from repro.hw.analytic import (
    _gpu_layer_us,
    _pipeline_stages,
    fpga_pipelined_report,
    fpga_recursive_layer_us,
    gpu_layers_ms,
)
from repro.hw.device import FPGADevice, GPUDevice
from repro.nas.arch_spec import ArchSpec, ResolvedLayer


def _layer_name(layer: ResolvedLayer) -> str:
    if layer.kind == "conv" and layer.kernel == 1:
        return "conv1x1"
    if layer.kind in ("conv", "dwconv"):
        return f"{layer.kind}{layer.kernel}x{layer.kernel}"
    return layer.kind


def _shape(layer: ResolvedLayer) -> str:
    return f"{layer.in_ch}x{layer.in_h}x{layer.in_w}->{layer.out_ch}x{layer.out_h}x{layer.out_w}"


def pipelined_plan(spec: ArchSpec, device: FPGADevice, weight_bits: int = 16) -> str:
    """DNNBuilder-style stage map: allocation, time, bottleneck marker."""
    report = fpga_pipelined_report(spec, device, weight_bits)
    stages = _pipeline_stages(spec)
    lines = [
        f"Pipelined deployment plan: {spec.name} on {device.name} "
        f"({device.dsp_total} DSPs, {weight_bits}-bit)",
        f"{'#':>3s} {'stage':10s} {'shape':>28s} {'MACs':>9s} "
        f"{'DSPs':>7s} {'us/frame':>9s}",
    ]
    for i, (layer, alloc, us) in enumerate(
        zip(stages, report.allocations, report.stage_us)
    ):
        marker = "  <-- bottleneck" if i == report.bottleneck_index else ""
        lines.append(
            f"{i:3d} {_layer_name(layer):10s} {_shape(layer):>28s} "
            f"{layer.macs / 1e6:8.2f}M {alloc:7.1f} {us:9.1f}{marker}"
        )
    lines.append(
        f"\nthroughput: {report.fps:.1f} fps "
        f"(bottleneck: {report.bottleneck_kind}{report.bottleneck_kernel}); "
        f"DSPs allocated: {sum(report.allocations):.0f} / {device.dsp_total}"
    )
    return "\n".join(lines)


def recursive_plan(spec: ArchSpec, device: FPGADevice, weight_bits: int = 16) -> str:
    """CHaiDNN-style sequential schedule on shared IPs."""
    lines = [
        f"Recursive deployment plan: {spec.name} on {device.name} "
        f"({device.dsp_total} DSPs shared, {weight_bits}-bit)",
        f"{'#':>3s} {'layer':10s} {'shape':>28s} {'MACs':>9s} "
        f"{'compute us':>11s} {'overhead us':>12s}",
    ]
    total_us = 0.0
    index = 0
    for layer in spec.layers():
        compute_us = fpga_recursive_layer_us(layer, device, weight_bits)
        if compute_us is None:
            continue
        total_us += compute_us + device.per_layer_overhead_us
        lines.append(
            f"{index:3d} {_layer_name(layer):10s} {_shape(layer):>28s} "
            f"{layer.macs / 1e6:8.2f}M {compute_us:11.1f} "
            f"{device.per_layer_overhead_us:12.1f}"
        )
        index += 1
    lines.append(
        f"\nend-to-end latency: {total_us / 1e3 * device.calibration_scale:.2f} ms "
        f"({index} IP invocations)"
    )
    return "\n".join(lines)


def gpu_plan(spec: ArchSpec, device: GPUDevice, weight_bits: int = 32) -> str:
    """Per-kernel GPU time budget."""
    lines = [
        f"GPU deployment plan: {spec.name} on {device.name} ({weight_bits}-bit)",
        f"{'#':>3s} {'kernel':10s} {'shape':>28s} {'MACs':>9s} {'us':>8s}",
    ]
    layers = spec.layers()
    for i, layer in enumerate(layers):
        us = _gpu_layer_us(layer, device, weight_bits)
        lines.append(
            f"{i:3d} {_layer_name(layer):10s} {_shape(layer):>28s} "
            f"{layer.macs / 1e6:8.2f}M {us:8.1f}"
        )
    lines.append(
        f"\nbatch-1 latency: {gpu_layers_ms(layers, device, weight_bits):.2f} ms "
        f"({len(layers)} kernels)"
    )
    return "\n".join(lines)


def predicted_vs_measured(
    spec: ArchSpec,
    target: str,
    measured_ms: float,
    device: str | None = None,
    bits: int | None = None,
) -> dict:
    """Analytic latency prediction next to a measured runtime latency.

    Resolves ``target``/``device`` through :mod:`repro.hw.registry`, converts
    throughput metrics to per-frame milliseconds, and returns a
    JSON-serialisable record with the measured/predicted ratio.  Used by the
    serving frontend (``repro serve``) to report how the compiled engine's
    per-request latency compares with the device models' estimate for the
    same spec — the paper's predicted-vs-implemented gap, live.
    """
    from repro.hw import registry

    tspec = registry.get_target(target)
    dev = tspec.resolve_device(device)
    requested = tspec.default_deploy_bits if bits is None else bits
    effective, clamped = tspec.clamp_bits(requested)
    outcome = tspec.estimate(spec, dev, effective)
    predicted_ms: float | None = None
    if outcome.supported and outcome.value:
        if outcome.metric == "latency_ms":
            predicted_ms = float(outcome.value)
        elif outcome.metric == "throughput_fps":
            predicted_ms = 1e3 / float(outcome.value)
    return {
        "model": spec.name,
        "target": tspec.name,
        "device": dev.name,
        "bits": effective,
        "clamped": clamped,
        "metric": outcome.metric,
        "predicted_ms": predicted_ms,
        "measured_ms": float(measured_ms),
        "measured_over_predicted": (
            float(measured_ms) / predicted_ms if predicted_ms else None
        ),
    }


def plan_op_layer(plan, op) -> ResolvedLayer | None:
    """Reconstruct the analytic-layer view of one compiled plan op.

    The executable plan (:class:`repro.runtime.plan.ExecutionPlan`) has lost
    the :class:`ArchSpec` layer list — geometry lives in buffer shapes, baked
    weight arrays and op attrs.  This rebuilds a :class:`ResolvedLayer` for
    the ops the analytic device models know how to price (conv / dwconv /
    fc / pool); data-movement ops (flatten, add, concat) return ``None``.

    Fused ops keep the convolution's geometry: the MAC count only depends on
    the output extent and the weight shape, so residual-add or pool fusion
    does not change the compute term.
    """
    out_shape = plan.buffer(op.output).shape
    in_shape = plan.buffer(op.inputs[0]).shape if op.inputs else ()
    if op.kind == "conv" and op.weight is not None:
        out_ch, in_per_group, kernel, _ = op.weight.shape
        groups = int(op.attrs.get("groups", 1))
        in_ch = in_per_group * groups
        kind = "dwconv" if groups == in_ch and groups > 1 else "conv"
        out_h, out_w = (out_shape[1], out_shape[2]) if len(out_shape) == 3 else (1, 1)
        in_h, in_w = (in_shape[1], in_shape[2]) if len(in_shape) == 3 else (out_h, out_w)
        return ResolvedLayer(
            kind=kind, kernel=int(kernel), stride=int(op.attrs.get("stride", 1)),
            in_ch=int(in_ch), out_ch=int(out_ch), groups=groups,
            in_h=int(in_h), in_w=int(in_w), out_h=int(out_h), out_w=int(out_w),
        )
    if op.kind == "linear" and op.weight is not None:
        out_features, in_features = op.weight.shape
        return ResolvedLayer(
            kind="fc", kernel=1, stride=1,
            in_ch=int(in_features), out_ch=int(out_features), groups=1,
            in_h=1, in_w=1, out_h=1, out_w=1,
        )
    if op.kind in ("maxpool", "avgpool", "gap"):
        if len(in_shape) != 3:
            return None
        in_ch, in_h, in_w = in_shape
        if len(out_shape) == 3:
            out_ch, out_h, out_w = out_shape
        else:
            out_ch, out_h, out_w = in_ch, 1, 1
        kernel = int(op.attrs.get("kernel", in_h))
        return ResolvedLayer(
            kind="pool", kernel=kernel, stride=int(op.attrs.get("stride", kernel)),
            in_ch=int(in_ch), out_ch=int(out_ch), groups=1,
            in_h=int(in_h), in_w=int(in_w), out_h=int(out_h), out_w=int(out_w),
        )
    return None


def per_op_predicted_ms(
    plan,
    target: str,
    device: str | None = None,
    bits: int | None = None,
) -> dict:
    """Analytic per-op latency decomposition of a compiled plan.

    Returns a JSON-serialisable dict with ``per_op`` — one predicted
    millisecond figure (or ``None``) per plan op, aligned by op index — plus
    the resolved ``target``/``device``/``bits`` and a ``supported`` flag.
    Only the additive flows decompose: the GPU roofline (per-kernel) and the
    recursive FPGA schedule (per-IP-invocation; pools are free there, like in
    :func:`repro.hw.analytic.fpga_recursive_latency_ms`).  The pipelined
    flow's throughput is set by its bottleneck stage, not a sum, so it — and
    targets with no analytic estimator — report ``supported: False``.

    Each row prices its layer through the per-layer function of its flow's
    whole-network estimator (:func:`repro.hw.analytic.gpu_layers_ms`,
    :func:`repro.hw.analytic.fpga_recursive_layer_us`);
    :func:`repro.obs.profile_report` joins the rows against measured per-op
    times.
    """
    from repro.hw import registry

    tspec = registry.get_target(target)
    dev = tspec.resolve_device(device)
    requested = tspec.default_deploy_bits if bits is None else bits
    effective, clamped = tspec.clamp_bits(requested)
    result: dict = {
        "target": tspec.name,
        "device": dev.name,
        "bits": effective,
        "clamped": clamped,
        "metric": "latency_ms",
        "supported": False,
        "note": "",
        "per_op": [None] * len(plan.ops),
    }
    per_op = result["per_op"]
    if tspec.plan_flow == "gpu" and isinstance(dev, GPUDevice):
        for index, op in enumerate(plan.ops):
            layer = plan_op_layer(plan, op)
            if layer is None:
                continue
            try:
                per_op[index] = gpu_layers_ms([layer], dev, effective)
            except KeyError:
                continue
        result["supported"] = True
        return result
    if tspec.plan_flow == "recursive" and isinstance(dev, FPGADevice):
        for index, op in enumerate(plan.ops):
            layer = plan_op_layer(plan, op)
            if layer is None:
                continue
            try:
                compute_us = fpga_recursive_layer_us(layer, dev, effective)
            except KeyError:
                continue
            if compute_us is not None:
                per_op[index] = (
                    (compute_us + dev.per_layer_overhead_us)
                    / 1e3 * dev.calibration_scale
                )
        result["supported"] = True
        return result
    if tspec.plan_flow == "pipelined":
        result["note"] = (
            "pipelined throughput is set by the bottleneck stage and does not "
            "decompose into additive per-op latencies"
        )
    else:
        result["note"] = (
            f"target {tspec.name!r} has no per-op latency decomposition"
        )
    return result


def deployment_plan(
    spec: ArchSpec,
    flow: str,
    device: GPUDevice | FPGADevice,
    weight_bits: int | None = None,
) -> str:
    """Dispatch over the three implementation flows."""
    if flow == "pipelined":
        return pipelined_plan(spec, device, weight_bits or 16)
    if flow == "recursive":
        return recursive_plan(spec, device, weight_bits or 16)
    if flow == "gpu":
        return gpu_plan(spec, device, weight_bits or 32)
    raise ValueError(f"unknown flow {flow!r}; expected gpu/recursive/pipelined")
