"""Analytic (non-differentiable) device evaluators for complete networks.

These regenerate the paper's comparison tables: given any
:class:`~repro.nas.arch_spec.ArchSpec` (baseline or searched), estimate

* GPU latency at batch 1 (Table 1 "GPU Latency", Table 2 precision sweep),
* recursive-FPGA latency a la CHaiDNN on ZCU102 (Table 1 "FPGA Latency"),
* pipelined-FPGA throughput a la DNNBuilder on ZC706 (Table 3).

The models are rooflines with per-layer-kind efficiency/overhead constants
fitted against the paper's published anchor numbers (frozen in
``repro.hw.device``; anchors registered in ``repro.hw.calibration``).  The
*relative* comparisons between architectures are what the reproduction
relies on; absolute deviations are reported in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.hw.allocation import waterfill_allocation
from repro.hw.device import FPGADevice, GPUDevice, layer_kind_key
from repro.nas.arch_spec import ArchSpec, ResolvedLayer

ACTIVATION_BYTES_FP32 = 4.0
ACTIVATION_BYTES_FP16 = 2.0


class UnsupportedNetworkError(ValueError):
    """Raised when a device flow cannot map a network (e.g. CHaiDNN has no
    channel-shuffle support — the "NA" entry of Table 1)."""


# --------------------------------------------------------------------------- GPU
def _gpu_layer_us(layer: ResolvedLayer, device: GPUDevice, weight_bits: int) -> float:
    """One layer at batch 1: per-kind kernel floor + max(compute, memory).

    The whole layer scales with the device's precision factor — reduced
    precision shrinks compute, traffic *and* the occupancy floor (smaller
    tensors ramp faster), matching the Table 2 measurements.
    """
    act_bytes = ACTIVATION_BYTES_FP32 if weight_bits >= 32 else ACTIVATION_BYTES_FP16
    prec = device.precision_factor(weight_bits)
    traffic = (layer.input_activations + layer.output_activations) * act_bytes
    if layer.kind == "shuffle":
        # Split + shuffle + concat: pure data movement with a big kernel floor.
        mem_us = traffic / (device.mem_bandwidth_gbps * 1e9) * 1e6
        return prec * (device.shuffle_overhead_us + mem_us)
    if layer.kind == "pool":
        mem_us = traffic / (device.mem_bandwidth_gbps * 1e9) * 1e6
        return prec * (device.pool_overhead_us + mem_us)
    kind = layer_kind_key(layer.kind, layer.kernel)
    compute_s = layer.macs / (device.peak_macs_per_s * device.kind_efficiency[kind])
    bytes_moved = layer.params * (weight_bits / 8.0) + traffic
    memory_s = bytes_moved / (device.mem_bandwidth_gbps * 1e9)
    return prec * (device.kind_overhead_us[kind] + max(compute_s, memory_s) * 1e6)


def gpu_layers_ms(
    layers: Iterable[ResolvedLayer], device: GPUDevice, weight_bits: int
) -> float:
    """Batch-1 latency (milliseconds) of a layer sequence run back to back.

    The one place the per-layer times are summed and calibrated: whole
    networks (:func:`gpu_latency_ms`, the GPU deployment plan), the
    search-time table of :class:`~repro.hw.gpu.GPUModel` and the per-op
    plan predictions all price their layers through it.
    """
    total_us = sum(_gpu_layer_us(layer, device, weight_bits) for layer in layers)
    return total_us / 1e3 * device.calibration_scale


def gpu_latency_ms(spec: ArchSpec, device: GPUDevice, weight_bits: int = 32) -> float:
    """Batch-1 inference latency estimate in milliseconds.

    ``weight_bits`` is the deployed precision: baselines in Table 1 run at
    32-bit, while the EDD-Nets deploy their co-searched precision (16-bit).
    """
    return gpu_layers_ms(spec.layers(), device, weight_bits)


# ----------------------------------------------------------------- recursive FPGA
def fpga_recursive_layer_us(
    layer: ResolvedLayer, device: FPGADevice, weight_bits: int
) -> float | None:
    """Compute time (microseconds) of one layer on the shared IPs.

    Returns ``None`` for pool/shuffle layers, which invoke no IP.  Every
    invoked layer also pays ``device.per_layer_overhead_us`` on top.
    """
    if layer.kind in ("pool", "shuffle"):
        return None
    eff = device.recursive_efficiency[layer_kind_key(layer.kind, layer.kernel)]
    macs_per_cycle = device.macs_per_cycle(weight_bits)
    seconds = layer.macs / (device.dsp_total * macs_per_cycle * eff) / device.clock_hz
    return seconds * 1e6


def fpga_recursive_latency_ms(
    spec: ArchSpec, device: FPGADevice, weight_bits: int = 16
) -> float:
    """CHaiDNN-style recursive accelerator latency.

    Layers run sequentially on shared IPs holding the full DSP budget, with a
    per-layer invocation overhead (weight/feature DDR round-trips dominate
    for thin layers, which is why a 0.3-GMAC MobileNetV2 and a 1.8-GMAC
    ResNet18 land within 10% of each other in Table 1).

    Raises :class:`UnsupportedNetworkError` for networks containing channel
    shuffles, mirroring CHaiDNN's missing ShuffleNet support ("NA").
    """
    if spec.has_kind("shuffle"):
        raise UnsupportedNetworkError(
            f"{spec.name}: channel shuffle is not supported by the recursive "
            f"FPGA flow (CHaiDNN), reported as NA in Table 1"
        )
    total_us = 0.0
    for layer in spec.layers():
        compute_us = fpga_recursive_layer_us(layer, device, weight_bits)
        if compute_us is not None:
            total_us += compute_us + device.per_layer_overhead_us
    return total_us / 1e3 * device.calibration_scale


# ----------------------------------------------------------------- pipelined FPGA
@dataclass
class PipelineReport:
    """Detailed result of the pipelined mapping (used by benches/tests)."""

    fps: float
    bottleneck_index: int
    bottleneck_kind: str
    bottleneck_kernel: int
    stage_us: list[float]
    allocations: list[float]


def _pipeline_stages(spec: ArchSpec) -> list[ResolvedLayer]:
    """Compute layers mapped to pipeline stages.

    FC heads are excluded: DNNBuilder streams them through a separate
    bandwidth-bound engine overlapped with the conv pipeline, so they do not
    gate steady-state throughput.
    """
    return [layer for layer in spec.layers() if layer.macs > 0 and layer.kind != "fc"]


def _stage_cap(layer: ResolvedLayer) -> float:
    """Maximum multipliers a stage can keep busy (channel/kernel parallelism)."""
    if layer.kind == "dwconv":
        return layer.in_ch * layer.kernel * layer.kernel
    return layer.out_ch * min(layer.in_ch // layer.groups, 64)


def fpga_pipelined_report(
    spec: ArchSpec, device: FPGADevice, weight_bits: int = 16
) -> PipelineReport:
    """Map every conv layer onto its own pipeline stage (DNNBuilder style).

    DSPs are water-filled proportionally to *nominal* MACs (the allocator is
    blind to runtime efficiency); each stage then runs at its kind's
    efficiency, with dense kxk (k>1) stages enjoying the kernel-reuse
    MAC/DSP bonus.  Throughput is set by the slowest stage — typically a
    depthwise stage, the effect that pushes the pipelined co-search
    (EDD-Net-3) toward shallower, wider networks.
    """
    stages = _pipeline_stages(spec)
    if not stages:
        raise UnsupportedNetworkError(f"{spec.name}: no compute layers to map")
    base_mpd = device.macs_per_cycle(weight_bits)

    raw = [float(layer.macs) for layer in stages]
    caps = [_stage_cap(layer) for layer in stages]
    allocations = waterfill_allocation(raw, device.dsp_total, caps=caps)

    stage_us = []
    for layer, macs, alloc in zip(stages, raw, allocations):
        kind = layer_kind_key(layer.kind, layer.kernel)
        eff = device.pipelined_efficiency[kind]
        mpd = base_mpd * (
            device.dense_kernel_bonus if layer.kind == "conv" and layer.kernel > 1 else 1.0
        )
        seconds = macs / (eff * max(alloc, 1e-6) * mpd) / device.clock_hz
        stage_us.append(seconds * 1e6)
    bottleneck = int(np.argmax(stage_us))
    fps = 1e6 / stage_us[bottleneck] * device.calibration_scale
    return PipelineReport(
        fps=fps,
        bottleneck_index=bottleneck,
        bottleneck_kind=stages[bottleneck].kind,
        bottleneck_kernel=stages[bottleneck].kernel,
        stage_us=stage_us,
        allocations=allocations,
    )


def fpga_pipelined_throughput_fps(
    spec: ArchSpec, device: FPGADevice, weight_bits: int = 16
) -> float:
    """Steady-state frames/second of the pipelined mapping."""
    return fpga_pipelined_report(spec, device, weight_bits).fps
