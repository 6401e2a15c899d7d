"""Calibration anchor registry.

The analytic device models contain constants that the paper obtained by
measuring real hardware.  We fitted them once against the paper's published
numbers and froze them in :mod:`repro.hw.device`; this module records which
paper numbers served as anchors so tests can verify the anchors still hold
(and so readers can audit exactly what was fitted versus predicted).

Everything *not* listed as an anchor is a genuine prediction of the models.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.model_zoo import get_model
from repro.hw.analytic import (
    fpga_pipelined_throughput_fps,
    fpga_recursive_latency_ms,
    gpu_latency_ms,
)
from repro.hw.device import GTX_1080TI, TITAN_RTX, ZC706, ZCU102


@dataclass(frozen=True)
class Anchor:
    """One paper measurement used to pin a calibration constant."""

    experiment: str
    model: str
    device: str
    metric: str
    paper_value: float
    weight_bits: int
    tolerance: float  # relative tolerance the tests enforce

    def measured(self) -> float:
        spec = get_model(self.model)
        if self.metric == "gpu_latency_ms":
            device = TITAN_RTX if self.device == "Titan RTX" else GTX_1080TI
            return gpu_latency_ms(spec, device, weight_bits=self.weight_bits)
        if self.metric == "fpga_recursive_latency_ms":
            return fpga_recursive_latency_ms(spec, ZCU102, weight_bits=self.weight_bits)
        if self.metric == "fpga_pipelined_fps":
            return fpga_pipelined_throughput_fps(spec, ZC706, weight_bits=self.weight_bits)
        raise ValueError(f"unknown metric {self.metric!r}")

    def holds(self) -> bool:
        measured = self.measured()
        return abs(measured - self.paper_value) <= self.tolerance * self.paper_value


#: The four calibration anchors (one per device/flow).
ANCHORS: tuple[Anchor, ...] = (
    Anchor(
        experiment="Table 1",
        model="ResNet18",
        device="Titan RTX",
        metric="gpu_latency_ms",
        paper_value=9.71,
        weight_bits=32,
        tolerance=0.05,
    ),
    Anchor(
        experiment="Table 2",
        model="EDD-Net-1",
        device="GTX 1080 Ti",
        metric="gpu_latency_ms",
        paper_value=2.29,
        weight_bits=16,
        tolerance=0.05,
    ),
    Anchor(
        experiment="Table 1",
        model="ResNet18",
        device="ZCU102",
        metric="fpga_recursive_latency_ms",
        paper_value=10.15,
        weight_bits=16,
        tolerance=0.10,
    ),
    Anchor(
        experiment="Table 3",
        model="VGG16",
        device="ZC706",
        metric="fpga_pipelined_fps",
        paper_value=27.7,
        weight_bits=16,
        tolerance=0.10,
    ),
)


def verify_anchors() -> dict[str, tuple[float, float, bool]]:
    """Measured-vs-paper for every anchor: {key: (measured, paper, holds)}."""
    return {
        f"{a.model}@{a.device}": (a.measured(), a.paper_value, a.holds())
        for a in ANCHORS
    }
