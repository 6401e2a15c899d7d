"""GPU energy/power formulation — the paper's stated future work.

The conclusion lists "GPU power and resource formulation" as future work;
this module implements a first-order version so the multi-objective rule of
Sec. 3.2.4 (product of non-conflicting losses) can be exercised on GPUs:

* dynamic energy of an op ~ utilisation-weighted peak power x compute time;
* static (idle) energy ~ idle power x latency;
* ``Perf_loss = latency_loss * energy_loss`` via :func:`multi_objective`.

Energy favours *fewer, better-utilised* kernels even more strongly than
latency does (idle power burns during every launch gap), so energy-aware
searches lean further toward shallow networks — a testable qualitative
prediction.
"""

from __future__ import annotations

from repro.autograd.tensor import Tensor
from repro.hw.analytic import _gpu_layer_us
from repro.hw.base import HwEvaluation
from repro.hw.device import GPUDevice, TITAN_RTX, layer_kind_key
from repro.hw.gpu import GPUModel, candidate_table
from repro.hw.perf_loss import latency_sum, multi_objective
from repro.nas.arch_spec import ResolvedLayer
from repro.nas.quantization import QuantizationConfig
from repro.nas.space import SearchSpaceConfig
from repro.nas.supernet import SampledArch

#: Board-power assumptions (W); calibration-free, used for relative energy.
PEAK_POWER_W = {"Titan RTX": 280.0, "GTX 1080 Ti": 250.0, "P100": 250.0}
IDLE_POWER_W = {"Titan RTX": 60.0, "GTX 1080 Ti": 55.0, "P100": 50.0}


def gpu_layer_energy_mj(
    layer: ResolvedLayer, device: GPUDevice, weight_bits: int
) -> float:
    """Energy (millijoules) of one layer at batch 1.

    ``E = (P_idle + (P_peak - P_idle) * utilisation) * t`` with ``t`` the
    layer's calibrated latency and the utilisation approximated by its kind's
    compute efficiency relative to dense convolution (data-movement layers
    run near idle).  Lower precision reduces both time and switched
    capacitance (folded into the precision factor of the latency).
    """
    latency_us = _gpu_layer_us(layer, device, weight_bits) * device.calibration_scale
    if layer.kind in ("pool", "shuffle"):
        utilisation = 0.05
    else:
        kind = layer_kind_key(layer.kind, layer.kernel)
        utilisation = min(
            device.kind_efficiency[kind] / device.kind_efficiency["conv"], 1.0
        )
    peak = PEAK_POWER_W.get(device.name, 250.0)
    idle = IDLE_POWER_W.get(device.name, 50.0)
    power = idle + (peak - idle) * utilisation
    return power * latency_us * 1e-6 * 1e3  # W * s -> J -> mJ


class GPUEnergyModel(GPUModel):
    """GPU target optimising the latency x energy product (Sec. 3.2.4).

    Drop-in replacement for :class:`GPUModel` as the ``hw_model`` argument of
    :class:`~repro.core.cosearch.EDDSearcher`.
    """

    def __init__(
        self,
        space: SearchSpaceConfig,
        quant: QuantizationConfig,
        device: GPUDevice = TITAN_RTX,
        alpha: float = 1.0,
        energy_weight: float = 1.0,
    ) -> None:
        super().__init__(space, quant, device=device, alpha=alpha)
        self.energy_weight = energy_weight
        #: (N, M, Q) per-op energy table in millijoules.
        self.energy_table_mj = candidate_table(
            space, quant,
            lambda layers, bits: sum(
                gpu_layer_energy_mj(layer, device, bits) for layer in layers
            ),
        )
        self._energy_t = Tensor(self.energy_table_mj)

    def evaluate(self, sample: SampledArch) -> HwEvaluation:
        self.validate_sample(sample)
        theta_w = sample.op_weights
        phi_w = sample.quant_weights
        lat_per_op = (self._table_t * phi_w).sum(axis=2)
        energy_per_op = (self._energy_t * phi_w).sum(axis=2)
        block_latency = (theta_w * lat_per_op).sum(axis=1)
        block_energy = (theta_w * energy_per_op).sum(axis=1)
        latency_loss = latency_sum(block_latency, alpha=self.alpha)
        energy_loss = latency_sum(block_energy, alpha=self.energy_weight)
        perf = multi_objective([latency_loss, energy_loss])
        return HwEvaluation(
            perf_loss=perf,
            resource=Tensor(0.0),
            diagnostics={
                "expected_latency_ms": float(block_latency.data.sum()),
                "expected_energy_mj": float(block_energy.data.sum()),
            },
        )


def gpu_energy_mj(spec, device: GPUDevice = TITAN_RTX, weight_bits: int = 32) -> float:
    """Analytic whole-network energy estimate (millijoules) for an ArchSpec."""
    return sum(gpu_layer_energy_mj(layer, device, weight_bits) for layer in spec.layers())
