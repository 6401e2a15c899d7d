"""Differentiable GPU latency model (Sec. 4.2 of the paper).

On GPUs the paper uses *measured, normalised* per-precision latencies as the
``Perf^q`` constants — the implementation variables reduce to the single
network-wide precision choice (TensorRT supports 8/16/32-bit but not mixed
precision), so ``phi_{i,m,q} = phi_q`` is shared globally.  Resource is fixed
for a given GPU (RES term drops out of Eq. 1).

Offline we substitute a roofline-style analytic table for the measurements:
each candidate's layers (:func:`repro.nas.space.candidate_layers`) priced by
the whole-network estimator's per-layer model
(:func:`repro.hw.analytic.gpu_layers_ms`: kernel floor + max(compute,
memory), scaled by the per-precision factors derived from the paper's own
Table 2 ratios), so the search optimises the latency ``api.estimate``
reports.  Like the paper's measurements, the table is a constant with
respect to the search — only the Gumbel weights over Theta/Phi are
differentiable inputs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.autograd.tensor import Tensor
from repro.hw.analytic import gpu_layers_ms
from repro.hw.base import HardwareModel, HwEvaluation
from repro.hw.device import GPUDevice, TITAN_RTX
from repro.hw.perf_loss import latency_sum
from repro.nas.arch_spec import ResolvedLayer
from repro.nas.quantization import QuantizationConfig
from repro.nas.space import SearchSpaceConfig, candidate_layers
from repro.nas.supernet import SampledArch


def candidate_table(
    space: SearchSpaceConfig,
    quant: QuantizationConfig,
    price: Callable[[list[ResolvedLayer], int], float],
) -> np.ndarray:
    """(N, M, Q) table of ``price(layers, bits)`` over every block position,
    candidate op and bit-width, where ``layers`` are the candidate's
    :func:`~repro.nas.space.candidate_layers`."""
    return np.array([
        [[price(candidate_layers(geom, op), bits) for bits in quant.bitwidths]
         for op in space.candidate_ops()]
        for geom in space.block_geometries()
    ])


class GPUModel(HardwareModel):
    """GPU latency objective with a single network-wide precision choice."""

    expected_sharing = "global"
    resource_bound = None

    def __init__(
        self,
        space: SearchSpaceConfig,
        quant: QuantizationConfig,
        device: GPUDevice = TITAN_RTX,
        alpha: float = 1.0,
    ) -> None:
        if quant.sharing != "global":
            raise ValueError(
                "GPU implementation search requires globally shared precision "
                f"(Sec. 4.2); got sharing={quant.sharing!r}"
            )
        self.space = space
        self.quant = quant
        self.device = device
        self.alpha = alpha

        table_ms = candidate_table(
            space, quant, lambda layers, bits: gpu_layers_ms(layers, device, bits)
        )
        #: (N, M, Q) measured-latency substitute table in microseconds.
        self.latency_table_us = table_ms * 1e3
        self._table_t = Tensor(table_ms)  # milliseconds for O(1) losses

    def evaluate(self, sample: SampledArch) -> HwEvaluation:
        self.validate_sample(sample)
        theta_w = sample.op_weights      # (N, M)
        phi_w = sample.quant_weights     # (Q,) global precision weights
        per_op = (self._table_t * phi_w).sum(axis=2)   # (N, M)
        block_perf = (theta_w * per_op).sum(axis=1)    # (N,)
        perf = latency_sum(block_perf, alpha=self.alpha)
        res = Tensor(0.0)  # GPU resource is fixed (Sec. 4.2)
        return HwEvaluation(
            perf_loss=perf,
            resource=res,
            diagnostics={
                "expected_latency_ms": float(block_perf.data.sum()),
                "precision_probs": 0.0,
            },
        )
