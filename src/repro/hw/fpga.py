"""Differentiable FPGA performance/resource model (Sec. 4.1 of the paper).

Implements the IP-based accelerator formulation:

* **Stage-1** (Eqs. 11-13): an operation ``op_i^m`` with parallel factor
  ``pf`` under ``q``-bit quantisation has latency
  ``Perf^q = Phi(q) * 2^-pf * workload`` where the workload sums the Eq. 12
  terms of its layers (conv / dwconv / "otherwise"), and resource
  ``Res^q = Psi(q) * 2^pf`` DSPs with the paper's piecewise ``Psi``.
* **Stage-2/3** (Eqs. 2-5): Gumbel-Softmax expectations over quantisation
  (``Phi``) and operation choice (``Theta``).
* **Stage-4**: recursive architecture -> latency sum (Eq. 6) with shared
  resource (Eqs. 9-10); pipelined architecture -> Log-Sum-Exp smooth-max
  (Eq. 7) with summed resource (Eq. 8).

Parallel factors are continuous during the search (``2^pf`` through
``exp``), initialised per Sec. 5 (``pf0 = log2(RES_ub / M)`` recursive,
``log2(RES_ub / (M*N))`` pipelined) and re-tuned to integers after
derivation via :mod:`repro.hw.allocation`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.autograd.ops_basic import exp
from repro.autograd.tensor import Tensor
from repro.hw.base import HardwareModel, HwEvaluation
from repro.hw.device import FPGADevice, ZCU102
from repro.hw.perf_loss import latency_sum, throughput_lse
from repro.hw.resource import shared_resource, summed_resource
from repro.nas.quantization import QuantizationConfig
from repro.nas.space import (
    BlockGeometry,
    CandidateOp,
    SearchSpaceConfig,
    candidate_block,
)
from repro.nas.supernet import SampledArch
from repro.nn.module import Parameter

ARCHITECTURES = ("recursive", "pipelined")

#: Workloads are expressed in mega-operations so losses are O(1)-magnitude.
WORKLOAD_UNIT = 1e6

LN2 = math.log(2.0)


def psi_dsp(bits: int) -> float:
    """The paper's piecewise DSP calibration Psi(q) (Sec. 4.1.2).

    One DSP48 per 9..16-bit multiply, half a DSP per 5..8-bit multiply
    (two MACs share one DSP), and zero DSPs below 5 bits (LUT arithmetic).
    """
    if bits <= 0:
        raise ValueError(f"invalid bit-width {bits}")
    if bits <= 4:
        return 0.0
    if bits <= 8:
        return 0.5
    if bits <= 16:
        return 1.0
    raise ValueError(f"FPGA model supports up to 16-bit weights, got {bits}")


def phi_latency_calibration(bits: int) -> float:
    """The paper's latency calibration Phi(q) = q, normalised to 16-bit = 1."""
    if bits <= 0:
        raise ValueError(f"invalid bit-width {bits}")
    return bits / 16.0


def mbconv_workload(geom: BlockGeometry, op: CandidateOp) -> float:
    """Eq. 12 workload of one MBConv candidate, in raw operations.

    Sums the three conv layers (conv-1x1 expand, dwconv-kxk, conv-1x1
    project) plus the "otherwise" terms (BN/activation passes after each
    conv) exactly as Eq. 11 sums over the layers of an operation.
    """
    hidden = geom.in_ch * op.expansion
    k2 = op.kernel * op.kernel
    in_px = geom.in_h * geom.in_w
    out_px = geom.out_h * geom.out_w
    conv_expand = in_px * geom.in_ch * hidden
    dw = k2 * out_px * hidden
    conv_project = out_px * hidden * geom.out_ch
    other = in_px * hidden + out_px * hidden + out_px * geom.out_ch
    return float(conv_expand + dw + conv_project + other)


def skip_workload(geom: BlockGeometry) -> float:
    """Workload of the depth-search skip candidate.

    A pure identity costs nothing; where the block must change shape the
    skip is a pointwise projection (conv-1x1 + BN 'otherwise' term).
    """
    if candidate_block(geom, CandidateOp.skip()) is None:
        return 0.0
    out_px = geom.out_h * geom.out_w
    return float(out_px * geom.in_ch * geom.out_ch + out_px * geom.out_ch)


def candidate_workload(geom: BlockGeometry, op: CandidateOp) -> float:
    """Dispatch Eq. 12 over the candidate menu (MBConv or skip)."""
    if op.is_skip:
        return skip_workload(geom)
    return mbconv_workload(geom, op)


def candidate_uses_multipliers(geom: BlockGeometry, op: CandidateOp) -> bool:
    """Whether the candidate instantiates a multiplier IP at all.

    Identity skips are wiring, not hardware: they must not be charged
    ``Res^q = Psi(q) * 2^pf``.
    """
    return candidate_block(geom, op) is not None


class FPGAModel(HardwareModel):
    """Differentiable FPGA model for either accelerator architecture.

    Parameters
    ----------
    space, quant:
        The search space and quantisation menu (must use ``per_op`` sharing
        for the recursive architecture — blocks sharing an IP share its
        implementation variables — and ``per_block_op`` for pipelined).
    device:
        Board descriptor providing the DSP budget RES_ub.
    architecture:
        ``"recursive"`` (latency objective, IP sharing) or ``"pipelined"``
        (throughput objective, per-block IPs).
    alpha:
        Perf-loss scale of Eqs. 6-7; tune so Perf_loss is commensurate with
        Acc_loss (the searcher can auto-scale, see core.cosearch).
    lse_sharpness:
        Tau of the smooth maximum (pipelined only).
    """

    def __init__(
        self,
        space: SearchSpaceConfig,
        quant: QuantizationConfig,
        device: FPGADevice = ZCU102,
        architecture: str = "recursive",
        alpha: float = 1.0,
        lse_sharpness: float = 1.0,
        resource_fraction: float = 1.0,
    ) -> None:
        if architecture not in ARCHITECTURES:
            raise ValueError(
                f"architecture must be one of {ARCHITECTURES}, got {architecture!r}"
            )
        expected = "per_op" if architecture == "recursive" else "per_block_op"
        if quant.sharing != expected:
            raise ValueError(
                f"{architecture} FPGA accelerator requires quantisation sharing "
                f"{expected!r} (got {quant.sharing!r}); see Sec. 3.2.5"
            )
        self.space = space
        self.quant = quant
        self.device = device
        self.architecture = architecture
        self.alpha = alpha
        self.lse_sharpness = lse_sharpness
        self.expected_sharing = expected
        self.resource_bound = device.dsp_total * resource_fraction

        n, m, q_levels = space.num_blocks, space.num_ops, quant.num_levels
        geometries = space.block_geometries()
        ops = space.candidate_ops()

        # Stage-1 constants.
        workload = np.empty((n, m))
        uses_mults = np.empty((n, m))
        for i, geom in enumerate(geometries):
            for j, op in enumerate(ops):
                workload[i, j] = candidate_workload(geom, op) / WORKLOAD_UNIT
                uses_mults[i, j] = float(candidate_uses_multipliers(geom, op))
        self.workload = workload
        #: (N, M) mask: identity skips carry no multiplier IP (no Res^q).
        self.uses_multipliers = uses_mults
        self.phi_q = np.array([phi_latency_calibration(b) for b in quant.bitwidths])
        self.psi_q = np.array([psi_dsp(b) for b in quant.bitwidths])
        # (N, M, Q) latency constants before the 2^-pf factor.
        self._qlat = workload[:, :, None] * self.phi_q[None, None, :]
        self._qlat_t = Tensor(self._qlat)
        self._psi_t = Tensor(self.psi_q)
        # Resource masks per aggregation mode: shared IPs exist if any block
        # would instantiate them; per-block IPs mask exactly per position.
        self._res_mask_op = Tensor(uses_mults.max(axis=0))   # (M,)
        self._res_mask_block_op = Tensor(uses_mults)          # (N, M)

        # Parallel factors (Sec. 5 initialisation).
        if architecture == "recursive":
            pf0 = math.log2(max(self.resource_bound / m, 1.0))
            self.pf = Parameter(np.full((m,), pf0))
        else:
            pf0 = math.log2(max(self.resource_bound / (m * n), 1.0))
            self.pf = Parameter(np.full((n, m), pf0))
        self._pf_max = math.log2(max(self.resource_bound, 2.0))

    # -- HardwareModel interface ------------------------------------------------
    def implementation_parameters(self) -> list[Parameter]:
        return [self.pf]

    def project_parameters(self) -> None:
        """Clamp pf into [0, log2(RES_ub)] after an optimiser step."""
        np.clip(self.pf.data, 0.0, self._pf_max, out=self.pf.data)

    def evaluate(self, sample: SampledArch) -> HwEvaluation:
        self.validate_sample(sample)
        if self.architecture == "recursive":
            return self._evaluate_recursive(sample)
        return self._evaluate_pipelined(sample)

    # -- recursive: Eq. 6 latency + Eq. 9/10 shared resource ---------------------
    def _evaluate_recursive(self, sample: SampledArch) -> HwEvaluation:
        theta_w = sample.op_weights          # (N, M)
        phi_w = sample.quant_weights         # (M, Q)
        inv_parallel = exp(self.pf * (-LN2))  # (M,) = 2^-pf
        # Stage-2: expectation over quantisation, still per (block, op).
        per_op = (phi_w * self._qlat_t).sum(axis=2)      # (N, M): Sum_q GS*qlat
        per_op = per_op * inv_parallel                   # broadcast (M,)
        # Stage-3: expectation over op choice.
        block_perf = (theta_w * per_op).sum(axis=1)      # (N,)
        perf = latency_sum(block_perf, alpha=self.alpha)

        # Resource: per shared IP, expectation over quantisation * 2^pf
        # (identity skips are wiring — masked out of Res).
        parallel = exp(self.pf * LN2)                    # (M,)
        op_res = (phi_w * self._psi_t).sum(axis=1) * parallel * self._res_mask_op
        res = shared_resource(theta_w, op_res)

        return HwEvaluation(
            perf_loss=perf,
            resource=res,
            diagnostics={
                "sum_block_latency_units": float(block_perf.data.sum()),
                "max_block_latency_units": float(block_perf.data.max()),
                "resource_dsp": float(res.data),
            },
        )

    # -- pipelined: Eq. 7 smooth-max + Eq. 8 summed resource ----------------------
    def _evaluate_pipelined(self, sample: SampledArch) -> HwEvaluation:
        theta_w = sample.op_weights          # (N, M)
        phi_w = sample.quant_weights         # (N, M, Q)
        inv_parallel = exp(self.pf * (-LN2))  # (N, M)
        per_op = (phi_w * self._qlat_t).sum(axis=2) * inv_parallel  # (N, M)
        block_perf = (theta_w * per_op).sum(axis=1)                 # (N,)
        perf = throughput_lse(block_perf, alpha=self.alpha, sharpness=self.lse_sharpness)

        parallel = exp(self.pf * LN2)                               # (N, M)
        op_res = (
            (phi_w * self._psi_t).sum(axis=2) * parallel * self._res_mask_block_op
        )                                                           # (N, M)
        block_res = (theta_w * op_res).sum(axis=1)                  # (N,)
        res = summed_resource(block_res)

        return HwEvaluation(
            perf_loss=perf,
            resource=res,
            diagnostics={
                "sum_block_latency_units": float(block_perf.data.sum()),
                "max_block_latency_units": float(block_perf.data.max()),
                "resource_dsp": float(res.data),
            },
        )

    # -- post-search re-tuning (Sec. 5 final step) ---------------------------------
    def retune_parallel_factors(
        self, op_indices: list[int], bitwidths: list[int]
    ) -> list[int]:
        """Integer parallelism for the derived network under the DSP budget.

        For the pipelined architecture each block gets its own factor; for
        the recursive architecture factors are per *used IP* (unique op) and
        the budget covers each IP once.

        Psi(q) = 0 below 5 bits (LUT arithmetic); for allocation purposes we
        charge those units a quarter DSP-equivalent as a LUT-budget proxy so
        the parallelism stays bounded on a real device.
        """
        from repro.hw.allocation import integer_parallel_factors

        if len(op_indices) != self.space.num_blocks:
            raise ValueError(
                f"need {self.space.num_blocks} op choices, got {len(op_indices)}"
            )
        dsp_per_unit = [max(psi_dsp(b), 0.25) for b in bitwidths]
        if self.architecture == "pipelined":
            workloads = [
                self.workload[i, m] * phi_latency_calibration(bitwidths[i])
                for i, m in enumerate(op_indices)
            ]
            unit_budget = self.resource_bound / max(
                sum(dsp_per_unit) / len(dsp_per_unit), 1e-3
            )
            return integer_parallel_factors(workloads, unit_budget)
        # Recursive: one IP per distinct op; its workload is the sum over the
        # blocks that use it.
        used = sorted(set(op_indices))
        ip_workload = {m: 0.0 for m in used}
        for i, m in enumerate(op_indices):
            ip_workload[m] += self.workload[i, m] * phi_latency_calibration(bitwidths[i])
        avg_dsp = sum(dsp_per_unit) / len(dsp_per_unit)
        unit_budget = self.resource_bound / max(avg_dsp, 1e-3)
        factors = integer_parallel_factors([ip_workload[m] for m in used], unit_budget)
        by_ip = dict(zip(used, factors))
        return [by_ip[m] for m in op_indices]
