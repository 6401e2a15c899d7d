"""The single-path supernet (the blue half of the paper's Fig. 1).

Structure: fixed stem (Conv3x3/s2 -> SepConv -> Conv1x1) -> N searchable
blocks, each holding M candidates -> fixed head (Conv1x1 -> GAP -> FC).
Every part is a :func:`repro.nas.network.build_unit` unit; a candidate is
the unit of its :func:`repro.nas.space.candidate_block` (an identity skip
is :class:`~repro.nn.layers.Identity`), so the network derived from the
Theta argmax is this supernet's argmax path, unit for unit.  A forward pass
takes a :class:`SampledArch` — one Gumbel-Softmax draw of operation choices
(``Theta``) and quantisation choices (``Phi``) — and evaluates **only the
sampled branch** per block, multiplied by the straight-through sample
weight so gradients still reach the sampling parameters.  This is the
Gumbel-sampling memory/speed advantage the paper cites over DARTS-style
weighted sums (Sec. 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nas.gumbel import GumbelSoftmax
from repro.nas.network import WeightTransform, build_unit
from repro.nas.quantization import QuantizationConfig, fake_quantize, mixed_quantize
from repro.nn.layers import Identity
from repro.nn.module import Module, Parameter
from repro.nas.space import SearchSpaceConfig, candidate_block
from repro.utils.numeric import stable_softmax
from repro.utils.rng import spawn_rngs

ARCH_PARAMETER_NAMES = ("theta", "phi")


@dataclass
class SampledArch:
    """One joint draw from the fused design space ``{Theta, Phi}``.

    ``op_weights`` is the (N, M) straight-through sample of Theta (row-wise
    one-hot in the forward pass); ``quant_weights`` is the Phi sample shaped
    by the sharing mode.  The same object is consumed by the supernet forward
    (accuracy path) and by the device models (performance/resource path), so
    both losses are evaluated on the *same* sampled implementation — the
    "simultaneous" in the paper's title.
    """

    op_weights: Tensor
    quant_weights: Tensor
    op_indices: list[int]
    sharing: str
    hard: bool = True

    def quant_slice(self, block: int, op: int) -> Tensor:
        """The (Q,) quantisation weights applying to candidate (block, op)."""
        if self.sharing == "per_block_op":
            return self.quant_weights[block, op]
        if self.sharing == "per_op":
            return self.quant_weights[op]
        return self.quant_weights

    def quant_indices(self) -> np.ndarray:
        """Argmax bit-width index per Phi row (shape = phi shape minus Q)."""
        return self.quant_weights.data.argmax(axis=-1)


def constant_sample(
    space: SearchSpaceConfig,
    quant: QuantizationConfig | None,
    op_indices: list[int],
    bit_indices: np.ndarray | int = 0,
) -> SampledArch:
    """A deterministic (no-noise, no-gradient) SampledArch from explicit choices.

    Useful for evaluating a *fixed* architecture/implementation through the
    differentiable device models: random-search baselines, ablations, and
    tests all use this to probe ``Perf_loss``/``RES`` at specific points of
    the fused space.
    """
    n, m = space.num_blocks, space.num_ops
    if len(op_indices) != n:
        raise ValueError(f"need {n} op indices, got {len(op_indices)}")
    op_w = np.zeros((n, m))
    op_w[np.arange(n), op_indices] = 1.0
    if quant is None:
        return SampledArch(
            op_weights=Tensor(op_w),
            quant_weights=Tensor(np.ones((1,))),
            op_indices=list(op_indices),
            sharing="global",
            hard=True,
        )
    shape = quant.phi_shape(n, m)
    quant_w = np.zeros(shape)
    bit_idx = np.broadcast_to(np.asarray(bit_indices), shape[:-1])
    flat = quant_w.reshape(-1, quant.num_levels)
    flat[np.arange(flat.shape[0]), bit_idx.reshape(-1).astype(int)] = 1.0
    return SampledArch(
        op_weights=Tensor(op_w),
        quant_weights=Tensor(quant_w),
        op_indices=list(op_indices),
        sharing=quant.sharing,
        hard=True,
    )


class SuperNet(Module):
    """Supernet over the fused search space.

    Parameters
    ----------
    space:
        Block/channel geometry and the candidate menu.
    quant:
        Quantisation menu and sharing mode; ``None`` searches architecture
        only (the fixed-implementation baseline).
    seed:
        Controls weight initialisation (deterministic given the seed).
    """

    def __init__(self, space: SearchSpaceConfig,
                 quant: QuantizationConfig | None = None,
                 seed: int | None = None) -> None:
        super().__init__()
        self.space = space
        self.quant = quant
        rngs = spawn_rngs(seed, space.num_blocks * space.num_ops + 3)
        stem_rng, head_rng, fc_rng = rngs[-3], rngs[-2], rngs[-1]

        # Fixed stem: Conv3x3/s2 -> SepConv3x3 -> Conv1x1 (Fig. 4 left edge),
        # every weight drawn from the one stem stream.
        self._stem: list[Module] = []
        ch = space.input_channels
        for j, block in enumerate(space.fixed_prefix()):
            unit, ch = build_unit(ch, block, stem_rng)
            setattr(self, f"stem{j}", unit)
            self._stem.append(unit)

        # Searchable blocks: N x M candidates (skip last when depth search on).
        self._ops = space.candidate_ops()
        self._candidates: list[list[Module]] = []
        for i, geom in enumerate(space.block_geometries()):
            row: list[Module] = []
            for m, op in enumerate(self._ops):
                block = candidate_block(geom, op)
                unit = (
                    Identity() if block is None
                    else build_unit(geom.in_ch, block, rngs[i * space.num_ops + m])[0]
                )
                setattr(self, f"block{i}_op{m}", unit)
                row.append(unit)
            self._candidates.append(row)

        # Fixed head: Conv1x1 -> GAP -> FC.
        head_block, fc_block = space.fixed_suffix()
        self.head, ch = build_unit(space.block_channels[-1], head_block, head_rng)
        self.classifier, _ = build_unit(ch, fc_block, fc_rng, last=True)

        # Architecture sampling parameters (zero logits = uniform start).
        self.theta = Parameter(np.zeros((space.num_blocks, space.num_ops)))
        phi_shape = (
            quant.phi_shape(space.num_blocks, space.num_ops)
            if quant is not None
            else (1,)
        )
        self.phi = Parameter(np.zeros(phi_shape))

    # -- parameter partition ---------------------------------------------------
    def arch_parameters(self) -> list[Parameter]:
        """The fused search variables Theta and Phi (pf lives in the hw model)."""
        return [self.theta, self.phi]

    def weight_parameters(self) -> list[Parameter]:
        """DNN weights ``w`` — everything that is not a sampling parameter."""
        return [
            p
            for name, p in self.named_parameters()
            if name.split(".")[-1] not in ARCH_PARAMETER_NAMES
        ]

    # -- sampling ----------------------------------------------------------------
    def sample(self, sampler: GumbelSoftmax, hard: bool = True) -> SampledArch:
        """Draw a joint (Theta, Phi) sample for one feed-forward pass.

        ``hard=True`` is the paper's memory-efficient single-path mode: the
        forward pass evaluates only the sampled candidate per block.  Note
        that because every candidate ends in (and is followed by) BatchNorm,
        the scalar straight-through gate is almost scale-invariant, so the
        *accuracy* gradient reaching Theta is weak in this mode (the
        performance gradient of Eqs. 4-5 is unaffected).  ``hard=False``
        evaluates all M candidates under soft Gumbel weights (FBNet-style),
        giving Theta a full accuracy gradient at roughly M times the compute
        and activation memory of a hard pass, since every candidate runs on
        the block input one after another.  The co-search always takes hard
        weight steps and soft architecture steps;
        ``benchmarks/bench_ablation_gumbel.py`` quantifies the trade-off.
        """
        op_weights = sampler.sample(self.theta, hard=hard, axis=-1)
        if self.quant is not None:
            quant_weights = sampler.sample(self.phi, hard=hard, axis=-1)
        else:
            quant_weights = Tensor(np.ones((1,)))
        op_indices = [int(i) for i in op_weights.data.argmax(axis=-1)]
        sharing = self.quant.sharing if self.quant is not None else "global"
        return SampledArch(
            op_weights=op_weights,
            quant_weights=quant_weights,
            op_indices=op_indices,
            sharing=sharing,
            hard=hard,
        )

    def candidate(self, block: int, op: int) -> Module:
        return self._candidates[block][op]

    def path_units(self, op_indices: list[int]) -> list[Module]:
        """The units one op choice per block runs, in execution order.

        Identity skips drop out, as their blocks do from the derived spec,
        so the list pairs one to one with the units of the network built
        from ``space.spec_for_choices`` of the same choices.
        """
        chosen = [self._candidates[i][m] for i, m in enumerate(op_indices)]
        blocks = [unit for unit in chosen if not isinstance(unit, Identity)]
        return [*self._stem, *blocks, self.head, self.classifier]

    # -- forward ---------------------------------------------------------------
    def _weight_transform(self, sample: SampledArch, block: int,
                          op: int) -> WeightTransform:
        """``mixed_quantize`` over candidate (block, op)'s Phi slice."""
        if self.quant is None:
            return None
        quant_weights = sample.quant_slice(block, op)
        return lambda w: mixed_quantize(w, quant_weights, self.quant.bitwidths)

    def _run_candidate(self, block: int, op: int, x: Tensor,
                       transform: WeightTransform) -> Tensor:
        """Candidate (block, op) on ``x``.  MBConv outputs are fake-quantised
        to the activation bit-width; skips, stem and head quantise none."""
        unit = self._candidates[block][op]
        if isinstance(unit, Identity):
            return unit(x)
        out = unit(x, transform)
        if self.quant is not None and not self._ops[op].is_skip:
            out = fake_quantize(out, self.quant.activation_bits)
        return out

    def forward(self, x: Tensor, sample: SampledArch | None = None,
                sampler: GumbelSoftmax | None = None) -> Tensor:
        """Classify a batch under one sampled architecture.

        Either pass a pre-drawn ``sample`` (so callers can reuse it for the
        performance formulas) or a ``sampler`` to draw one internally.
        """
        if sample is None:
            if sampler is None:
                raise ValueError("provide either a SampledArch or a GumbelSoftmax sampler")
            sample = self.sample(sampler)

        out = x
        for unit in self._stem:
            out = unit(out)

        for i, row in enumerate(self._candidates):
            if sample.hard:
                # Single-path mode: evaluate only the sampled candidate.  The
                # straight-through gate has forward value 1 but carries the
                # gradient back to theta[i, m].
                m = sample.op_indices[i]
                transform = self._weight_transform(sample, i, m)
                gate = sample.op_weights[i, m]
                out = self._run_candidate(i, m, out, transform) * gate
            else:
                # Weighted mode: Gumbel-soft mixture over all M candidates in
                # index order, the differentiable expectation of Eqs. 2-5.
                mixed: Tensor | None = None
                for m in range(len(row)):
                    transform = self._weight_transform(sample, i, m)
                    term = self._run_candidate(i, m, out, transform)
                    term = term * sample.op_weights[i, m]
                    mixed = term if mixed is None else mixed + term
                assert mixed is not None
                out = mixed

        return self.classifier(self.head(out))

    # -- introspection ------------------------------------------------------------
    def theta_probabilities(self) -> np.ndarray:
        """Softmax of Theta per block — the op-selection distribution."""
        return stable_softmax(self.theta.data, axis=-1)

    def phi_probabilities(self) -> np.ndarray:
        """Softmax of Phi along the bit-width axis."""
        return stable_softmax(self.phi.data, axis=-1)
