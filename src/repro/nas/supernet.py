"""The single-path supernet (the blue half of the paper's Fig. 1).

Structure: fixed stem (Conv3x3/s2 -> SepConv -> Conv1x1) -> N searchable
blocks, each holding M :class:`MBConvCandidate` modules -> fixed head
(Conv1x1 -> GAP -> FC).  A forward pass takes a :class:`SampledArch` — one
Gumbel-Softmax draw of operation choices (``Theta``) and quantisation choices
(``Phi``) — and evaluates **only the sampled branch** per block, multiplied
by the straight-through sample weight so gradients still reach the sampling
parameters.  This is the Gumbel-sampling memory/speed advantage the paper
cites over DARTS-style weighted sums (Sec. 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd import ops_nn
from repro.autograd.tensor import Tensor
from repro.nas.gumbel import GumbelSoftmax
from repro.nas.quantization import QuantizationConfig, fake_quantize, mixed_quantize
from repro.nn.layers import BatchNorm2d, Conv2d, DepthwiseConv2d, Linear
from repro.nn.module import Module, Parameter
from repro.nas.space import CandidateOp, SearchSpaceConfig
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


class ConvBNAct(Module):
    """Conv -> BatchNorm -> ReLU6, the stem/head building unit."""

    def __init__(self, in_ch: int, out_ch: int, kernel: int, stride: int,
                 rng: np.random.Generator, groups: int = 1, act: bool = True) -> None:
        super().__init__()
        self.conv = Conv2d(in_ch, out_ch, kernel, stride=stride, groups=groups, rng=rng)
        self.bn = BatchNorm2d(out_ch)
        self.act = act

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn(self.conv(x))
        return ops_nn.relu6(out) if self.act else out


class SkipCandidate(Module):
    """Depth-search candidate: identity, or a pointwise projection when the
    block must change channels/resolution.

    The identity form ignores quantisation (there is nothing to quantise);
    the projection form quantises its 1x1 weights like any other candidate.
    """

    def __init__(self, in_ch: int, out_ch: int, stride: int,
                 quant: QuantizationConfig | None, rng: np.random.Generator) -> None:
        super().__init__()
        self.quant = quant
        self.identity = stride == 1 and in_ch == out_ch
        self.use_residual = False
        if not self.identity:
            self.proj = Conv2d(in_ch, out_ch, 1, stride=stride, rng=rng)
            self.bn = BatchNorm2d(out_ch)

    def forward(self, x: Tensor, quant_weights: Tensor | None = None) -> Tensor:
        if self.identity:
            return x
        weight = self.proj.weight
        if quant_weights is not None and self.quant is not None:
            weight = mixed_quantize(weight, quant_weights, self.quant.bitwidths)
        out = ops_nn.conv2d(x, weight, stride=self.proj.stride, padding=0)
        return self.bn(out)


class MBConvCandidate(Module):
    """One candidate operation: expand 1x1 -> depthwise kxk -> project 1x1.

    The forward optionally applies a Gumbel-weighted quantisation mixture to
    every conv weight (Stage-1 of the implementation formulation); the
    straight-through estimator keeps the whole path differentiable with
    respect to both the weights and the Phi sampling parameters.
    """

    def __init__(self, in_ch: int, out_ch: int, stride: int, op: CandidateOp,
                 quant: QuantizationConfig | None, rng: np.random.Generator) -> None:
        super().__init__()
        hidden = in_ch * op.expansion
        self.op = op
        self.stride = stride
        self.quant = quant
        self.use_residual = stride == 1 and in_ch == out_ch
        self.expand = Conv2d(in_ch, hidden, 1, rng=rng)
        self.bn1 = BatchNorm2d(hidden)
        self.dw = DepthwiseConv2d(hidden, op.kernel, stride=stride, rng=rng)
        self.bn2 = BatchNorm2d(hidden)
        self.project = Conv2d(hidden, out_ch, 1, rng=rng)
        self.bn3 = BatchNorm2d(out_ch)

    def _weight(self, layer: Conv2d, quant_weights: Tensor | None) -> Tensor:
        if quant_weights is None or self.quant is None:
            return layer.weight
        return mixed_quantize(layer.weight, quant_weights, self.quant.bitwidths)

    def forward(self, x: Tensor, quant_weights: Tensor | None = None) -> Tensor:
        w1 = self._weight(self.expand, quant_weights)
        out = ops_nn.conv2d(x, w1, stride=1, padding=0)
        out = ops_nn.relu6(self.bn1(out))
        w2 = self._weight(self.dw, quant_weights)
        out = ops_nn.conv2d(
            out, w2, stride=self.stride, padding=self.dw.padding, groups=self.dw.groups
        )
        out = ops_nn.relu6(self.bn2(out))
        w3 = self._weight(self.project, quant_weights)
        out = ops_nn.conv2d(out, w3, stride=1, padding=0)
        out = self.bn3(out)
        if self.use_residual:
            out = out + x
        if self.quant is not None and self.quant.activation_bits < 32:
            out = fake_quantize(out, self.quant.activation_bits)
        return out


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

        # Fixed stem: Conv3x3/s2 -> SepConv3x3 -> Conv1x1 (Fig. 4 left edge).
        self.stem_conv = ConvBNAct(space.input_channels, space.stem_channels, 3, 2, stem_rng)
        self.stem_dw = DepthwiseConv2d(space.stem_channels, 3, rng=stem_rng)
        self.stem_dw_bn = BatchNorm2d(space.stem_channels)
        # SepConv projection is linear (no activation), MobileNetV2-style —
        # and matching repro.nas.network's builder so weight inheritance is
        # forward-exact.
        self.stem_pw = ConvBNAct(space.stem_channels, space.trunk_channels, 1, 1,
                                 stem_rng, act=False)
        self.stem_out = ConvBNAct(space.trunk_channels, space.pre_block_channels, 1, 1, stem_rng)

        # Searchable blocks: N x M candidates (skip last when depth search on).
        ops = space.candidate_ops()
        self._candidates: list[list[Module]] = []
        in_channels = space.block_input_channels()
        for i in range(space.num_blocks):
            row: list[Module] = []
            for m, op in enumerate(ops):
                candidate: Module
                if op.is_skip:
                    candidate = SkipCandidate(
                        in_ch=in_channels[i],
                        out_ch=space.block_channels[i],
                        stride=space.block_strides[i],
                        quant=quant,
                        rng=rngs[i * space.num_ops + m],
                    )
                else:
                    candidate = MBConvCandidate(
                        in_ch=in_channels[i],
                        out_ch=space.block_channels[i],
                        stride=space.block_strides[i],
                        op=op,
                        quant=quant,
                        rng=rngs[i * space.num_ops + m],
                    )
                setattr(self, f"block{i}_op{m}", candidate)
                row.append(candidate)
            self._candidates.append(row)

        # Fixed head: Conv1x1 -> GAP -> FC.
        self.head = ConvBNAct(space.block_channels[-1], space.head_channels, 1, 1, head_rng)
        self.classifier = Linear(space.head_channels, space.num_classes, rng=fc_rng)

        # Architecture sampling parameters (zero logits = uniform start).
        self.theta = Parameter(np.zeros((space.num_blocks, space.num_ops)))
        q_levels = quant.num_levels if quant is not None else 1
        phi_shape = (
            quant.phi_shape(space.num_blocks, space.num_ops)
            if quant is not None
            else (1,)
        )
        self.phi = Parameter(np.zeros(phi_shape))
        self._q_levels = q_levels

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
        the block input one after another.  The co-search defaults to hard
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

    # -- forward ---------------------------------------------------------------
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

        out = self.stem_conv(x)
        out = ops_nn.relu6(self.stem_dw_bn(
            ops_nn.conv2d(out, self.stem_dw.weight, stride=1,
                          padding=self.stem_dw.padding, groups=self.stem_dw.groups)
        ))
        out = self.stem_pw(out)
        out = self.stem_out(out)

        for i, row in enumerate(self._candidates):
            if sample.hard:
                # Single-path mode: evaluate only the sampled candidate.  The
                # straight-through gate has forward value 1 but carries the
                # gradient back to theta[i, m].
                m = sample.op_indices[i]
                quant_weights = (
                    sample.quant_slice(i, m) if self.quant is not None else None
                )
                gate = sample.op_weights[i, m]
                out = row[m](out, quant_weights=quant_weights) * gate
            else:
                # Weighted mode: Gumbel-soft mixture over all M candidates in
                # index order, the differentiable expectation of Eqs. 2-5.
                mixed: Tensor | None = None
                for m, candidate in enumerate(row):
                    quant_weights = (
                        sample.quant_slice(i, m) if self.quant is not None else None
                    )
                    term = candidate(out, quant_weights=quant_weights)
                    term = term * sample.op_weights[i, m]
                    mixed = term if mixed is None else mixed + term
                assert mixed is not None
                out = mixed

        out = self.head(out)
        out = ops_nn.global_avg_pool2d(out)
        return self.classifier(out)

    # -- introspection ------------------------------------------------------------
    def theta_probabilities(self) -> np.ndarray:
        """Softmax of Theta per block — the op-selection distribution."""
        return stable_softmax(self.theta.data, axis=-1)

    def phi_probabilities(self) -> np.ndarray:
        """Softmax of Phi along the bit-width axis."""
        return stable_softmax(self.phi.data, axis=-1)
