"""Build a trainable network from an :class:`ArchSpec`, one unit per block.

:func:`build_unit` is the one builder of network units in the package.
:class:`BuiltNetwork` chains one unit per spec block to retrain derived
architectures (the paper's final step in Sec. 5) and to train scaled-down
zoo baselines on the synthetic proxy task; :class:`~repro.nas.supernet.SuperNet`
builds its stem, every candidate and its head from the same units, so a
derived network is the supernet's argmax path unit for unit.  Supports the
full block vocabulary: stem / MBConv / separable / plain conv / max- and
avg-pooling / parallel branches (residuals, inception modules) / GAP- and
flatten-style fully connected heads — so every zoo network can be
instantiated, not just the MBConv family.

Every unit's ``forward(x, transform)`` takes a weight transform applied to
each conv/linear weight before use: ``None`` for float weights,
:func:`~repro.nas.quantization.fake_quantize` at one bit-width in
:meth:`BuiltNetwork.forward`, a Gumbel-weighted
:func:`~repro.nas.quantization.mixed_quantize` in the supernet.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.autograd import ops_nn
from repro.autograd.ops_shape import concat, flatten as flatten_op
from repro.autograd.tensor import Tensor
from repro.nas.arch_spec import (
    ArchSpec,
    Branches,
    ConvBlock,
    FCBlock,
    MBConvBlock,
    PoolBlock,
    SepConvBlock,
    StemBlock,
)
from repro.nas.quantization import fake_quantize
from repro.nn.layers import BatchNorm2d, Conv2d, Linear
from repro.nn.module import Module
from repro.utils.rng import spawn_rngs

#: Maps a weight to the tensor a unit computes with; ``None`` = float weights.
WeightTransform = Callable[[Tensor], Tensor] | None


def _weight(param: Tensor, transform: WeightTransform) -> Tensor:
    return param if transform is None else transform(param)


class _ConvUnit(Module):
    """conv -> BN -> ReLU6 (the activation is optional)."""

    def __init__(self, in_ch: int, out_ch: int, kernel: int, stride: int,
                 groups: int, rng: np.random.Generator, act: bool = True) -> None:
        super().__init__()
        self.conv = Conv2d(in_ch, out_ch, kernel, stride=stride, groups=groups, rng=rng)
        self.bn = BatchNorm2d(out_ch)
        self.act = act

    def forward(self, x: Tensor, transform: WeightTransform = None) -> Tensor:
        out = ops_nn.conv2d(
            x, _weight(self.conv.weight, transform), stride=self.conv.stride,
            padding=self.conv.padding, groups=self.conv.groups,
        )
        out = self.bn(out)
        return ops_nn.relu6(out) if self.act else out


class _MBConvUnit(Module):
    def __init__(self, in_ch: int, block: MBConvBlock, rng: np.random.Generator) -> None:
        super().__init__()
        hidden = in_ch * block.expansion
        self.use_residual = block.stride == 1 and in_ch == block.out_ch
        self.expand = _ConvUnit(in_ch, hidden, 1, 1, 1, rng)
        self.dw = _ConvUnit(hidden, hidden, block.kernel, block.stride, hidden, rng)
        self.project = _ConvUnit(hidden, block.out_ch, 1, 1, 1, rng, act=False)

    def forward(self, x: Tensor, transform: WeightTransform = None) -> Tensor:
        out = self.project(self.dw(self.expand(x, transform), transform), transform)
        return out + x if self.use_residual else out


class _SepConvUnit(Module):
    def __init__(self, in_ch: int, block: SepConvBlock, rng: np.random.Generator) -> None:
        super().__init__()
        self.dw = _ConvUnit(in_ch, in_ch, block.kernel, block.stride, in_ch, rng)
        self.pw = _ConvUnit(in_ch, block.out_ch, 1, 1, 1, rng, act=False)

    def forward(self, x: Tensor, transform: WeightTransform = None) -> Tensor:
        return self.pw(self.dw(x, transform), transform)


class _PoolUnit(Module):
    def __init__(self, block: PoolBlock) -> None:
        super().__init__()
        self.kernel = block.kernel
        self.stride = block.stride
        self.mode = block.mode
        # 'Same'-style padding: an odd kernel then meets ArchSpec's ceil rule
        # (PoolBlock.expand refuses the geometries this unit cannot run).
        self.padding = block.kernel // 2 if block.kernel != block.stride else 0

    def forward(self, x: Tensor, transform: WeightTransform = None) -> Tensor:
        if self.mode == "max":
            return ops_nn.max_pool2d(
                x, self.kernel, stride=self.stride, padding=self.padding
            )
        return ops_nn.avg_pool2d(x, self.kernel)


class _BranchesUnit(Module):
    """Parallel branches combined by concat (inception) or add (residual)."""

    def __init__(self, in_ch: int, block: Branches, rng: np.random.Generator) -> None:
        super().__init__()
        self.combine = block.combine
        self._branches: list[list[Module]] = []
        out_channels: list[int] = []
        for b_idx, branch in enumerate(block.branches):
            units: list[Module] = []
            ch = in_ch
            for u_idx, sub in enumerate(branch):
                unit, ch = build_unit(ch, sub, rng)
                setattr(self, f"branch{b_idx}_unit{u_idx}", unit)
                units.append(unit)
            self._branches.append(units)
            out_channels.append(ch)
        self.out_ch = sum(out_channels) if self.combine == "concat" else out_channels[0]

    def forward(self, x: Tensor, transform: WeightTransform = None) -> Tensor:
        outputs = []
        for units in self._branches:
            out = x
            for unit in units:
                out = unit(out, transform)
            outputs.append(out)
        if self.combine == "add":
            total = outputs[0]
            for out in outputs[1:]:
                total = total + out
            return total
        return concat(outputs, axis=1)


class _FCUnit(Module):
    """Fully connected stage: GAP or flatten on 4-D input, then linear.

    Inner FC units apply ReLU; the builder disables it on the final
    classifier stage.
    """

    def __init__(self, in_features: int, block: FCBlock,
                 rng: np.random.Generator, act: bool) -> None:
        super().__init__()
        self.flatten = block.flatten
        self.act = act
        self.linear = Linear(in_features, block.out_features, rng=rng)

    def forward(self, x: Tensor, transform: WeightTransform = None) -> Tensor:
        if x.ndim == 4:
            x = flatten_op(x) if self.flatten else ops_nn.global_avg_pool2d(x)
        out = ops_nn.linear(x, _weight(self.linear.weight, transform), self.linear.bias)
        return ops_nn.relu(out) if self.act else out


def build_unit(in_ch: int, block, rng: np.random.Generator,
               last: bool = False) -> tuple[Module, int]:
    """Instantiate one block; returns (unit, out_channels).

    Every weight is drawn from ``rng`` in the unit's layer order.  For an
    :class:`FCBlock`, ``in_ch`` is the input feature count and ``last``
    marks the network's classifier, which drops the ReLU of inner FC stages.
    """
    if isinstance(block, FCBlock):
        return _FCUnit(in_ch, block, rng, act=not last), block.out_features
    if isinstance(block, (StemBlock, ConvBlock)):
        groups = getattr(block, "groups", 1)
        return _ConvUnit(in_ch, block.out_ch, block.kernel, block.stride, groups, rng), block.out_ch
    if isinstance(block, MBConvBlock):
        return _MBConvUnit(in_ch, block, rng), block.out_ch
    if isinstance(block, SepConvBlock):
        return _SepConvUnit(in_ch, block, rng), block.out_ch
    if isinstance(block, PoolBlock):
        return _PoolUnit(block), in_ch
    if isinstance(block, Branches):
        unit = _BranchesUnit(in_ch, block, rng)
        return unit, unit.out_ch
    raise TypeError(
        f"build_network cannot instantiate block type {type(block).__name__}"
    )


class BuiltNetwork(Module):
    """A concrete network assembled from an ArchSpec.

    ``forward(x, bits=...)`` fake-quantises every conv/linear weight to
    ``bits`` (or the spec's annotated ``weight_bits`` when ``bits`` is
    omitted and the spec carries one), reproducing Table 2's precision sweep.
    """

    def __init__(self, spec: ArchSpec, seed: int | None = None) -> None:
        super().__init__()
        self.spec = spec
        if not spec.blocks or not isinstance(spec.blocks[-1], FCBlock):
            raise ValueError(f"spec {spec.name!r} must end in an FCBlock classifier")
        # The geometry every estimate prices; it raises ValueError for a spec
        # whose blocks the units cannot run (see PoolBlock.expand).
        layers = spec.layers()
        rngs = spawn_rngs(seed, len(spec.blocks))
        self._units: list[Module] = []
        ch = spec.input_channels
        # Track FC-chain input features once the spatial part ends.
        fc_features: int | None = None
        for i, block in enumerate(spec.blocks):
            rng = rngs[i]
            if isinstance(block, FCBlock):
                if fc_features is None and block.flatten:
                    # Resolve the spatial size feeding this FC.
                    fc_features = next(
                        l.in_ch for l in layers
                        if l.kind == "fc" and l.block_index == i
                    )
                elif fc_features is None:
                    fc_features = ch
                unit, fc_features = build_unit(
                    fc_features, block, rng, last=i == len(spec.blocks) - 1
                )
            else:
                if fc_features is not None:
                    raise ValueError(
                        f"spec {spec.name!r}: spatial block after FC blocks"
                    )
                unit, ch = build_unit(ch, block, rng)
            setattr(self, f"unit{i}", unit)
            self._units.append(unit)

    @property
    def units(self) -> tuple[Module, ...]:
        """The per-block modules in execution order (read-only view).

        This is the traversal surface :func:`repro.runtime.compile_spec`
        lowers from — one unit per spec block, same order as ``forward``.
        """
        return tuple(self._units)

    def forward(self, x: Tensor, bits: int | None = None) -> Tensor:
        if bits is None:
            bits = self.spec.weight_bits
        transform = (lambda w: fake_quantize(w, bits)) if bits else None
        for unit in self._units:
            x = unit(x, transform)
        return x


def build_network(spec: ArchSpec, seed: int | None = None) -> BuiltNetwork:
    """Instantiate a trainable module for ``spec`` (weights from ``seed``)."""
    return BuiltNetwork(spec, seed=seed)
