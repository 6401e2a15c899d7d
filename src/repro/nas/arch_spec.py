"""Architecture specification IR.

``ArchSpec`` is the lingua franca of the reproduction: searched networks are
derived into it, every baseline in the model zoo is encoded in it, the
analytic hardware evaluators consume it, and ``repro.nas.network`` can build
a trainable module from it.  A spec is a sequence of high-level *blocks*
(stem convs, MBConv, separable convs, pools, FC) that resolve — given an
input resolution — into concrete per-layer geometry with MACs, parameter and
activation counts.

Layer kinds used throughout the hardware models:

* ``conv``     — dense (optionally grouped) convolution
* ``dwconv``   — depthwise convolution (one filter per channel)
* ``pool``     — max/avg pooling (negligible compute, changes resolution)
* ``fc``       — fully connected layer (after global average pooling)
* ``shuffle``  — channel shuffle marker (zero MACs; flags ops unsupported by
  the recursive FPGA flow, mirroring CHaiDNN's lack of ShuffleNet support in
  Table 1)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class ResolvedLayer:
    """One concrete layer with fully resolved geometry."""

    kind: str
    kernel: int
    stride: int
    in_ch: int
    out_ch: int
    groups: int
    in_h: int
    in_w: int
    out_h: int
    out_w: int
    block_index: int = -1  # which high-level block produced this layer

    @property
    def macs(self) -> int:
        """Multiply-accumulate count (the paper's Eq. 12 workload terms)."""
        if self.kind == "conv":
            return (
                self.kernel
                * self.kernel
                * self.out_h
                * self.out_w
                * (self.in_ch // self.groups)
                * self.out_ch
            )
        if self.kind == "dwconv":
            return self.kernel * self.kernel * self.out_h * self.out_w * self.in_ch
        if self.kind == "fc":
            return self.in_ch * self.out_ch
        return 0  # pool / shuffle move data but do no MACs

    @property
    def params(self) -> int:
        if self.kind == "conv":
            return self.kernel * self.kernel * (self.in_ch // self.groups) * self.out_ch
        if self.kind == "dwconv":
            return self.kernel * self.kernel * self.in_ch
        if self.kind == "fc":
            return self.in_ch * self.out_ch + self.out_ch
        return 0

    @property
    def input_activations(self) -> int:
        return self.in_ch * self.in_h * self.in_w

    @property
    def output_activations(self) -> int:
        return self.out_ch * self.out_h * self.out_w


class Block:
    """Base class for high-level blocks; subclasses expand into layers."""

    def expand(self, in_ch: int, h: int, w: int, index: int) -> tuple[list[ResolvedLayer], int, int, int]:
        """Return (layers, out_ch, out_h, out_w) for the given input geometry."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


def _out_size(size: int, stride: int) -> int:
    """'Same' padding output size used by all blocks."""
    return math.ceil(size / stride)


@dataclass(frozen=True)
class StemBlock(Block):
    """Initial dense convolution (e.g. Conv 3x3 stride 2 in every EDD-Net)."""

    out_ch: int
    kernel: int = 3
    stride: int = 2

    def expand(self, in_ch, h, w, index):
        oh, ow = _out_size(h, self.stride), _out_size(w, self.stride)
        layer = ResolvedLayer(
            "conv", self.kernel, self.stride, in_ch, self.out_ch, 1, h, w, oh, ow, index
        )
        return [layer], self.out_ch, oh, ow

    def describe(self) -> str:
        return f"Conv{self.kernel}x{self.kernel} -> {self.out_ch}" + (
            f" /s{self.stride}" if self.stride > 1 else ""
        )


@dataclass(frozen=True)
class ConvBlock(Block):
    """Plain dense convolution block (VGG/ResNet style)."""

    out_ch: int
    kernel: int = 3
    stride: int = 1
    groups: int = 1

    def expand(self, in_ch, h, w, index):
        oh, ow = _out_size(h, self.stride), _out_size(w, self.stride)
        layer = ResolvedLayer(
            "conv", self.kernel, self.stride, in_ch, self.out_ch, self.groups, h, w, oh, ow, index
        )
        return [layer], self.out_ch, oh, ow

    def describe(self) -> str:
        return f"Conv{self.kernel}x{self.kernel} -> {self.out_ch}" + (
            f" /s{self.stride}" if self.stride > 1 else ""
        )


@dataclass(frozen=True)
class MBConvBlock(Block):
    """MobileNetV2 inverted residual: expand 1x1 -> depthwise kxk -> project 1x1.

    This is the candidate operation of the paper's search space (Sec. 3.1):
    ``MB <expansion> <k>x<k>``.
    """

    expansion: int
    kernel: int
    out_ch: int
    stride: int = 1

    def expand(self, in_ch, h, w, index):
        hidden = in_ch * self.expansion
        oh, ow = _out_size(h, self.stride), _out_size(w, self.stride)
        layers = [
            ResolvedLayer("conv", 1, 1, in_ch, hidden, 1, h, w, h, w, index),
            ResolvedLayer("dwconv", self.kernel, self.stride, hidden, hidden, hidden, h, w, oh, ow, index),
            ResolvedLayer("conv", 1, 1, hidden, self.out_ch, 1, oh, ow, oh, ow, index),
        ]
        return layers, self.out_ch, oh, ow

    def describe(self) -> str:
        return f"MB{self.expansion} {self.kernel}x{self.kernel} -> {self.out_ch}" + (
            f" /s{self.stride}" if self.stride > 1 else ""
        )


@dataclass(frozen=True)
class SepConvBlock(Block):
    """Separable convolution: depthwise kxk then pointwise projection."""

    kernel: int
    out_ch: int
    stride: int = 1

    def expand(self, in_ch, h, w, index):
        oh, ow = _out_size(h, self.stride), _out_size(w, self.stride)
        layers = [
            ResolvedLayer("dwconv", self.kernel, self.stride, in_ch, in_ch, in_ch, h, w, oh, ow, index),
            ResolvedLayer("conv", 1, 1, in_ch, self.out_ch, 1, oh, ow, oh, ow, index),
        ]
        return layers, self.out_ch, oh, ow

    def describe(self) -> str:
        return f"Sep{self.kernel}x{self.kernel} -> {self.out_ch}" + (
            f" /s{self.stride}" if self.stride > 1 else ""
        )


@dataclass(frozen=True)
class PoolBlock(Block):
    """Max/avg pooling; compute-free but changes resolution.

    Like every block it maps a size to ``ceil(size / stride)``, which the
    built unit (:class:`repro.nas.network._PoolUnit`) computes in two cases
    only: a max pool with an odd kernel other than its stride (padded by
    ``kernel // 2``), and windows that tile the map (``kernel == stride``,
    the stride dividing both sides).  ``expand`` raises ``ValueError`` for
    every other geometry, so estimates and built networks refuse the same
    specs.  ``mode`` must be ``"max"`` or ``"avg"``.
    """

    kernel: int = 2
    stride: int = 2
    mode: str = "max"

    def __post_init__(self) -> None:
        if self.mode not in ("max", "avg"):
            raise ValueError(
                f"pool mode must be 'max' or 'avg', got {self.mode!r}"
            )

    def expand(self, in_ch, h, w, index):
        padded = self.mode == "max" and self.kernel % 2 == 1 and self.kernel != self.stride
        tiles = self.kernel == self.stride and h % self.stride == 0 and w % self.stride == 0
        if not (padded or tiles):
            raise ValueError(
                f"{self.describe()} cannot map a {h}x{w} input to "
                f"ceil(size / stride): only an odd-kernel max pool or a "
                f"kernel == stride pool whose stride divides the map can"
            )
        oh, ow = _out_size(h, self.stride), _out_size(w, self.stride)
        layer = ResolvedLayer("pool", self.kernel, self.stride, in_ch, in_ch, 1, h, w, oh, ow, index)
        return [layer], in_ch, oh, ow

    def describe(self) -> str:
        return f"{self.mode}pool{self.kernel} /s{self.stride}"


@dataclass(frozen=True)
class ShuffleUnit(Block):
    """ShuffleNetV2 unit (half-split branch + channel shuffle).

    Geometry-wise this contributes the branch convolutions plus a zero-MAC
    ``shuffle`` marker layer.  The marker lets device models that cannot map
    channel shuffles (the recursive FPGA flow, mirroring CHaiDNN) report the
    network as unsupported.
    """

    out_ch: int
    stride: int = 1

    def expand(self, in_ch, h, w, index):
        oh, ow = _out_size(h, self.stride), _out_size(w, self.stride)
        branch = self.out_ch // 2
        layers = [
            ResolvedLayer("conv", 1, 1, in_ch if self.stride > 1 else in_ch // 2, branch, 1, h, w, h, w, index),
            ResolvedLayer("dwconv", 3, self.stride, branch, branch, branch, h, w, oh, ow, index),
            ResolvedLayer("conv", 1, 1, branch, branch, 1, oh, ow, oh, ow, index),
        ]
        if self.stride > 1:
            # Second (shortcut) branch also has a dw + pw pair when downsampling.
            layers += [
                ResolvedLayer("dwconv", 3, self.stride, in_ch, in_ch, in_ch, h, w, oh, ow, index),
                ResolvedLayer("conv", 1, 1, in_ch, branch, 1, oh, ow, oh, ow, index),
            ]
        layers.append(
            ResolvedLayer("shuffle", 1, 1, self.out_ch, self.out_ch, 1, oh, ow, oh, ow, index)
        )
        return layers, self.out_ch, oh, ow

    def describe(self) -> str:
        return f"ShuffleUnit -> {self.out_ch}" + (f" /s{self.stride}" if self.stride > 1 else "")


@dataclass(frozen=True)
class FCBlock(Block):
    """Fully connected layer.

    Default semantics are "global average pool then FC" (MobileNet-style
    heads).  With ``flatten=True`` the spatial map is flattened instead
    (VGG-style heads), so the FC input is ``in_ch * h * w``.
    """

    out_features: int
    flatten: bool = False

    def expand(self, in_ch, h, w, index):
        in_features = in_ch * h * w if self.flatten else in_ch
        layer = ResolvedLayer("fc", 1, 1, in_features, self.out_features, 1, 1, 1, 1, 1, index)
        return [layer], self.out_features, 1, 1

    def describe(self) -> str:
        prefix = "Flatten+FC" if self.flatten else "GAP+FC"
        return f"{prefix} -> {self.out_features}"


@dataclass(frozen=True)
class Branches(Block):
    """Parallel branches from a shared input (inception modules, residuals).

    ``combine='concat'`` concatenates branch outputs along channels
    (GoogleNet inception); ``combine='add'`` element-wise adds them (ResNet
    residual), requiring every branch to produce the same channel count.  An
    empty branch (``[]``) is an identity shortcut.  All branches must reach
    the same output resolution.
    """

    branches: tuple[tuple[Block, ...], ...]
    combine: str = "concat"

    def expand(self, in_ch, h, w, index):
        if self.combine not in ("concat", "add"):
            raise ValueError(f"combine must be 'concat' or 'add', got {self.combine!r}")
        layers: list[ResolvedLayer] = []
        out_channels: list[int] = []
        out_hw: set[tuple[int, int]] = set()
        for branch in self.branches:
            ch, bh, bw = in_ch, h, w
            for block in branch:
                sub_layers, ch, bh, bw = block.expand(ch, bh, bw, index)
                layers.extend(sub_layers)
            out_channels.append(ch)
            out_hw.add((bh, bw))
        if len(out_hw) != 1:
            raise ValueError(
                f"branches disagree on output resolution: {sorted(out_hw)}"
            )
        oh, ow = out_hw.pop()
        if self.combine == "concat":
            out_ch = sum(out_channels)
        else:
            distinct = set(out_channels)
            if len(distinct) != 1:
                raise ValueError(
                    f"'add' branches must share channel count, got {out_channels}"
                )
            out_ch = out_channels[0]
        return layers, out_ch, oh, ow

    def describe(self) -> str:
        inner = " | ".join(
            "identity" if not branch else " -> ".join(b.describe() for b in branch)
            for branch in self.branches
        )
        return f"[{inner}] ({self.combine})"


@dataclass
class ArchSpec:
    """A complete network: named block sequence plus input geometry."""

    name: str
    blocks: list[Block]
    input_size: int = 224
    input_channels: int = 3
    # Optional annotations attached by the co-search / device models.
    weight_bits: int | None = None
    metadata: dict = field(default_factory=dict)

    def layers(self) -> list[ResolvedLayer]:
        """Resolve every block into concrete layers, walking the geometry."""
        resolved: list[ResolvedLayer] = []
        ch, h, w = self.input_channels, self.input_size, self.input_size
        for index, block in enumerate(self.blocks):
            layers, ch, h, w = block.expand(ch, h, w, index)
            resolved.extend(layers)
        return resolved

    # -- aggregate statistics -------------------------------------------------
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers())

    def total_params(self) -> int:
        return sum(layer.params for layer in self.layers())

    def num_layers(self) -> int:
        return len(self.layers())

    def has_kind(self, kind: str) -> bool:
        return any(layer.kind == kind for layer in self.layers())

    def buildable(self) -> bool:
        """Whether :func:`repro.nas.network.build_network` (and therefore the
        compiled runtime) can instantiate every block.

        Channel-shuffle marker layers have no builder unit — mirroring the
        recursive FPGA flow's lack of ShuffleNet support — so specs containing
        them are analytic-model-only.
        """
        return not self.has_kind("shuffle")

    def describe(self) -> str:
        """Human-readable block listing (used by the Figure 4 renderer)."""
        lines = [f"{self.name} (input {self.input_channels}x{self.input_size}x{self.input_size})"]
        lines += [f"  [{i:2d}] {b.describe()}" for i, b in enumerate(self.blocks)]
        return "\n".join(lines)

    def summary(self) -> dict:
        return {
            "name": self.name,
            "blocks": len(self.blocks),
            "layers": self.num_layers(),
            "macs": self.total_macs(),
            "params": self.total_params(),
        }


def scale_spec(spec: ArchSpec, width_mult: float = 1.0, input_size: int | None = None,
               num_classes: int | None = None, min_ch: int = 4) -> ArchSpec:
    """Down/up-scale a spec: channel width multiplier and input resolution.

    Used to train laptop-scale versions of the zoo networks on the synthetic
    proxy task while preserving their relative shapes.
    """

    def scale_ch(ch: int) -> int:
        return max(min_ch, int(round(ch * width_mult)))

    def scale_block(block: Block, is_classifier: bool = False) -> Block:
        if isinstance(block, (StemBlock, ConvBlock, SepConvBlock, MBConvBlock, ShuffleUnit)):
            return replace(block, out_ch=scale_ch(block.out_ch))
        if isinstance(block, FCBlock):
            if is_classifier:
                return replace(block, out_features=num_classes or block.out_features)
            # Hidden FC stages (VGG-style) scale with the width multiplier.
            return replace(block, out_features=scale_ch(block.out_features))
        if isinstance(block, Branches):
            return replace(
                block,
                branches=tuple(
                    tuple(scale_block(b) for b in branch) for branch in block.branches
                ),
            )
        return block

    new_blocks = [
        scale_block(block, is_classifier=(i == len(spec.blocks) - 1))
        for i, block in enumerate(spec.blocks)
    ]
    return ArchSpec(
        name=f"{spec.name}-w{width_mult:g}",
        blocks=new_blocks,
        input_size=input_size or spec.input_size,
        input_channels=spec.input_channels,
        weight_bits=spec.weight_bits,
    )
