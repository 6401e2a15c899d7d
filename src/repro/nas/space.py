"""Search-space configuration (the paper's Sec. 3.1 / Sec. 6 setup).

The paper's space: ``N = 20`` MBConv blocks, each choosing among
``M = |kernels| x |expansions| = 3 x 3 = 9`` candidate operations, plus a
fixed stem (Conv3x3 stride 2, SepConv to a narrow trunk, Conv1x1) and head
(Conv1x1, GAP, FC) mirroring the EDD-Net drawings of Fig. 4.

``SearchSpaceConfig`` also carries the per-block channel/stride schedule so
the same class describes both the paper-scale space and the reduced space
used for CPU-sized experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nas.arch_spec import (
    ArchSpec,
    Block,
    ConvBlock,
    FCBlock,
    MBConvBlock,
    ResolvedLayer,
    SepConvBlock,
    StemBlock,
    _out_size,
)


@dataclass(frozen=True)
class CandidateOp:
    """One candidate operation.

    Regular candidates are MBConv (kernel, expansion) pairs.  The sentinel
    ``CandidateOp.skip()`` is the depth-search candidate: it contributes an
    identity (or a pointwise projection where the block must change
    channels/resolution), letting the search shorten the network — the
    mechanism behind "shallower" pipelined designs like EDD-Net-3.
    """

    kernel: int
    expansion: int

    @property
    def is_skip(self) -> bool:
        return self.expansion == 0

    @property
    def label(self) -> str:
        if self.is_skip:
            return "skip"
        return f"MB{self.expansion} {self.kernel}x{self.kernel}"

    @classmethod
    def skip(cls) -> "CandidateOp":
        return cls(kernel=1, expansion=0)


@dataclass(frozen=True)
class BlockGeometry:
    """Resolved input/output geometry of one searchable block position.

    The device models use this to turn candidate ops into workload constants
    (Eq. 12) without instantiating any weights.
    """

    in_ch: int
    out_ch: int
    stride: int
    in_h: int
    in_w: int
    out_h: int
    out_w: int


def candidate_block(geom: BlockGeometry, op: CandidateOp) -> Block | None:
    """The block that candidate ``op`` places at a position of geometry ``geom``.

    An MBConv candidate is its :class:`MBConvBlock`.  The skip candidate is
    ``None`` where the block keeps its shape (a pure identity: the block
    disappears from the network), otherwise the 1x1 projection that changes
    channels/resolution.  Derived specs and the device cost tables both read
    this one description of a candidate.
    """
    if op.is_skip:
        if geom.stride == 1 and geom.in_ch == geom.out_ch:
            return None
        return ConvBlock(out_ch=geom.out_ch, kernel=1, stride=geom.stride)
    return MBConvBlock(
        expansion=op.expansion, kernel=op.kernel, out_ch=geom.out_ch, stride=geom.stride
    )


def candidate_layers(geom: BlockGeometry, op: CandidateOp) -> list[ResolvedLayer]:
    """The resolved layers of :func:`candidate_block` (none for an identity skip)."""
    block = candidate_block(geom, op)
    if block is None:
        return []
    layers, _, _, _ = block.expand(geom.in_ch, geom.in_h, geom.in_w, -1)
    return layers


@dataclass
class SearchSpaceConfig:
    """Geometry of the single-path supernet.

    ``block_channels``/``block_strides`` have one entry per searchable block.
    Defaults reproduce the paper-scale space; classmethods provide reduced
    spaces for tests and CPU experiments.
    """

    kernel_sizes: tuple[int, ...] = (3, 5, 7)
    expansions: tuple[int, ...] = (4, 5, 6)
    block_channels: tuple[int, ...] = (
        32, 40, 40, 40, 80, 80, 80, 80, 96, 96, 96, 96, 96, 192, 192, 192, 192, 192, 192, 320,
    )
    block_strides: tuple[int, ...] = (
        1, 2, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1,
    )
    stem_channels: int = 32
    trunk_channels: int = 16
    pre_block_channels: int = 32
    head_channels: int = 1280
    num_classes: int = 1000
    input_size: int = 224
    input_channels: int = 3
    #: Depth search: append a skip candidate to every block's menu.  Skips
    #: resolve to the identity where shapes allow, otherwise to a pointwise
    #: projection — the searched network can become shallower than N.
    allow_skip: bool = False

    def __post_init__(self) -> None:
        if len(self.block_channels) != len(self.block_strides):
            raise ValueError(
                f"block_channels ({len(self.block_channels)}) and block_strides "
                f"({len(self.block_strides)}) must have the same length"
            )
        if not self.kernel_sizes or not self.expansions:
            raise ValueError("kernel_sizes and expansions must be non-empty")

    # -- sizes ----------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        """N in the paper."""
        return len(self.block_channels)

    @property
    def num_ops(self) -> int:
        """M in the paper (plus one when depth search is enabled)."""
        base = len(self.kernel_sizes) * len(self.expansions)
        return base + 1 if self.allow_skip else base

    def candidate_ops(self) -> list[CandidateOp]:
        """All M candidates in deterministic (kernel-major) order.

        With ``allow_skip`` the skip candidate comes last, so indices of the
        MBConv candidates are stable across the two settings.
        """
        ops = [
            CandidateOp(kernel=k, expansion=e)
            for k in self.kernel_sizes
            for e in self.expansions
        ]
        if self.allow_skip:
            ops.append(CandidateOp.skip())
        return ops

    # -- geometry helpers -------------------------------------------------------
    def fixed_prefix(self) -> list[Block]:
        """The non-searchable stem blocks (Fig. 4 left edge)."""
        return [
            StemBlock(out_ch=self.stem_channels, kernel=3, stride=2),
            SepConvBlock(kernel=3, out_ch=self.trunk_channels),
            ConvBlock(out_ch=self.pre_block_channels, kernel=1),
        ]

    def fixed_suffix(self) -> list[Block]:
        """The non-searchable head blocks (Conv1x1 + GAP/FC in Fig. 4)."""
        return [
            ConvBlock(out_ch=self.head_channels, kernel=1),
            FCBlock(out_features=self.num_classes),
        ]

    def block_input_channels(self) -> list[int]:
        """Input channel count of every searchable block."""
        inputs = [self.pre_block_channels]
        inputs.extend(self.block_channels[:-1])
        return inputs

    def block_geometries(self) -> list[BlockGeometry]:
        """Per-block geometry after walking the fixed prefix.

        Identical for every candidate op at a position (candidates only vary
        kernel and expansion), so the result is a property of the space.
        """
        ch, h, w = self.input_channels, self.input_size, self.input_size
        for block in self.fixed_prefix():
            _, ch, h, w = block.expand(ch, h, w, -1)
        geometries = []
        for out_ch, stride in zip(self.block_channels, self.block_strides):
            oh, ow = _out_size(h, stride), _out_size(w, stride)
            geometries.append(
                BlockGeometry(
                    in_ch=ch, out_ch=out_ch, stride=stride,
                    in_h=h, in_w=w, out_h=oh, out_w=ow,
                )
            )
            ch, h, w = out_ch, oh, ow
        return geometries

    def spec_for_choices(
        self, choices: list[CandidateOp], name: str = "searched"
    ) -> ArchSpec:
        """Assemble an :class:`ArchSpec` from one candidate choice per block."""
        if len(choices) != self.num_blocks:
            raise ValueError(
                f"need {self.num_blocks} choices, got {len(choices)}"
            )
        blocks: list[Block] = list(self.fixed_prefix())
        for geom, op in zip(self.block_geometries(), choices):
            block = candidate_block(geom, op)
            if block is not None:
                blocks.append(block)
        blocks.extend(self.fixed_suffix())
        return ArchSpec(
            name=name,
            blocks=blocks,
            input_size=self.input_size,
            input_channels=self.input_channels,
        )

    # -- canned configurations ---------------------------------------------------
    @classmethod
    def paper_scale(cls) -> "SearchSpaceConfig":
        """The N=20, M=9 ImageNet-scale space of Sec. 6."""
        return cls()

    @classmethod
    def reduced(
        cls,
        num_blocks: int = 4,
        num_classes: int = 10,
        input_size: int = 16,
        kernel_sizes: tuple[int, ...] = (3, 5),
        expansions: tuple[int, ...] = (2, 4),
    ) -> "SearchSpaceConfig":
        """CPU-sized space used by examples and the search benchmarks."""
        channels, strides = [], []
        ch = 16
        for i in range(num_blocks):
            if i == num_blocks // 2:
                ch *= 2
                strides.append(2)
            else:
                strides.append(1)
            channels.append(ch)
        return cls(
            kernel_sizes=kernel_sizes,
            expansions=expansions,
            block_channels=tuple(channels),
            block_strides=tuple(strides),
            stem_channels=8,
            trunk_channels=8,
            pre_block_channels=16,
            head_channels=64,
            num_classes=num_classes,
            input_size=input_size,
            input_channels=3,
        )

    @classmethod
    def tiny(cls) -> "SearchSpaceConfig":
        """Smallest usable space — unit-test scale."""
        return cls.reduced(num_blocks=2, num_classes=4, input_size=8)
