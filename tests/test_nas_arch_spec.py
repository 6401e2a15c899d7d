"""Unit tests for the ArchSpec IR: geometry resolution, MACs, rendering."""

import numpy as np
import pytest

from repro.nas.arch_spec import (
    ArchSpec,
    Branches,
    ConvBlock,
    FCBlock,
    MBConvBlock,
    PoolBlock,
    SepConvBlock,
    ShuffleUnit,
    StemBlock,
    scale_spec,
)


def simple_spec():
    return ArchSpec(
        name="t",
        blocks=[
            StemBlock(out_ch=8, kernel=3, stride=2),
            MBConvBlock(expansion=2, kernel=3, out_ch=16, stride=2),
            FCBlock(out_features=10),
        ],
        input_size=16,
        input_channels=3,
    )


class TestGeometryResolution:
    def test_stem_halves_resolution(self):
        layers = simple_spec().layers()
        assert layers[0].out_h == 8

    def test_mbconv_expands_to_three_layers(self):
        layers = simple_spec().layers()
        mb = [l for l in layers if l.block_index == 1]
        assert [l.kind for l in mb] == ["conv", "dwconv", "conv"]
        assert mb[0].out_ch == 8 * 2      # expansion
        assert mb[1].stride == 2
        assert mb[2].out_ch == 16

    def test_channels_chain_through_blocks(self):
        layers = simple_spec().layers()
        for prev, nxt in zip(layers, layers[1:]):
            assert nxt.in_ch == prev.out_ch

    def test_odd_resolution_ceil(self):
        spec = ArchSpec("odd", [StemBlock(out_ch=4, stride=2), FCBlock(out_features=2)],
                        input_size=7, input_channels=1)
        assert spec.layers()[0].out_h == 4  # ceil(7/2)

    def test_sepconv_two_layers(self):
        spec = ArchSpec("s", [SepConvBlock(kernel=3, out_ch=8), FCBlock(out_features=2)],
                        input_size=8, input_channels=4)
        kinds = [l.kind for l in spec.layers()]
        assert kinds == ["dwconv", "conv", "fc"]


class TestMacsAndParams:
    def test_conv_macs_formula(self):
        spec = ArchSpec("c", [ConvBlock(out_ch=8, kernel=3)], input_size=4, input_channels=2)
        layer = spec.layers()[0]
        assert layer.macs == 9 * 4 * 4 * 2 * 8
        assert layer.params == 9 * 2 * 8

    def test_dwconv_macs_formula(self):
        spec = ArchSpec(
            "d", [SepConvBlock(kernel=3, out_ch=4)], input_size=4, input_channels=4
        )
        dw = spec.layers()[0]
        assert dw.macs == 9 * 4 * 4 * 4

    def test_fc_flatten_vs_gap(self):
        gap = ArchSpec("g", [ConvBlock(out_ch=8), FCBlock(out_features=10)],
                       input_size=4, input_channels=3)
        flat = ArchSpec("f", [ConvBlock(out_ch=8), FCBlock(out_features=10, flatten=True)],
                        input_size=4, input_channels=3)
        assert gap.layers()[-1].macs == 8 * 10
        assert flat.layers()[-1].macs == 8 * 4 * 4 * 10

    def test_pool_and_shuffle_zero_macs(self):
        spec = ArchSpec("p", [PoolBlock(), ShuffleUnit(out_ch=8, stride=2)],
                        input_size=8, input_channels=4)
        layers = spec.layers()
        assert layers[0].macs == 0
        assert [l for l in layers if l.kind == "shuffle"][0].macs == 0

    def test_total_macs_sums(self):
        spec = simple_spec()
        assert spec.total_macs() == sum(l.macs for l in spec.layers())


class TestBranches:
    def test_concat_sums_channels(self):
        block = Branches(
            branches=(
                (ConvBlock(out_ch=4, kernel=1),),
                (ConvBlock(out_ch=6, kernel=3),),
            ),
            combine="concat",
        )
        _, ch, h, w = block.expand(3, 8, 8, 0)
        assert ch == 10

    def test_add_keeps_channels(self):
        block = Branches(
            branches=(
                (ConvBlock(out_ch=4, kernel=3),),
                (ConvBlock(out_ch=4, kernel=1),),
            ),
            combine="add",
        )
        _, ch, _, _ = block.expand(3, 8, 8, 0)
        assert ch == 4

    def test_identity_branch(self):
        block = Branches(branches=((ConvBlock(out_ch=4, kernel=3),), ()), combine="add")
        _, ch, _, _ = block.expand(4, 8, 8, 0)
        assert ch == 4

    def test_add_mismatched_channels_raises(self):
        block = Branches(
            branches=((ConvBlock(out_ch=4),), (ConvBlock(out_ch=6),)), combine="add"
        )
        with pytest.raises(ValueError, match="share channel count"):
            block.expand(3, 8, 8, 0)

    def test_resolution_mismatch_raises(self):
        block = Branches(
            branches=((ConvBlock(out_ch=4, stride=2),), (ConvBlock(out_ch=4),)),
            combine="add",
        )
        with pytest.raises(ValueError, match="resolution"):
            block.expand(3, 8, 8, 0)

    def test_bad_combine_raises(self):
        block = Branches(branches=((),), combine="multiply")
        with pytest.raises(ValueError, match="combine"):
            block.expand(3, 8, 8, 0)


# (kernel, stride, mode, size, resolves): does the built unit compute the
# ceil(size / stride) every estimate prices?
POOL_CASES = [
    (2, 2, "max", 8, True),
    (2, 2, "max", 9, False),   # kernel == stride floors an undivided map
    (3, 3, "max", 9, True),
    (3, 3, "max", 10, False),
    (3, 2, "max", 9, True),    # odd kernel != stride: padded by kernel // 2
    (3, 2, "max", 8, True),
    (3, 1, "max", 7, True),
    (5, 2, "max", 11, True),
    (1, 2, "max", 7, True),
    (2, 1, "max", 8, False),   # even kernel != stride: floor(size / s) + 1
    (4, 2, "max", 8, False),
    (2, 2, "avg", 8, True),
    (2, 2, "avg", 9, False),
    (3, 2, "avg", 9, False),   # avg windows tile by kernel, ignoring stride
    (3, 1, "avg", 9, False),
]


class TestPoolGeometry:
    @staticmethod
    def _spec(kernel, stride, mode, size):
        # A flatten head sized from spec.layers(): a spec/unit disagreement
        # would surface as a matmul shape error, not pass silently.
        return ArchSpec(
            "pool",
            [
                StemBlock(out_ch=4, kernel=3, stride=1),
                PoolBlock(kernel=kernel, stride=stride, mode=mode),
                FCBlock(out_features=2, flatten=True),
            ],
            input_size=size,
            input_channels=1,
        )

    def test_unknown_mode_is_rejected(self):
        # Built units and compiled plans treat any mode but "max" as an
        # average pool, so an unknown mode must not get that far.
        with pytest.raises(ValueError, match="'max' or 'avg'"):
            PoolBlock(kernel=2, stride=2, mode="min")
        with pytest.raises(ValueError, match="'max' or 'avg'"):
            self._spec(2, 2, "Max", 8)

    @pytest.mark.parametrize("kernel,stride,mode,size,resolves", POOL_CASES)
    def test_spec_and_built_unit_agree(self, kernel, stride, mode, size,
                                       resolves):
        from repro.autograd.tensor import Tensor
        from repro.nas.network import build_network
        from repro.runtime import Engine, compile_spec

        spec = self._spec(kernel, stride, mode, size)
        if not resolves:
            for refuse in (spec.layers, spec.total_macs,
                           lambda: build_network(spec, seed=0),
                           lambda: compile_spec(spec, seed=0)):
                with pytest.raises(ValueError, match="ceil"):
                    refuse()
            return
        pool = spec.layers()[1]
        expected = -(-size // stride)
        assert (pool.out_h, pool.out_w) == (expected, expected)
        net = build_network(spec, seed=0)
        net.eval()
        x = np.random.default_rng(0).standard_normal((2, 1, size, size))
        pooled = net.units[1](net.units[0](Tensor(x)))
        assert pooled.shape == (2, 4, expected, expected)
        assert net(Tensor(x)).shape == (2, 2)
        assert Engine(compile_spec(net)).run(x).shape == (2, 2)


class TestScaleSpec:
    def test_width_multiplier_scales_channels(self):
        spec = simple_spec()
        scaled = scale_spec(spec, width_mult=0.5, min_ch=1)
        assert scaled.blocks[0].out_ch == 4
        assert scaled.blocks[1].out_ch == 8

    def test_min_channels_floor(self):
        scaled = scale_spec(simple_spec(), width_mult=0.01, min_ch=4)
        assert scaled.blocks[0].out_ch == 4

    def test_input_size_and_classes_override(self):
        scaled = scale_spec(simple_spec(), input_size=8, num_classes=5)
        assert scaled.input_size == 8
        assert scaled.blocks[-1].out_features == 5

    def test_name_annotated(self):
        assert "w0.5" in scale_spec(simple_spec(), width_mult=0.5).name


class TestRendering:
    def test_describe_contains_blocks(self):
        text = simple_spec().describe()
        assert "MB2 3x3" in text
        assert "GAP+FC" in text

    def test_summary_keys(self):
        summary = simple_spec().summary()
        assert set(summary) == {"name", "blocks", "layers", "macs", "params"}

    def test_has_kind(self):
        spec = ArchSpec("s", [ShuffleUnit(out_ch=8, stride=2), FCBlock(out_features=2)],
                        input_size=8, input_channels=4)
        assert spec.has_kind("shuffle")
        assert not simple_spec().has_kind("shuffle")
