"""Property-based tests (hypothesis) over randomly generated architectures
and search spaces — the invariants every valid spec/space must satisfy."""

import dataclasses

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nas.arch_spec import (
    ArchSpec,
    ConvBlock,
    FCBlock,
    MBConvBlock,
    PoolBlock,
    SepConvBlock,
    StemBlock,
)
from repro.nas.space import SearchSpaceConfig

channels = st.sampled_from([4, 8, 12, 16, 24])
kernels = st.sampled_from([1, 3, 5])
strides = st.sampled_from([1, 2])


@st.composite
def spatial_blocks(draw):
    kind = draw(st.sampled_from(["conv", "mb", "sep", "pool", "stem"]))
    if kind == "conv":
        return ConvBlock(out_ch=draw(channels), kernel=draw(kernels), stride=draw(strides))
    if kind == "mb":
        return MBConvBlock(
            expansion=draw(st.sampled_from([1, 2, 4])),
            kernel=draw(st.sampled_from([3, 5])),
            out_ch=draw(channels),
            stride=draw(strides),
        )
    if kind == "sep":
        return SepConvBlock(kernel=draw(st.sampled_from([3, 5])),
                            out_ch=draw(channels), stride=draw(strides))
    if kind == "pool":
        return PoolBlock(kernel=2, stride=2, mode=draw(st.sampled_from(["max", "avg"])))
    return StemBlock(out_ch=draw(channels), kernel=3, stride=draw(strides))


def _resolves(spec: ArchSpec) -> bool:
    try:
        spec.layers()
    except ValueError:  # a pool whose stride does not divide its map
        return False
    return True


@st.composite
def random_specs(draw):
    blocks = draw(st.lists(spatial_blocks(), min_size=1, max_size=5))
    blocks.append(FCBlock(out_features=draw(st.sampled_from([2, 5, 10]))))
    spec = ArchSpec(
        name="random",
        blocks=blocks,
        input_size=draw(st.sampled_from([16, 24, 32])),
        input_channels=draw(st.sampled_from([1, 3])),
    )
    assume(_resolves(spec))
    return spec


@settings(max_examples=60, deadline=None)
@given(random_specs())
def test_property_geometry_chains(spec):
    """Consecutive resolved layers agree on channels; dims stay positive."""
    layers = spec.layers()
    assert layers
    for layer in layers:
        assert layer.out_h >= 1 and layer.out_w >= 1
        assert layer.in_ch >= 1 and layer.out_ch >= 1
        assert layer.macs >= 0 and layer.params >= 0
    for prev, nxt in zip(layers, layers[1:]):
        assert nxt.in_ch == prev.out_ch


@settings(max_examples=60, deadline=None)
@given(random_specs())
def test_property_totals_are_sums(spec):
    layers = spec.layers()
    assert spec.total_macs() == sum(l.macs for l in layers)
    assert spec.total_params() == sum(l.params for l in layers)
    assert spec.num_layers() == len(layers)


@settings(max_examples=40, deadline=None)
@given(random_specs(), st.floats(min_value=0.25, max_value=3.0))
def test_property_scaling_monotone(spec, mult):
    """Width scaling with mult >= 1 never shrinks MACs; <= 1 never grows
    them beyond rounding of the channel floor."""
    from repro.nas.arch_spec import scale_spec

    scaled = scale_spec(spec, width_mult=mult, min_ch=1)
    if mult >= 1.0:
        assert scaled.total_macs() >= spec.total_macs()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=8),
    st.sampled_from([8, 12, 16]),
    st.booleans(),
)
def test_property_space_consistency(num_blocks, num_classes, input_size, allow_skip):
    """Any reduced space yields consistent geometry and assembles specs for
    every candidate at every position."""
    space = dataclasses.replace(
        SearchSpaceConfig.reduced(
            num_blocks=num_blocks, num_classes=num_classes, input_size=input_size,
        ),
        allow_skip=allow_skip,
    )
    geoms = space.block_geometries()
    assert len(geoms) == space.num_blocks
    for prev, nxt in zip(geoms, geoms[1:]):
        assert nxt.in_ch == prev.out_ch
    ops = space.candidate_ops()
    assert len(ops) == space.num_ops
    for op in ops:
        spec = space.spec_for_choices([op] * space.num_blocks)
        layers = spec.layers()
        assert layers[-1].out_ch == num_classes


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
def test_property_workloads_positive_and_skip_cheapest(num_blocks, seed):
    """Every candidate workload is non-negative, and where depth search is
    on, skip is never more expensive than any MBConv candidate."""
    from repro.hw.fpga import candidate_workload

    space = dataclasses.replace(
        SearchSpaceConfig.reduced(num_blocks=num_blocks), allow_skip=True
    )
    ops = space.candidate_ops()
    for geom in space.block_geometries():
        costs = [candidate_workload(geom, op) for op in ops]
        assert all(c >= 0 for c in costs)
        assert costs[-1] <= min(costs[:-1])  # skip is last


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_constant_sample_rows_one_hot(seed):
    from repro.nas.quantization import QuantizationConfig
    from repro.nas.supernet import constant_sample

    rng = np.random.default_rng(seed)
    space = SearchSpaceConfig.tiny()
    quant = QuantizationConfig.fpga("per_block_op")
    op_idx = rng.integers(0, space.num_ops, size=space.num_blocks)
    bit_idx = rng.integers(0, quant.num_levels, size=(space.num_blocks, space.num_ops))
    sample = constant_sample(space, quant, [int(i) for i in op_idx], bit_idx)
    np.testing.assert_allclose(sample.op_weights.data.sum(axis=-1), 1.0)
    np.testing.assert_allclose(sample.quant_weights.data.sum(axis=-1), 1.0)
    assert sample.op_indices == [int(i) for i in op_idx]
