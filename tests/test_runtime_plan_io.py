"""ExecutionPlan save/load round-trips (cold-start-free deployment)."""

import dataclasses

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.baselines.model_zoo import get_model
from repro.nas.arch_spec import (
    ArchSpec,
    FCBlock,
    MBConvBlock,
    SepConvBlock,
    StemBlock,
    scale_spec,
)
from repro.nas.network import build_network
from repro.runtime import Engine, ExecutionPlan, compile_spec
from repro.runtime.plan import BufferSpec


@pytest.fixture(scope="module")
def compiled():
    spec = scale_spec(
        get_model("MobileNet-V2"), width_mult=0.1, input_size=16, num_classes=4
    )
    net = build_network(spec, seed=0)
    rng = np.random.default_rng(0)
    for _ in range(2):  # non-trivial BN running stats
        net(Tensor(rng.normal(size=(4, 3, 16, 16))))
    net.eval()
    return compile_spec(net)


def test_round_trip_structure(compiled, tmp_path):
    path = compiled.save(tmp_path / "plan.npz")
    loaded = ExecutionPlan.load(path)
    assert loaded.name == compiled.name
    assert loaded.dtype == compiled.dtype
    assert loaded.bits == compiled.bits
    assert loaded.input_buffer == compiled.input_buffer
    assert loaded.output_buffer == compiled.output_buffer
    assert len(loaded.ops) == len(compiled.ops)
    assert len(loaded.buffers) == len(compiled.buffers)
    for a, b in zip(loaded.ops, compiled.ops):
        assert (a.kind, a.inputs, a.output, a.act, a.scratch) == (
            b.kind, b.inputs, b.output, b.act, b.scratch
        )
        assert a.attrs == b.attrs
        if b.weight is None:
            assert a.weight is None
        else:
            np.testing.assert_array_equal(a.weight, b.weight)
            assert a.weight.dtype == b.weight.dtype


def test_round_trip_execution_parity(compiled, tmp_path):
    path = compiled.save(tmp_path / "plan.npz")
    loaded = ExecutionPlan.load(path)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3,) + compiled.input_shape)
    np.testing.assert_array_equal(Engine(loaded).run(x), Engine(compiled).run(x))


def test_concat_attrs_survive(tmp_path):
    """Tuple-valued attrs (concat channels) round-trip as tuples."""
    spec = scale_spec(
        get_model("GoogleNet"), width_mult=0.25, input_size=32, num_classes=4
    )
    plan = compile_spec(spec, seed=0)
    if plan.num_ops("concat") == 0:
        pytest.skip("model lowers without concat ops")
    loaded = ExecutionPlan.load(plan.save(tmp_path / "plan.npz"))
    rng = np.random.default_rng(2)
    for op in loaded.ops:
        if op.kind == "concat":
            assert isinstance(op.attrs["channels"], tuple)
    x = rng.normal(size=(2,) + plan.input_shape)
    np.testing.assert_array_equal(Engine(loaded).run(x), Engine(plan).run(x))


def test_load_rejects_foreign_npz(tmp_path):
    path = tmp_path / "not_a_plan.npz"
    np.savez(path, data=np.zeros(4))
    with pytest.raises(ValueError, match="not a saved ExecutionPlan"):
        ExecutionPlan.load(path)


def test_save_appends_npz_suffix_and_returns_real_path(compiled, tmp_path):
    """Regression: np.savez appends .npz; save must report the real file."""
    path = compiled.save(tmp_path / "myplan")
    assert path.name == "myplan.npz"
    assert path.exists()
    assert ExecutionPlan.load(path).name == compiled.name


def _with_im2col_depthwise_scratch(plan: ExecutionPlan) -> ExecutionPlan:
    """``plan`` with the depthwise scratch that plans saved while depthwise
    convs ran on im2col carry: a ``(C, k, k, oH, oW)`` column buffer (none
    for 1x1 at stride 1) and no padded input at padding 0."""
    shapes = {buf.id: buf.shape for buf in plan.buffers}
    dropped = set()
    ops = []
    for op in plan.ops:
        attrs = dict(op.attrs)
        if op.kind == "conv" and "dw" in op.label:
            k, stride = attrs["kernel"], attrs["stride"]
            c, out_h, out_w = shapes[attrs["col_buf"]]
            shapes[attrs["col_buf"]] = (c, k, k, out_h, out_w)
            for key, unused in (("pad_buf", not attrs["padding"]),
                                ("col_buf", k == 1 and stride == 1)):
                if unused:
                    dropped.add(attrs[key])
                    attrs[key] = None
        ops.append((op, attrs))
    ids = {old: new for new, old in
           enumerate(buf for buf in shapes if buf not in dropped)}

    def remap(buf):
        return None if buf is None else ids[buf]

    return ExecutionPlan(
        name=plan.name,
        ops=[
            dataclasses.replace(
                op,
                inputs=tuple(ids[buf] for buf in op.inputs),
                output=ids[op.output],
                scratch=tuple(ids[buf] for buf in op.scratch
                              if buf not in dropped),
                attrs={key: remap(value) if key.endswith("_buf") else value
                       for key, value in attrs.items()},
            )
            for op, attrs in ops
        ],
        buffers=[BufferSpec(ids[buf.id], shapes[buf.id], buf.role)
                 for buf in plan.buffers if buf.id not in dropped],
        input_buffer=ids[plan.input_buffer],
        output_buffer=ids[plan.output_buffer],
        dtype=plan.dtype,
        bits=plan.bits,
        metadata=plan.metadata,
    )


def test_plan_with_im2col_depthwise_scratch_still_runs(tmp_path):
    """Plans saved before the channels-last depthwise kernel keep running:
    it reads the flat prefix of their bigger column buffer and allocates
    the padded input they lack at padding 0."""
    spec = ArchSpec(
        "dw-scratch",
        [
            StemBlock(out_ch=8, kernel=3, stride=2),
            MBConvBlock(expansion=3, kernel=5, out_ch=8),
            MBConvBlock(expansion=2, kernel=3, out_ch=12, stride=2),
            SepConvBlock(kernel=1, out_ch=12),
            SepConvBlock(kernel=1, out_ch=16, stride=2),
            FCBlock(out_features=4),
        ],
        input_size=16,
        input_channels=3,
    )
    plan = compile_spec(spec, seed=0)
    old = _with_im2col_depthwise_scratch(plan)
    depthwise = [op for op in old.ops if "dw" in op.label]
    assert [op.attrs["padding"] for op in depthwise] == [2, 1, 0, 0]
    assert [op.attrs["pad_buf"] is None for op in depthwise] == [
        False, False, True, True]
    assert [len(old.buffer(op.attrs["col_buf"]).shape)
            if op.attrs["col_buf"] is not None else None
            for op in depthwise] == [5, 5, None, 5]
    loaded = ExecutionPlan.load(old.save(tmp_path / "old.npz"))
    x = np.random.default_rng(3).normal(size=(3,) + plan.input_shape)
    np.testing.assert_array_equal(Engine(loaded).run(x), Engine(plan).run(x))
