"""Differential property test of the compile path over generated specs.

For every buildable :class:`ArchSpec` hypothesis draws, across bit-widths
and both fusion flags, these must agree on the same weights and BN state:

* the eval-mode ``BuiltNetwork.forward`` and the compiled ``Engine.run``
  (within 1e-4);
* ``Engine.run`` on the plan, on its ``ExecutionPlan.save/load`` round trip
  and on its ``pack_plan_memmap`` restore (bit-identical);
* a 1-worker thread ``ServingFleet`` answer and a per-sample ``Engine.run``
  (bit-identical; a coalesced batch-3 GEMM rounds differently from batch 1,
  so the fleet is fed one sample at a time).  A few examples repeat the
  fleet check on the process tier.

Every plan's arena layout must pass ``validate``.  A spec whose geometry
the units cannot run is refused with ``ValueError`` by ``spec.layers()``,
``build_network`` and ``compile_spec`` alike.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from repro.nas.network import build_network
from repro.nn.layers import BatchNorm2d
from repro.runtime import Engine, compile_spec
from repro.runtime.fleet import ServingFleet, pack_plan_memmap
from repro.runtime.plan import ExecutionPlan

WAIT = 30.0
channels = st.sampled_from([4, 6, 8])


@st.composite
def body_block(draw, in_ch: int):
    """One body block and its output channel count."""
    kind = draw(st.sampled_from(["mb", "sep", "conv", "pool", "branches"]))
    if kind == "mb":
        block = MBConvBlock(
            expansion=draw(st.sampled_from([1, 3, 6])),
            kernel=draw(st.sampled_from([3, 5, 7])),
            out_ch=draw(st.sampled_from([in_ch, 4, 8])),
            stride=draw(st.sampled_from([1, 2])),
        )
        return block, block.out_ch
    if kind == "sep":
        block = SepConvBlock(
            kernel=draw(st.sampled_from([3, 5])),
            out_ch=draw(channels),
            stride=draw(st.sampled_from([1, 2])),
        )
        return block, block.out_ch
    if kind == "conv":
        block = ConvBlock(
            out_ch=draw(channels),
            kernel=draw(st.sampled_from([1, 3])),
            stride=draw(st.sampled_from([1, 2])),
        )
        return block, block.out_ch
    if kind == "pool":
        block = PoolBlock(
            kernel=draw(st.sampled_from([2, 3])),
            stride=draw(st.sampled_from([1, 2])),
            mode=draw(st.sampled_from(["max", "avg"])),
        )
        return block, in_ch
    if draw(st.booleans()):
        # Residual: identity shortcut + a 3x3 conv keeping the channels.
        branches = ((), (ConvBlock(out_ch=in_ch, kernel=3),))
        return Branches(branches=branches, combine="add"), in_ch
    # Inception-style concat: a 1x1 conv beside a 3x3 conv or a pooled 1x1.
    left, right = draw(channels), draw(channels)
    second = draw(st.sampled_from([
        (ConvBlock(out_ch=right, kernel=3),),
        (PoolBlock(kernel=3, stride=1, mode="max"),
         ConvBlock(out_ch=right, kernel=1)),
    ]))
    block = Branches(
        branches=((ConvBlock(out_ch=left, kernel=1),), second),
        combine="concat",
    )
    return block, left + right


@st.composite
def compile_cases(draw):
    """A spec plus the batch, bit-width, fusion flags and BN seed to run it."""
    ch = draw(st.sampled_from([4, 8]))
    blocks = [StemBlock(out_ch=ch, kernel=3, stride=draw(st.sampled_from([1, 2])))]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        block, ch = draw(body_block(ch))
        blocks.append(block)
    blocks.append(FCBlock(out_features=draw(st.sampled_from([2, 5])),
                          flatten=draw(st.booleans())))
    spec = ArchSpec(
        "generated",
        blocks,
        input_size=draw(st.sampled_from([8, 12, 16])),
        input_channels=3,
    )
    return {
        "spec": spec,
        "batch": draw(st.sampled_from([1, 3])),
        "bits": draw(st.sampled_from([None, 8, 16, 32])),
        "fuse_residual": draw(st.booleans()),
        "fuse_pool": draw(st.booleans()),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
    }


def _resolves(spec: ArchSpec) -> bool:
    try:
        spec.layers()
    except ValueError:
        return False
    return True


def _randomise_bn(module, rng: np.random.Generator) -> None:
    """Draw every BN gamma/beta and running statistic, so folding shows."""
    if isinstance(module, BatchNorm2d):
        dtype = module.gamma.data.dtype
        c = module.channels
        module.gamma.data[...] = rng.uniform(0.5, 1.5, c)
        module.beta.data[...] = rng.normal(0.0, 0.2, c)
        module.running_mean = rng.normal(0.0, 0.2, c).astype(dtype)
        module.running_var = rng.uniform(0.5, 1.5, c).astype(dtype)
    for child in module.children():
        _randomise_bn(child, rng)


def _compiled(case):
    """(eval-mode network, plan, input batch) for one accepted case."""
    rng = np.random.default_rng(case["seed"])
    net = build_network(case["spec"], seed=case["seed"])
    _randomise_bn(net, rng)
    net.eval()
    plan = compile_spec(
        net, bits=case["bits"], fuse_residual=case["fuse_residual"],
        fuse_pool=case["fuse_pool"],
    )
    size = case["spec"].input_size
    x = rng.standard_normal((case["batch"], 3, size, size))
    return net, plan, x


def _fleet_answers(plan: ExecutionPlan, x: np.ndarray, kind: str) -> list:
    with ServingFleet({"m": plan}, workers=1, kind=kind) as fleet:
        return [fleet.infer("m", sample, timeout=WAIT) for sample in x]


@settings(max_examples=150, deadline=None)
@given(compile_cases())
def test_compile_path_agrees_with_forward(case):
    spec = case["spec"]
    if not _resolves(spec):
        with pytest.raises(ValueError):
            build_network(spec, seed=0)
        with pytest.raises(ValueError):
            compile_spec(spec, seed=0)
        return
    net, plan, x = _compiled(case)
    engine = Engine(plan)
    engine.layout.validate(plan)
    out = engine.run(x)
    reference = net(Tensor(x), bits=case["bits"]).data
    assert out.shape == reference.shape
    assert np.max(np.abs(out - reference)) <= 1e-4

    with tempfile.TemporaryDirectory() as tmp:
        loaded = ExecutionPlan.load(plan.save(Path(tmp) / "plan.npz"))
        np.testing.assert_array_equal(Engine(loaded).run(x), out)
    pack = pack_plan_memmap(plan)
    try:
        np.testing.assert_array_equal(Engine(pack.restore()).run(x), out)
    finally:
        pack.unlink()

    for sample, answer in zip(x, _fleet_answers(plan, x, "thread")):
        np.testing.assert_array_equal(answer, engine.run(sample))


@settings(max_examples=4, deadline=None)
@given(compile_cases())
def test_process_tier_answers_match_engine(case):
    assume(_resolves(case["spec"]))
    _, plan, x = _compiled(case)
    engine = Engine(plan)
    for sample, answer in zip(x, _fleet_answers(plan, x, "process")):
        np.testing.assert_array_equal(answer, engine.run(sample))
