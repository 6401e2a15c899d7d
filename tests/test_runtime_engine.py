"""Executor parity: Engine.run vs BuiltNetwork.forward on every zoo spec.

The acceptance bar is <= 1e-5 output deviation with BatchNorm folded and
quantisation baked.  The exact-math comparisons run under the float64 policy
(where the fold's only deviation is final rounding); a separate test pins the
float32 production policy to a tight bound as well.
"""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor, no_grad
from repro.baselines.model_zoo import MODEL_ZOO, get_model
from repro.nas.arch_spec import scale_spec
from repro.nas.network import build_network
from repro.runtime import Engine, compile_spec

BUILDABLE = [
    name for name in sorted(MODEL_ZOO) if get_model(name).buildable()
]


def _scaled(name: str):
    return scale_spec(
        get_model(name, num_classes=4), width_mult=0.1, input_size=32,
        num_classes=4,
    )


def _warmed_network(spec, seed=0):
    """Build + run a few training steps so BN running stats are non-trivial."""
    rng = np.random.default_rng(seed + 99)
    net = build_network(spec, seed=seed)
    for _ in range(2):
        net(Tensor(rng.normal(size=(4, 3, spec.input_size, spec.input_size))))
    net.eval()
    return net


def _reference(net, x, bits=None):
    with no_grad():
        return net(Tensor(x), bits=bits).data


@pytest.mark.usefixtures("float64_numerics")
class TestParityFloat64:
    @pytest.mark.parametrize("name", BUILDABLE)
    def test_every_zoo_spec_within_1e5(self, name):
        spec = _scaled(name)
        net = _warmed_network(spec)
        x = np.random.default_rng(1).normal(size=(2, 3, 32, 32))
        ref = _reference(net, x)
        out = Engine(compile_spec(net)).run(x)
        assert np.max(np.abs(ref - out)) <= 1e-5

    @pytest.mark.parametrize("bits", [4, 8, 16])
    def test_quantised_bitwidths_within_1e5(self, bits):
        for name in ("MobileNet-V2", "ResNet18", "VGG16"):
            spec = _scaled(name)
            net = _warmed_network(spec)
            x = np.random.default_rng(2).normal(size=(2, 3, 32, 32))
            ref = _reference(net, x, bits=bits)
            out = Engine(compile_spec(net, bits=bits)).run(x)
            assert np.max(np.abs(ref - out)) <= 1e-5, (name, bits)

    def test_spec_weight_bits_annotation_parity(self):
        spec = _scaled("EDD-Net-1")  # carries weight_bits=16
        assert spec.weight_bits == 16
        net = _warmed_network(spec)
        x = np.random.default_rng(3).normal(size=(1, 3, 32, 32))
        ref = _reference(net, x)  # forward also defaults to the annotation
        out = Engine(compile_spec(net)).run(x)
        assert np.max(np.abs(ref - out)) <= 1e-5


class TestParityFloat32:
    @pytest.mark.parametrize("name", ["MobileNet-V2", "GoogleNet", "ResNet18"])
    def test_production_dtype_stays_tight(self, name):
        spec = _scaled(name)
        net = _warmed_network(spec)
        x = np.random.default_rng(4).normal(size=(2, 3, 32, 32))
        ref = _reference(net, x)
        out = Engine(compile_spec(net)).run(x)
        assert out.dtype == np.float32
        assert np.max(np.abs(ref - out)) <= 5e-5


class TestEngineMechanics:
    @pytest.fixture(scope="class")
    def engine(self):
        return Engine(compile_spec(_scaled("MobileNet-V2"), seed=0))

    def test_single_sample_round_trip(self, engine):
        x = np.random.default_rng(0).normal(size=(3, 32, 32))
        out = engine.run(x)
        assert out.shape == (4,)
        batched = engine.run(x[None])
        assert batched.shape == (1, 4)
        np.testing.assert_array_equal(out, batched[0])

    def test_runs_are_deterministic(self, engine):
        x = np.random.default_rng(5).normal(size=(3, 3, 32, 32))
        np.testing.assert_array_equal(engine.run(x), engine.run(x))

    def test_batch_results_match_singles(self, engine):
        xs = np.random.default_rng(6).normal(size=(4, 3, 32, 32))
        batched = engine.run(xs)
        for i in range(4):
            single = engine.run(xs[i])
            np.testing.assert_allclose(batched[i], single, rtol=1e-6, atol=1e-6)

    def test_rejects_wrong_shape(self, engine):
        with pytest.raises(ValueError, match="does not match plan input"):
            engine.run(np.zeros((2, 3, 8, 8)))

    def test_arena_cached_per_batch(self, engine):
        x = np.random.default_rng(7).normal(size=(2, 3, 32, 32))
        engine.run(x)
        arena_before = engine._arenas[2]
        engine.run(x)
        assert engine._arenas[2] is arena_before

    def test_output_is_a_copy(self, engine):
        x = np.random.default_rng(9).normal(size=(1, 3, 32, 32))
        first = engine.run(x)
        snapshot = first.copy()
        engine.run(np.random.default_rng(10).normal(size=(1, 3, 32, 32)))
        np.testing.assert_array_equal(first, snapshot)
