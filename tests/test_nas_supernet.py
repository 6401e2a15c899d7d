"""Unit tests for the single-path supernet and joint sampling."""

import dataclasses

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.nas.quantization import QuantizationConfig, mixed_quantize
from repro.nas.space import SearchSpaceConfig
from repro.nas.supernet import SuperNet, constant_sample
from repro.nn.functional import cross_entropy


@pytest.fixture
def net(tiny_space, fpga_quant_per_block):
    return SuperNet(tiny_space, quant=fpga_quant_per_block, seed=0)


@pytest.fixture
def batch(tiny_space, rng):
    x = Tensor(rng.normal(size=(4, 3, tiny_space.input_size, tiny_space.input_size)))
    y = np.arange(4) % tiny_space.num_classes
    return x, y


class TestConstruction:
    def test_parameter_partition_disjoint_and_complete(self, net):
        arch = {id(p) for p in net.arch_parameters()}
        weights = {id(p) for p in net.weight_parameters()}
        everything = {id(p) for p in net.parameters()}
        assert arch & weights == set()
        assert arch | weights == everything
        assert len(arch) == 2  # theta + phi

    def test_theta_phi_shapes(self, net, tiny_space, fpga_quant_per_block):
        assert net.theta.shape == (tiny_space.num_blocks, tiny_space.num_ops)
        assert net.phi.shape == fpga_quant_per_block.phi_shape(
            tiny_space.num_blocks, tiny_space.num_ops
        )

    def test_initial_distributions_uniform(self, net, tiny_space):
        probs = net.theta_probabilities()
        np.testing.assert_allclose(probs, 1.0 / tiny_space.num_ops)
        np.testing.assert_allclose(net.phi_probabilities().sum(axis=-1), 1.0)

    def test_deterministic_weights_by_seed(self, tiny_space, fpga_quant_per_block):
        a = SuperNet(tiny_space, fpga_quant_per_block, seed=5)
        b = SuperNet(tiny_space, fpga_quant_per_block, seed=5)
        np.testing.assert_allclose(
            a.candidate(0, 0).expand.conv.weight.data,
            b.candidate(0, 0).expand.conv.weight.data,
        )

    def test_candidates_differ_across_ops(self, net, tiny_space):
        ops = tiny_space.candidate_ops()
        in_ch = tiny_space.block_input_channels()[0]
        for m, op in enumerate(ops):
            cand = net.candidate(0, m)
            assert cand.dw.conv.kernel_size == op.kernel
            assert cand.expand.conv.out_channels == in_ch * op.expansion


class TestSampling:
    def test_hard_sample_one_hot_rows(self, net, sampler):
        sample = net.sample(sampler, hard=True)
        np.testing.assert_allclose(sample.op_weights.data.sum(axis=-1), 1.0)
        assert sample.hard
        assert len(sample.op_indices) == net.space.num_blocks

    def test_soft_sample_distribution_rows(self, net, sampler):
        sample = net.sample(sampler, hard=False)
        assert not sample.hard
        assert np.all(sample.op_weights.data > 0)

    def test_quant_slice_shapes(self, net, sampler, fpga_quant_per_block):
        sample = net.sample(sampler)
        q = sample.quant_slice(0, 1)
        assert q.shape == (fpga_quant_per_block.num_levels,)

    def test_quant_slice_per_op_sharing(self, tiny_space, sampler):
        quant = QuantizationConfig.fpga(sharing="per_op")
        net = SuperNet(tiny_space, quant, seed=0)
        sample = net.sample(sampler)
        a = sample.quant_slice(0, 1)
        b = sample.quant_slice(1, 1)
        np.testing.assert_allclose(a.data, b.data)  # shared across blocks

    def test_quant_indices_shape(self, net, sampler):
        sample = net.sample(sampler)
        assert sample.quant_indices().shape == net.phi.shape[:-1]


class TestForward:
    def test_forward_shapes(self, net, sampler, batch, tiny_space):
        x, _ = batch
        logits = net(x, sample=net.sample(sampler))
        assert logits.shape == (4, tiny_space.num_classes)

    def test_forward_via_sampler_argument(self, net, sampler, batch):
        x, _ = batch
        assert net(x, sampler=sampler).shape[0] == 4

    def test_forward_requires_sample_or_sampler(self, net, batch):
        with pytest.raises(ValueError, match="SampledArch"):
            net(batch[0])

    def test_hard_forward_gradients_reach_weights(self, net, sampler, batch):
        x, y = batch
        sample = net.sample(sampler, hard=True)
        loss = cross_entropy(net(x, sample=sample), y)
        loss.backward()
        m = sample.op_indices[0]
        assert net.candidate(0, m).expand.conv.weight.grad is not None

    @pytest.mark.parametrize(
        "quant,allow_skip",
        [
            (QuantizationConfig.fpga(sharing="per_block_op"), False),
            (QuantizationConfig.fpga(sharing="per_op"), False),
            (QuantizationConfig.fpga(sharing="global"), False),
            (None, False),
            (QuantizationConfig.gpu(), False),
            (QuantizationConfig.fpga(), True),
        ],
        ids=["per_block_op", "per_op", "global", "no_quant", "gpu", "skip"],
    )
    def test_soft_forward_gradients_reach_theta_strongly(
        self, quant, allow_skip, tiny_space, sampler, batch
    ):
        """The soft mixture runs every candidate, so every candidate trains."""
        space = dataclasses.replace(tiny_space, allow_skip=allow_skip)
        net = SuperNet(space, quant=quant, seed=0)
        x, y = batch
        sample = net.sample(sampler, hard=False)
        loss = cross_entropy(net(x, sample=sample), y)
        loss.backward()
        assert np.isfinite(loss.item())
        assert np.abs(net.theta.grad).sum() > 1e-5
        if quant is None:
            assert net.phi.grad is None
        else:
            assert np.abs(net.phi.grad).sum() > 0
        for i in range(space.num_blocks):
            for m in range(space.num_ops):
                for param in net.candidate(i, m).parameters():
                    assert param.grad is not None, (i, m)

    def test_soft_and_hard_agree_at_peaked_theta(self, tiny_space, sampler, rng):
        """With near-deterministic logits both modes compute the same net."""
        quant = QuantizationConfig.fpga(sharing="per_block_op")
        net = SuperNet(tiny_space, quant, seed=1)
        net.theta.data[:, 0] = 60.0   # op 0 with overwhelming probability
        net.phi.data[..., -1] = 60.0  # 16-bit everywhere
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        net.eval()
        hard = net(x, sample=net.sample(sampler, hard=True))
        soft = net(x, sample=net.sample(sampler, hard=False))
        np.testing.assert_allclose(hard.data, soft.data, atol=1e-2)


class TestCandidate:
    @pytest.fixture
    def shapes_space(self, tiny_space):
        """Blocks that keep their shape, halve resolution, widen at stride 1."""
        return dataclasses.replace(
            tiny_space, block_channels=(16, 16, 24), block_strides=(1, 2, 1)
        )

    def test_residual_applied_when_shapes_match(self, shapes_space):
        net = SuperNet(shapes_space, None, seed=0)
        assert net.candidate(0, 0).use_residual
        assert not net.candidate(1, 0).use_residual
        assert not net.candidate(2, 0).use_residual

    def test_candidate_output_shape(self, tiny_space, rng):
        net = SuperNet(tiny_space, None, seed=0)
        geom = tiny_space.block_geometries()[1]  # the stride-2 block
        cand = net.candidate(1, tiny_space.num_ops - 1)  # 5x5, widest expansion
        out = cand(Tensor(rng.normal(size=(2, geom.in_ch, 8, 8))))
        assert out.shape == (2, geom.out_ch, 4, 4)

    def test_quantized_forward_differs_from_float(self, tiny_space, rng):
        quant = QuantizationConfig.fpga()
        cand = SuperNet(tiny_space, quant, seed=0).candidate(0, 0)
        cand.eval()
        x = Tensor(rng.normal(size=(1, 16, 6, 6)))
        float_out = cand(x)
        low_bit = Tensor(np.array([1.0, 0.0, 0.0]))  # 4-bit path
        quant_out = cand(x, lambda w: mixed_quantize(w, low_bit, quant.bitwidths))
        assert not np.allclose(float_out.data, quant_out.data)


class TestConstantSample:
    def test_one_hot_layout(self, tiny_space, fpga_quant_per_block):
        sample = constant_sample(
            tiny_space, fpga_quant_per_block, [0] * tiny_space.num_blocks, 1
        )
        np.testing.assert_allclose(sample.op_weights.data.sum(axis=-1), 1.0)
        np.testing.assert_allclose(sample.quant_weights.data.sum(axis=-1), 1.0)
        assert sample.quant_weights.data[..., 1].min() == 1.0

    def test_no_quant_mode(self, tiny_space):
        sample = constant_sample(tiny_space, None, [0] * tiny_space.num_blocks)
        assert sample.sharing == "global"

    def test_wrong_length_raises(self, tiny_space, fpga_quant_per_block):
        with pytest.raises(ValueError, match="op indices"):
            constant_sample(tiny_space, fpga_quant_per_block, [0], 0)
