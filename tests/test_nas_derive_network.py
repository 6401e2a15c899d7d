"""Unit tests for architecture derivation and network building."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.nas.derive import chosen_bitwidths, chosen_ops, derive_arch_spec
from repro.nas.network import build_network
from repro.nas.quantization import QuantizationConfig
from repro.nas.space import SearchSpaceConfig
from repro.nas.supernet import SuperNet
from repro.nn.functional import cross_entropy
from repro.nn.optim import SGD


class TestChosenOps:
    def test_argmax_selection(self, tiny_space):
        theta = np.zeros((tiny_space.num_blocks, tiny_space.num_ops))
        theta[0, 2] = 5.0
        theta[1, 1] = 5.0
        ops = chosen_ops(theta, tiny_space)
        menu = tiny_space.candidate_ops()
        assert ops[0] == menu[2]
        assert ops[1] == menu[1]

    def test_shape_mismatch_raises(self, tiny_space):
        with pytest.raises(ValueError, match="theta shape"):
            chosen_ops(np.zeros((1, 1)), tiny_space)


class TestChosenBitwidths:
    def test_per_block_op_phi(self):
        phi = np.zeros((2, 3, 3))
        phi[0, 1, 2] = 5.0  # block 0, op 1 -> index 2
        phi[1, 0, 0] = 5.0  # block 1, op 0 -> index 0
        bits = chosen_bitwidths(phi, (4, 8, 16), np.array([1, 0]))
        assert bits == [16, 4]

    def test_per_op_phi(self):
        phi = np.zeros((3, 3))
        phi[2, 1] = 5.0
        bits = chosen_bitwidths(phi, (4, 8, 16), np.array([2, 2]))
        assert bits == [8, 8]

    def test_global_phi(self):
        phi = np.array([0.0, 9.0, 0.0])
        assert chosen_bitwidths(phi, (8, 16, 32), np.array([0, 1, 2])) == [16, 16, 16]


class TestDeriveFromSupernet:
    def test_derivation_respects_theta(self, tiny_space, fpga_quant_per_block):
        net = SuperNet(tiny_space, fpga_quant_per_block, seed=0)
        net.theta.data[:, 3] = 10.0
        spec = derive_arch_spec(net, name="derived")
        menu = tiny_space.candidate_ops()
        assert all(label == menu[3].label for label in spec.metadata["op_labels"])

    def test_bits_annotated(self, tiny_space, fpga_quant_per_block):
        net = SuperNet(tiny_space, fpga_quant_per_block, seed=0)
        net.phi.data[..., 0] = 10.0  # force 4-bit
        spec = derive_arch_spec(net)
        assert spec.metadata["block_bits"] == [4] * tiny_space.num_blocks
        assert spec.metadata["activation_bits"] == 16

    def test_gpu_global_bits(self, tiny_space, gpu_quant):
        net = SuperNet(tiny_space, gpu_quant, seed=0)
        net.phi.data[1] = 10.0  # 16-bit globally
        spec = derive_arch_spec(net)
        assert spec.weight_bits == 16

    def test_no_quant_supernet(self, tiny_space):
        net = SuperNet(tiny_space, quant=None, seed=0)
        spec = derive_arch_spec(net)
        assert "block_bits" not in spec.metadata


class TestBuildNetwork:
    def test_forward_shape(self, tiny_space, sampler):
        net = SuperNet(tiny_space, QuantizationConfig.fpga(), seed=0)
        spec = derive_arch_spec(net)
        built = build_network(spec, seed=1)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 8, 8)))
        assert built(x).shape == (2, tiny_space.num_classes)

    def test_quantized_forward_differs(self, tiny_space):
        net = SuperNet(tiny_space, QuantizationConfig.fpga(), seed=0)
        spec = derive_arch_spec(net)
        built = build_network(spec, seed=1)
        built.eval()
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 8, 8)))
        full = built(x, bits=32)
        low = built(x, bits=4)
        assert not np.allclose(full.data, low.data)

    def test_classifier_registered_once(self, tiny_space, tiny_splits):
        """Every parameter is listed once, so one SGD step moves the
        classifier weight by exactly ``lr * grad``."""
        spec = derive_arch_spec(SuperNet(tiny_space, QuantizationConfig.fpga(), seed=0))
        built = build_network(spec, seed=2)
        params = built.parameters()
        assert len({id(p) for p in params}) == len(params)
        assert not any(k.startswith("classifier.") for k in built.state_dict())
        weight = built.units[-1].linear.weight
        opt = SGD(params, lr=0.1)
        opt.zero_grad()
        x = Tensor(tiny_splits.train.images[:8])
        cross_entropy(built(x), tiny_splits.train.labels[:8]).backward()
        expected = weight.data - 0.1 * weight.grad
        opt.step()
        np.testing.assert_array_equal(weight.data, expected)

    def test_training_reduces_loss(self, tiny_space, tiny_splits):
        net = SuperNet(tiny_space, QuantizationConfig.fpga(), seed=0)
        spec = derive_arch_spec(net)
        built = build_network(spec, seed=2)
        opt = SGD(built.parameters(), lr=0.05, momentum=0.9)
        x = Tensor(tiny_splits.train.images[:16])
        y = tiny_splits.train.labels[:16]
        losses = []
        for _ in range(8):
            opt.zero_grad()
            loss = cross_entropy(built(x), y)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]

    def test_zoo_spec_buildable_when_scaled(self):
        from repro.baselines.model_zoo import mobilenet_v2
        from repro.nas.arch_spec import scale_spec

        spec = scale_spec(mobilenet_v2(), width_mult=0.1, input_size=16, num_classes=4)
        built = build_network(spec, seed=0)
        x = Tensor(np.random.default_rng(1).normal(size=(1, 3, 16, 16)))
        assert built(x).shape == (1, 4)

    def test_unbuildable_block_raises(self):
        from repro.nas.arch_spec import ArchSpec, FCBlock, ShuffleUnit

        spec = ArchSpec(
            "s", [ShuffleUnit(out_ch=8, stride=2), FCBlock(out_features=2)],
            input_size=8, input_channels=4,
        )
        with pytest.raises(TypeError, match="cannot instantiate"):
            build_network(spec)  # channel shuffle has no builder unit

    def test_missing_classifier_raises(self):
        from repro.nas.arch_spec import ArchSpec, ConvBlock

        with pytest.raises(ValueError, match="FCBlock"):
            build_network(ArchSpec("x", [ConvBlock(out_ch=4)], input_size=8))

    def test_branches_and_fc_chain_families_build(self, rng):
        """ResNet (add-branches), GoogleNet (concat), VGG (FC chain) all
        instantiate and backprop after scaling."""
        from repro.baselines.model_zoo import googlenet, resnet18, vgg16
        from repro.nas.arch_spec import scale_spec

        for fn, width in ((resnet18, 0.06), (vgg16, 0.05), (googlenet, 0.05)):
            spec = scale_spec(fn(), width_mult=width, input_size=32, num_classes=4)
            net = build_network(spec, seed=0)
            out = net(Tensor(np.random.default_rng(0).normal(size=(2, 3, 32, 32))))
            assert out.shape == (2, 4)
            out.sum().backward()
            assert net.units[-1].linear.weight.grad is not None
