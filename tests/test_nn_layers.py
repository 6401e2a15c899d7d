"""Unit tests for concrete layers (conv, BN, pooling, linear)."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Identity,
    Linear,
    ReLU6,
)


@pytest.fixture
def rng():
    return np.random.default_rng(4)


class TestConv2d:
    def test_same_padding_default(self, rng):
        conv = Conv2d(3, 8, kernel_size=5, rng=rng)
        assert conv.padding == 2
        out = conv(Tensor(rng.normal(size=(2, 3, 9, 9))))
        assert out.shape == (2, 8, 9, 9)

    def test_stride_halves(self, rng):
        conv = Conv2d(3, 4, 3, stride=2, rng=rng)
        out = conv(Tensor(rng.normal(size=(1, 3, 8, 8))))
        assert out.shape == (1, 4, 4, 4)

    def test_depthwise_channel_preserving(self, rng):
        conv = Conv2d(6, 6, 3, groups=6, rng=rng)
        out = conv(Tensor(rng.normal(size=(1, 6, 5, 5))))
        assert out.shape == (1, 6, 5, 5)
        assert conv.weight.shape == (6, 1, 3, 3)

    def test_deterministic_init_from_rng(self):
        a = Conv2d(3, 4, 3, rng=np.random.default_rng(1))
        b = Conv2d(3, 4, 3, rng=np.random.default_rng(1))
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_kaiming_scale(self, rng):
        conv = Conv2d(16, 64, 3, rng=rng)
        std = conv.weight.data.std()
        expected = np.sqrt(2.0 / (16 * 9))
        assert 0.5 * expected < std < 1.5 * expected


class TestBatchNorm2d:
    def test_normalises_in_train_mode(self, rng):
        bn = BatchNorm2d(3)
        x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(8, 3, 4, 4)))
        out = bn(x)
        assert abs(out.data.mean()) < 1e-6
        assert abs(out.data.std() - 1.0) < 0.05

    def test_running_stats_update(self, rng):
        bn = BatchNorm2d(2, momentum=0.5)
        x = Tensor(rng.normal(loc=2.0, size=(16, 2, 4, 4)))
        bn(x)
        assert np.all(bn.running_mean > 0.5)

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(2)
        x = Tensor(rng.normal(size=(8, 2, 4, 4)))
        for _ in range(20):
            bn(x)
        bn.eval()
        out_eval = bn(x)
        bn.train()
        out_train = bn(x)
        np.testing.assert_allclose(out_eval.data, out_train.data, atol=0.2)

    def test_gradients_flow_to_gamma_beta_and_input(self, rng):
        bn = BatchNorm2d(3)
        x = Tensor(rng.normal(size=(4, 3, 2, 2)), requires_grad=True)
        bn(x).sum().backward()
        assert bn.gamma.grad is not None
        assert bn.beta.grad is not None
        assert x.grad is not None

    def test_rejects_non_nchw(self):
        with pytest.raises(ValueError, match="NCHW"):
            BatchNorm2d(3)(Tensor(np.ones((2, 3))))


class TestOtherLayers:
    def test_linear_shapes(self, rng):
        lin = Linear(10, 5, rng=rng)
        assert lin(Tensor(rng.normal(size=(3, 10)))).shape == (3, 5)

    def test_linear_no_bias(self, rng):
        lin = Linear(4, 2, bias=False, rng=rng)
        assert lin.bias is None
        assert len(lin.parameters()) == 1

    def test_relu6(self):
        out = ReLU6()(Tensor(np.array([-3.0, 3.0, 8.0])))
        np.testing.assert_allclose(out.data, [0.0, 3.0, 6.0])

    def test_identity(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        assert Identity()(x) is x

    def test_avg_pool_module(self, rng):
        out = AvgPool2d(2)(Tensor(rng.normal(size=(1, 2, 4, 4))))
        assert out.shape == (1, 2, 2, 2)

    def test_global_avg_pool_module(self, rng):
        out = GlobalAvgPool2d()(Tensor(rng.normal(size=(2, 5, 3, 3))))
        assert out.shape == (2, 5)
