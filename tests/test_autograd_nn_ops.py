"""Unit tests for the neural-network autograd primitives."""

import numpy as np
import pytest

from repro.autograd import gradcheck
from repro.autograd.ops_nn import (
    avg_pool2d,
    conv2d,
    global_avg_pool2d,
    linear,
    log_softmax,
    matmul,
    relu,
    relu6,
    softmax,
)
from repro.autograd.tensor import tensor

pytestmark = pytest.mark.usefixtures("float64_numerics")



@pytest.fixture
def rng():
    return np.random.default_rng(3)


def t(data):
    return tensor(np.asarray(data, dtype=float), requires_grad=True)


class TestMatmulLinear:
    def test_matmul_matches_numpy(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        np.testing.assert_allclose(matmul(t(a), t(b)).data, a @ b)

    def test_matmul_gradcheck(self, rng):
        a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(4, 2)))
        assert gradcheck(matmul, [a, b])

    def test_matmul_rejects_non_2d(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            matmul(t(rng.normal(size=(2, 2, 2))), t(rng.normal(size=(2, 2))))

    def test_linear_with_bias_gradcheck(self, rng):
        x, w, b = t(rng.normal(size=(4, 3))), t(rng.normal(size=(2, 3))), t(rng.normal(size=(2,)))
        assert gradcheck(linear, [x, w, b])

    def test_linear_without_bias(self, rng):
        x, w = rng.normal(size=(4, 3)), rng.normal(size=(2, 3))
        np.testing.assert_allclose(linear(t(x), t(w)).data, x @ w.T)


class TestConv2d:
    def test_output_shape_same_padding(self, rng):
        x = t(rng.normal(size=(2, 3, 8, 8)))
        w = t(rng.normal(size=(5, 3, 3, 3)))
        assert conv2d(x, w, stride=1, padding=1).shape == (2, 5, 8, 8)

    def test_output_shape_stride2(self, rng):
        x = t(rng.normal(size=(1, 3, 8, 8)))
        w = t(rng.normal(size=(4, 3, 3, 3)))
        assert conv2d(x, w, stride=2, padding=1).shape == (1, 4, 4, 4)

    def test_identity_kernel(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = conv2d(tensor(x), tensor(w), stride=1, padding=1)
        np.testing.assert_allclose(out.data, x)

    def test_matches_scipy_correlate(self, rng):
        from scipy.signal import correlate2d

        x = rng.normal(size=(1, 1, 6, 6))
        w = rng.normal(size=(1, 1, 3, 3))
        out = conv2d(tensor(x), tensor(w), stride=1, padding=0)
        expected = correlate2d(x[0, 0], w[0, 0], mode="valid")
        np.testing.assert_allclose(out.data[0, 0], expected)

    @pytest.mark.parametrize("stride", [2, 3])
    def test_dense_gradcheck(self, rng, stride):
        x = t(rng.normal(size=(2, 2, 5, 5)))
        w = t(rng.normal(size=(3, 2, 3, 3)))
        assert gradcheck(lambda a, b: conv2d(a, b, stride=stride, padding=1), [x, w])

    def test_depthwise_gradcheck(self, rng):
        x = t(rng.normal(size=(2, 3, 5, 5)))
        w = t(rng.normal(size=(3, 1, 3, 3)))
        assert gradcheck(lambda a, b: conv2d(a, b, padding=1, groups=3), [x, w])

    @pytest.mark.parametrize("stride", [1, 2])
    def test_grouped_gradcheck(self, rng, stride):
        x = t(rng.normal(size=(1, 4, 4, 4)))
        w = t(rng.normal(size=(6, 2, 3, 3)))
        assert gradcheck(
            lambda a, b: conv2d(a, b, stride=stride, padding=1, groups=2), [x, w]
        )

    def test_grouped_matches_blockwise_dense(self, rng):
        x = rng.normal(size=(1, 4, 5, 5))
        w = rng.normal(size=(4, 2, 3, 3))
        out = conv2d(tensor(x), tensor(w), padding=1, groups=2)
        half1 = conv2d(tensor(x[:, :2]), tensor(w[:2]), padding=1)
        half2 = conv2d(tensor(x[:, 2:]), tensor(w[2:]), padding=1)
        np.testing.assert_allclose(out.data[:, :2], half1.data)
        np.testing.assert_allclose(out.data[:, 2:], half2.data)

    def test_rejects_bad_groups(self, rng):
        x = t(rng.normal(size=(1, 3, 4, 4)))
        w = t(rng.normal(size=(4, 1, 3, 3)))
        with pytest.raises(ValueError, match="not divisible"):
            conv2d(x, w, groups=2)

    def test_rejects_wrong_weight_channels(self, rng):
        x = t(rng.normal(size=(1, 4, 4, 4)))
        w = t(rng.normal(size=(4, 3, 3, 3)))
        with pytest.raises(ValueError, match="channels/group"):
            conv2d(x, w, groups=1)

    def test_rejects_non_nchw(self, rng):
        with pytest.raises(ValueError, match="NCHW"):
            conv2d(t(rng.normal(size=(3, 4, 4))), t(rng.normal(size=(1, 3, 3, 3))))


class TestMaxPooling:
    def test_forward_non_overlapping(self):
        from repro.autograd.ops_nn import max_pool2d

        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = max_pool2d(tensor(x), 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_forward_overlapping_same_padding(self):
        from repro.autograd.ops_nn import max_pool2d

        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = max_pool2d(tensor(x), 3, stride=1, padding=1)
        assert out.shape == (1, 1, 4, 4)
        assert out.data[0, 0, 0, 0] == 5.0  # max of top-left 2x2 window

    def test_gradient_goes_to_argmax(self):
        from repro.autograd.ops_nn import max_pool2d

        x = t(np.arange(16.0).reshape(1, 1, 4, 4))
        max_pool2d(x, 2).backward(np.ones((1, 1, 2, 2)))
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(x.grad[0, 0], expected)

    def test_gradcheck_distinct_values(self, rng):
        from repro.autograd.ops_nn import max_pool2d

        x = t(rng.permutation(36).reshape(1, 1, 6, 6).astype(float))
        assert gradcheck(lambda a: max_pool2d(a, 2), [x])
        x.zero_grad()
        assert gradcheck(lambda a: max_pool2d(a, 3, stride=2, padding=1), [x])

    def test_stride_default_equals_kernel(self, rng):
        from repro.autograd.ops_nn import max_pool2d

        x = tensor(rng.normal(size=(1, 2, 6, 6)))
        assert max_pool2d(x, 3).shape == (1, 2, 2, 2)

    def test_too_large_kernel_raises(self, rng):
        from repro.autograd.ops_nn import max_pool2d

        with pytest.raises(ValueError, match="too large"):
            max_pool2d(tensor(rng.normal(size=(1, 1, 2, 2))), 5)

    @pytest.mark.parametrize("kernel,stride,padding,shape", [
        (2, 2, 0, (3, 4, 8, 8)),     # flat-assign fast path
        (3, 3, 1, (2, 3, 9, 9)),     # fast path with padding
        (2, 3, 0, (2, 2, 10, 10)),   # stride > kernel (gaps, still fast path)
        (3, 2, 1, (2, 3, 9, 9)),     # overlapping -> np.add.at fallback
        (3, 1, 1, (2, 2, 6, 6)),     # heavy overlap fallback
    ])
    def test_backward_scatter_matches_bruteforce(self, rng, kernel, stride,
                                                 padding, shape):
        """The non-overlapping flat-scatter path and the add.at fallback both
        match a per-window brute-force gradient."""
        from repro.autograd.ops_nn import max_pool2d

        x = t(rng.normal(size=shape))
        out = max_pool2d(x, kernel, stride=stride, padding=padding)
        grad = rng.normal(size=out.shape)
        out.backward(grad)

        n, c, h, w = shape
        ph, pw = h + 2 * padding, w + 2 * padding
        padded = np.full((n, c, ph, pw), -np.inf)
        padded[:, :, padding:padding + h, padding:padding + w] = x.data
        expected = np.zeros((n, c, ph, pw))
        oh = (ph - kernel) // stride + 1
        ow = (pw - kernel) // stride + 1
        for ni in range(n):
            for ci in range(c):
                for i in range(oh):
                    for j in range(ow):
                        window = padded[ni, ci, i * stride:i * stride + kernel,
                                        j * stride:j * stride + kernel]
                        wi, wj = np.unravel_index(np.argmax(window), window.shape)
                        expected[ni, ci, i * stride + wi, j * stride + wj] += (
                            grad[ni, ci, i, j]
                        )
        np.testing.assert_allclose(
            x.grad, expected[:, :, padding:padding + h, padding:padding + w],
            rtol=1e-6,
        )


class TestPooling:
    def test_avg_pool_forward(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = avg_pool2d(tensor(x), 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_gradcheck(self, rng):
        x = t(rng.normal(size=(2, 2, 4, 4)))
        assert gradcheck(lambda a: avg_pool2d(a, 2), [x])

    def test_avg_pool_rejects_indivisible(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            avg_pool2d(t(rng.normal(size=(1, 1, 5, 5))), 2)

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out = global_avg_pool2d(tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)))

    def test_global_avg_pool_gradcheck(self, rng):
        x = t(rng.normal(size=(2, 3, 3, 3)))
        assert gradcheck(global_avg_pool2d, [x])


class TestActivations:
    def test_relu(self):
        np.testing.assert_allclose(relu(tensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_relu6_clips_both_sides(self):
        np.testing.assert_allclose(
            relu6(tensor([-1.0, 3.0, 9.0])).data, [0.0, 3.0, 6.0]
        )

    def test_relu_gradcheck(self, rng):
        x = t(rng.normal(size=(5,)) + 0.1)  # avoid kinks at 0
        assert gradcheck(relu, [x])

    def test_relu6_gradient_zero_above_six(self):
        x = t([7.0])
        relu6(x).backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [0.0])


class TestSoftmaxFamily:
    def test_softmax_sums_to_one(self, rng):
        out = softmax(t(rng.normal(size=(3, 5))), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(3))

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = rng.normal(size=(2, 4))
        np.testing.assert_allclose(
            log_softmax(tensor(x)).data, np.log(softmax(tensor(x)).data)
        )

    def test_log_softmax_stable_with_large_logits(self):
        out = log_softmax(tensor([[1000.0, 0.0]]))
        assert np.isfinite(out.data).all()

    def test_softmax_gradcheck(self, rng):
        x = t(rng.normal(size=(2, 4)))
        assert gradcheck(lambda a: softmax(a, axis=-1), [x])

    def test_log_softmax_gradcheck(self, rng):
        x = t(rng.normal(size=(2, 4)))
        assert gradcheck(lambda a: log_softmax(a, axis=-1), [x])
