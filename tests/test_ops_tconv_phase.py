"""Strided input gradients, input phase by input phase, vs the oracle.

The input gradient of a stride-``s`` convolution
(:func:`ops_nn._conv_input_grad`, one correlation of the stride-dilated
output gradient with the flipped kernel) splits the input into ``s²``
phases ``(y mod s, x mod s)``: input row ``y`` only ever reads kernel taps
``d ≡ (kH-1-y) (mod s)``.  Every case checks the kernel against the input
gradient of the shift-and-accumulate oracle
(:func:`ops_nn._reference_conv2d`) across stride/kernel/layout classes,
including input rows the kernel never reaches (``(H - kH) % stride != 0``)
and phases no tap reaches (``stride > kH``), whose gradient must be exactly
zero.
"""

import numpy as np
import pytest

from repro.autograd import ops_nn
from repro.autograd.gradcheck import gradcheck
from repro.autograd.tensor import default_dtype, tensor

RNG = np.random.default_rng(42)


def _case(n, c_in, c_out, h, w, k, stride, groups):
    out_h = (h - k) // stride + 1
    out_w = (w - k) // stride + 1
    grad = RNG.normal(size=(n, c_out, out_h, out_w))
    weight = RNG.normal(size=(c_out, c_in // groups, k, k))
    return grad, weight, (n, c_in, h, w)


def _checked_input_grad(grad, weight, x_shape, stride, groups):
    """``_conv_input_grad``'s result, asserted equal to the oracle's."""
    with default_dtype(np.float64):
        x = tensor(np.zeros(x_shape), requires_grad=True)
        ops_nn._reference_conv2d(
            x, tensor(weight), stride=stride, groups=groups
        ).backward(grad)
    got = ops_nn._conv_input_grad(grad, weight, x_shape, stride, groups)
    np.testing.assert_allclose(got, x.grad, rtol=1e-12, atol=1e-12)
    return got


# (c_in, c_out, groups) layout classes: dense, depthwise, grouped.
LAYOUTS = [(3, 5, 1), (4, 4, 4), (4, 6, 2)]


@pytest.mark.parametrize("stride", [2, 3, 4])
@pytest.mark.parametrize("kernel", [1, 2, 3, 5])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_phased_matches_oracle(stride, kernel, layout):
    c_in, c_out, groups = layout
    for h in (kernel, kernel + 1, 7, 9, 12):
        if h < kernel or (h - kernel) // stride + 1 < 1:
            continue
        _checked_input_grad(*_case(2, c_in, c_out, h, h, kernel, stride, groups),
                            stride, groups)


@pytest.mark.parametrize("stride,kernel,h", [
    (2, 3, 8),    # (8-3) % 2 != 0: trailing row unreached
    (3, 2, 9),    # (9-2) % 3 != 0
    (4, 3, 10),   # (10-3) % 4 != 0
    (3, 5, 11),   # (11-5) % 3 == 0 control case
])
def test_unreached_trailing_rows(stride, kernel, h):
    grad, weight, x_shape = _case(2, 3, 4, h, h, kernel, stride, 1)
    grad_x = _checked_input_grad(grad, weight, x_shape, stride, 1)
    # Rows past the last kernel touch must have exactly-zero gradient.
    last_touched = (grad.shape[2] - 1) * stride + kernel
    if last_touched < h:
        assert np.all(grad_x[:, :, last_touched:, :] == 0.0)


@pytest.mark.parametrize("stride,kernel", [(3, 2), (4, 3), (4, 2), (5, 3)])
def test_empty_phases_stay_zero(stride, kernel):
    """stride > kernel: some input phases are never touched by any tap."""
    h = 2 * stride + kernel
    grad, weight, x_shape = _case(2, 3, 4, h, h, kernel, stride, 1)
    grad_x = _checked_input_grad(grad, weight, x_shape, stride, 1)
    # At least one phase has an empty sub-kernel; its rows are zero.
    empty = [p for p in range(stride)
             if len(range((kernel - 1 - p) % stride, kernel, stride)) == 0]
    assert empty, "case selection should produce an empty phase"
    for p in empty:
        assert np.all(grad_x[:, :, p::stride, :] == 0.0)


def test_non_square_input():
    _checked_input_grad(*_case(3, 4, 6, 11, 8, 3, 2, 2), 2, 2)


@pytest.mark.parametrize("stride,kernel,groups", [
    (2, 3, 1), (2, 5, 1), (3, 3, 1), (2, 3, 4), (2, 5, 4), (3, 2, 2),
])
def test_gradcheck_through_phased_path(monkeypatch, stride, kernel, groups):
    """Float64 gradcheck of a strided conv2d; a spy checks that its input
    gradient ran ``_conv_input_grad`` at that stride.  The ``groups=4``
    cases have two channels per group: a depthwise conv runs its own node
    and never reaches ``_conv_input_grad``."""
    strides = []
    real = ops_nn._conv_input_grad

    def spy(grad, w, shape, s, g):
        strides.append(s)
        return real(grad, w, shape, s, g)

    monkeypatch.setattr(ops_nn, "_conv_input_grad", spy)
    c_in = 8 if groups == 4 else 4
    c_out = 8 if groups == 4 else 6 if groups == 2 else 5
    h = kernel + 2 * stride + 1
    with default_dtype(np.float64):
        x = tensor(RNG.normal(size=(2, c_in, h, h)), requires_grad=True)
        w = tensor(
            RNG.normal(size=(c_out, c_in // groups, kernel, kernel)),
            requires_grad=True,
        )
        assert gradcheck(
            lambda a, b: ops_nn.conv2d(a, b, stride=stride, groups=groups),
            (x, w),
        )
    assert strides and set(strides) == {stride}


def test_conv2d_stride2_end_to_end_matches_reference():
    """Full conv fwd+bwd with stride 2 against the loop-based reference."""
    with default_dtype(np.float64):
        x_data = RNG.normal(size=(2, 4, 10, 10))
        w_data = RNG.normal(size=(6, 4, 3, 3))
        seed = RNG.normal(size=(2, 6, 5, 5))

        def run(conv_fn):
            x = tensor(x_data, requires_grad=True)
            w = tensor(w_data, requires_grad=True)
            out = conv_fn(x, w, stride=2, padding=1)
            out.backward(seed)
            return out.data.copy(), x.grad.copy(), w.grad.copy()

        out_fast, gx_fast, gw_fast = run(ops_nn.conv2d)
        out_ref, gx_ref, gw_ref = run(ops_nn._reference_conv2d)
        np.testing.assert_allclose(out_fast, out_ref, atol=1e-10)
        np.testing.assert_allclose(gx_fast, gx_ref, atol=1e-10)
        np.testing.assert_allclose(gw_fast, gw_ref, atol=1e-10)
