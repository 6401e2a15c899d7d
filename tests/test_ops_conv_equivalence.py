"""Kernel-equivalence tests: im2col convolutions vs the shift-and-accumulate
oracle (:func:`repro.autograd.ops_nn._reference_conv2d` — the pre-refactor
implementation kept verbatim as an independent reference).

Forward values and both backward gradients (input and weight) must match
across strides, paddings, group counts (dense / grouped / depthwise), odd
spatial shapes, both sides of the column-chunk threshold, and the
channels-last depthwise node.  The runtime's channels-last depthwise kernel
(``conv2d_into``) must match the oracle's forward with its fused bias,
residual and activation.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.autograd.ops_nn as ops_nn
from repro.autograd.gradcheck import gradcheck
from repro.autograd.ops_nn import _reference_conv2d, conv2d, max_pool2d
from repro.autograd.tensor import default_dtype, tensor


@pytest.fixture(autouse=True)
def _float64_numerics():
    """Equivalence is asserted to 1e-10; run both paths at float64."""
    with default_dtype(np.float64):
        yield


def _compare(n, c_in, h, w, c_out, k, stride, padding, groups, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c_in, h, w))
    weight = rng.normal(size=(c_out, c_in // groups, k, k))

    x_new, w_new = tensor(x, requires_grad=True), tensor(weight, requires_grad=True)
    out_new = conv2d(x_new, w_new, stride=stride, padding=padding, groups=groups)
    seed_grad = rng.normal(size=out_new.shape)
    out_new.backward(seed_grad)

    x_ref, w_ref = tensor(x, requires_grad=True), tensor(weight, requires_grad=True)
    out_ref = _reference_conv2d(x_ref, w_ref, stride=stride, padding=padding,
                                groups=groups)
    out_ref.backward(seed_grad)

    np.testing.assert_allclose(out_new.data, out_ref.data, atol=1e-10)
    np.testing.assert_allclose(x_new.grad, x_ref.grad, atol=1e-10)
    np.testing.assert_allclose(w_new.grad, w_ref.grad, atol=1e-10)
    return out_new


# Explicit grid: every conv flavour the supernet and the model zoo emit.
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("case", [
    ("dense", 2, 4, 9, 7, 6, 3, 1, 1),     # (n, c_in, h, w, c_out, k, pad, groups)
    ("pointwise", 3, 8, 6, 6, 12, 1, 0, 1),
    ("depthwise3", 2, 6, 8, 8, 6, 3, 1, 6),
    ("depthwise5", 1, 4, 9, 9, 4, 5, 2, 4),
    ("grouped", 2, 8, 7, 7, 12, 3, 1, 2),
], ids=lambda c: c[0] if isinstance(c, tuple) else str(c))
def test_conv_matches_reference(case, stride):
    _, n, c_in, h, w, c_out, k, pad, groups = case
    if (h + 2 * pad - k) < 0:
        pytest.skip("kernel larger than padded input")
    _compare(n, c_in, h, w, c_out, k, stride, pad, groups, seed=stride)


def _im2col_batches(monkeypatch) -> list[int]:
    """Record the batch size of every ``_im2col`` call."""
    batches = []
    real = ops_nn._im2col

    def spy(x, *args):
        batches.append(x.shape[0])
        return real(x, *args)

    monkeypatch.setattr(ops_nn, "_im2col", spy)
    return batches


def _col_bytes_per_sample(c_in, h, w, k, pad):
    """Column bytes one float64 sample of a stride-1 conv materialises."""
    return c_in * k * k * (h + 2 * pad - k + 1) * (w + 2 * pad - k + 1) * 8


def test_chunked_path_matches_reference(monkeypatch):
    """Force the batch-chunked forward and backward (columns above
    _COL_CHUNK_BYTES): every column matrix is then built per batch chunk."""
    monkeypatch.setattr(ops_nn, "_COL_CHUNK_BYTES", 1 << 10)  # 1 KiB
    batches = _im2col_batches(monkeypatch)
    _compare(5, 6, 8, 8, 6, 3, 1, 1, groups=2, seed=11)
    assert len(batches) > 1 and max(batches) < 5
    batches.clear()
    _compare(5, 4, 9, 7, 8, 3, 2, 1, groups=1, seed=12)
    assert len(batches) > 1 and max(batches) < 5


@pytest.mark.parametrize("side", ["below", "above"])
def test_col_chunk_threshold_both_sides(side, monkeypatch):
    """A dense 3x3 conv one sample below and one sample above the real
    _COL_CHUNK_BYTES: one full-batch column matrix below, batch chunks
    above, and the oracle's forward and both gradients on each side."""
    below = ops_nn._COL_CHUNK_BYTES // _col_bytes_per_sample(8, 32, 32, 3, 1)
    n = below if side == "below" else below + 1
    batches = _im2col_batches(monkeypatch)
    _compare(n, 8, 32, 32, 8, 3, 1, 1, groups=1, seed=22)
    if side == "below":
        # The forward's columns, kept for the weight gradient, then the
        # input gradient's.
        assert batches == [n, n]
    else:
        assert len(batches) > 2 and max(batches) < n


@pytest.mark.parametrize("side", ["below", "above"])
def test_col_chunk_threshold_gradcheck(side, monkeypatch):
    """Float64 gradcheck on each side of a threshold shrunk to two samples."""
    monkeypatch.setattr(ops_nn, "_COL_CHUNK_BYTES",
                        2 * _col_bytes_per_sample(2, 5, 5, 3, 1))
    n = 2 if side == "below" else 3
    batches = _im2col_batches(monkeypatch)
    rng = np.random.default_rng(23)
    x = tensor(rng.normal(size=(n, 2, 5, 5)), requires_grad=True)
    w = tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    assert gradcheck(lambda a, b: conv2d(a, b, padding=1), (x, w))
    assert (set(batches) == {n}) if side == "below" else max(batches) < n


def test_input_grad_skipped_for_graph_external_input():
    """Inputs outside the graph get no input gradient computed (stem conv)."""
    rng = np.random.default_rng(3)
    x = tensor(rng.normal(size=(2, 3, 6, 6)))  # requires_grad=False
    w = tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    out = conv2d(x, w, padding=1)
    out.backward(np.ones(out.shape))
    assert x.grad is None
    assert w.grad is not None
    # weight gradient is unaffected by the skip
    x_ref = tensor(x.data, requires_grad=True)
    w_ref = tensor(w.data, requires_grad=True)
    out_ref = _reference_conv2d(x_ref, w_ref, padding=1)
    out_ref.backward(np.ones(out_ref.shape))
    np.testing.assert_allclose(w.grad, w_ref.grad, atol=1e-10)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 3),
    c_mult=st.integers(1, 3),
    h=st.integers(5, 12),
    w=st.integers(5, 12),
    k=st.sampled_from([1, 2, 3, 5]),
    stride=st.integers(1, 4),
    pad=st.integers(0, 2),
    mode=st.sampled_from(["dense", "depthwise", "grouped"]),
)
# (8 - 3) % 2 != 0: the last input row is never read, so its gradient is 0.
@example(n=2, c_mult=1, h=8, w=8, k=3, stride=2, pad=0, mode="dense")
# stride > kernel: whole input phases are never read.
@example(n=2, c_mult=2, h=11, w=8, k=2, stride=4, pad=0, mode="grouped")
# A residual net's 1x1 stride-2 shortcut; the last row and column are read.
@example(n=2, c_mult=1, h=9, w=7, k=1, stride=2, pad=0, mode="dense")
def test_property_conv_equivalence(n, c_mult, h, w, k, stride, pad, mode):
    """Random shapes: the vectorized kernels, including every strided input
    gradient, agree with the oracle."""
    if mode == "dense":
        c_in, c_out, groups = 2 * c_mult, 3, 1
    elif mode == "depthwise":
        c_in = c_out = groups = 2 * c_mult
    else:
        c_in, c_out, groups = 2 * c_mult, 4 * c_mult, 2
    if (h + 2 * pad - k) < 0 or (w + 2 * pad - k) < 0:
        return
    _compare(n, c_in, h, w, c_out, k, stride, pad, groups,
             seed=n * 1000 + h * 10 + w)


class TestMaxPoolEquivalence:
    """The im2col max pool matches the old shift-and-maximum semantics."""

    def _reference_max_pool(self, x_data, kernel, stride, padding):
        n, c, h, w = x_data.shape
        ph, pw = h + 2 * padding, w + 2 * padding
        out_h = (ph - kernel) // stride + 1
        out_w = (pw - kernel) // stride + 1
        padded = np.full((n, c, ph, pw), -np.inf)
        padded[:, :, padding:padding + h, padding:padding + w] = x_data
        out = np.full((n, c, out_h, out_w), -np.inf)
        for i in range(kernel):
            for j in range(kernel):
                win = padded[:, :, i: i + out_h * stride: stride,
                             j: j + out_w * stride: stride]
                np.maximum(out, win, out=out)
        return out

    @pytest.mark.parametrize("kernel,stride,padding", [
        (2, 2, 0), (3, 1, 1), (3, 2, 1), (2, 1, 0),
    ])
    def test_forward_matches(self, kernel, stride, padding):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 7, 7))
        out = max_pool2d(tensor(x), kernel, stride=stride, padding=padding)
        np.testing.assert_allclose(
            out.data, self._reference_max_pool(x, kernel, stride, padding)
        )

    def test_overlapping_backward_accumulates(self):
        rng = np.random.default_rng(6)
        x = tensor(rng.permutation(49).reshape(1, 1, 7, 7).astype(float),
                   requires_grad=True)
        out = max_pool2d(x, 3, stride=1, padding=0)
        out.backward(np.ones(out.shape))
        # every unit of upstream gradient lands somewhere in the input
        assert x.grad.sum() == out.data.size


def _no_im2col_or_pad(mp) -> None:
    """Fail the test if a depthwise conv reaches the padded im2col path."""

    def boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("depthwise conv2d left the channels-last node")

    mp.setattr(ops_nn, "_im2col_conv", boom)
    mp.setattr(ops_nn, "pad2d", boom)


@st.composite
def _depthwise_cases(draw):
    """``(n, c, h, w, k, stride, padding)`` with a non-square input.

    The input is square only at its smallest size, where the output is a
    single row and column.
    """
    k = draw(st.sampled_from([3, 5, 7]))
    padding = draw(st.integers(0, k // 2))
    low = k - 2 * padding  # one output row
    h = draw(st.integers(low, low + 9))
    w = draw(st.integers(low, low + 9).filter(lambda v: v != h or v == low))
    return (draw(st.integers(1, 3)), draw(st.integers(2, 8)), h, w, k,
            draw(st.sampled_from([1, 2, 3])), padding)


class TestDepthwiseDirectEquivalence:
    """Every depthwise ``conv2d`` is one channels-last graph node that
    convolves directly on a window view of the padded input (no im2col
    columns, no ``pad2d`` node); its forward, weight gradient and input
    gradient match the reference conv."""

    @settings(max_examples=80, deadline=None)
    @given(case=_depthwise_cases())
    @example(case=(2, 8, 1, 1, 7, 1, 3))   # 1x1 output
    @example(case=(3, 5, 9, 6, 5, 2, 0))   # last input column never read
    @example(case=(1, 2, 8, 11, 3, 3, 1))  # stride 3
    def test_property_matches_reference_across_strides(self, case):
        n, c, h, w, k, stride, padding = case
        with pytest.MonkeyPatch.context() as mp:
            _no_im2col_or_pad(mp)
            _compare(n, c, h, w, c, k, stride, padding, c,
                     seed=n * 10_000 + c * 1000 + h * 100 + w * 10 + k)

    @pytest.mark.parametrize("k,padding", [
        (5, 2), (5, 0), (7, 3), (7, 1),
    ])
    def test_matches_reference(self, k, padding, monkeypatch):
        """Fixed large-kernel cases, each at strides 1-3."""
        _no_im2col_or_pad(monkeypatch)
        c = 4
        for stride in (1, 2, 3):
            out = _compare(2, c, 9, 9, c, k, stride, padding, c, seed=11)
            assert out.op_name == "dwconv2d"

    @pytest.mark.parametrize("k,padding", [(5, 1), (7, 3)])
    def test_gradcheck_through_direct_path(self, k, padding, monkeypatch):
        _no_im2col_or_pad(monkeypatch)
        rng = np.random.default_rng(13)
        c = 3
        x = tensor(rng.normal(size=(2, c, 6, 7)), requires_grad=True)
        w = tensor(rng.normal(size=(c, 1, k, k)), requires_grad=True)
        for stride in (1, 2):
            assert gradcheck(
                lambda a, b, s=stride: conv2d(a, b, stride=s, padding=padding,
                                              groups=c),
                (x, w),
            )

    def test_external_input_skips_input_grad(self, monkeypatch):
        _no_im2col_or_pad(monkeypatch)
        rng = np.random.default_rng(12)
        x = tensor(rng.normal(size=(1, 3, 8, 9)))  # graph-external
        w = tensor(rng.normal(size=(3, 1, 5, 5)), requires_grad=True)
        out = conv2d(x, w, stride=1, padding=2, groups=3)
        assert out.op_name == "dwconv2d" and out.parents[0] is x
        grad_x, _ = out.backward_fn(np.ones(out.shape))
        assert grad_x is None
        out.backward(np.ones(out.shape))
        w_ref = tensor(w.data, requires_grad=True)
        out_ref = _reference_conv2d(tensor(x.data, requires_grad=True), w_ref,
                                    stride=1, padding=2, groups=3)
        out_ref.backward(np.ones(out_ref.shape))
        np.testing.assert_allclose(w.grad, w_ref.grad, atol=1e-10)


@st.composite
def _depthwise_into_cases(draw):
    """Depthwise ``conv2d_into`` geometry, fused tail and scratch mode.

    Inputs are non-square (``h != w``) except the 1x1 maps the zoo's last
    stages reach; ``planned`` passes scratch at the per-sample shapes
    ``compile_spec`` registers, batch axis first as the engine views it.
    """
    k = draw(st.sampled_from([3, 5, 7]))
    padding = draw(st.integers(0, k // 2))
    low = max(1, k - 2 * padding)
    h = draw(st.integers(low, low + 9))
    w = draw(st.integers(low, low + 9).filter(lambda v: v != h or v == 1))
    return {
        "n": draw(st.integers(1, 3)), "c": draw(st.integers(2, 8)),
        "h": h, "w": w, "k": k, "stride": draw(st.sampled_from([1, 2])),
        "padding": padding, "bias": draw(st.booleans()),
        "residual": draw(st.booleans()),
        "act": draw(st.sampled_from([None, "relu6"])),
        "planned": draw(st.booleans()),
    }


@settings(max_examples=80, deadline=None)
@given(case=_depthwise_into_cases())
@example(case={"n": 2, "c": 8, "h": 1, "w": 1, "k": 7, "stride": 1,
               "padding": 3, "bias": True, "residual": False,
               "act": "relu6", "planned": True})
@example(case={"n": 3, "c": 5, "h": 9, "w": 6, "k": 5, "stride": 2,
               "padding": 0, "bias": True, "residual": True, "act": None,
               "planned": True})
def test_depthwise_into_matches_reference(case):
    """The runtime's channels-last depthwise kernel matches the oracle, and
    every depthwise ``conv2d_into`` call runs it rather than im2col."""
    n, c, h, w, k = (case[key] for key in ("n", "c", "h", "w", "k"))
    stride, padding = case["stride"], case["padding"]
    rng = np.random.default_rng(n * 10_000 + c * 1000 + h * 100 + w * 10 + k)
    x = rng.normal(size=(n, c, h, w))
    weight = rng.normal(size=(c, 1, k, k))
    expected = _reference_conv2d(
        tensor(x), tensor(weight), stride=stride, padding=padding, groups=c
    ).data
    bias = residual = pad_buf = cols = None
    if case["bias"]:
        bias = rng.normal(size=c)
        expected = expected + bias.reshape(1, c, 1, 1)
    if case["residual"]:
        residual = rng.normal(size=expected.shape)
        expected = expected + residual
    if case["act"] == "relu6":
        expected = np.clip(expected, 0.0, 6.0)
    out_h, out_w = expected.shape[2:]
    if case["planned"]:
        # Stale scratch must not leak into the result.
        pad_buf = np.full((n, c, h + 2 * padding, w + 2 * padding), np.nan)
        cols = np.full((n, c, out_h, out_w), np.nan)
    with pytest.MonkeyPatch.context() as mp:
        ran = []
        real = ops_nn._depthwise_into

        def spy(*args):
            ran.append("depthwise")
            return real(*args)

        mp.setattr(ops_nn, "_depthwise_into", spy)
        out = ops_nn.conv2d_into(
            x, weight, stride=stride, padding=padding, groups=c, bias=bias,
            act=case["act"], out=np.full(expected.shape, np.nan),
            pad_buf=pad_buf, cols=cols, residual=residual,
        )
    assert ran == ["depthwise"]
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-10)


def test_depthwise_into_rejects_short_scratch():
    x = np.ones((1, 4, 5, 5))
    with pytest.raises(ValueError, match="cannot hold"):
        ops_nn.conv2d_into(x, np.ones((4, 1, 3, 3)), padding=1, groups=4,
                           cols=np.empty(4 * 5 * 5 - 1))
