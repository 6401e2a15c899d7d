"""Neural-network primitives: matmul, conv2d (grouped/depthwise), pooling,
activations and log-softmax, plus the out-buffer kernels of the runtime.

Dense and grouped ``conv2d`` are formulated on im2col/col2im: a
stride-tricks window view of the padded input is reshaped into a column
matrix and contracted against the flattened kernel with **one batched
matmul** per convolution — no Python loops over kernel offsets or groups.
Its backward pass is two more matmuls: the weight gradient contracts the
columns against the output gradient, and the input gradient is the
transposed convolution — one correlation of the stride-dilated output
gradient with the flipped kernel (:func:`_conv_input_grad`) at every stride.

Every depthwise convolution (``groups == C_in == C_out > 1``) runs
channels-last instead, in training (:func:`_depthwise_conv`, one graph node)
and in the runtime's out-buffer :func:`conv2d_into`
(:func:`_depthwise_into`): einsums over an ``(oH, oW, k, k, N, C)`` window
view of the padded input (:func:`_channels_last_windows`), whose innermost
axis is the contiguous ``N·C`` one.

The original shift-and-accumulate implementation is retained as
:func:`_reference_conv2d` — a slow, independently-written oracle used by the
equivalence tests.
"""

from __future__ import annotations

import math

import numpy as np

from repro.autograd.tensor import Tensor, make_op
from repro.autograd.ops_shape import pad2d


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product ``a @ b``."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D tensors, got {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backward(grad: np.ndarray):
        return grad @ b.data.T, a.data.T @ grad

    return make_op(out, (a, b), backward, "matmul")


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with ``weight`` shaped (out, in)."""
    out = x.data @ weight.data.T
    if bias is not None:
        out = out + bias.data

    if bias is None:

        def backward(grad: np.ndarray):
            return grad @ weight.data, grad.T @ x.data

        return make_op(out, (x, weight), backward, "linear")

    def backward_bias(grad: np.ndarray):
        return grad @ weight.data, grad.T @ x.data, grad.sum(axis=0)

    return make_op(out, (x, weight, bias), backward_bias, "linear")


def _conv_output_size(size: int, kernel: int, stride: int) -> int:
    return (size - kernel) // stride + 1


# -- im2col machinery ---------------------------------------------------------

def _window_view(x: np.ndarray, k_h: int, k_w: int, stride: int) -> np.ndarray:
    """Read-only sliding-window view of NCHW ``x``: (N, C, kH, kW, oH, oW)."""
    n, c, h, w = x.shape
    out_h = _conv_output_size(h, k_h, stride)
    out_w = _conv_output_size(w, k_w, stride)
    s_n, s_c, s_h, s_w = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, k_h, k_w, out_h, out_w),
        strides=(s_n, s_c, s_h, s_w, s_h * stride, s_w * stride),
        writeable=False,
    )


def _im2col(
    x: np.ndarray, k_h: int, k_w: int, stride: int, groups: int
) -> tuple[np.ndarray, int, int]:
    """Column matrix (N, G, C_g*kH*kW, oH*oW) of ``x`` plus output dims.

    For 1x1 kernels at stride 1 (the MBConv expand/project hot path) the
    reshape is a zero-copy view of a contiguous input.
    """
    n, c, _, _ = x.shape
    view = _window_view(x, k_h, k_w, stride)
    out_h, out_w = view.shape[4], view.shape[5]
    cols = view.reshape(n, groups, (c // groups) * k_h * k_w, out_h * out_w)
    return cols, out_h, out_w


def _conv_input_grad(
    grad: np.ndarray,
    w_data: np.ndarray,
    x_shape: tuple[int, ...],
    stride: int,
    groups: int,
) -> np.ndarray:
    """Input gradient of a convolution (transposed convolution): one full
    correlation of the stride-dilated output gradient with the flipped
    kernel (im2col + one batched matmul), at every stride.

    For ``stride > 1`` the dilated canvas is mostly zeros, so the GEMM does
    ``stride²`` more multiplies than it needs; docs/performance.md
    ("Strided input gradients") measures why no second kernel pays for that.
    """
    n, c_in, h, w = x_shape
    c_out, c_in_g, k_h, k_w = w_data.shape
    c_out_g = c_out // groups
    out_h, out_w = grad.shape[2], grad.shape[3]

    if k_h == 1 and k_w == 1 and stride == 1:
        padded = grad  # 1x1/s1: the dilate+pad stage is the identity
    else:
        # One canvas fuses stride-dilation, full padding and the trailing
        # slack for input pixels the kernel never reached (zero gradient
        # there when (H - kH) % stride != 0): the dilated gradient lands at
        # positions (kH-1) + i*stride of an (H + kH - 1)-tall canvas.
        padded = np.zeros((n, c_out, h + k_h - 1, w + k_w - 1), dtype=grad.dtype)
        padded[
            :,
            :,
            k_h - 1 : k_h - 1 + (out_h - 1) * stride + 1 : stride,
            k_w - 1 : k_w - 1 + (out_w - 1) * stride + 1 : stride,
        ] = grad

    # The flipped kernel, channel-transposed to (G, C_in_g, C_out_g*kH*kW):
    # the left operand of the transposed-convolution GEMM.
    flipped = w_data.reshape(groups, c_out_g, c_in_g, k_h, k_w)[:, :, :, ::-1, ::-1]
    w_t = np.ascontiguousarray(flipped.transpose(0, 2, 1, 3, 4)).reshape(
        groups, c_in_g, c_out_g * k_h * k_w
    )
    cols, gh, gw = _im2col(padded, k_h, k_w, 1, groups)
    assert (gh, gw) == (h, w)
    return np.matmul(w_t[None], cols).reshape(n, c_in, h, w)


# Materialized column matrices above this size are processed in batch chunks
# by _im2col_conv: allocations past glibc's mmap threshold cap (32 MiB)
# page-fault on every conv, which costs far more than the extra python
# iterations of cache blocking.  Below the cap the allocator recycles the
# buffers, so _im2col_conv captures the columns for the backward instead of
# recomputing them.  Depthwise convolutions build no columns.
_COL_CHUNK_BYTES = 24 << 20


def _im2col_conv(xp: Tensor, weight: Tensor, stride: int, groups: int,
                 op_name: str) -> Tensor:
    """Shared forward/backward of dense and grouped convs (already-padded input)."""
    x_data, w_data = xp.data, weight.data
    n = x_data.shape[0]
    c_out, c_in_g, k_h, k_w = w_data.shape
    c_out_g = c_out // groups
    col_len = c_in_g * k_h * k_w
    w_mat = w_data.reshape(groups, c_out_g, col_len)

    # A 1x1/s1 column matrix is a zero-copy view; otherwise im2col blows the
    # input up kH*kW-fold, so big batches are blocked along N (vectorization
    # over kernel offsets and groups is untouched) and the backward
    # recomputes its column chunks instead of retaining them in the graph.
    view_only = k_h == 1 and k_w == 1 and stride == 1
    per_sample_bytes = (
        x_data.shape[1] * k_h * k_w
        * _conv_output_size(x_data.shape[2], k_h, stride)
        * _conv_output_size(x_data.shape[3], k_w, stride)
        * x_data.itemsize
    )
    # The closure contract allows returning None per parent: skip the input
    # gradient entirely when the input is graph-external (e.g. the stem conv
    # consuming the data batch) — that's the priciest half of the backward.
    need_input_grad = xp.requires_grad or xp.backward_fn is not None

    if view_only or n * per_sample_bytes <= _COL_CHUNK_BYTES:
        cols, out_h, out_w = _im2col(x_data, k_h, k_w, stride, groups)
        out = np.matmul(w_mat[None], cols).reshape(n, c_out, out_h, out_w)

        def backward(grad: np.ndarray):
            g = grad.reshape(n, groups, c_out_g, out_h * out_w)
            # dW: per-sample batched GEMM against the transposed-view columns
            # (BLAS consumes the transpose directly), reduced over the batch.
            grad_w = np.matmul(g, cols.transpose(0, 1, 3, 2)).sum(axis=0).reshape(
                w_data.shape
            )
            grad_x = (
                _conv_input_grad(grad, w_data, x_data.shape, stride, groups)
                if need_input_grad
                else None
            )
            return grad_x, grad_w

        return make_op(out, (xp, weight), backward, op_name)

    step = max(1, int(_COL_CHUNK_BYTES // per_sample_bytes))
    out_h = _conv_output_size(x_data.shape[2], k_h, stride)
    out_w = _conv_output_size(x_data.shape[3], k_w, stride)
    out = np.empty((n, c_out, out_h, out_w), dtype=x_data.dtype)
    for start in range(0, n, step):
        chunk = x_data[start : start + step]
        cols, _, _ = _im2col(chunk, k_h, k_w, stride, groups)
        np.matmul(
            w_mat[None], cols,
            out=out[start : start + step].reshape(
                chunk.shape[0], groups, c_out_g, out_h * out_w
            ),
        )

    def backward_chunked(grad: np.ndarray):
        grad_w = np.zeros((groups, c_out_g, col_len), dtype=w_data.dtype)
        grad_x = (
            np.empty(x_data.shape, dtype=x_data.dtype) if need_input_grad else None
        )
        for start in range(0, n, step):
            sl = slice(start, start + step)
            chunk = x_data[sl]
            m = chunk.shape[0]
            cols, _, _ = _im2col(chunk, k_h, k_w, stride, groups)
            g = grad[sl].reshape(m, groups, c_out_g, out_h * out_w)
            grad_w += np.matmul(g, cols.transpose(0, 1, 3, 2)).sum(axis=0)
            if grad_x is not None:
                grad_x[sl] = _conv_input_grad(
                    grad[sl], w_data, chunk.shape, stride, groups
                )
        return grad_x, grad_w.reshape(w_data.shape)

    return make_op(out, (xp, weight), backward_chunked, op_name)


def _channels_last_windows(
    xp: np.ndarray, out_h: int, out_w: int, k_h: int, k_w: int, stride: int,
    start: int = 0,
) -> np.ndarray:
    """``(oH, oW, kH, kW, N, C)`` window view of channels-last ``xp``.

    ``xp`` is a whole contiguous ``(Hp, Wp, N, C)`` array; the windows begin
    ``start`` rows and columns in.  The ndarray constructor builds the view
    in a fraction of ``as_strided``'s Python overhead, which shows on 1x1 to
    4x4 outputs, and it rejects a sliced ``xp``, hence the byte offset.
    """
    s_h, s_w, s_n, s_c = xp.strides
    return np.ndarray(
        (out_h, out_w, k_h, k_w) + xp.shape[2:], xp.dtype, xp,
        start * (s_h + s_w),
        (s_h * stride, s_w * stride, s_h, s_w, s_n, s_c),
    )


def _depthwise_taps(w_data: np.ndarray) -> np.ndarray:
    """Contiguous ``(kH, kW, C)`` copy of depthwise ``(C, 1, kH, kW)`` taps."""
    c, _, k_h, k_w = w_data.shape
    return np.ascontiguousarray(w_data.reshape(c, k_h * k_w).T).reshape(k_h, k_w, c)


def _depthwise_conv(x: Tensor, weight: Tensor, stride: int, padding: int) -> Tensor:
    """Depthwise convolution (``groups == C_in == C_out``) as one graph node.

    Every operand is channels-last, so each einsum runs its inner loop over
    the contiguous ``N·C`` axis, where im2col would copy k² times the output
    into columns and run N·C GEMMs of one row:

    * forward: the runtime kernel :func:`_depthwise_into`, with its padded
      ``(Hp, Wp, N, C)`` copy of ``x`` kept on the tape (the padding happens
      in that copy);
    * weight grad: ``einsum("hwijnc,hwnc->ijc")`` of the forward's window
      view and the ``(oH, oW, N, C)`` output gradient;
    * input grad: the output gradient lands at its stride-dilated positions
      of a zero ``(Hp+kH-1, Wp+kW-1, N, C)`` canvas, which is correlated
      with the flipped taps over the ``H×W`` interior only (windows start
      ``padding`` in), at every stride.  It is skipped for a graph-external
      input.
    """
    x_data, w_data = x.data, weight.data
    n, c, h, w = x_data.shape
    _, _, k_h, k_w = w_data.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    out_h = _conv_output_size(hp, k_h, stride)
    out_w = _conv_output_size(wp, k_w, stride)
    xp = np.empty((hp, wp, n, c), dtype=x_data.dtype)
    out = np.empty((n, c, out_h, out_w), dtype=x_data.dtype)
    _depthwise_into(x_data, w_data, stride, padding, out, xp, None)
    need_input_grad = x.requires_grad or x.backward_fn is not None

    def backward(grad: np.ndarray):
        windows = _channels_last_windows(xp, out_h, out_w, k_h, k_w, stride)
        grad_cl = np.ascontiguousarray(grad.transpose(2, 3, 0, 1))
        grad_w = np.einsum("hwijnc,hwnc->ijc", windows, grad_cl)
        grad_w = np.ascontiguousarray(grad_w.transpose(2, 0, 1)).reshape(w_data.shape)
        if not need_input_grad:
            return None, grad_w
        canvas = np.zeros((hp + k_h - 1, wp + k_w - 1, n, c), dtype=grad.dtype)
        canvas[
            k_h - 1 : k_h - 1 + (out_h - 1) * stride + 1 : stride,
            k_w - 1 : k_w - 1 + (out_w - 1) * stride + 1 : stride,
        ] = grad_cl
        interior = _channels_last_windows(canvas, h, w, k_h, k_w, 1, start=padding)
        flipped = np.ascontiguousarray(_depthwise_taps(w_data)[::-1, ::-1])
        grad_x = np.einsum("hwijnc,ijc->hwnc", interior, flipped)
        return np.ascontiguousarray(grad_x.transpose(2, 3, 0, 1)), grad_w

    return make_op(out, (x, weight), backward, "dwconv2d")


def conv2d(
    x: Tensor,
    weight: Tensor,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """2-D convolution over NCHW input.

    ``weight`` is shaped ``(C_out, C_in // groups, kH, kW)``.  ``groups == 1``
    is a dense convolution; ``groups == C_in`` with a channel multiplier of 1
    is a depthwise convolution (the MBConv middle layer).  Every depthwise
    convolution (``groups == C_in == C_out > 1``) is one channels-last graph
    node (:func:`_depthwise_conv`) that pads its own input; dense and
    grouped convolutions run the padded im2col + batched-matmul path.
    """
    if x.ndim != 4:
        raise ValueError(f"conv2d expects NCHW input, got shape {x.shape}")
    c_out, c_in_per_group = weight.shape[:2]
    c_in = x.shape[1]
    if c_in % groups or c_out % groups:
        raise ValueError(
            f"channels ({c_in} in, {c_out} out) not divisible by groups={groups}"
        )
    if c_in_per_group != c_in // groups:
        raise ValueError(
            f"weight expects {c_in_per_group} channels/group but input provides "
            f"{c_in // groups}"
        )

    if groups == c_in == c_out > 1:
        return _depthwise_conv(x, weight, stride, padding)
    op_name = "conv2d" if groups == 1 else "gconv2d"
    return _im2col_conv(pad2d(x, padding), weight, stride, groups, op_name)


def _reference_pad2d(a: Tensor, padding: int) -> Tensor:
    """The pre-refactor ``pad2d`` (np.pad-based), kept for the oracle path."""
    if padding == 0:
        return a
    widths = [(0, 0)] * (a.ndim - 2) + [(padding, padding), (padding, padding)]
    out = np.pad(a.data, widths)
    h, w = a.shape[-2], a.shape[-1]

    def backward(grad: np.ndarray):
        sl = [slice(None)] * (a.ndim - 2) + [
            slice(padding, padding + h),
            slice(padding, padding + w),
        ]
        return (grad[tuple(sl)],)

    return make_op(out, (a,), backward, "pad2d")


def _reference_conv2d(
    x: Tensor,
    weight: Tensor,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """The pre-im2col shift-and-accumulate convolution (slow, loop-based).

    This is the original implementation, kept verbatim — including its
    dense/depthwise/grouped dispatch — as an independently-written oracle:
    the equivalence tests check the vectorized kernels against it across
    strides/groups/odd shapes.  Semantics match :func:`conv2d` exactly (same
    signature, same backward contract).
    """
    if x.ndim != 4:
        raise ValueError(f"conv2d expects NCHW input, got shape {x.shape}")
    c_out, c_in_per_group, k_h, k_w = weight.shape
    c_in = x.shape[1]
    if c_in % groups or c_out % groups:
        raise ValueError(
            f"channels ({c_in} in, {c_out} out) not divisible by groups={groups}"
        )
    if c_in_per_group != c_in // groups:
        raise ValueError(
            f"weight expects {c_in_per_group} channels/group but input provides "
            f"{c_in // groups}"
        )

    xp = _reference_pad2d(x, padding)
    depthwise = groups == c_in and c_out == c_in
    if depthwise:
        return _reference_depthwise_conv(xp, weight, stride)
    if groups == 1:
        return _reference_dense_conv(xp, weight, stride)
    return _reference_grouped_conv(xp, weight, stride, groups)


def _reference_dense_conv(xp: Tensor, weight: Tensor, stride: int) -> Tensor:
    n, c_in, h, w = xp.shape
    c_out, _, k_h, k_w = weight.shape
    out_h = _conv_output_size(h, k_h, stride)
    out_w = _conv_output_size(w, k_w, stride)
    x_data, w_data = xp.data, weight.data

    out = np.zeros((n, c_out, out_h, out_w), dtype=x_data.dtype)
    for i in range(k_h):
        for j in range(k_w):
            window = x_data[:, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride]
            out += np.einsum("nchw,oc->nohw", window, w_data[:, :, i, j], optimize=True)

    def backward(grad: np.ndarray):
        grad_x = np.zeros_like(x_data)
        grad_w = np.zeros_like(w_data)
        for i in range(k_h):
            for j in range(k_w):
                window = x_data[
                    :, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride
                ]
                grad_w[:, :, i, j] = np.einsum(
                    "nohw,nchw->oc", grad, window, optimize=True
                )
                grad_x[
                    :, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride
                ] += np.einsum("nohw,oc->nchw", grad, w_data[:, :, i, j], optimize=True)
        return grad_x, grad_w

    return make_op(out, (xp, weight), backward, "reference_conv2d")


def _reference_depthwise_conv(xp: Tensor, weight: Tensor, stride: int) -> Tensor:
    n, c, h, w = xp.shape
    _, _, k_h, k_w = weight.shape
    out_h = _conv_output_size(h, k_h, stride)
    out_w = _conv_output_size(w, k_w, stride)
    x_data, w_data = xp.data, weight.data

    out = np.zeros((n, c, out_h, out_w), dtype=x_data.dtype)
    for i in range(k_h):
        for j in range(k_w):
            window = x_data[:, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride]
            out += window * w_data[None, :, 0, i, j, None, None]

    def backward(grad: np.ndarray):
        grad_x = np.zeros_like(x_data)
        grad_w = np.zeros_like(w_data)
        for i in range(k_h):
            for j in range(k_w):
                window = x_data[
                    :, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride
                ]
                grad_w[:, 0, i, j] = (grad * window).sum(axis=(0, 2, 3))
                grad_x[
                    :, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride
                ] += grad * w_data[None, :, 0, i, j, None, None]
        return grad_x, grad_w

    return make_op(out, (xp, weight), backward, "reference_dwconv2d")


def _reference_grouped_conv(xp: Tensor, weight: Tensor, stride: int, groups: int) -> Tensor:
    n, c_in, h, w = xp.shape
    c_out, c_in_g, k_h, k_w = weight.shape
    c_out_g = c_out // groups
    out_h = _conv_output_size(h, k_h, stride)
    out_w = _conv_output_size(w, k_w, stride)
    x_data, w_data = xp.data, weight.data

    out = np.zeros((n, c_out, out_h, out_w), dtype=x_data.dtype)
    for g in range(groups):
        xs = x_data[:, g * c_in_g : (g + 1) * c_in_g]
        ws = w_data[g * c_out_g : (g + 1) * c_out_g]
        acc = out[:, g * c_out_g : (g + 1) * c_out_g]
        for i in range(k_h):
            for j in range(k_w):
                window = xs[:, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride]
                acc += np.einsum("nchw,oc->nohw", window, ws[:, :, i, j], optimize=True)

    def backward(grad: np.ndarray):
        grad_x = np.zeros_like(x_data)
        grad_w = np.zeros_like(w_data)
        for g in range(groups):
            xs = x_data[:, g * c_in_g : (g + 1) * c_in_g]
            ws = w_data[g * c_out_g : (g + 1) * c_out_g]
            gs = grad[:, g * c_out_g : (g + 1) * c_out_g]
            gxs = grad_x[:, g * c_in_g : (g + 1) * c_in_g]
            gws = grad_w[g * c_out_g : (g + 1) * c_out_g]
            for i in range(k_h):
                for j in range(k_w):
                    window = xs[
                        :, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride
                    ]
                    gws[:, :, i, j] = np.einsum("nohw,nchw->oc", gs, window, optimize=True)
                    gxs[
                        :, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride
                    ] += np.einsum("nohw,oc->nchw", gs, ws[:, :, i, j], optimize=True)
        return grad_x, grad_w

    return make_op(out, (xp, weight), backward, "reference_gconv2d")


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Max pooling with arbitrary kernel/stride/padding (supports overlap).

    Forward: im2col window view, maximum over the kernel axis.  Backward: the
    gradient goes to the first window position attaining the maximum in
    row-major kernel order (ties are not split — matching common framework
    semantics closely enough for training).  For the common non-overlapping
    case (``stride >= kernel``) every input position belongs to at most one
    window, so the scatter is a plain flat-index assignment; only overlapping
    windows (``stride < kernel``) need ``np.add.at``'s unbuffered accumulate,
    which is an order of magnitude slower on large pools.
    """
    if stride is None:
        stride = kernel
    n, c, h, w = x.shape
    ph, pw = h + 2 * padding, w + 2 * padding
    out_h = (ph - kernel) // stride + 1
    out_w = (pw - kernel) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError(
            f"max_pool2d: kernel {kernel} too large for input {h}x{w} "
            f"with padding {padding}"
        )
    padded = np.full((n, c, ph, pw), -np.inf, dtype=x.data.dtype)
    padded[:, :, padding:padding + h, padding:padding + w] = x.data

    # (N, C, k, k, oH, oW) -> (N, C, oH, oW, k*k); the flattened kernel axis
    # is in row-major (i, j) order so argmax picks the same winner as the old
    # shift-and-accumulate loop did.  Only the small winner-index array is
    # captured for the backward — the k^2-expanded columns are dropped here.
    windows = _window_view(padded, kernel, kernel, stride)
    cols = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3)).reshape(
        n, c, out_h, out_w, kernel * kernel
    )
    out = cols.max(axis=-1)
    winners = cols.argmax(axis=-1)
    del cols

    def backward(grad: np.ndarray):
        rows = winners // kernel + (stride * np.arange(out_h))[None, None, :, None]
        columns = winners % kernel + (stride * np.arange(out_w))[None, None, None, :]
        grad_padded = np.zeros((n, c, ph, pw), dtype=grad.dtype)
        if stride >= kernel:
            # Non-overlapping windows: winner positions are unique, so a
            # vectorised flat-index assignment replaces the slow unbuffered
            # np.add.at scatter.
            batch = np.arange(n)[:, None, None, None]
            channel = np.arange(c)[None, :, None, None]
            flat = ((batch * c + channel) * ph + rows) * pw + columns
            grad_padded.ravel()[flat.ravel()] = grad.ravel()
        else:
            batch = np.arange(n)[:, None, None, None]
            channel = np.arange(c)[None, :, None, None]
            np.add.at(grad_padded, (batch, channel, rows, columns), grad)
        return (grad_padded[:, :, padding:padding + h, padding:padding + w],)

    return make_op(out, (x,), backward, "max_pool2d")


def avg_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Non-overlapping average pooling (kernel == stride).

    Spatial dims must be divisible by ``kernel``; reshaping makes both the
    forward and the backward a pure view operation.
    """
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"spatial dims ({h},{w}) not divisible by kernel {kernel}")
    out_h, out_w = h // kernel, w // kernel
    reshaped = x.data.reshape(n, c, out_h, kernel, out_w, kernel)
    out = reshaped.mean(axis=(3, 5))
    scale = 1.0 / (kernel * kernel)

    def backward(grad: np.ndarray):
        expanded = np.repeat(np.repeat(grad, kernel, axis=2), kernel, axis=3)
        return (expanded * scale,)

    return make_op(out, (x,), backward, "avg_pool2d")


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial axes, returning (N, C)."""
    n, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3))
    scale = 1.0 / (h * w)

    def backward(grad: np.ndarray):
        return (np.broadcast_to(grad[:, :, None, None], x.shape).copy() * scale,)

    return make_op(out, (x,), backward, "global_avg_pool2d")


def batch_norm2d(
    x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Fused training-mode batch normalisation over (N, H, W) per channel.

    Returns ``(out, batch_mean, batch_var)`` — the batch statistics are plain
    arrays for the caller's running-average update.  One graph node replaces
    the ~15 primitive ops of the composite formulation, with the textbook
    backward: ``dx = gamma*inv_std/M * (M*g - sum(g) - xhat*sum(g*xhat))``.
    """
    if x.ndim != 4:
        raise ValueError(f"batch_norm2d expects NCHW input, got {x.shape}")
    x_data = x.data
    mean = x_data.mean(axis=(0, 2, 3))
    var = x_data.var(axis=(0, 2, 3))
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x_data - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def backward(grad: np.ndarray):
        m = grad.shape[0] * grad.shape[2] * grad.shape[3]
        grad_beta = grad.sum(axis=(0, 2, 3))
        grad_gamma = (grad * xhat).sum(axis=(0, 2, 3))
        scale = (gamma.data * inv_std / m)[None, :, None, None]
        grad_x = scale * (
            m * grad
            - grad_beta[None, :, None, None]
            - xhat * grad_gamma[None, :, None, None]
        )
        return grad_x, grad_gamma, grad_beta

    return make_op(out, (x, gamma, beta), backward, "batch_norm2d"), mean, var


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray):
        return (grad * (x.data > 0),)

    return make_op(out, (x,), backward, "relu")


def relu6(x: Tensor) -> Tensor:
    """The MobileNet activation: ``min(max(x, 0), 6)``."""
    out = np.clip(x.data, 0.0, 6.0)

    def backward(grad: np.ndarray):
        return (grad * ((x.data > 0) & (x.data < 6)),)

    return make_op(out, (x,), backward, "relu6")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shift = x.data.max(axis=axis, keepdims=True)
    shifted = x.data - shift
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_norm
    softmax_vals = np.exp(out)

    def backward(grad: np.ndarray):
        return (grad - softmax_vals * grad.sum(axis=axis, keepdims=True),)

    return make_op(out, (x,), backward, "log_softmax")


# -- inference kernels (out-buffer entry points) ------------------------------
#
# Autograd-free ndarray kernels used by the compiled runtime
# (repro.runtime.engine).  Each accepts preallocated output/scratch buffers so
# a static execution plan runs without allocating activations or scratch per
# op: `out` is the destination (arena slice), `pad_buf` holds the padded input
# and `cols` the materialised im2col columns (a depthwise convolution keeps its
# channels-last padded input and accumulator there instead, and copies its
# C·k² taps per call).  Passing None for any buffer falls back to a fresh
# allocation, which keeps the kernels usable standalone.

def _scratch(
    buf: np.ndarray | None, shape: tuple[int, ...], dtype: np.dtype
) -> np.ndarray:
    """``shape``-sized view of the flat prefix of scratch ``buf``.

    Any buffer with enough elements serves, whatever shape the plan gave it:
    a plan saved before the depthwise kernel went channels-last still holds
    k²-sized column buffers there.  ``None`` allocates.

    Raises:
        ValueError: If ``buf`` holds fewer elements than ``shape`` needs.
    """
    if buf is None:
        return np.empty(shape, dtype=dtype)
    size = math.prod(shape)
    flat = buf.reshape(-1)
    if flat.size < size:
        raise ValueError(
            f"scratch of {flat.size} elements cannot hold {shape}"
        )
    return flat[:size].reshape(shape)


def _depthwise_into(
    x: np.ndarray,
    weight: np.ndarray,
    stride: int,
    padding: int,
    out: np.ndarray,
    pad_buf: np.ndarray | None,
    acc_buf: np.ndarray | None,
) -> None:
    """Channels-last depthwise convolution of NCHW ``x`` into NCHW ``out``.

    The zero-padded input is copied once into ``pad_buf`` as
    ``(Hp, Wp, N, C)``, and one einsum contracts its ``(oH, oW, k, k, N, C)``
    window view against a contiguous ``(k, k, C)`` copy of the taps into
    ``acc_buf`` as ``(oH, oW, N, C)``, which is then copied to ``out``.  Every
    operand's innermost axis is the contiguous channel axis, where im2col
    would copy k² times the output into columns and run N·C GEMMs of one
    row.  The taps must be a contiguous copy, and the einsum must not write
    into a transposed view of ``out``: both measured several times slower.
    This is also the forward of the autograd node :func:`_depthwise_conv`.
    """
    n, c, h, w = x.shape
    _, _, k_h, k_w = weight.shape
    out_h, out_w = out.shape[2], out.shape[3]
    xp = _scratch(pad_buf, (h + 2 * padding, w + 2 * padding, n, c), x.dtype)
    if padding:
        xp.fill(0.0)
    xp[padding:padding + h, padding:padding + w] = x.transpose(2, 3, 0, 1)
    windows = _channels_last_windows(xp, out_h, out_w, k_h, k_w, stride)
    acc = _scratch(acc_buf, (out_h, out_w, n, c), x.dtype)
    np.einsum("hwijnc,ijc->hwnc", windows, _depthwise_taps(weight), out=acc)
    np.copyto(out, acc.transpose(2, 3, 0, 1))


def conv2d_into(
    x: np.ndarray,
    weight: np.ndarray,
    *,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
    bias: np.ndarray | None = None,
    act: str | None = None,
    out: np.ndarray | None = None,
    pad_buf: np.ndarray | None = None,
    cols: np.ndarray | None = None,
    residual: np.ndarray | None = None,
) -> np.ndarray:
    """Inference convolution writing into ``out`` (bias + activation fused).

    Dense and grouped convolutions use the im2col + one-batched-matmul
    formulation of :func:`conv2d`, on plain arrays with no graph: the
    padded input lands in ``pad_buf``, the columns in ``cols`` (zero-copy
    view for 1x1/stride-1), and the GEMM writes straight into ``out`` via
    ``np.matmul(..., out=...)``.  A depthwise convolution
    (``groups == C_in == C_out > 1``) runs the channels-last kernel
    :func:`_depthwise_into` instead, with its padded input in ``pad_buf`` and
    its accumulator in ``cols``; each uses the flat prefix of its buffer and
    allocates when it is ``None``.  Bias add plus ``relu``/``relu6`` then
    happen in place.  ``residual`` is accumulated into ``out`` after the
    bias and before the activation — the conv+add fusion the runtime engine
    uses for residual blocks (one pass over the output instead of a separate
    add op and buffer).  Returns ``out``.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_g, k_h, k_w = weight.shape
    out_h = _conv_output_size(h + 2 * padding, k_h, stride)
    out_w = _conv_output_size(w + 2 * padding, k_w, stride)
    if out is None:
        out = np.empty((n, c_out, out_h, out_w), dtype=x.dtype)
    if groups == c_in == c_out > 1:
        _depthwise_into(x, weight, stride, padding, out, pad_buf, cols)
    else:
        if padding:
            if pad_buf is None:
                pad_buf = np.zeros(
                    (n, c_in, h + 2 * padding, w + 2 * padding), dtype=x.dtype
                )
            else:
                pad_buf.fill(0.0)
            pad_buf[:, :, padding:padding + h, padding:padding + w] = x
            src = pad_buf
        else:
            src = x
        w_mat = weight.reshape(groups, c_out // groups, c_in_g * k_h * k_w)
        if k_h == 1 and k_w == 1 and stride == 1:
            # Contiguous input: the column matrix is a free reshape.
            col_view = src.reshape(n, groups, c_in_g, out_h * out_w)
        else:
            view = _window_view(src, k_h, k_w, stride)
            if cols is None:
                cols = np.empty(
                    (n, c_in, k_h, k_w, out_h, out_w), dtype=x.dtype
                )
            col6 = cols.reshape(n, c_in, k_h, k_w, out_h, out_w)
            np.copyto(col6, view)
            col_view = col6.reshape(
                n, groups, c_in_g * k_h * k_w, out_h * out_w
            )
        np.matmul(
            w_mat[None], col_view,
            out=out.reshape(n, groups, c_out // groups, out_h * out_w),
        )
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    if residual is not None:
        out += residual
    _apply_activation(out, act)
    return out


def linear_into(
    x: np.ndarray,
    weight: np.ndarray,
    *,
    bias: np.ndarray | None = None,
    act: str | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Inference affine map ``x @ weight.T + bias`` written into ``out``."""
    if out is None:
        out = np.empty((x.shape[0], weight.shape[0]), dtype=x.dtype)
    np.matmul(x, weight.T, out=out)
    if bias is not None:
        out += bias
    _apply_activation(out, act)
    return out


def max_pool2d_into(
    x: np.ndarray,
    kernel: int,
    *,
    stride: int | None = None,
    padding: int = 0,
    out: np.ndarray | None = None,
    pad_buf: np.ndarray | None = None,
) -> np.ndarray:
    """Inference max pooling (overlap supported) written into ``out``."""
    if stride is None:
        stride = kernel
    n, c, h, w = x.shape
    if padding:
        if pad_buf is None:
            pad_buf = np.empty(
                (n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype
            )
        pad_buf.fill(-np.inf)
        pad_buf[:, :, padding:padding + h, padding:padding + w] = x
        src = pad_buf
    else:
        src = x
    out_h = _conv_output_size(src.shape[2], kernel, stride)
    out_w = _conv_output_size(src.shape[3], kernel, stride)
    if out is None:
        out = np.empty((n, c, out_h, out_w), dtype=x.dtype)
    windows = _window_view(src, kernel, kernel, stride)
    np.max(windows, axis=(2, 3), out=out)
    return out


def avg_pool2d_into(
    x: np.ndarray, kernel: int, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Inference non-overlapping average pooling written into ``out``."""
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"spatial dims ({h},{w}) not divisible by kernel {kernel}")
    out_h, out_w = h // kernel, w // kernel
    if out is None:
        out = np.empty((n, c, out_h, out_w), dtype=x.dtype)
    reshaped = x.reshape(n, c, out_h, kernel, out_w, kernel)
    np.mean(reshaped, axis=(3, 5), out=out)
    return out


def global_avg_pool2d_into(
    x: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Inference global average pooling (N, C, H, W) -> (N, C) into ``out``."""
    if out is None:
        out = np.empty(x.shape[:2], dtype=x.dtype)
    np.mean(x, axis=(2, 3), out=out)
    return out


def _apply_activation(out: np.ndarray, act: str | None) -> None:
    """In-place fused activation for the inference kernels."""
    if act is None:
        return
    if act == "relu6":
        np.clip(out, 0.0, 6.0, out=out)
    elif act == "relu":
        np.maximum(out, 0.0, out=out)
    else:
        raise ValueError(f"unknown activation {act!r}")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shift = x.data.max(axis=axis, keepdims=True)
    exp = np.exp(x.data - shift)
    out = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray):
        inner = (grad * out).sum(axis=axis, keepdims=True)
        return (out * (grad - inner),)

    return make_op(out, (x,), backward, "softmax")
