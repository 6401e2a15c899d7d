"""Shape-manipulation primitives: reshape, transpose, pad, slice, concat."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.autograd.tensor import Tensor, make_op


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    original = a.shape
    out = a.data.reshape(shape)

    def backward(grad: np.ndarray):
        return (grad.reshape(original),)

    return make_op(out, (a,), backward, "reshape")


def flatten(a: Tensor, start_axis: int = 1) -> Tensor:
    """Collapse every axis from ``start_axis`` onward into one."""
    kept = a.shape[:start_axis]
    return reshape(a, kept + (-1,))


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    inverse = tuple(np.argsort(axes))
    out = a.data.transpose(axes)

    def backward(grad: np.ndarray):
        return (grad.transpose(inverse),)

    return make_op(out, (a,), backward, "transpose")


def pad2d(a: Tensor, padding: int | tuple[int, int]) -> Tensor:
    """Zero-pad the last two (spatial) axes of an NCHW tensor."""
    if isinstance(padding, int):
        pad_h = pad_w = padding
    else:
        pad_h, pad_w = padding
    if pad_h == 0 and pad_w == 0:
        return a
    h, w = a.shape[-2], a.shape[-1]
    # zeros + slice assignment: same result as np.pad without its per-call
    # python overhead (this sits on the conv hot path).
    out = np.zeros(a.shape[:-2] + (h + 2 * pad_h, w + 2 * pad_w), dtype=a.data.dtype)
    out[..., pad_h : pad_h + h, pad_w : pad_w + w] = a.data

    def backward(grad: np.ndarray):
        sl = [slice(None)] * (a.ndim - 2) + [
            slice(pad_h, pad_h + h),
            slice(pad_w, pad_w + w),
        ]
        return (grad[tuple(sl)],)

    return make_op(out, (a,), backward, "pad2d")


def getitem(a: Tensor, index: Any) -> Tensor:
    out = a.data[index]

    def backward(grad: np.ndarray):
        full = np.zeros_like(a.data)
        np.add.at(full, index, grad)
        return (full,)

    return make_op(out, (a,), backward, "getitem")


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ValueError("concat requires at least one tensor")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray):
        pieces = []
        for i in range(len(tensors)):
            sl = [slice(None)] * grad.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(grad[tuple(sl)])
        return tuple(pieces)

    return make_op(out, tuple(tensors), backward, "concat")


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    from repro.autograd.tensor import unbroadcast

    out = np.broadcast_to(a.data, shape).copy()
    original = a.shape

    def backward(grad: np.ndarray):
        return (unbroadcast(grad, original),)

    return make_op(out, (a,), backward, "broadcast_to")
