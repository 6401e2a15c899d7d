"""Elementwise primitives: arithmetic, exponentials, and straight-through ops.

All ops broadcast like numpy and return graph-tracked tensors when any input
requires gradients.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor, make_op, unbroadcast


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(grad: np.ndarray):
        return unbroadcast(grad, a.shape), unbroadcast(grad, b.shape)

    return make_op(out, (a, b), backward, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def backward(grad: np.ndarray):
        return unbroadcast(grad, a.shape), unbroadcast(-grad, b.shape)

    return make_op(out, (a, b), backward, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward(grad: np.ndarray):
        return (
            unbroadcast(grad * b.data, a.shape),
            unbroadcast(grad * a.data, b.shape),
        )

    return make_op(out, (a, b), backward, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data

    def backward(grad: np.ndarray):
        return (
            unbroadcast(grad / b.data, a.shape),
            unbroadcast(-grad * a.data / (b.data * b.data), b.shape),
        )

    return make_op(out, (a, b), backward, "div")


def neg(a: Tensor) -> Tensor:
    def backward(grad: np.ndarray):
        return (-grad,)

    return make_op(-a.data, (a,), backward, "neg")


def pow_(a: Tensor, exponent: float) -> Tensor:
    """``a ** exponent`` for a constant (non-tensor) exponent."""
    exponent = float(exponent)
    out = a.data**exponent

    def backward(grad: np.ndarray):
        return (grad * exponent * a.data ** (exponent - 1.0),)

    return make_op(out, (a,), backward, "pow")


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def backward(grad: np.ndarray):
        return (grad * out,)

    return make_op(out, (a,), backward, "exp")


def log(a: Tensor) -> Tensor:
    out = np.log(a.data)

    def backward(grad: np.ndarray):
        return (grad / a.data,)

    return make_op(out, (a,), backward, "log")


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)

    def backward(grad: np.ndarray):
        return (grad * 0.5 / out,)

    return make_op(out, (a,), backward, "sqrt")


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def backward(grad: np.ndarray):
        return (grad * (1.0 - out * out),)

    return make_op(out, (a,), backward, "tanh")


def sigmoid(a: Tensor) -> Tensor:
    # Stable two-branch logistic.
    x = a.data
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    ex = np.exp(x[~positive])
    out[~positive] = ex / (1.0 + ex)

    def backward(grad: np.ndarray):
        return (grad * out * (1.0 - out),)

    return make_op(out, (a,), backward, "sigmoid")


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; at ties the gradient is split equally (subgradient)."""
    out = np.maximum(a.data, b.data)

    def backward(grad: np.ndarray):
        a_wins = a.data > b.data
        b_wins = b.data > a.data
        tie = ~(a_wins | b_wins)
        grad_a = grad * (a_wins + 0.5 * tie)
        grad_b = grad * (b_wins + 0.5 * tie)
        return unbroadcast(grad_a, a.shape), unbroadcast(grad_b, b.shape)

    return make_op(out, (a, b), backward, "maximum")


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Select from ``a`` where ``condition`` else ``b``; condition is constant."""
    condition = np.asarray(condition, dtype=bool)
    out = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray):
        return (
            unbroadcast(np.where(condition, grad, 0.0), a.shape),
            unbroadcast(np.where(condition, 0.0, grad), b.shape),
        )

    return make_op(out, (a, b), backward, "where")


def round_ste(a: Tensor) -> Tensor:
    """Round with a straight-through gradient (identity backward).

    The forward pass quantises to the nearest integer; the backward pass
    pretends the op is the identity.  This is the standard estimator used by
    quantisation-aware training and by the paper's differentiable
    quantisation paths.
    """
    out = np.round(a.data)

    def backward(grad: np.ndarray):
        return (grad,)

    return make_op(out, (a,), backward, "round_ste")


def quantize_ste(a: Tensor, scale: float, low: float, high: float) -> Tensor:
    """Fused fake-quantisation: clip to ``[low, high]``, snap to the ``scale``
    grid, with straight-through gradients inside the clip range.

    Equivalent to ``round_ste(clip_ste(a, low, high) * (1/scale)) * scale``
    as a single graph node — the STE gradients of the composite collapse to
    ``grad * (low <= a <= high)`` because the scale factors cancel.
    """
    out = np.round(np.clip(a.data, low, high) * (1.0 / scale)) * scale

    def backward(grad: np.ndarray):
        inside = (a.data >= low) & (a.data <= high)
        return (grad * inside,)

    return make_op(out, (a,), backward, "quantize_ste")


def clip_ste(a: Tensor, low: float, high: float) -> Tensor:
    """Clip values to ``[low, high]`` passing gradients only inside the range."""
    out = np.clip(a.data, low, high)

    def backward(grad: np.ndarray):
        inside = (a.data >= low) & (a.data <= high)
        return (grad * inside,)

    return make_op(out, (a,), backward, "clip_ste")
