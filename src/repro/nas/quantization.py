"""Differentiable quantisation (Sec. 3.2.1 of the paper).

Each candidate operation gets ``Q`` quantisation paths; a Gumbel-Softmax over
the sampling parameters ``Phi`` picks a bit-width per feed-forward pass.  The
effect of quantisation on *accuracy* is modelled by fake-quantising the
operation's weights with a straight-through estimator; its effect on
*performance/resource* flows through the device models' ``Perf^q`` /
``Res^q`` terms (Stage-1).

Three sharing modes mirror the paper's device constraints:

* ``per_block_op`` — Phi is (N, M, Q): pipelined FPGA, fully mixed precision.
* ``per_op``       — Phi is (M, Q): recursive FPGA, where blocks sharing an
  IP must share its implementation variables (Sec. 3.2.5 footnote).
* ``global``       — Phi is (Q,): GPU, where the framework (TensorRT) forces
  a single network-wide precision (Sec. 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd.ops_basic import quantize_ste
from repro.autograd.tensor import Tensor, make_op

SHARING_MODES = ("per_block_op", "per_op", "global")


@dataclass(frozen=True)
class QuantizationConfig:
    """Bit-width menu plus sharing mode.

    Defaults match the paper's FPGA setting (4/8/16-bit weights); use
    :meth:`gpu` for the 8/16/32-bit GPU menu.
    """

    bitwidths: tuple[int, ...] = (4, 8, 16)
    sharing: str = "per_block_op"
    activation_bits: int = 16

    def __post_init__(self) -> None:
        if not self.bitwidths:
            raise ValueError("bitwidths must be non-empty")
        if any(b < 2 or b > 32 for b in self.bitwidths):
            raise ValueError(f"bitwidths out of supported range [2, 32]: {self.bitwidths}")
        if self.sharing not in SHARING_MODES:
            raise ValueError(f"sharing must be one of {SHARING_MODES}, got {self.sharing!r}")

    @property
    def num_levels(self) -> int:
        """Q in the paper."""
        return len(self.bitwidths)

    def phi_shape(self, num_blocks: int, num_ops: int) -> tuple[int, ...]:
        """Shape of the Phi sampling-parameter array for this sharing mode."""
        if self.sharing == "per_block_op":
            return (num_blocks, num_ops, self.num_levels)
        if self.sharing == "per_op":
            return (num_ops, self.num_levels)
        return (self.num_levels,)

    @classmethod
    def fpga(cls, sharing: str = "per_block_op") -> "QuantizationConfig":
        """FPGA menu: 4/8/16-bit weights, 16-bit activations (Sec. 6)."""
        return cls(bitwidths=(4, 8, 16), sharing=sharing, activation_bits=16)

    @classmethod
    def gpu(cls) -> "QuantizationConfig":
        """GPU menu: 8/16/32-bit weights, 32-bit activations, global sharing."""
        return cls(bitwidths=(8, 16, 32), sharing="global", activation_bits=32)


def fake_quantize(x: Tensor, bits: int, max_abs: float | None = None) -> Tensor:
    """Symmetric uniform fake-quantisation with straight-through gradients.

    Values are clipped to ``[-max_abs, max_abs]`` (default: the tensor's own
    max magnitude), scaled to the signed integer grid of ``bits`` bits,
    rounded (STE), and rescaled.  At 32 bits this is the identity — the float
    path.
    """
    if bits >= 32:
        return x
    if bits < 2:
        raise ValueError(f"cannot quantise to {bits} bits")
    if max_abs is None:
        max_abs = float(np.max(np.abs(x.data))) or 1.0
    if max_abs < 1e-30:
        # (Sub)normal-range tensors: the grid degenerates and 1/scale would
        # overflow; quantisation of a numerically-zero tensor is the identity.
        return x
    levels = float(2 ** (bits - 1) - 1)
    scale = max_abs / levels
    return quantize_ste(x, scale, -max_abs, max_abs)


def quantization_error(x: np.ndarray, bits: int) -> float:
    """RMS error introduced by ``bits``-bit fake quantisation (diagnostic)."""
    if bits >= 32:
        return 0.0
    max_abs = float(np.max(np.abs(x))) or 1.0
    if max_abs < 1e-30:
        return 0.0
    levels = float(2 ** (bits - 1) - 1)
    scale = max_abs / levels
    quantised = np.round(np.clip(x, -max_abs, max_abs) / scale) * scale
    return float(np.sqrt(np.mean((x - quantised) ** 2)))


def mixed_quantize(x: Tensor, weights: Tensor, bitwidths: tuple[int, ...]) -> Tensor:
    """Gumbel-weighted mixture of quantisation paths (soft Stage-1 forward).

    ``weights`` is a (Q,) tensor summing to 1 (a Gumbel-Softmax sample over
    Phi).  With a hard sample this reduces to the single selected path; with
    a soft sample it is the expectation over paths, matching Eqs. 2-3.

    Implemented as **one fused graph node** instead of the former
    ``Q x (quantize -> getitem -> mul) -> add`` composite (~3Q+2 nodes and
    buffers per conv weight — a measurable share of the supernet step's heap
    churn and python dispatch).  The forward accumulates the terms in the
    same order as the composite did, so outputs are unchanged; the backward
    uses the straight-through identities the composite's graph computed
    piecewise: every element lies inside the clip range (``max_abs`` is the
    tensor's own maximum), so ``dL/dx = sum_i(w_i) * g`` and
    ``dL/dw_i = sum(fq_i(x) * g)``.
    """
    if weights.shape != (len(bitwidths),):
        raise ValueError(
            f"weights shape {weights.shape} does not match {len(bitwidths)} bitwidths"
        )
    x_data = x.data
    w_data = weights.data
    q = len(bitwidths)
    max_abs = float(np.max(np.abs(x_data))) or 1.0
    paths = np.empty((q,) + x.shape, dtype=x_data.dtype)
    out = np.empty(x.shape, dtype=x_data.dtype)
    scratch = np.empty(x.shape, dtype=x_data.dtype)
    for idx, bits in enumerate(bitwidths):
        dest = paths[idx]
        if bits >= 32 or max_abs < 1e-30:
            np.copyto(dest, x_data)  # the float path: quantisation is identity
        else:
            if bits < 2:
                raise ValueError(f"cannot quantise to {bits} bits")
            levels = float(2 ** (bits - 1) - 1)
            scale = max_abs / levels
            # clip to [-max_abs, max_abs] is the identity here (max_abs is
            # the tensor's own max magnitude), so the scale multiply reads
            # x directly — one fewer full pass, bit-identical output.
            np.multiply(x_data, 1.0 / scale, out=dest)
            np.rint(dest, out=dest)
            dest *= scale
        if idx == 0:
            np.multiply(dest, w_data[0], out=out)
        else:
            np.multiply(dest, w_data[idx], out=scratch)
            out += scratch

    def backward(grad: np.ndarray):
        grad_w = np.empty(q, dtype=w_data.dtype)
        for idx in range(q):
            grad_w[idx] = (grad * paths[idx]).sum()
        grad_x = grad * w_data.sum()
        return grad_x, grad_w

    return make_op(out, (x, weights), backward, "mixed_quantize")
