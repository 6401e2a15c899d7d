"""Graph capture: lower a network into a static :class:`ExecutionPlan`.

:func:`compile_spec` walks a :class:`~repro.nas.network.BuiltNetwork` (or
builds one from an :class:`~repro.nas.arch_spec.ArchSpec`) unit by unit and
emits a topologically-ordered op list with all training-time machinery baked
out:

* **BatchNorm folding** — eval-mode BN is an affine map per channel, so it
  collapses into the preceding convolution:
  ``w' = w * gamma / sqrt(var + eps)`` and
  ``b' = beta - mean * gamma / sqrt(var + eps)`` (folds computed in float64,
  stored in the policy dtype).
* **Quantisation baking** — fake-quantised weights are materialised once at
  compile time through the *same* :func:`repro.nas.quantization.fake_quantize`
  code path the training forward uses, so the baked plan reproduces
  ``BuiltNetwork.forward(x, bits=...)`` exactly.
* **Scratch planning** — each convolution registers its scratch, which the
  arena planner folds into reused space: a dense or grouped conv its
  padded input and im2col columns, a depthwise conv its channels-last
  padded input (also at padding 0) and output accumulator, ``(C, Hp, Wp)``
  and ``(C, oH, oW)`` per sample.

The result executes conv -> activation only; see
:class:`repro.runtime.engine.Engine` for the executor.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.ops_nn import _conv_output_size
from repro.autograd.tensor import get_default_dtype, no_grad
from repro.nas.arch_spec import ArchSpec
from repro.nas.network import (
    BuiltNetwork,
    _BranchesUnit,
    _ConvUnit,
    _FCUnit,
    _MBConvUnit,
    _PoolUnit,
    _SepConvUnit,
    build_network,
)
from repro.nas.quantization import fake_quantize
from repro.nn.layers import BatchNorm2d, Conv2d, Linear
from repro.runtime.plan import BufferSpec, ExecutionPlan, PlanOp


class _PlanBuilder:
    """Accumulates buffers and ops while the lowering walks the network."""

    def __init__(
        self,
        dtype: np.dtype,
        fuse_residual: bool = True,
        fuse_pool: bool = True,
    ) -> None:
        self.dtype = np.dtype(dtype)
        self.fuse_residual = fuse_residual
        self.fuse_pool = fuse_pool
        self.buffers: list[BufferSpec] = []
        self.ops: list[PlanOp] = []

    def buffer(self, shape: tuple[int, ...], role: str = "activation") -> int:
        buf = BufferSpec(id=len(self.buffers), shape=tuple(shape), role=role)
        self.buffers.append(buf)
        return buf.id

    def emit(self, op: PlanOp) -> int:
        self.ops.append(op)
        return op.output


def _quantized_weight(param, bits: int | None) -> np.ndarray:
    """Bake fake-quantisation exactly as ``BuiltNetwork.forward`` applies it
    (falsy ``bits`` means the float path)."""
    if not bits:
        return param.data
    return fake_quantize(param, bits).data


def _fold_conv_bn(
    conv: Conv2d, bn: BatchNorm2d, bits: int | None, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Fold eval-mode BatchNorm into the (quantised) conv weight and a bias.

    The fold is computed in float64 and cast to the policy dtype so the only
    deviation from the unfused reference is the final rounding.
    """
    weight = _quantized_weight(conv.weight, bits).astype(np.float64)
    gamma = bn.gamma.data.astype(np.float64)
    beta = bn.beta.data.astype(np.float64)
    mean = np.asarray(bn.running_mean, dtype=np.float64)
    var = np.asarray(bn.running_var, dtype=np.float64)
    scale = gamma / np.sqrt(var + bn.eps)
    folded = weight * scale.reshape(-1, 1, 1, 1)
    bias = beta - mean * scale
    return folded.astype(dtype), bias.astype(dtype)


def _conv_geometry(
    in_shape: tuple[int, ...], kernel: int, stride: int, padding: int
) -> tuple[int, int]:
    _, h, w = in_shape
    out_h = _conv_output_size(h + 2 * padding, kernel, stride)
    out_w = _conv_output_size(w + 2 * padding, kernel, stride)
    if out_h < 1 or out_w < 1:
        raise ValueError(
            f"kernel {kernel} too large for input {h}x{w} with padding {padding}"
        )
    return out_h, out_w


def _lower_conv_unit(
    unit: _ConvUnit,
    in_buf: int,
    in_shape: tuple[int, ...],
    bits: int | None,
    b: _PlanBuilder,
    residual_in: int | None = None,
) -> tuple[int, tuple[int, ...]]:
    conv = unit.conv
    c_in, h, w = in_shape
    out_h, out_w = _conv_geometry(in_shape, conv.kernel_size, conv.stride,
                                  conv.padding)
    weight, bias = _fold_conv_bn(conv, unit.bn, bits, b.dtype)
    depthwise = conv.groups == c_in == conv.out_channels > 1
    scratch: list[int] = []
    attrs = {
        "stride": conv.stride, "padding": conv.padding, "groups": conv.groups,
        "kernel": conv.kernel_size, "pad_buf": None, "col_buf": None,
        "add_buf": residual_in,
    }
    # A depthwise conv always copies its input channels-last, and its
    # col_buf holds the (oH, oW, N, C) accumulator, not k² columns.
    if conv.padding or depthwise:
        attrs["pad_buf"] = b.buffer(
            (c_in, h + 2 * conv.padding, w + 2 * conv.padding), role="scratch"
        )
        scratch.append(attrs["pad_buf"])
    if depthwise:
        attrs["col_buf"] = b.buffer((c_in, out_h, out_w), role="scratch")
        scratch.append(attrs["col_buf"])
    elif not (conv.kernel_size == 1 and conv.stride == 1):
        attrs["col_buf"] = b.buffer(
            (c_in, conv.kernel_size, conv.kernel_size, out_h, out_w),
            role="scratch",
        )
        scratch.append(attrs["col_buf"])
    out_shape = (conv.out_channels, out_h, out_w)
    out_buf = b.buffer(out_shape)
    # A fused residual is an op input like any other: the liveness pass
    # keeps it alive through this op so the arena cannot overlap it with
    # the output.
    inputs = (in_buf,) if residual_in is None else (in_buf, residual_in)
    b.emit(PlanOp(
        kind="conv", inputs=inputs, output=out_buf, attrs=attrs,
        weight=weight, bias=bias, act="relu6" if unit.act else None,
        scratch=tuple(scratch),
        label=f"conv{conv.kernel_size}x{conv.kernel_size}"
              f"{'dw' if depthwise else ''}"
              f"{'+add' if residual_in is not None else ''}",
    ))
    return out_buf, out_shape


def _lower_pool_unit(
    unit: _PoolUnit, in_buf: int, in_shape: tuple[int, ...], b: _PlanBuilder
) -> tuple[int, tuple[int, ...]]:
    c, h, w = in_shape
    if unit.mode == "max":
        out_h, out_w = _conv_geometry(in_shape, unit.kernel, unit.stride,
                                      unit.padding)
        scratch: tuple[int, ...] = ()
        pad_buf = None
        if unit.padding:
            pad_buf = b.buffer(
                (c, h + 2 * unit.padding, w + 2 * unit.padding), role="scratch"
            )
            scratch = (pad_buf,)
        out_shape = (c, out_h, out_w)
        out_buf = b.buffer(out_shape)
        b.emit(PlanOp(
            kind="maxpool", inputs=(in_buf,), output=out_buf,
            attrs={"kernel": unit.kernel, "stride": unit.stride,
                   "padding": unit.padding, "pad_buf": pad_buf},
            scratch=scratch, label=f"maxpool{unit.kernel}",
        ))
        return out_buf, out_shape
    if h % unit.kernel or w % unit.kernel:
        raise ValueError(
            f"avg pool kernel {unit.kernel} does not divide {h}x{w}"
        )
    out_shape = (c, h // unit.kernel, w // unit.kernel)
    out_buf = b.buffer(out_shape)
    b.emit(PlanOp(
        kind="avgpool", inputs=(in_buf,), output=out_buf,
        attrs={"kernel": unit.kernel}, label=f"avgpool{unit.kernel}",
    ))
    return out_buf, out_shape


def _poolable_into_conv(pool: _PoolUnit, unit) -> bool:
    """True when ``avgpool(k) -> conv1x1`` can fuse into one strided conv.

    Average pooling is linear, so a following dense 1x1 convolution absorbs
    it exactly: a kernel-``k`` stride-``k`` conv whose weight is the 1x1
    weight tiled over the window and divided by ``k**2`` computes the same
    map in a single im2col GEMM — no pooled intermediate, one op fewer.
    The builder's avg forward ignores stride/padding (window == stride,
    no padding), so the window geometry is fully described by ``kernel``.
    """
    return (
        pool.mode == "avg"
        and isinstance(unit, _ConvUnit)
        and unit.conv.kernel_size == 1
        and unit.conv.stride == 1
        and unit.conv.padding == 0
        and unit.conv.groups == 1
    )


def _lower_avgpool_conv_fused(
    pool: _PoolUnit,
    unit: _ConvUnit,
    in_buf: int,
    in_shape: tuple[int, ...],
    bits: int | None,
    b: _PlanBuilder,
) -> tuple[int, tuple[int, ...]]:
    conv = unit.conv
    c_in, h, w = in_shape
    k = pool.kernel
    if h % k or w % k:
        raise ValueError(f"avg pool kernel {k} does not divide {h}x{w}")
    weight_1x1, bias = _fold_conv_bn(conv, unit.bn, bits, b.dtype)
    weight = (
        np.tile(weight_1x1.astype(np.float64), (1, 1, k, k)) / (k * k)
    ).astype(b.dtype)
    out_h, out_w = h // k, w // k
    col_buf = b.buffer((c_in, k, k, out_h, out_w), role="scratch")
    out_shape = (conv.out_channels, out_h, out_w)
    out_buf = b.buffer(out_shape)
    b.emit(PlanOp(
        kind="conv", inputs=(in_buf,), output=out_buf,
        attrs={"stride": k, "padding": 0, "groups": 1, "kernel": k,
               "pad_buf": None, "col_buf": col_buf, "add_buf": None},
        weight=weight, bias=bias, act="relu6" if unit.act else None,
        scratch=(col_buf,), label=f"avgpool{k}+conv1x1",
    ))
    return out_buf, out_shape


def _lower_fc_unit(
    unit: _FCUnit,
    in_buf: int,
    in_shape: tuple[int, ...],
    bits: int | None,
    b: _PlanBuilder,
) -> tuple[int, tuple[int, ...]]:
    cur, shape = in_buf, in_shape
    if len(shape) == 3:
        if unit.flatten:
            flat = (shape[0] * shape[1] * shape[2],)
            cur = b.emit(PlanOp(
                kind="flatten", inputs=(cur,), output=b.buffer(flat),
                label="flatten",
            ))
            shape = flat
        else:
            pooled = (shape[0],)
            cur = b.emit(PlanOp(
                kind="gap", inputs=(cur,), output=b.buffer(pooled), label="gap",
            ))
            shape = pooled
    linear: Linear = unit.linear
    weight = _quantized_weight(linear.weight, bits).astype(b.dtype)
    bias = (
        linear.bias.data.astype(b.dtype) if linear.bias is not None else None
    )
    out_shape = (linear.out_features,)
    cur = b.emit(PlanOp(
        kind="linear", inputs=(cur,), output=b.buffer(out_shape),
        weight=weight, bias=bias, act="relu" if unit.act else None,
        label="linear",
    ))
    return cur, out_shape


def _lower_unit(
    unit, in_buf: int, in_shape: tuple[int, ...], bits: int | None,
    b: _PlanBuilder,
) -> tuple[int, tuple[int, ...]]:
    """Dispatch over the builder unit vocabulary; returns (buffer, shape)."""
    if isinstance(unit, _ConvUnit):
        return _lower_conv_unit(unit, in_buf, in_shape, bits, b)
    if isinstance(unit, _MBConvUnit):
        cur, shape = _lower_conv_unit(unit.expand, in_buf, in_shape, bits, b)
        cur, shape = _lower_conv_unit(unit.dw, cur, shape, bits, b)
        if unit.use_residual and b.fuse_residual:
            # Conv+add fusion: the projection conv accumulates the block
            # input into its own output pass (see conv2d_into's residual
            # argument) — one op and one buffer fewer per residual block,
            # and the add rides the GEMM output while it is still hot.
            return _lower_conv_unit(
                unit.project, cur, shape, bits, b, residual_in=in_buf
            )
        cur, shape = _lower_conv_unit(unit.project, cur, shape, bits, b)
        if unit.use_residual:
            cur = b.emit(PlanOp(
                kind="add", inputs=(cur, in_buf), output=b.buffer(shape),
                label="residual",
            ))
        return cur, shape
    if isinstance(unit, _SepConvUnit):
        cur, shape = _lower_conv_unit(unit.dw, in_buf, in_shape, bits, b)
        return _lower_conv_unit(unit.pw, cur, shape, bits, b)
    if isinstance(unit, _PoolUnit):
        return _lower_pool_unit(unit, in_buf, in_shape, b)
    if isinstance(unit, _BranchesUnit):
        outs: list[tuple[int, tuple[int, ...]]] = []
        for units in unit._branches:
            cur, shape = in_buf, in_shape
            for sub in units:
                cur, shape = _lower_unit(sub, cur, shape, bits, b)
            outs.append((cur, shape))
        shapes = [s for _, s in outs]
        if len({s[1:] for s in shapes}) != 1:
            raise ValueError(f"branches disagree on resolution: {shapes}")
        if unit.combine == "add":
            if len({s[0] for s in shapes}) != 1:
                raise ValueError(f"'add' branches disagree on channels: {shapes}")
            out_shape = shapes[0]
            out_buf = b.buffer(out_shape)
            b.emit(PlanOp(
                kind="add", inputs=tuple(buf for buf, _ in outs),
                output=out_buf, label="add",
            ))
            return out_buf, out_shape
        out_shape = (sum(s[0] for s in shapes),) + shapes[0][1:]
        out_buf = b.buffer(out_shape)
        b.emit(PlanOp(
            kind="concat", inputs=tuple(buf for buf, _ in outs),
            output=out_buf,
            attrs={"channels": tuple(s[0] for s in shapes)}, label="concat",
        ))
        return out_buf, out_shape
    if isinstance(unit, _FCUnit):
        return _lower_fc_unit(unit, in_buf, in_shape, bits, b)
    raise TypeError(
        f"compile_spec cannot lower unit type {type(unit).__name__}"
    )


def compile_spec(
    model: ArchSpec | BuiltNetwork,
    bits: int | None = None,
    seed: int | None = None,
    fuse_residual: bool = True,
    fuse_pool: bool = True,
) -> ExecutionPlan:
    """Lower a spec or built network into a static inference plan.

    ``bits`` mirrors ``BuiltNetwork.forward``: ``None`` uses the spec's
    annotated ``weight_bits`` (if any); 32+ is the float path.  Passing an
    :class:`ArchSpec` instantiates weights via
    :func:`~repro.nas.network.build_network` with ``seed``; passing a
    :class:`BuiltNetwork` compiles its *current* weights and BN running
    statistics, so the plan reproduces the network's eval-mode forward.
    ``fuse_residual`` (default on) lets each MBConv residual ride the
    projection conv's output pass instead of a separate add op — identical
    arithmetic order, one op and one activation buffer fewer per block.
    ``fuse_pool`` (default on) collapses every top-level
    ``avgpool(k) -> conv1x1`` pair into one kernel-``k`` stride-``k`` conv
    (the pooled mean is absorbed into the tiled weight) — same map up to
    float summation order, one op and the pooled buffer fewer.

    Returns:
        An :class:`ExecutionPlan` ready for
        :class:`repro.runtime.engine.Engine`.

    Raises:
        TypeError: For specs the network builder cannot instantiate
            (e.g. channel shuffles) or unknown model types.
        ValueError: For a spec whose geometry the units cannot run (see
            :class:`~repro.nas.arch_spec.PoolBlock`).
    """
    if isinstance(model, BuiltNetwork):
        net = model
    elif isinstance(model, ArchSpec):
        if not model.buildable():
            raise TypeError(
                f"spec {model.name!r} contains blocks the runtime cannot "
                f"lower (channel shuffle)"
            )
        net = build_network(model, seed=seed)
    else:
        raise TypeError(
            f"compile_spec expects ArchSpec or BuiltNetwork, got "
            f"{type(model).__name__}"
        )
    spec = net.spec
    effective_bits = spec.weight_bits if bits is None else bits
    if not effective_bits or effective_bits >= 32:
        effective_bits = None  # the float path, matching fake_quantize
    builder = _PlanBuilder(
        get_default_dtype(), fuse_residual=fuse_residual, fuse_pool=fuse_pool
    )
    in_shape = (spec.input_channels, spec.input_size, spec.input_size)
    in_buf = builder.buffer(in_shape, role="input")
    cur, shape = in_buf, in_shape
    units = list(net.units)
    with no_grad():
        index = 0
        while index < len(units):
            unit = units[index]
            lookahead = units[index + 1] if index + 1 < len(units) else None
            if (builder.fuse_pool and isinstance(unit, _PoolUnit)
                    and lookahead is not None
                    and _poolable_into_conv(unit, lookahead)):
                cur, shape = _lower_avgpool_conv_fused(
                    unit, lookahead, cur, shape, effective_bits, builder
                )
                index += 2
                continue
            cur, shape = _lower_unit(unit, cur, shape, effective_bits, builder)
            index += 1
    return ExecutionPlan(
        name=spec.name,
        ops=builder.ops,
        buffers=builder.buffers,
        input_buffer=in_buf,
        output_buffer=cur,
        dtype=builder.dtype,
        bits=effective_bits,
        metadata={"blocks": len(spec.blocks)},
    )
