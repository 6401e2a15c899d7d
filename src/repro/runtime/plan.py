"""Static execution plans — the compiled IR of the inference runtime.

An :class:`ExecutionPlan` is what :func:`repro.runtime.compile_spec` lowers a
network into: a topologically-ordered list of :class:`PlanOp` records over a
flat table of :class:`BufferSpec` slots.  Every tensor the plan touches —
activations and conv scratch (padded inputs, im2col columns, depthwise
accumulators) — is a buffer with a *per-sample* shape; the arena planner
(:mod:`repro.runtime.arena`) later assigns each buffer an offset in one
preallocated arena, and the executor (:mod:`repro.runtime.engine`) scales
offsets linearly with the batch size.

Weights are baked into the ops at compile time: BatchNorm is folded into the
convolution weights/bias and fake-quantisation is applied once, so the plan
executes conv -> activation only (no normalisation, no quantisation, no
autograd at inference time).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

#: Op kinds an :class:`ExecutionPlan` may contain, in the vocabulary the
#: executor dispatches on.
OP_KINDS = (
    "conv", "linear", "maxpool", "avgpool", "gap", "flatten", "add", "concat",
)

#: Fused activation tags (``None`` means linear output).
ACTIVATIONS = (None, "relu", "relu6")


def _attrs_to_json(attrs: dict[str, Any]) -> dict[str, Any]:
    """Op attrs are ints/None plus the concat ``channels`` tuple."""
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in attrs.items()
    }


def _attrs_from_json(attrs: dict[str, Any]) -> dict[str, Any]:
    """Inverse of :func:`_attrs_to_json` (lists come back as tuples)."""
    return {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in attrs.items()
    }


@dataclass(frozen=True)
class BufferSpec:
    """One arena slot: a tensor with a fixed *per-sample* shape.

    ``role`` distinguishes the network input/output from ordinary
    activations and from op-local scratch — scratch buffers are live only
    during the op that uses them, which is what lets the arena planner fold
    them into reused space.  A conv's ``pad_buf`` holds its padded input and
    its ``col_buf`` its im2col columns, except that a depthwise conv keeps
    its input channels-last in ``pad_buf`` and its output accumulator in
    ``col_buf``.  A kernel reads only as many elements of a scratch buffer as
    it needs, so a scratch shape gives a size, not a layout.
    """

    id: int
    shape: tuple[int, ...]
    role: str = "activation"

    @property
    def elems(self) -> int:
        """Per-sample element count (batch axis excluded)."""
        return int(np.prod(self.shape)) if self.shape else 1


@dataclass
class PlanOp:
    """One executable step: read ``inputs``, write ``output``.

    ``weight``/``bias`` hold the baked (BN-folded, fake-quantised) arrays for
    conv/linear ops; ``attrs`` carries geometry (stride, padding, groups,
    kernel); ``scratch`` names the pad/column buffers this op may clobber.
    """

    kind: str
    inputs: tuple[int, ...]
    output: int
    attrs: dict[str, Any] = field(default_factory=dict)
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None
    act: str | None = None
    scratch: tuple[int, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}; known: {OP_KINDS}")
        if self.act not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.act!r}")


@dataclass
class ExecutionPlan:
    """A compiled network: ordered ops over a flat buffer table.

    Produced by :func:`repro.runtime.compile_spec`; executed by
    :class:`repro.runtime.engine.Engine`.  Buffer shapes are per-sample — the
    executor prepends the batch axis at run time.
    """

    name: str
    ops: list[PlanOp]
    buffers: list[BufferSpec]
    input_buffer: int
    output_buffer: int
    dtype: np.dtype
    bits: int | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def buffer(self, buffer_id: int) -> BufferSpec:
        """Look up a buffer by id (ids are dense indices into the table)."""
        return self.buffers[buffer_id]

    @property
    def input_shape(self) -> tuple[int, ...]:
        """Per-sample input shape (C, H, W)."""
        return self.buffers[self.input_buffer].shape

    @property
    def output_shape(self) -> tuple[int, ...]:
        """Per-sample output shape (num_classes,)."""
        return self.buffers[self.output_buffer].shape

    def num_ops(self, kind: str | None = None) -> int:
        """Op count, optionally restricted to one kind."""
        if kind is None:
            return len(self.ops)
        return sum(1 for op in self.ops if op.kind == kind)

    def weight_bytes(self) -> int:
        """Total bytes of baked weight/bias arrays."""
        total = 0
        for op in self.ops:
            for arr in (op.weight, op.bias):
                if arr is not None:
                    total += arr.nbytes
        return total

    def buffer_elems(self) -> int:
        """Sum of per-sample elements over every buffer (no arena reuse)."""
        return sum(b.elems for b in self.buffers)

    def save(self, path: str | Path) -> Path:
        """Serialise the plan to a ``.npz`` file for cold-start-free deploys.

        The structural header (op list, buffer table, geometry attrs) is
        stored as JSON; every op's baked weight/bias lands as its own array
        entry.  :meth:`load` reconstructs an equivalent plan without
        touching the network builder, the BN folding or the quantiser — the
        compile cost is paid once, at build time.

        Returns the path actually written: ``np.savez`` appends ``.npz``
        when missing, and the return value reflects that.
        """
        path = Path(path)
        if path.suffix != ".npz":
            # Mirror np.savez_compressed, which silently appends the
            # suffix — callers must get back the real filename.
            path = Path(str(path) + ".npz")
        header = {
            "version": 1,
            "name": self.name,
            "dtype": np.dtype(self.dtype).name,
            "bits": self.bits,
            "input_buffer": self.input_buffer,
            "output_buffer": self.output_buffer,
            "metadata": self.metadata,
            "buffers": [
                {"id": b.id, "shape": list(b.shape), "role": b.role}
                for b in self.buffers
            ],
            "ops": [
                {
                    "kind": op.kind,
                    "inputs": list(op.inputs),
                    "output": op.output,
                    "attrs": _attrs_to_json(op.attrs),
                    "act": op.act,
                    "scratch": list(op.scratch),
                    "label": op.label,
                    "weight": op.weight is not None,
                    "bias": op.bias is not None,
                }
                for op in self.ops
            ],
        }
        arrays: dict[str, np.ndarray] = {
            "header": np.frombuffer(
                json.dumps(header).encode("utf-8"), dtype=np.uint8
            ).copy()
        }
        for index, op in enumerate(self.ops):
            if op.weight is not None:
                arrays[f"op{index}_weight"] = op.weight
            if op.bias is not None:
                arrays[f"op{index}_bias"] = op.bias
        np.savez_compressed(path, **arrays)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ExecutionPlan":
        """Reconstruct a plan written by :meth:`save`.

        Raises:
            ValueError: If the file lacks the plan header (not a saved plan)
                or carries an unknown format version.
        """
        with np.load(Path(path)) as archive:
            if "header" not in archive:
                raise ValueError(f"{path} is not a saved ExecutionPlan")
            header = json.loads(bytes(archive["header"]).decode("utf-8"))
            if header.get("version") != 1:
                raise ValueError(
                    f"unsupported plan format version {header.get('version')!r}"
                )
            ops = []
            for index, rec in enumerate(header["ops"]):
                ops.append(PlanOp(
                    kind=rec["kind"],
                    inputs=tuple(rec["inputs"]),
                    output=rec["output"],
                    attrs=_attrs_from_json(rec["attrs"]),
                    weight=(
                        archive[f"op{index}_weight"] if rec["weight"] else None
                    ),
                    bias=archive[f"op{index}_bias"] if rec["bias"] else None,
                    act=rec["act"],
                    scratch=tuple(rec["scratch"]),
                    label=rec["label"],
                ))
        return cls(
            name=header["name"],
            ops=ops,
            buffers=[
                BufferSpec(id=b["id"], shape=tuple(b["shape"]), role=b["role"])
                for b in header["buffers"]
            ],
            input_buffer=header["input_buffer"],
            output_buffer=header["output_buffer"],
            dtype=np.dtype(header["dtype"]),
            bits=header["bits"],
            metadata=header["metadata"],
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON summary of the plan (weights elided)."""
        kinds: dict[str, int] = {}
        for op in self.ops:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        return {
            "name": self.name,
            "bits": self.bits,
            "dtype": np.dtype(self.dtype).name,
            "ops": len(self.ops),
            "op_kinds": kinds,
            "buffers": len(self.buffers),
            "buffer_elems": self.buffer_elems(),
            "weight_bytes": self.weight_bytes(),
            "input_shape": list(self.input_shape),
            "output_shape": list(self.output_shape),
        }
