"""The :class:`Tensor` node type, the dtype policy and graph-walking ``backward``.

A tensor is a numpy array plus (optionally) a record of how it was computed:
its ``parents`` and a ``backward_fn`` mapping the output gradient to one
gradient per parent.  ``Tensor.backward()`` topologically sorts the graph and
accumulates gradients into every leaf with ``requires_grad=True``.

Dtype policy
------------
Every tensor holds its array in the *default dtype* — ``float32`` unless
changed via :func:`set_default_dtype` or the :func:`default_dtype` context
manager.  Op outputs are coerced back to the policy dtype by ``make_op``, so
a graph can never silently upcast (a float64 constant slipping into one op
does not poison everything downstream).  ``float64`` remains available for
precision-critical work — :func:`repro.autograd.gradcheck.gradcheck` runs its
finite differences under a ``float64`` policy regardless of the global
setting.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Iterator, Sequence
from typing import Any

import numpy as np

# Backward closures receive the gradient flowing into the op's output and
# return one array (or None) per parent, already shaped like that parent.
BackwardFn = Callable[[np.ndarray], Sequence[np.ndarray | None]]

_grad_enabled = True

SUPPORTED_DTYPES = (np.float32, np.float64)

_default_dtype = np.dtype(np.float32)


def _as_dtype(dtype: Any) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved not in (np.dtype(d) for d in SUPPORTED_DTYPES):
        supported = [np.dtype(d).name for d in SUPPORTED_DTYPES]
        raise ValueError(
            f"unsupported dtype {resolved.name!r}; supported: {supported}"
        )
    return resolved


def set_default_dtype(dtype: Any) -> np.dtype:
    """Set the global tensor dtype policy; returns the *previous* dtype.

    ``float32`` (the default) is the fast path for search and training;
    ``float64`` is retained for gradcheck-grade numerics.  Tensors created
    before the switch keep their dtype — the policy applies to construction
    and to op outputs from this point on.
    """
    global _default_dtype
    previous = _default_dtype
    _default_dtype = _as_dtype(dtype)
    return previous


def get_default_dtype() -> np.dtype:
    """The dtype newly constructed tensors (and op outputs) are coerced to."""
    return _default_dtype


@contextlib.contextmanager
def default_dtype(dtype: Any) -> Iterator[np.dtype]:
    """Scoped :func:`set_default_dtype` (restores the previous policy)."""
    previous = set_default_dtype(dtype)
    try:
        yield _default_dtype
    finally:
        set_default_dtype(previous)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph recording inside the ``with`` block (inference mode)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """A differentiable numpy array node.

    Parameters
    ----------
    data:
        Array-like; stored in the policy dtype (see :func:`set_default_dtype`)
        unless an explicit ``dtype`` is given.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad``.
    dtype:
        Explicit storage dtype overriding the policy (``float32``/``float64``).
    parents, backward_fn, op_name:
        Graph-construction internals filled in by the op layer; user code
        never passes these.
    """

    __slots__ = ("data", "requires_grad", "grad", "parents", "backward_fn", "op_name")

    def __init__(
        self,
        data: Any,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward_fn: BackwardFn | None = None,
        op_name: str = "leaf",
        dtype: Any = None,
    ) -> None:
        target = _default_dtype if dtype is None else _as_dtype(dtype)
        self.data = np.asarray(data, dtype=target)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.backward_fn = backward_fn
        self.op_name = op_name

    # -- basic introspection ------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """The underlying array (not a copy — treat as read-only)."""
        return self.data

    def __len__(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self.op_name!r}{grad_flag})"

    # -- graph management ---------------------------------------------------
    def detach(self) -> "Tensor":
        """A view of the same data cut off from the graph (dtype preserved)."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def astype(self, dtype: Any) -> "Tensor":
        """A graph-detached copy in ``dtype`` (explicit, never silent)."""
        return Tensor(self.data, requires_grad=False, dtype=dtype)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (for scalar losses that is the usual seed).
        Gradients accumulate (+=) into every reachable tensor that has
        ``requires_grad=True``, including intermediates.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"seed gradient shape {grad.shape} does not match tensor "
                    f"shape {self.data.shape}"
                )

        order = _topological_order(self)
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad:
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
            if node.backward_fn is None:
                continue
            parent_grads = node.backward_fn(node_grad)
            for parent, parent_grad in zip(node.parents, parent_grads):
                if parent_grad is None:
                    continue
                if parent_grad.shape != parent.data.shape:
                    raise RuntimeError(
                        f"op {node.op_name!r} produced gradient of shape "
                        f"{parent_grad.shape} for parent of shape "
                        f"{parent.data.shape}"
                    )
                existing = grads.get(id(parent))
                grads[id(parent)] = (
                    parent_grad if existing is None else existing + parent_grad
                )

    # -- operator sugar (implementations live in the ops modules) -----------
    def __add__(self, other: Any) -> "Tensor":
        from repro.autograd.ops_basic import add

        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other: Any) -> "Tensor":
        from repro.autograd.ops_basic import sub

        return sub(self, _coerce(other))

    def __rsub__(self, other: Any) -> "Tensor":
        from repro.autograd.ops_basic import sub

        return sub(_coerce(other), self)

    def __mul__(self, other: Any) -> "Tensor":
        from repro.autograd.ops_basic import mul

        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "Tensor":
        from repro.autograd.ops_basic import div

        return div(self, _coerce(other))

    def __rtruediv__(self, other: Any) -> "Tensor":
        from repro.autograd.ops_basic import div

        return div(_coerce(other), self)

    def __neg__(self) -> "Tensor":
        from repro.autograd.ops_basic import neg

        return neg(self)

    def __pow__(self, exponent: float) -> "Tensor":
        from repro.autograd.ops_basic import pow_

        return pow_(self, exponent)

    def __matmul__(self, other: Any) -> "Tensor":
        from repro.autograd.ops_nn import matmul

        return matmul(self, _coerce(other))

    def __getitem__(self, index: Any) -> "Tensor":
        from repro.autograd.ops_shape import getitem

        return getitem(self, index)

    # Convenience method forms --------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        from repro.autograd.ops_reduce import sum_reduce

        return sum_reduce(self, axis=axis, keepdims=keepdims)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        from repro.autograd.ops_reduce import mean

        return mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        from repro.autograd.ops_shape import reshape

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def exp(self) -> "Tensor":
        from repro.autograd.ops_basic import exp

        return exp(self)

    def log(self) -> "Tensor":
        from repro.autograd.ops_basic import log

        return log(self)

    def tanh(self) -> "Tensor":
        from repro.autograd.ops_basic import tanh

        return tanh(self)


def tensor(data: Any, requires_grad: bool = False, dtype: Any = None) -> Tensor:
    """Construct a leaf tensor (the public constructor)."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def _coerce(value: Any) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def make_op(
    out_data: np.ndarray,
    parents: tuple[Tensor, ...],
    backward_fn: BackwardFn,
    op_name: str,
) -> Tensor:
    """Create an op-output tensor, respecting ``no_grad`` mode.

    The output participates in the graph only if grad mode is on and at least
    one parent (transitively) requires gradients.
    """
    track = _grad_enabled and any(_needs_graph(p) for p in parents)
    if not track:
        return Tensor(out_data, op_name=op_name)
    return Tensor(
        out_data,
        parents=parents,
        backward_fn=backward_fn,
        op_name=op_name,
    )


def _needs_graph(t: Tensor) -> bool:
    return t.requires_grad or t.backward_fn is not None


def _topological_order(root: Tensor) -> list[Tensor]:
    """Reverse topological order (root first), iterative to spare the stack."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)
