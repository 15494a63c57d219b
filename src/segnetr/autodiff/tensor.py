"""Dense tensors with graph-owned reverse-mode differentiation.

A ``Tensor`` wraps a numpy array.  Every differentiable op on a tracked
input records ``(seq, inputs, rule)`` on its output, ``seq`` counting ops in
execution order, and ``backward`` runs the rules reachable from the loss in
descending ``seq``.  Scalars are float32 by default; the gradient checker
builds float64 graphs through the same code path.

A graph lives only as long as its outputs, and ``backward`` frees each op's
saved arrays once its rule has run.  ``no_grad()`` stops recording in the
calling thread only.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ContractError, ShapeError

DEFAULT_DTYPE = np.float32

_FLOAT_DTYPES = (np.float32, np.float64)

_SEQ = itertools.count()


class _GradMode(threading.local):
    enabled = True


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager that suspends recording in this thread (eval loops)."""

    def __enter__(self):
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc):
        _GRAD_MODE.enabled = self._prev
        return False


def _coerce(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        return np.ascontiguousarray(arr, dtype=dtype)
    if arr.dtype in _FLOAT_DTYPES:
        return arr
    return arr.astype(DEFAULT_DTYPE)


class Tensor:
    """N-dimensional float array with optional gradient tracking.

    ``requires_grad`` is only meaningful on leaves (tensors the user created);
    tensors produced by operations propagate tracking automatically.  A tensor
    with ``requires_grad=False`` never accumulates gradient.  An op's output
    holds its record in ``_node`` until ``backward`` consumes it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_leaf", "_tracked", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _coerce(data, dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._leaf = True
        self._tracked = self.requires_grad
        self._node = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._not_scalar()

    def _not_scalar(self):
        raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")

    def numpy(self) -> np.ndarray:
        """The backing array (not a copy); treat as read-only."""
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_constant_like(other, self), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_constant_like(other, self), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return slice_(self, key)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis, keepdims)

    def backward(self) -> None:
        backward(self)


def _constant_like(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _make_output(data: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._leaf = True
    out._tracked = False
    out._node = None
    if _GRAD_MODE.enabled:
        for t in inputs:
            if t._tracked:
                out._leaf = False
                out._tracked = True
                out._node = (next(_SEQ), tuple(inputs), backward_fn)
                break
    return out


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tracked leaf reachable from ``loss``.

    The ops reachable from ``loss`` run in descending ``seq``, each record
    cleared as it is handled, so an op's saved arrays are freed as soon as
    its gradient has been taken.  Independent graphs may be pending at once;
    if a reachable op was consumed by an earlier ``backward`` (the same loss,
    or one sharing its subgraph), ``ContractError`` is raised before any
    rule runs.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    seed = np.ones_like(loss.data)
    if loss._leaf:
        if loss.requires_grad:
            loss.grad = seed if loss.grad is None else loss.grad + seed
        return
    pending = _reachable_ops(loss)
    pending.sort(key=lambda t: t._node[0])
    flowing = {id(loss): seed}
    while pending:
        out = pending.pop()
        _, inputs, backward_fn = out._node
        out._node = None
        g = flowing.pop(id(out), None)
        if g is not None:
            _accumulate(inputs, backward_fn(g), flowing)


def _reachable_ops(loss: Tensor) -> list[Tensor]:
    found, stack, seen = [], [loss], {id(loss)}
    while stack:
        t = stack.pop()
        if t._node is None:
            raise ContractError(
                "backward: part of the loss's graph was consumed by an earlier backward "
                "(build the loss again to take its gradient)"
            )
        found.append(t)
        for i in t._node[1]:
            if not i._leaf and id(i) not in seen:
                seen.add(id(i))
                stack.append(i)
    return found


def _accumulate(inputs: tuple[Tensor, ...], input_grads, flowing: dict[int, np.ndarray]) -> None:
    # a function of its own, so no gradient outlives the record that made it
    for t, gi in zip(inputs, input_grads):
        if gi is None or not t._tracked:
            continue
        if t._leaf:
            if t.requires_grad:
                if t.grad is None:
                    t.grad = np.array(gi, dtype=t.data.dtype)
                else:
                    t.grad += gi
        else:
            acc = flowing.get(id(t))
            flowing[id(t)] = gi if acc is None else acc + gi


# -- elementwise arithmetic (numpy broadcasting; gradients are unbroadcast) --


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a: Tensor, b) -> Tensor:
    b = _constant_like(b, a)
    data = a.data + b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make_output(data, (a, b), bw)


def sub(a: Tensor, b) -> Tensor:
    b = _constant_like(b, a)
    data = a.data - b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _make_output(data, (a, b), bw)


def _factor_grad(g: np.ndarray, other: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of the factor of ``shape`` in a product with ``other``."""
    if shape == g.shape or other.shape != g.shape:
        return _unbroadcast(g * other, shape)
    # a broadcast factor against a full one: one reduction, no g·other array
    axes = "abcdefghijklmnopqrstuvwxyz"[: g.ndim]
    extra = g.ndim - len(shape)
    kept = "".join(ax for i, ax in enumerate(axes[extra:]) if shape[i] != 1)
    return np.einsum(f"{axes},{axes}->{kept}", g, other).reshape(shape)


def mul(a: Tensor, b) -> Tensor:
    b = _constant_like(b, a)
    data = a.data * b.data

    def bw(g):
        return _factor_grad(g, b.data, a.data.shape), _factor_grad(g, a.data, b.data.shape)

    return _make_output(data, (a, b), bw)


def div(a: Tensor, b) -> Tensor:
    b = _constant_like(b, a)
    data = a.data / b.data

    def bw(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )

    return _make_output(data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    return _make_output(-a.data, (a,), lambda g: (-g,))


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    return _make_output(y, (a,), lambda g: (g * y,))


def log(a: Tensor) -> Tensor:
    return _make_output(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    y = np.sqrt(a.data)
    return _make_output(y, (a,), lambda g: (g * (0.5 / y),))


# -- structural ops ----------------------------------------------------------


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        data = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}") from exc
    src_shape = a.data.shape
    return _make_output(data, (a,), lambda g: (g.reshape(src_shape),))


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    if len(axes) != a.ndim:
        raise ShapeError(f"transpose axes {axes} do not match rank {a.ndim}")
    return _make_output(a.data.transpose(axes), (a,), lambda g: (g.transpose(np.argsort(axes)),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat requires at least one tensor")
    ref = tensors[0]
    for t in tensors[1:]:
        if t.ndim != ref.ndim:
            raise ShapeError("concat operands must share rank")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _make_output(data, tuple(tensors), bw)


def slice_(a: Tensor, key) -> Tensor:
    """Basic (slice/int-free) indexing; gradient scatters zeros elsewhere."""
    if not isinstance(key, tuple):
        key = (key,)
    for k in key:
        if not isinstance(k, slice) and k is not Ellipsis:
            raise ShapeError("slice_ supports basic slices only")
    data = a.data[key]
    src_shape = a.data.shape

    def bw(g):
        gz = np.zeros(src_shape, dtype=g.dtype)
        gz[key] = g
        return (gz,)

    return _make_output(data, (a,), bw)


def pad(a: Tensor, pad_width: Sequence[tuple[int, int]]) -> Tensor:
    """Zero padding; ``pad_width`` is one (before, after) pair per axis."""
    pw = tuple((int(b), int(e)) for b, e in pad_width)
    if len(pw) != a.ndim:
        raise ShapeError(f"pad_width rank {len(pw)} does not match tensor rank {a.ndim}")
    data = np.pad(a.data, pw)
    crop = tuple(slice(b, b + s) for (b, _), s in zip(pw, a.data.shape))
    return _make_output(data, (a,), lambda g: (g[crop],))


# -- reductions --------------------------------------------------------------


def _norm_axis(axis, ndim: int):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    out = []
    for ax in axis:
        ax = int(ax)
        if ax < 0:
            ax += ndim
        if not 0 <= ax < ndim:
            raise ShapeError(f"axis {ax} out of range for rank {ndim}")
        out.append(ax)
    return tuple(sorted(set(out)))


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axis(axis, a.ndim)
    data = a.data.sum(axis=axes, keepdims=keepdims)
    src_shape = a.data.shape

    def bw(g):
        if not keepdims:
            expand = list(src_shape)
            for ax in axes:
                expand[ax] = 1
            g = g.reshape(expand)
        return (np.broadcast_to(g, src_shape).copy(),)

    return _make_output(data, (a,), bw)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Arithmetic mean along ``axis``; gradient is 1/n broadcast back."""
    axes = _norm_axis(axis, a.ndim)
    n = 1
    for ax in axes:
        n *= a.data.shape[ax]
    # the bits of ndarray.mean without its Python-level wrapper
    data = np.add.reduce(a.data, axis=axes, keepdims=keepdims) / n
    src_shape = a.data.shape
    inv_n = 1.0 / n

    def bw(g):
        if not keepdims:
            expand = list(src_shape)
            for ax in axes:
                expand[ax] = 1
            g = g.reshape(expand)
        return (np.broadcast_to(g * inv_n, src_shape).astype(g.dtype, copy=False).copy(),)

    return _make_output(data, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("matmul supports 2-D operands only")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def bw(g):
        return g @ b.data.T, a.data.T @ g

    return _make_output(data, (a, b), bw)
