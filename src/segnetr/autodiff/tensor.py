"""Dense tensors with graph-owned reverse-mode differentiation.

A ``Tensor`` wraps a numpy array.  Every differentiable op on a tracked
input records ``[seq, parents, rule]`` on its output, ``seq`` counting ops
in execution order; ``backward`` runs the rules reachable from the loss in
descending ``seq``.  ``parents`` are the inputs' records, or tracked leaves,
so an output no rule keeps dies when the caller drops it.  ``checkpoint``
records a whole function as one node that keeps only its input and runs the
function again in its rule.  Scalars are float32 by default; the gradient
checker builds float64 graphs the same way.

A graph lives only as long as its outputs, and ``backward`` empties each
record, freeing its saved arrays, once its rule has run.  ``no_grad()``
stops recording in the calling thread only.
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
                parents = tuple(None if not u._tracked else u if u._leaf else u._node for u in inputs)
                out._node = [next(_SEQ), parents, backward_fn]
                break
    return out


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tracked leaf reachable from ``loss``.

    The records reachable from ``loss`` run in descending ``seq``, each
    emptied as it is handled, so an op's saved arrays are freed as soon as
    its gradient has been taken.  Independent graphs may be pending at once;
    if a reachable record was emptied by an earlier ``backward`` (the same
    loss, or one sharing its subgraph), ``ContractError`` is raised before
    any rule runs.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    seed = np.ones_like(loss.data)
    if loss._leaf:
        if loss.requires_grad:
            loss.grad = seed if loss.grad is None else loss.grad + seed
        return
    _run(loss._node, seed)


def _run(root: list, seed: np.ndarray) -> None:
    """Run the rules reachable from ``root``, whose output gradient is ``seed``."""
    pending = _reachable_records(root)
    pending.sort(key=lambda rec: rec[0])
    flowing = {id(root): seed}
    while pending:
        rec = pending.pop()
        _, parents, rule = rec
        rec.clear()
        g = flowing.pop(id(rec), None)
        if g is not None:
            _accumulate(parents, rule(g), flowing)


def _reachable_records(root: list) -> list[list]:
    found, stack, seen = [], [root], {id(root)}
    while stack:
        rec = stack.pop()
        if not rec:
            raise ContractError(
                "backward: part of the loss's graph was consumed by an earlier backward "
                "(build the loss again to take its gradient)"
            )
        found.append(rec)
        for p in rec[1]:
            if isinstance(p, list) and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return found


def _accumulate(parents: tuple, input_grads, flowing: dict[int, np.ndarray]) -> None:
    # a function of its own, so no gradient outlives the record that made it
    for p, gi in zip(parents, input_grads):
        if gi is None or p is None:
            continue
        if isinstance(p, list):
            acc = flowing.get(id(p))
            flowing[id(p)] = gi if acc is None else acc + gi
        elif p.requires_grad:
            if p.grad is None:
                p.grad = np.array(gi, dtype=p.data.dtype)
            else:
                p.grad += gi


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
    sa, sb = a.data.shape, b.data.shape
    return _make_output(a.data + b.data, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a: Tensor, b) -> Tensor:
    b = _constant_like(b, a)
    sa, sb = a.data.shape, b.data.shape
    return _make_output(a.data - b.data, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


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
    """``a·b``; the rule keeps both operands, never the product."""
    b = _constant_like(b, a)
    ad, bd = a.data, b.data

    def bw(g):
        return _factor_grad(g, bd, ad.shape), _factor_grad(g, ad, bd.shape)

    return _make_output(ad * bd, (a, b), bw)


def checkpoint(fn: Callable[[Tensor], Tensor], x: Tensor, module) -> Tensor:
    """``fn(x)``, the forward of ``module``, as one node that keeps only ``x``
    (Chen et al., arXiv 1604.06174, §3–4).  ``fn`` runs under ``no_grad``;
    the rule runs it again with recording on, on a fresh leaf holding
    ``x``'s array, and backpropagates through that graph, where the
    parameters take their gradients.  The module's buffers (running
    statistics) are restored after the second run, so a step updates them
    once."""
    if not _GRAD_MODE.enabled:
        return fn(x)
    with no_grad():
        y = fn(x)
    xd, tracked, training = x.data, x._tracked, module.training

    def rule(g):
        if module.training != training:
            raise ContractError("checkpoint: the module changed train/eval mode between forward and backward")
        buffers = [b for m in module.modules() for b in m._buffers.values()]
        kept = [b.copy() for b in buffers]
        leaf, mode, _GRAD_MODE.enabled = Tensor(xd, requires_grad=tracked), _GRAD_MODE.enabled, True
        try:
            out = fn(leaf)
            if not out._leaf:
                _run(out._node, g)
        finally:
            _GRAD_MODE.enabled = mode
            for b, k in zip(buffers, kept):
                b[...] = k
        return (leaf.grad,)

    # recorded even for an untracked x: the parameters inside take gradients
    out = Tensor(y.data)
    out._leaf, out._tracked = False, True
    out._node = [next(_SEQ), (None if not tracked else x if x._leaf else x._node,), rule]
    return out


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

