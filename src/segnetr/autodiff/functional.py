"""Differentiable neural-network operations on :class:`Tensor`.

Every op here but ``global_avg_pool`` is one recorded node with a
hand-written backward rule; ``global_avg_pool`` is a ``mean`` and inherits
its gradient.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from ..errors import ShapeError, ValidationError
from .tensor import Tensor, _make_output, mean

__all__ = [
    "sigmoid",
    "silu",
    "gelu",
    "linear",
    "conv2d",
    "bilinear_upsample2x",
    "layer_norm",
    "batch_norm",
    "batch_norm_silu",
    "softmax",
    "cross_entropy",
    "global_avg_pool",
]


# -- activations -------------------------------------------------------------


def _sigmoid_stable(v: np.ndarray) -> np.ndarray:
    # 0.5·(1 + tanh(v/2)): one transcendental, and tanh saturates instead of
    # overflowing, so every finite v gives a value in [0, 1].
    s = np.empty_like(v)
    np.multiply(v, 0.5, out=s)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid_stable(x.data)
    return _make_output(y, (x,), lambda g: (g * (y * (1.0 - y)),))


def silu(x: Tensor) -> Tensor:
    # σ is written into the output buffer and scaled by v in place; the
    # backward recomputes σ rather than keeping a second full-size array
    v = x.data
    y = _sigmoid_stable(v)
    y *= v
    return _make_output(y, (x,), lambda g: (_silu_grad(v, g),))


def _silu_grad(v: np.ndarray, g: np.ndarray, out=None) -> np.ndarray:
    # d/dv v·σ(v) = σ·(1 + v·(1 − σ)), with σ recomputed from v
    s = _sigmoid_stable(v)
    d = np.subtract(1.0, s, out=out)
    d *= v
    d += 1.0
    d *= s
    d *= g
    return d


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5·x·(1 + tanh(√(2/π)(x + 0.044715x³)))."""
    v = x.data
    inner = _GELU_C * (v + 0.044715 * (v * v * v))
    t = np.tanh(inner)
    y = 0.5 * v * (1.0 + t)

    def bw(g):
        dinner = _GELU_C * (1.0 + 3.0 * 0.044715 * v * v)
        return (g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * dinner),)

    return _make_output(y, (x,), bw)


# -- linear / convolution ----------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight.T + bias`` over the last axis; weight is (out, in).

    One op: with ``x2`` the input as rows, the rule is ``gx = g2 @ W``,
    ``gW = g2ᵀ @ x2`` and ``gb = Σ g2`` over the rows.  The forward is one
    GEMM per index of a leading axis, so an image's outputs do not depend
    on the rest of its batch: BLAS picks its kernels by the row count."""
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(f"linear: input width {x.shape[-1]} != weight in-width {weight.shape[1]}")
    xshape, x2 = x.data.shape, x.data.reshape(-1, x.shape[-1])
    y = np.matmul(x2.reshape(x.shape[0] if x.ndim > 2 else 1, -1, x.shape[-1]), weight.data.T)
    if bias is not None:
        y += bias.data
    inputs = (x, weight) if bias is None else (x, weight, bias)

    def bw(g):
        g2 = g.reshape(x2.shape[0], -1)
        gx, gw = (g2 @ weight.data).reshape(xshape), g2.T @ x2
        return (gx, gw) if bias is None else (gx, gw, g2.sum(axis=0))

    return _make_output(y.reshape(x.shape[:-1] + y.shape[2:]), inputs, bw)


def _conv_out_extent(extent: int, k: int, stride: int, pad: int) -> int:
    out = (extent + 2 * pad - k) // stride + 1
    if out <= 0:
        raise ShapeError(f"conv2d: kernel {k} with pad {pad} exceeds input extent {extent}")
    return out


# Row-blocked kernels (depthwise taps, the fused batch-norm SiLU) work on
# blocks of about this many bytes, so a block and its temporaries stay in L2.
_BLOCK_BYTES = 256 * 1024


def _row_blocks(rows, row_bytes):
    step = max(1, _BLOCK_BYTES // row_bytes)
    return [slice(r0, min(r0 + step, rows)) for r0 in range(0, rows, step)]


@functools.lru_cache(maxsize=64)
def _layout(h, w, kh, kw, s, pad):
    """Phase-plane extents H', W' at stride s, tap offsets and, per phase (a, b),
    the (plane index, phase-grid index) of the pixels at padded index (a, b) mod s."""
    hs, ws = -(-(h + 2 * pad) // s), -(-(w + 2 * pad) // s)

    def axis(extent, a):
        i0 = (a - pad) % s
        return slice(i0, None, s), slice((i0 + pad) // s, (i0 + pad) // s + len(range(i0, extent, s)))

    offsets = tuple(((di % s) * s + dj % s) * hs * ws + (di // s) * ws + dj // s
                    for di in range(kh) for dj in range(kw))
    pairs = tuple(((..., ri, rj), (..., a, b, ui, uj))
                  for a, (ri, ui) in enumerate(axis(h, a) for a in range(s))
                  for b, (rj, uj) in enumerate(axis(w, b) for b in range(s)))
    return hs, ws, offsets, pairs


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """2-D cross-correlation, NCHW layout, square stride/padding; weight is
    (out_c, in_c/groups, kH, kW).

    Every case runs on flat rows, one per (image, channel) plane, where each
    kernel tap is one contiguous slice of every row (kn2row: Vasudevan,
    Anderson and Gregg, arXiv 1704.04428).  A row holds the zero-padded plane
    split into s² phase planes (s the stride) of H' × W' = ⌈(H+2p)/s⌉ ×
    ⌈(W+2p)/s⌉, phase (a, b) holding the padded pixels (s·u + a, s·v + b),
    then (kW−1)//s zeros.  Tap (di, dj) reads the slice of length oh·W' at
    ``phase(di mod s, dj mod s)·H'·W' + (di//s)·W' + dj//s``: the output on
    an (oh, W') grid, whose columns past ow wrap and are cropped.  At
    stride 1 a row is the padded plane, and an unpadded stride-1 conv with
    kW = 1 reads its input planes as they are.

    Dense and grouped taps are a matmul per group, batched over a block's
    images; depthwise (``groups == in_c == out_c``) taps are a multiply per
    row.  Rows are built into one buffer a block of about ``_BLOCK_BYTES``
    at a time, whole images for dense convs (the batch when the rows are
    the input planes).  The rule keeps ``x``'s array and builds its rows
    again, a block at a time.  It lays the output gradient on the same
    grid, zero in the wrapped columns and after ``top`` zeros: ``gw`` is its
    product with each tap's slice, and each phase plane of ``gx`` gathers
    the transposed taps of its phase from it, at ``top`` less their
    in-phase offsets; an untracked ``x`` gets no ``gx``.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError("conv2d expects 4-D input and weight")
    n, cin, h, w = x.shape
    out_c, cpg, kh, kw = weight.shape
    if cin != cpg * groups:
        raise ShapeError(f"conv2d: {cin} input channels, weight wants {cpg}·groups({groups})")
    if out_c % groups:
        raise ShapeError(f"conv2d: out_channels {out_c} not divisible by groups {groups}")
    if bias is not None and bias.shape != (out_c,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != ({out_c},)")
    oh = _conv_out_extent(h, kh, stride, padding)
    ow = _conv_out_extent(w, kw, stride, padding)

    wd, dt, s, depthwise = weight.data, x.data.dtype, stride, groups == cin == out_c
    hs, ws, offsets, pairs = _layout(h, w, kh, kw, s, padding)
    length, plane = oh * ws, hs * ws
    as_is = s == 1 and padding == 0 and kw == 1
    # a block is a slice of rows r = (image, channel) for depthwise convs and
    # of images, each (channels, columns), for dense ones: the leading axes
    # of the input and output rows
    lead_in, lead_out = ((n * cin,), (n * cin,)) if depthwise else ((n, cin), (n, out_c))
    if depthwise:
        # taps[t, r] is the weight of tap t for row r
        taps = np.ascontiguousarray(np.tile(wd.reshape(cin, -1), (n, 1)).T)[:, :, None]
    else:
        # wt[t] is tap t's (out_c, cpg) matrix; group i maps input channels c to output channels o
        wt = np.ascontiguousarray(wd.reshape(out_c, cpg, -1).transpose(2, 0, 1))
        opg = out_c // groups
        grp = [(slice(i * opg, (i + 1) * opg), slice(i * cpg, (i + 1) * cpg))
               for i in range(groups)] if groups > 1 else [(slice(None), slice(None))]

    planes = x.data.reshape(lead_in + (h, w))
    # about _BLOCK_BYTES of rows each, whole images for dense convs (all if as_is)
    if depthwise:
        blocks = _row_blocks(n * cin, length * dt.itemsize)
    else:
        blocks = [slice(0, n)] if as_is else _row_blocks(n, cin * (s * s * plane + (kw - 1) // s) * dt.itemsize)

    def rows():
        # (block, its rows); the zeros a block leaves stay for the next
        flat = None if as_is else np.zeros((blocks[0].stop,) + lead_in[1:] + (s * s * plane + (kw - 1) // s,), dtype=dt)
        for b in blocks:
            xb = planes[b]
            if not as_is:
                grid = flat[: len(xb), ..., : s * s * plane].reshape(xb.shape[:-2] + (s, s, hs, ws))
                for at, to in pairs:
                    grid[to] = xb[at]
            # an image's planes as they are, so its bits do not depend on the batch
            yield b, xb.reshape(xb.shape[:-2] + (h * w,)) if as_is else flat[: len(xb)]

    def tap_pass(b, terms, out, p, back=False):
        # out = Σ over (t, src) of tap t's weights on rows src (back: their
        # transpose, from output-row gradients to input rows); the first
        # term is written, later ones go through p and are added
        if not terms:
            out[...] = 0
        for i, (t, src) in enumerate(terms):
            dst = p[: len(out)] if i else out
            if depthwise:
                np.multiply(src, taps[t, b], out=dst)
            elif back:
                for o, c in grp:
                    np.matmul(wt[t, o].T, src[:, o], out=dst[:, c])
            else:
                for o, c in grp:
                    np.matmul(wt[t, o], src[:, c], out=dst[:, o])
            if i:
                out += dst

    y = np.empty(lead_out + (oh, ow), dtype=dt)
    # the accumulator if there are wrapped columns to crop, the product buffer if there are taps to add
    buf = (blocks[0].stop,) + lead_out[1:] + (length,)
    acc, prod = np.empty(buf, dtype=dt) if ws != ow else None, np.empty(buf, dtype=dt) if len(offsets) > 1 else None
    for b, r in rows():
        a = y.reshape(lead_out + (-1,))[b] if ws == ow else acc[: b.stop - b.start]
        tap_pass(b, [(t, r[..., off : off + length]) for t, off in enumerate(offsets)], a, prod)
        if ws != ow:
            y[b] = a.reshape(a.shape[:-1] + (oh, ws))[..., :ow]
    y = y.reshape(n, out_c, oh, ow)
    bd = None if bias is None else bias.data[:, None, None]
    if bd is not None:
        y += bd
    tracked = x._tracked

    def bw(g):
        top = offsets[-1] % plane
        if (top, plane, ws) == (0, length, ow):
            ext = g.reshape(lead_out + (length,))
        else:
            ext = np.zeros(lead_out + (top + plane,), dtype=dt)
            ext[..., top : top + length].reshape(lead_out + (oh, ws))[..., :ow] = g.reshape(lead_out + (oh, ow))
        gws = np.empty((len(offsets), n * cin) if depthwise else (len(offsets), out_c, cpg), dtype=dt)
        gx = np.empty(lead_in + ((h * w,) if as_is else (h, w)), dtype=dt)
        for b, r in rows():
            gb = ext[b][..., top : top + length]
            for t, off in enumerate(offsets):
                src = r[..., off : off + length]
                if depthwise:
                    gws[t, b] = np.einsum("ij,ij->i", gb, src)
                    continue
                for o, c in grp:  # summed over images in image order
                    if length == 1:  # a 1×1 map (squeeze-excitation): the images are K
                        part = np.matmul(gb[:, o, 0].T, src[:, c, 0])[None]
                    else:
                        part = np.matmul(gb[:, o], src[:, c].transpose(0, 2, 1))
                    if b.start:  # the earlier blocks' sum goes first
                        part[0] += gws[t, o]
                    part.sum(axis=0, out=gws[t, o])
        acc, prod = (np.empty((blocks[0].stop,) + lead_in[1:] + (plane,), dtype=dt).ravel() for _ in range(2))
        for b in blocks if tracked else ():  # no gx for an untracked input
            eb, k = ext[b], b.stop - b.start
            for ph, (at, (*_, ui, uj)) in enumerate(pairs):
                # the grid rows of phase ph that hold input pixels, gathered
                # into a contiguous block and copied to their pixels
                lo, m = ui.start * ws, (ui.stop - ui.start) * ws
                terms = [(t, eb[..., top - off % plane + lo :][..., :m])
                         for t, off in enumerate(offsets) if off // plane == ph]
                shape = (k,) + lead_in[1:] + (m,)
                a = gx[b] if as_is else acc[: math.prod(shape)].reshape(shape)
                tap_pass(b, terms, a, prod[: a.size].reshape(a.shape), back=True)
                if not as_is:
                    gx[b][at] = a.reshape(a.shape[:-1] + (-1, ws))[..., uj]
        if depthwise:
            gws = gws.reshape(len(offsets), n, cin).sum(axis=1)
        gx = gx.reshape(n, cin, h, w) if tracked else None
        grads = gx, np.ascontiguousarray(np.moveaxis(gws, 0, -1)).reshape(out_c, cpg, kh, kw)
        return grads if bias is None else grads + (g.sum(axis=(0, 2, 3)),)

    return _make_output(y, (x, weight) if bias is None else (x, weight, bias), bw)


# -- bilinear upsampling -----------------------------------------------------


@functools.lru_cache(maxsize=64)
def _interp_matrix(out_len: int, in_len: int, dtype) -> np.ndarray:
    """Row-interpolation matrix for 2x bilinear upsampling, half-pixel
    centers (align_corners=False), edge-clamped.  Cached, so read-only."""
    m = np.zeros((out_len, in_len), dtype=dtype)
    for o in range(out_len):
        real = max((o + 0.5) / 2.0 - 0.5, 0.0)
        i0 = int(math.floor(real))
        i1 = min(i0 + 1, in_len - 1)
        frac = real - i0
        m[o, i0] += 1.0 - frac
        m[o, i1] += frac
    m.flags.writeable = False
    return m


def bilinear_upsample2x(x: Tensor) -> Tensor:
    """Double H and W by bilinear interpolation (half-pixel convention).

    Separable: out = R @ x @ Cᵀ with per-axis interpolation matrices, which
    also gives the exact transpose for the backward pass.
    """
    if x.ndim != 4:
        raise ShapeError("bilinear_upsample2x expects NCHW input")
    n, c, h, w = x.shape
    rmat = _interp_matrix(2 * h, h, x.data.dtype)
    cmat = _interp_matrix(2 * w, w, x.data.dtype)
    y = np.matmul(np.matmul(rmat, x.data), cmat.T)

    def bw(g):
        return (np.matmul(np.matmul(rmat.T, g), cmat),)

    return _make_output(y, (x,), bw)


# -- normalization -----------------------------------------------------------


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then affine with (C,) gamma/beta.

    One op; with ``x̂ = (x − μ)/σ``, ``σ = √(var+ε)`` and ``ĝ = g·γ`` the
    input gradient is ``(ĝ − mean ĝ − x̂·mean(ĝ·x̂))/σ``."""
    if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise ShapeError("layer_norm: gamma/beta must match the last axis extent")
    n = x.shape[-1]
    xhat = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / n
    std = np.sqrt(np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / n + eps)
    xhat /= std
    y = xhat * gamma.data
    y += beta.data

    def bw(g):
        g2, xh2 = g.reshape(-1, n), xhat.reshape(-1, n)
        dgamma, dbeta = np.einsum("rk,rk->k", g2, xh2), g2.sum(axis=0)
        gh = g2 * gamma.data
        proj = np.einsum("rk,rk->r", gh, xh2)[:, None] / n
        gh -= np.add.reduce(gh, axis=1, keepdims=True) / n
        gh -= xh2 * proj
        gh /= std.reshape(-1, 1)
        return gh.reshape(xhat.shape), dgamma, dbeta

    return _make_output(y, (x, gamma, beta), bw)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """BatchNorm over (N, H, W) per channel for NCHW input.

    Training mode uses batch statistics (biased variance) and folds them into
    the running buffers in place.  Eval mode normalizes with the running
    buffers as constants, folded into a per-channel ``scale = γ/√(var+ε)`` and
    ``shift = β − μ·scale``, so its forward is ``x·scale + shift``.  A
    singleton batch in training cannot produce meaningful batch statistics
    and is rejected.  One fused op (the hot path in every block), so the
    backward rule is hand-written.  In training it keeps ``x`` and rebuilds
    ``x̂`` from it.
    """
    return _batch_norm(x, gamma, beta, running_mean, running_var, training, momentum, eps, then_silu=False)


def batch_norm_silu(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                    running_var: np.ndarray, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """``silu(batch_norm(x, …, training=True))`` as one node, with the same
    operations and bits.  SiLU runs in place on the norm's output, the
    forward's only full-size array; the node keeps only ``x``, and its rule
    rebuilds ``v = x̂·γ + β`` for SiLU's gradient (Rota Bulò et al., 2018)."""
    return _batch_norm(x, gamma, beta, running_mean, running_var, True, momentum, eps, then_silu=True)


def _batch_norm(x, gamma, beta, running_mean, running_var, training, momentum, eps, then_silu):
    if x.ndim != 4:
        raise ShapeError("batch_norm expects NCHW input")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError("batch_norm: gamma/beta must be (C,)")
    axes = (0, 2, 3)
    xd, dt = x.data, x.data.dtype
    gamma4 = gamma.data.reshape(1, c, 1, 1)
    beta4 = beta.data.reshape(1, c, 1, 1)
    if not training:
        mu = running_mean.reshape(1, c, 1, 1).astype(dt)
        inv_std = 1.0 / np.sqrt(running_var.reshape(1, c, 1, 1).astype(dt) + eps)
        scale = gamma4 * inv_std
        y = x.data * scale
        y += beta4 - mu * scale

        def bw_eval(g):
            xhat = (xd - mu) * inv_std
            return scale * g, (g * xhat).sum(axis=axes), g.sum(axis=axes)

        return _make_output(y, (x, gamma, beta), bw_eval)

    if x.shape[0] == 1:
        raise ValidationError(
            "batch_norm: singleton batch (N=1) in training gives degenerate statistics"
        )
    n, m = x.shape[0], x.data.size // c
    mu = np.add.reduce(x.data, axis=axes, keepdims=True) / m
    # C order, so the plane rows below are views of y itself
    y = np.subtract(x.data, mu, order="C")
    d3 = y.reshape(n, c, -1)
    var = np.einsum("nck,nck->c", d3, d3) / m
    running_mean *= 1.0 - momentum
    running_mean += momentum * mu.reshape(c)
    running_var *= 1.0 - momentum
    running_var += momentum * var
    inv_std = (1.0 / np.sqrt(var + eps)).reshape(1, c, 1, 1)
    # y = (x − μ)·inv_std·γ + β, built in the x − μ buffer: no x̂ outlives
    # the forward, the rule recomputes it from what the graph keeps
    y *= inv_std
    y *= gamma4
    y += beta4
    if then_silu:
        # y·σ(y) in place, so σ takes one block-sized temporary
        yr = y.reshape(n * c, -1)
        for b in _row_blocks(n * c, yr[0].nbytes):
            np.multiply(yr[b], _sigmoid_stable(yr[b]), out=yr[b])

    def bw(g):
        # dx = g·k − k·dβ/m − x̂·(k·dγ/m) with k = γ/√(var+ε): two full-size
        # arrays, the recomputed x̂ and the result (in SiLU's gradient, if fused)
        xhat = np.subtract(xd, mu, order="C")
        xhat *= inv_std
        if then_silu:
            # SiLU's gradient at v = x̂·γ + β, rebuilt a block of rows at a time
            xr, gr = xhat.reshape(n * c, -1), g.reshape(n * c, -1)
            gam, bet, d = *(np.tile(p.data, n)[:, None] for p in (gamma, beta)), np.empty_like(xr)
            for b in _row_blocks(n * c, xr[0].nbytes):
                v = xr[b] * gam[b]
                v += bet[b]
                _silu_grad(v, gr[b], out=d[b])
            g = d.reshape(xhat.shape)
        dbeta = g.sum(axis=axes)
        dgamma = np.einsum("nck,nck->c", g.reshape(n, c, -1), xhat.reshape(n, c, -1))
        k = gamma4 * inv_std
        dx = np.multiply(g, k, out=g if then_silu else None)
        dx -= k * (dbeta.reshape(1, c, 1, 1) / m)
        xhat *= k * (dgamma.reshape(1, c, 1, 1) / m)
        dx -= xhat
        return dx, dgamma, dbeta

    return _make_output(y, (x, gamma, beta), bw)


# -- softmax / loss ----------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """One op on max-shifted input; the rule is ``y·(g − Σ g·y)``."""
    y = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=axis, keepdims=True)

    def bw(g):
        d = g - np.add.reduce(g * y, axis=axis, keepdims=True)
        d *= y
        return (d,)

    return _make_output(y, (x,), bw)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy; logits (N, K, ...) against integer labels (N, ...).

    One op: log-sum-exp over max-shifted logits minus the label's logit,
    picked by index; the rule is ``(softmax − onehot)·g/count``."""
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:1] + logits.shape[2:]:
        raise ShapeError(
            f"cross_entropy: labels {labels.shape} do not match logits {logits.shape}"
        )
    if labels.size == 0:
        raise ShapeError(f"cross_entropy: empty batch: labels {labels.shape} hold no pixel")
    k = logits.shape[1]
    if labels.min() < 0 or labels.max() >= k:
        raise ValidationError(f"cross_entropy: labels must lie in [0, {k})")
    picks = labels[:, None]
    e = logits.data - logits.data.max(axis=1, keepdims=True)
    picked = np.take_along_axis(e, picks, axis=1)
    np.exp(e, out=e)
    total = np.add.reduce(e, axis=1, keepdims=True)
    loss = np.asarray(np.add.reduce(np.log(total) - picked, axis=None) / labels.size)

    def bw(g):
        p = e / total
        np.put_along_axis(p, picks, np.take_along_axis(p, picks, axis=1) - 1.0, axis=1)
        p *= g / labels.size
        return (p,)

    return _make_output(loss, (logits,), bw)


def global_avg_pool(x: Tensor) -> Tensor:
    """(N, C, H, W) → (N, C, 1, 1) spatial mean."""
    return mean(x, axis=(2, 3), keepdims=True)
