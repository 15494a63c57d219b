"""Differentiable neural-network operations on :class:`Tensor`.

Every op here but ``log_softmax`` and ``global_avg_pool`` is one recorded
node with a hand-written backward rule; those two are composed from the
primitive ops in ``tensor.py`` and inherit their gradients.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from ..errors import ShapeError, ValidationError
from .tensor import Tensor, _make_output, exp, log, mean, sum_

__all__ = [
    "relu",
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
    "log_softmax",
    "cross_entropy",
    "global_avg_pool",
]


# -- activations -------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return _make_output(np.where(mask, x.data, 0), (x,), lambda g: (g * mask,))


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
    ``gW = g2ᵀ @ x2`` and ``gb = Σ g2`` over the rows."""
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(f"linear: input width {x.shape[-1]} != weight in-width {weight.shape[1]}")
    x2 = x.data.reshape(-1, x.shape[-1])
    y = x2 @ weight.data.T
    if bias is not None:
        y += bias.data
    inputs = (x, weight) if bias is None else (x, weight, bias)

    def bw(g):
        g2 = g.reshape(x2.shape[0], -1)
        gx, gw = (g2 @ weight.data).reshape(x.data.shape), g2.T @ x2
        return (gx, gw) if bias is None else (gx, gw, g2.sum(axis=0))

    return _make_output(y.reshape(x.shape[:-1] + y.shape[1:]), inputs, bw)


def _conv_out_extent(extent: int, k: int, stride: int, pad: int) -> int:
    out = (extent + 2 * pad - k) // stride + 1
    if out <= 0:
        raise ShapeError(f"conv2d: kernel {k} with pad {pad} exceeds input extent {extent}")
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """2-D cross-correlation, NCHW layout, square stride/padding.

    weight is (out_c, in_c/groups, kH, kW).  Depthwise convolutions
    (``groups == in_c == out_c``) run on flat zero-padded rows, see
    :func:`_depthwise`.  Every other case is a loop over the kH·kW kernel
    taps; each tap is a strided view contraction, so the cost is the
    standard MAC count without an im2col buffer.
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

    if groups == cin == out_c:
        y, conv_bw = _depthwise(x.data, weight.data, stride, padding, oh, ow)
    else:
        y, conv_bw = _tap_loop(x.data, weight.data, stride, padding, groups, oh, ow)
    if bias is not None:
        y += bias.data[None, :, None, None]

    inputs = (x, weight) if bias is None else (x, weight, bias)

    def bw(g):
        gx, gw = conv_bw(g)
        if bias is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    return _make_output(y, inputs, bw)


def _tap_loop(xd, wd, stride, padding, groups, oh, ow):
    """Dense and grouped convolution: one batched matmul per kernel tap and
    group.  The first tap's product is written as the output and later taps
    add into it, so a 1×1 convolution is one matmul.  Returns the output and
    its backward rule for ``(gx, gw)``, which pads the input again."""
    n, cin, h, w = xd.shape
    out_c, cpg, kh, kw = wd.shape
    opg = out_c // groups
    # (output channels, input channels) of each group
    blocks = [(slice(i * opg, (i + 1) * opg), slice(i * cpg, (i + 1) * cpg)) for i in range(groups)]

    def tap_views():
        src = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else xd
        for di in range(kh):
            for dj in range(kw):
                yield di, dj, src[:, :, di : di + stride * oh : stride, dj : dj + stride * ow : stride]

    area = oh * ow
    y = np.empty((n, out_c, area), dtype=xd.dtype)
    for di, dj, view in tap_views():
        for o, c in blocks:
            # (opg, cpg) @ (n, cpg, area): BLAS-backed batched matmul
            wt, vt = wd[o, :, di, dj], view[:, c].reshape(n, cpg, area)
            if di == dj == 0:
                np.matmul(wt, vt, out=y[:, o])
            else:
                y[:, o] += np.matmul(wt, vt)

    def bw(g):
        gflat = g.reshape(n, out_c, area)
        gw = np.empty_like(wd)
        gxp = np.zeros((n, cin, h + 2 * padding, w + 2 * padding), dtype=xd.dtype)
        for di, dj, view in tap_views():
            gview = gxp[:, :, di : di + stride * oh : stride, dj : dj + stride * ow : stride]
            for o, c in blocks:
                go = gflat[:, o]
                vt = view[:, c].reshape(n, cpg, area)
                if area == 1:
                    # a 1×1 map (squeeze-excitation): one GEMM with the batch as K
                    np.matmul(go[:, :, 0].T, vt[:, :, 0], out=gw[o, :, di, dj])
                else:
                    # per-image products summed over the batch: no operand copies
                    np.matmul(go, vt.transpose(0, 2, 1)).sum(axis=0, out=gw[o, :, di, dj])
                gview[:, c] += np.matmul(wd[o, :, di, dj].T, go).reshape(n, cpg, oh, ow)
        gx = gxp[:, :, padding : padding + h, padding : padding + w] if padding else gxp
        return gx, gw

    return y.reshape(n, out_c, oh, ow), bw


# Row-blocked kernels (depthwise taps, the fused batch-norm SiLU) work on
# blocks of about this many bytes, so a block and its temporaries stay in L2.
_BLOCK_BYTES = 256 * 1024


def _row_blocks(rows, row_bytes):
    step = max(1, _BLOCK_BYTES // row_bytes)
    return [slice(r0, min(r0 + step, rows)) for r0 in range(0, rows, step)]


def _depthwise(xd, wd, stride, padding, oh, ow):
    """Depthwise convolution on flat zero-padded rows.

    Each (n, c) plane becomes one row holding the padded image (height H',
    width W') plus kW − 1 trailing zeros.  The stride-1 output with all W'
    columns is then ``Σ_t k[c, t] · row[off_t : off_t + (H'−kH+1)·W']`` with
    ``off_t = di·W' + dj``: every tap is one contiguous slice (see
    :func:`_tap_pass`).  The kW − 1 wrapped columns of each output row are
    cropped and, for stride > 1, the stride-1 result is subsampled.

    Rows are padded a block at a time.  The backward is a gather in the same
    layout: one zero-filled row per plane, ``ext``, holds the output gradient
    at its stride-1 positions with ``top = (kH−1)·W' + (kW−1)`` zeros before
    and after, the zero-dilated gradient, so one form serves every stride.
    ``gw`` is a per-row dot of it with each shifted input slice; ``gx`` is a
    forward-style tap pass over ``ext`` at offsets ``p·W' + top − off_t``,
    run over the H interior rows and cropped to W.
    """
    n, c, h, w = xd.shape
    kh, kw = wd.shape[2:]
    hp, wp = h + 2 * padding, w + 2 * padding
    rows, full_h = n * c, hp - kh + 1
    length = full_h * wp
    offsets = [di * wp + dj for di in range(kh) for dj in range(kw)]
    planes = xd.reshape(rows, h, w)

    def padded_rows(b):
        flat = np.zeros((b.stop - b.start, hp * wp + kw - 1), dtype=xd.dtype)
        flat[:, : hp * wp].reshape(-1, hp, wp)[:, padding : padding + h, padding : padding + w] = planes[b]
        return flat

    # taps[t, r] is the weight of tap t for row r = (image, channel)
    taps = np.ascontiguousarray(np.tile(wd.reshape(c, kh * kw), (n, 1)).T)[:, :, None]
    # output (row, i, j) sits at stride-1 position (stride·i, stride·j)
    keep = (slice(None), slice(None, None, stride), slice(None, (ow - 1) * stride + 1, stride))
    y = _tap_pass(padded_rows, taps, offsets, length, wp, keep, np.empty((rows, oh, ow), dtype=xd.dtype))

    def bw(g):
        top = offsets[-1]
        ext = np.zeros((rows, length + 2 * top), dtype=xd.dtype)
        gfull = ext[:, top : top + length]
        gfull.reshape(rows, full_h, wp)[keep] = g.reshape(rows, oh, ow)
        gtaps = np.empty((kh * kw, rows), dtype=xd.dtype)
        for b in _row_blocks(rows, length * xd.itemsize):
            flat = padded_rows(b)
            for t, off in enumerate(offsets):
                gtaps[t, b] = np.einsum("ij,ij->i", gfull[b], flat[:, off : off + length])
        gw = gtaps.reshape(kh * kw, n, c).sum(axis=1).T.reshape(c, 1, kh, kw)
        gx = _tap_pass(
            ext.__getitem__, taps, [padding * wp + top - off for off in offsets], h * wp, wp,
            (slice(None), slice(None), slice(padding, padding + w)),
            np.empty((rows, h, w), dtype=xd.dtype),
        )
        return gx.reshape(n, c, h, w), gw

    return y.reshape(n, c, oh, ow), bw


def _tap_pass(src, taps, offsets, length, wp, keep, out):
    """``out[r] = grid(Σ_t taps[t, r] · src(r)[offsets[t] : offsets[t] + length])[keep]``,
    where the sum is viewed as a (length / W', W') grid and ``src(b)`` gives rows ``b``.

    Taps accumulate in order, the first written rather than added to zeros,
    over blocks of rows of about ``_BLOCK_BYTES`` of accumulator, so a
    block's input, accumulator and product stay in L2.
    """
    blocks = _row_blocks(len(out), length * out.itemsize)
    acc = np.empty((blocks[0].stop, length), dtype=out.dtype)
    prod = np.empty_like(acc)
    for b in blocks:
        s, a, p = src(b), acc[: b.stop - b.start], prod[: b.stop - b.start]
        np.multiply(s[:, offsets[0] : offsets[0] + length], taps[0, b], out=a)
        for t in range(1, len(offsets)):
            np.multiply(s[:, offsets[t] : offsets[t] + length], taps[t, b], out=p)
            a += p
        out[b] = a.reshape(b.stop - b.start, -1, wp)[keep]
    return out


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
        return gh.reshape(x.data.shape), dgamma, dbeta

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
    backward rule is hand-written.
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
    dt = x.data.dtype
    gamma4 = gamma.data.reshape(1, c, 1, 1)
    beta4 = beta.data.reshape(1, c, 1, 1)
    if not training:
        mu = running_mean.reshape(1, c, 1, 1).astype(dt)
        inv_std = 1.0 / np.sqrt(running_var.reshape(1, c, 1, 1).astype(dt) + eps)
        scale = gamma4 * inv_std
        y = x.data * scale
        y += beta4 - mu * scale

        def bw_eval(g):
            xhat = (x.data - mu) * inv_std
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
    # the forward, the rule recomputes it from the input the graph keeps
    y *= inv_std
    y *= gamma4
    y += beta4
    if then_silu:
        # y·σ(y) in place, so σ takes one block-sized temporary
        planes = y.reshape(n * c, -1)
        for b in _row_blocks(n * c, planes[0].nbytes):
            np.multiply(planes[b], _sigmoid_stable(planes[b]), out=planes[b])

    def bw(g):
        # dx = g·k − k·dβ/m − x̂·(k·dγ/m) with k = γ/√(var+ε): two full-size
        # arrays, the recomputed x̂ and the result (in SiLU's gradient, if fused)
        xhat = x.data - mu
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


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - log(sum_(exp(shifted), axis=axis, keepdims=True))


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy; logits (N, K, ...) against integer labels (N, ...).

    One op: log-sum-exp over max-shifted logits minus the label's logit,
    picked by index; the rule is ``(softmax − onehot)·g/count``."""
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:1] + logits.shape[2:]:
        raise ShapeError(
            f"cross_entropy: labels {labels.shape} do not match logits {logits.shape}"
        )
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
