"""Independent reference implementations used by the test suite.

Everything here is written as straight-line loops over scalars, sharing no
code with the package, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import math

import numpy as np


def matmul_naive(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


def conv2d_naive(x, w, b=None, stride=1, padding=1, groups=1) -> np.ndarray:
    n, cin, h, wid = x.shape
    cout, cpg, kh, kw = w.shape
    xp = np.zeros((n, cin, h + 2 * padding, wid + 2 * padding), dtype=np.float64)
    xp[:, :, padding : padding + h, padding : padding + wid] = x
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wid + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    out_per_group = cout // groups
    for img in range(n):
        for o in range(cout):
            g = o // out_per_group
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(cpg):
                        for di in range(kh):
                            for dj in range(kw):
                                acc += float(w[o, c, di, dj]) * float(
                                    xp[img, g * cpg + c, i * stride + di, j * stride + dj]
                                )
                    out[img, o, i, j] = acc + (float(b[o]) if b is not None else 0.0)
    return out


def depthwise_grad_naive(x, w, g, stride=1, padding=1):
    """(gx, gw) of a depthwise convolution for output gradient ``g``: each
    output position hands ``g·w`` to the input pixels it read and ``g·x`` to
    the weights it used."""
    n, c, h, wid = x.shape
    _, _, kh, kw = w.shape
    _, _, oh, ow = g.shape
    gx = np.zeros((n, c, h, wid), dtype=np.float64)
    gw = np.zeros((c, 1, kh, kw), dtype=np.float64)
    for img in range(n):
        for ch in range(c):
            for i in range(oh):
                for j in range(ow):
                    go = float(g[img, ch, i, j])
                    for di in range(kh):
                        for dj in range(kw):
                            r = i * stride + di - padding
                            s = j * stride + dj - padding
                            if 0 <= r < h and 0 <= s < wid:
                                gx[img, ch, r, s] += go * float(w[ch, 0, di, dj])
                                gw[ch, 0, di, dj] += go * float(x[img, ch, r, s])
    return gx, gw


def conv2d_grad_naive(x, w, g, stride=1, padding=1, groups=1):
    """(gx, gw, gb) of a grouped convolution for output gradient ``g``: each
    output position hands ``g·w`` to the input pixels it read, ``g·x`` to
    the weights it used and ``g`` to its channel's bias."""
    n, cin, h, wid = x.shape
    cout, cpg, kh, kw = w.shape
    _, _, oh, ow = g.shape
    out_per_group = cout // groups
    gx = np.zeros((n, cin, h, wid), dtype=np.float64)
    gw = np.zeros((cout, cpg, kh, kw), dtype=np.float64)
    gb = np.zeros(cout, dtype=np.float64)
    for img in range(n):
        for o in range(cout):
            first = (o // out_per_group) * cpg
            for i in range(oh):
                for j in range(ow):
                    go = float(g[img, o, i, j])
                    gb[o] += go
                    for c in range(cpg):
                        for di in range(kh):
                            for dj in range(kw):
                                r = i * stride + di - padding
                                s = j * stride + dj - padding
                                if 0 <= r < h and 0 <= s < wid:
                                    gx[img, first + c, r, s] += go * float(w[o, c, di, dj])
                                    gw[o, c, di, dj] += go * float(x[img, first + c, r, s])
    return gx, gw, gb


def window_of(i: int, j: int, p: int, grid_cols: int) -> tuple[int, int]:
    """Window index (row-major) and in-window offset for pixel (i, j)."""
    return (i // p) * grid_cols + (j // p), (i % p) * p + (j % p)


def displace_map_naive(rows: int, cols: int) -> dict:
    """Destination patch for every source patch under the two-pass rule:
    horizontal shift by +1 (even row) / -1 (odd row), cyclic, then vertical
    likewise by the parity of the shifted column."""
    dest = {}
    for r in range(rows):
        for c in range(cols):
            c1 = (c + (1 if r % 2 == 0 else -1)) % cols
            r1 = (r + (1 if c1 % 2 == 0 else -1)) % rows
            dest[(r, c)] = (r1, c1)
    return dest


def displace_naive(x: np.ndarray, p: int) -> np.ndarray:
    h, w = x.shape[0], x.shape[1]
    out = np.empty_like(x)
    dest = displace_map_naive(h // p, w // p)
    for (r, c), (r1, c1) in dest.items():
        out[r1 * p : (r1 + 1) * p, c1 * p : (c1 + 1) * p] = x[r * p : (r + 1) * p, c * p : (c + 1) * p]
    return out


def patch_merge_naive(x: np.ndarray) -> np.ndarray:
    h, w, c = x.shape
    out = np.zeros((h // 2, w // 2, 4 * c), dtype=x.dtype)
    for i in range(h // 2):
        for j in range(w // 2):
            for k in range(c):
                for di in (0, 1):
                    for dj in (0, 1):
                        out[i, j, 4 * k + 2 * di + dj] = x[2 * i + di, 2 * j + dj, k]
    return out


def patch_reverse_naive(x: np.ndarray) -> np.ndarray:
    h, w, c4 = x.shape
    c = c4 // 4
    out = np.zeros((2 * h, 2 * w, c), dtype=x.dtype)
    for i in range(h):
        for j in range(w):
            for k in range(c):
                for di in (0, 1):
                    for dj in (0, 1):
                        out[2 * i + di, 2 * j + dj, k] = x[i, j, 4 * k + 2 * di + dj]
    return out


def gelu_tanh_reference(x: float) -> float:
    """The documented tanh-approximation formula, evaluated independently."""
    return 0.5 * x * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def sigmoid_reference(x: float) -> float:
    """Logistic function in double precision, written so neither side
    overflows: exp is only ever taken of a non-positive argument."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def silu_reference(x: float) -> float:
    return x * sigmoid_reference(x)


def silu_two_buffer(v: np.ndarray, g: np.ndarray):
    """SiLU forward and input gradient as a kernel that keeps σ in its own
    array computes them, one numpy operation at a time:
    σ = (tanh(v·0.5) + 1)·0.5, y = v·σ, and g·(((1 − σ)·v + 1)·σ).  Array
    code rather than scalar loops, because it pins the exact operation order:
    a one-buffer kernel must match it byte for byte."""
    s = (np.tanh(v * 0.5) + 1.0) * 0.5
    return v * s, g * (((1.0 - s) * v + 1.0) * s)


def gelu_two_buffer(v: np.ndarray, g: np.ndarray):
    """Tanh-approximation GELU forward and input gradient in the same
    operation order as the formula, with the cube as ``v·v·v``, every
    intermediate in its own array (see :func:`silu_two_buffer`)."""
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (v + 0.044715 * (v * v * v)))
    y = 0.5 * v * (1.0 + t)
    dinner = c * (1.0 + 3.0 * 0.044715 * v * v)
    return y, g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * dinner)


def softmax_naive(row):
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


def linear_naive(x, w, b, g):
    """``y = x·Wᵀ + b`` on rows ``x`` (R, I) and its gradients for output
    gradient ``g`` (R, O): ``(y, gx, gw, gb)``; ``b`` may be None."""
    rows, width = x.shape
    outs = w.shape[0]
    y = np.zeros((rows, outs))
    gx, gw, gb = np.zeros((rows, width)), np.zeros((outs, width)), np.zeros(outs)
    for r in range(rows):
        for o in range(outs):
            acc = 0.0 if b is None else float(b[o])
            go = float(g[r, o])
            gb[o] += go
            for k in range(width):
                acc += float(w[o, k]) * float(x[r, k])
                gx[r, k] += go * float(w[o, k])
                gw[o, k] += go * float(x[r, k])
            y[r, o] = acc
    return y, gx, gw, gb


def layer_norm_naive(x, gamma, beta, g, eps=1e-5):
    """Layer norm over the last axis of rows ``x`` (R, C) and its gradients
    for output gradient ``g``: ``(y, gx, ggamma, gbeta)``.  ``gx`` sums the
    full Jacobian ``∂x̂_j/∂x_k = (δ_jk − 1/C)/σ − x̂_j·x̂_k/(C·σ)``."""
    rows, width = x.shape
    y, gx = np.zeros((rows, width)), np.zeros((rows, width))
    ggamma, gbeta = np.zeros(width), np.zeros(width)
    for r in range(rows):
        vals = [float(v) for v in x[r]]
        mu = sum(vals) / width
        sigma = math.sqrt(sum((v - mu) ** 2 for v in vals) / width + eps)
        xhat = [(v - mu) / sigma for v in vals]
        for j in range(width):
            y[r, j] = xhat[j] * float(gamma[j]) + float(beta[j])
            ggamma[j] += float(g[r, j]) * xhat[j]
            gbeta[j] += float(g[r, j])
        for k in range(width):
            acc = 0.0
            for j in range(width):
                dxhat = ((1.0 if j == k else 0.0) - 1.0 / width) / sigma - xhat[j] * xhat[k] / (width * sigma)
                acc += float(g[r, j]) * float(gamma[j]) * dxhat
            gx[r, k] = acc
    return y, gx, ggamma, gbeta


def batch_norm_silu_naive(x, gamma, beta, g, eps=1e-5):
    """Training batch norm over (N, H, W) per channel of NCHW ``x``, then
    SiLU, and its gradients for output gradient ``g``:
    ``(y, gx, ggamma, gbeta, mean, var)`` with the batch mean and biased
    variance.  With ``v = x̂·γ + β`` and ``u = g·σ(v)·(1 + v·(1 − σ(v)))``
    the input gradient is ``γ/σ_c·(u − mean u − x̂·mean(u·x̂))``."""
    n, c, h, w = x.shape
    count = n * h * w
    y, gx = np.zeros(x.shape), np.zeros(x.shape)
    ggamma, gbeta, means, variances = np.zeros(c), np.zeros(c), np.zeros(c), np.zeros(c)
    for ch in range(c):
        idx = [(i, ch, r, q) for i in range(n) for r in range(h) for q in range(w)]
        vals = [float(x[k]) for k in idx]
        mu = sum(vals) / count
        var = sum((v - mu) ** 2 for v in vals) / count
        sigma = math.sqrt(var + eps)
        gam, bet = float(gamma[ch]), float(beta[ch])
        xhat = [(v - mu) / sigma for v in vals]
        u = []
        for k, xh in zip(idx, xhat):
            v = xh * gam + bet
            s = sigmoid_reference(v)
            y[k] = v * s
            u.append(float(g[k]) * s * (1.0 + v * (1.0 - s)))
        mean_u = sum(u) / count
        mean_ux = sum(a * b for a, b in zip(u, xhat)) / count
        for k, xh, uk in zip(idx, xhat, u):
            gx[k] = gam / sigma * (uk - mean_u - xh * mean_ux)
        ggamma[ch] = mean_ux * count
        gbeta[ch] = mean_u * count
        means[ch], variances[ch] = mu, var
    return y, gx, ggamma, gbeta, means, variances


def softmax_grad_naive(row, grow):
    """Input gradient of a softmax row through its Jacobian
    ``∂y_j/∂x_k = y_j·(δ_jk − y_k)``."""
    y = softmax_naive([float(v) for v in row])
    return [
        sum(float(grow[j]) * y[j] * ((1.0 if j == k else 0.0) - y[k]) for j in range(len(y)))
        for k in range(len(y))
    ]


def cross_entropy_naive(logits, labels):
    """Mean of ``−log softmax(z)[label]`` over every (image, position) of
    logits (N, K, H, W), and its gradient ``(p − onehot)/count``."""
    n, k, h, w = logits.shape
    count = n * h * w
    loss, grad = 0.0, np.zeros((n, k, h, w))
    for img in range(n):
        for i in range(h):
            for j in range(w):
                p = softmax_naive([float(logits[img, c, i, j]) for c in range(k)])
                lab = int(labels[img, i, j])
                loss -= math.log(p[lab])
                for c in range(k):
                    grad[img, c, i, j] = (p[c] - (1.0 if c == lab else 0.0)) / count
    return loss / count, grad


def window_attention_naive(windows, gamma, beta, w1, b1, w2, b2, eps=1e-5):
    """Straight-line scalar recomputation of the attention pipeline for one
    stack shaped (num_windows, p, p, c): channel mean, flatten, layer norm,
    fc1, gelu, fc2, softmax."""
    nw, p, _, c = windows.shape
    area = p * p
    rows = []
    for wi in range(nw):
        pooled = []
        for i in range(p):
            for j in range(p):
                acc = 0.0
                for k in range(c):
                    acc += float(windows[wi, i, j, k])
                pooled.append(acc / c)
        mean = sum(pooled) / area
        var = sum((v - mean) ** 2 for v in pooled) / area
        normed = [
            (v - mean) / math.sqrt(var + eps) * float(gamma[t]) + float(beta[t])
            for t, v in enumerate(pooled)
        ]
        hidden = []
        for o in range(w1.shape[0]):
            acc = float(b1[o])
            for t in range(area):
                acc += float(w1[o, t]) * normed[t]
            hidden.append(gelu_tanh_reference(acc))
        logits = []
        for o in range(w2.shape[0]):
            acc = float(b2[o])
            for t in range(len(hidden)):
                acc += float(w2[o, t]) * hidden[t]
            logits.append(acc)
        rows.append(softmax_naive(logits))
    return np.array(rows)


def branch_naive(x, p, win, gamma, beta, w1, b1, w2, b2, displaced=False):
    """Scalar oracle for a whole interaction branch on one (h, w, c) tensor:
    (optionally displace), zero-pad to a multiple of ``win`` (centred, the
    odd pixel after), window, attend, rescale by the area, weight values,
    crop back, (un-displace)."""
    src = displace_naive(x, p) if displaced else x
    h, w, c = src.shape
    ph, pw = (-h) % win, (-w) % win
    top, left = ph // 2, pw // 2
    hp, wp = h + ph, w + pw
    padded = np.zeros((hp, wp, c), dtype=np.float64)
    padded[top : top + h, left : left + w] = src
    grid_cols = wp // win
    num = (hp // win) * grid_cols
    windows = np.zeros((num, win, win, c), dtype=np.float64)
    for i in range(hp):
        for j in range(wp):
            wi, off = window_of(i, j, win, grid_cols)
            windows[wi, off // win, off % win] = padded[i, j]
    attn = window_attention_naive(windows, gamma, beta, w1, b1, w2, b2)
    out = np.zeros_like(src)
    area = win * win
    for i in range(h):
        for j in range(w):
            wi, off = window_of(i + top, j + left, win, grid_cols)
            out[i, j] = src[i, j] * attn[wi, off] * area
    if displaced:
        inv = np.empty_like(out)
        dest = displace_map_naive(h // p, w // p)
        for (r, cc), (r1, c1) in dest.items():
            inv[r * p : (r + 1) * p, cc * p : (cc + 1) * p] = out[r1 * p : (r1 + 1) * p, c1 * p : (c1 + 1) * p]
        return inv
    return out


def branch_weights(branch):
    """The six attention arrays ``branch_naive`` takes after ``win``."""
    wa = branch.attention
    return (
        wa.norm.gamma.data, wa.norm.beta.data,
        wa.fc1.weight.data, wa.fc1.bias.data,
        wa.fc2.weight.data, wa.fc2.bias.data,
    )


def block_interaction_naive(block, m):
    """The interaction a ``SegnetrBlock`` applies to its MBConv output ``m``
    (NCHW), composed from ``branch_naive`` image by image in the residual
    form ``h + α·branch(h)``; series mode nests the local result inside the
    global branch."""
    def local(v):
        br = block.local_branch
        return branch_naive(v, br.p, br.window, *branch_weights(br))

    def global_(v):
        br = block.global_branch
        return branch_naive(v, br.p, br.window, *branch_weights(br), displaced=True)

    out = np.empty_like(m, dtype=np.float64)
    for img in range(m.shape[0]):
        h = np.asarray(m[img], dtype=np.float64).transpose(1, 2, 0)
        if block.mode == "local":
            res = h + float(block.alpha_local.data) * local(h)
        elif block.mode == "global":
            res = h + float(block.alpha_global.data) * global_(h)
        elif block.mode == "parallel":
            res = (h + float(block.alpha_local.data) * local(h)
                   + float(block.alpha_global.data) * global_(h))
        else:
            inner = h + float(block.alpha_local.data) * local(h)
            res = h + float(block.alpha_global.data) * global_(inner)
        out[img] = res.transpose(2, 0, 1)
    return out


def window_ffn_params(area: int) -> int:
    """Learnable weights of one window attention over ``area`` positions as
    documented: LayerNorm scale and shift (2A), fc1 A -> 2A with bias
    (2A^2 + 2A), fc2 2A -> A with bias (2A^2 + A); 4A^2 + 5A in all."""
    hidden = 2 * area
    norm = 2 * area
    fc1 = area * hidden + hidden
    fc2 = hidden * area + area
    return norm + fc1 + fc2


def schedule_attention_params(schedule) -> int:
    """Window-FFN weights of a SegNetr with both branches per block and one
    block per stage: the encoder block and its mirrored decoder block at
    stage s each hold a local P_s x P_s and a global 2P_s x 2P_s window
    attention."""
    total = 0
    for p in schedule:
        total += 2 * (window_ffn_params(p * p) + window_ffn_params(4 * p * p))
    return total


def adam_naive(x0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar Adam with textbook bias correction; returns the iterates."""
    x, m, v = float(x0), 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        x -= lr * mhat / (math.sqrt(vhat) + eps)
        out.append(x)
    return out


def bilinear2x_naive(x: np.ndarray) -> np.ndarray:
    """Half-pixel (align_corners=False) 2x upsampling, one output at a time."""
    h, w = x.shape
    out = np.zeros((2 * h, 2 * w), dtype=np.float64)
    for oi in range(2 * h):
        for oj in range(2 * w):
            si = (oi + 0.5) / 2.0 - 0.5
            sj = (oj + 0.5) / 2.0 - 0.5
            i0 = min(max(int(math.floor(si)), 0), h - 1)
            j0 = min(max(int(math.floor(sj)), 0), w - 1)
            i1 = min(i0 + 1, h - 1)
            j1 = min(j0 + 1, w - 1)
            fi = min(max(si - math.floor(si), 0.0), 1.0) if 0 <= si <= h - 1 else 0.0
            fj = min(max(sj - math.floor(sj), 0.0), 1.0) if 0 <= sj <= w - 1 else 0.0
            top = (1 - fj) * x[i0, j0] + fj * x[i0, j1]
            bot = (1 - fj) * x[i1, j0] + fj * x[i1, j1]
            out[oi, oj] = (1 - fi) * top + fi * bot
    return out


def confusion_naive(pred, gt, k):
    """Set-style counting: tp/fp/fn per class from explicit pixel walks."""
    tp = [0] * k
    fp = [0] * k
    fn = [0] * k
    for p, g in zip(np.ravel(pred).tolist(), np.ravel(gt).tolist()):
        if p == g:
            tp[p] += 1
        else:
            fp[p] += 1
            fn[g] += 1
    return tp, fp, fn
