"""Learnable building blocks.

Conventions used throughout: convolutional trunk tensors are NCHW; the
layout-facing pieces (patch merging, IRSC) work on HWC with explicit
transposes at the boundary, and the window branches work on the block's
channel-pooled map viewed as (N, H, W, 1).  Weights are Kaiming-uniform
(fan-in), biases and norm shifts start at zero, norm scales at one; every
constructor draws from the caller's generator in declaration order, so a
seed fixes the whole model.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .autodiff import functional as F
from .autodiff.module import Module, Parameter
from .autodiff.tensor import Tensor, checkpoint, concat, mean, reshape, transpose
from .errors import ConfigError, ShapeError
from .layout import (
    WindowStack,
    crop_hw,
    global_partition,
    global_reverse,
    local_partition,
    local_reverse,
    alternate_select,
    patch_reverse,
)

INTERACTION_MODES = ("without", "local", "global", "series", "parallel")


def _kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype):
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Conv2d(Module):
    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
        *,
        rng: np.random.Generator,
        dtype=np.float32,
    ):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.groups = groups
        k = kernel_size
        fan_in = (in_channels // groups) * k * k
        self.weight = Parameter(
            _kaiming_uniform(rng, (out_channels, in_channels // groups, k, k), fan_in, dtype)
        )
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding, self.groups)


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, *, rng, dtype=np.float32):
        super().__init__()
        self.weight = Parameter(
            _kaiming_uniform(rng, (out_features, in_features), in_features, dtype)
        )
        self.bias = Parameter(np.zeros(out_features, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class BatchNorm2d(Module):
    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5, *, dtype=np.float32):
        super().__init__()
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(channels, dtype=dtype))
        self.beta = Parameter(np.zeros(channels, dtype=dtype))
        self.register_buffer("running_mean", np.zeros(channels, dtype=dtype))
        self.register_buffer("running_var", np.ones(channels, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm(
            x, self.gamma, self.beta, self.running_mean, self.running_var,
            self.training, self.momentum, self.eps,
        )


def conv_norm(x: Tensor, conv: Conv2d, norm: BatchNorm2d, silu: bool = False) -> Tensor:
    """``norm(conv(x))`` for a bias-free ``conv``, then SiLU if ``silu``, which
    in training is one ``F.batch_norm_silu`` node.  In eval mode the norm is
    folded into one conv (Jacob et al., 2018, §3.2) with weight ``W·scale``,
    ``scale = γ/√(var+ε)``, and bias ``β − μ·scale``, rebuilt from autodiff
    ops on every call: it cannot go stale, and gradients reach W, γ and β."""
    if norm.training:
        if silu:
            return F.batch_norm_silu(conv(x), norm.gamma, norm.beta, norm.running_mean,
                                     norm.running_var, norm.momentum, norm.eps)
        return norm(conv(x))
    scale = norm.gamma * Tensor(1.0 / np.sqrt(norm.running_var.astype(x.dtype) + norm.eps))
    weight = conv.weight * reshape(scale, (-1, 1, 1, 1))
    bias = norm.beta - Tensor(norm.running_mean.astype(x.dtype)) * scale
    y = F.conv2d(x, weight, bias, conv.stride, conv.padding, conv.groups)
    return F.silu(y) if silu else y


class LayerNorm(Module):
    def __init__(self, width: int, eps: float = 1e-5, *, dtype=np.float32):
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(width, dtype=dtype))
        self.beta = Parameter(np.zeros(width, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.gamma, self.beta, self.eps)


class MBConv(Module):
    """Mobile inverted bottleneck: expand 1×1 (×4), depthwise 3×3,
    squeeze-excitation (reduce 4), project 1×1, residual.  Convolutions
    followed by a norm carry no bias."""

    EXPANSION = 4
    SE_REDUCTION = 4

    def __init__(self, channels: int, *, rng, dtype=np.float32):
        super().__init__()
        mid = channels * self.EXPANSION
        squeezed = max(1, mid // self.SE_REDUCTION)
        self.expand = Conv2d(channels, mid, 1, bias=False, rng=rng, dtype=dtype)
        self.expand_norm = BatchNorm2d(mid, dtype=dtype)
        self.depthwise = Conv2d(mid, mid, 3, padding=1, groups=mid, bias=False, rng=rng, dtype=dtype)
        self.depthwise_norm = BatchNorm2d(mid, dtype=dtype)
        self.se_reduce = Conv2d(mid, squeezed, 1, rng=rng, dtype=dtype)
        self.se_expand = Conv2d(squeezed, mid, 1, rng=rng, dtype=dtype)
        self.project = Conv2d(mid, channels, 1, bias=False, rng=rng, dtype=dtype)
        self.project_norm = BatchNorm2d(channels, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        h = conv_norm(x, self.expand, self.expand_norm, silu=True)
        h = conv_norm(h, self.depthwise, self.depthwise_norm, silu=True)
        gate = F.sigmoid(self.se_expand(F.silu(self.se_reduce(F.global_avg_pool(h)))))
        h = h * gate
        return x + conv_norm(h, self.project, self.project_norm)


class WindowAttention(Module):
    """Per-window spatial attention over a channel-pooled map: flatten each
    one-channel window to its area, LayerNorm, two-layer FFN (hidden
    2×area, GELU), softmax.  Returns one probability row per window."""

    HIDDEN_RATIO = 2

    def __init__(self, area: int, *, rng, dtype=np.float32):
        super().__init__()
        self.area = area
        self.norm = LayerNorm(area, dtype=dtype)
        self.fc1 = Linear(area, self.HIDDEN_RATIO * area, rng=rng, dtype=dtype)
        self.fc2 = Linear(self.HIDDEN_RATIO * area, area, rng=rng, dtype=dtype)

    def forward(self, ws: WindowStack) -> Tensor:
        p = ws.grid.p
        if p * p != self.area:
            raise ShapeError(f"window area {p * p} does not match FFN width {self.area}")
        if ws.grid.c != 1:
            raise ShapeError(f"window attention takes a pooled map, got {ws.grid.c} channels")
        lead = ws.windows.shape[:-4]
        flat = reshape(ws.windows, lead + (ws.grid.num_windows, self.area))
        return F.softmax(self.fc2(F.gelu(self.fc1(self.norm(flat)))), axis=-1)


class InteractionBranch(Module):
    """Windowed attention gate over a channel-pooled (..., H, W, 1) map.

    ``kind="local"`` partitions into contiguous P×P windows; ``kind="global"``
    displaces patches first and uses 2P×2P windows (padding as needed).
    Returns the per-position gate: attention rescaled by the window area and
    put back in place, so uniform attention gives a gate of exactly 1.
    """

    def __init__(self, p: int, kind: str, *, rng, dtype=np.float32):
        super().__init__()
        if kind not in ("local", "global"):
            raise ConfigError(f"branch kind must be local or global, got {kind!r}")
        self.p = p
        self.kind = kind
        self.window = p if kind == "local" else 2 * p
        self.attention = WindowAttention(self.window * self.window, rng=rng, dtype=dtype)

    def forward(self, pooled: Tensor) -> Tensor:
        if self.kind == "local":
            ws = local_partition(pooled, self.p, pad=True)
        else:
            ws = global_partition(pooled, self.p, pad=True)
        attn = self.attention(ws)
        gate = reshape(attn, ws.windows.shape) * float(self.window * self.window)
        out_stack = replace(ws, windows=gate)
        return global_reverse(out_stack) if ws.displaced else local_reverse(out_stack)


def nchw_to_hwc(x: Tensor) -> Tensor:
    return transpose(x, (0, 2, 3, 1))


def hwc_to_nchw(x: Tensor) -> Tensor:
    return transpose(x, (0, 3, 1, 2))


class SegnetrBlock(Module):
    """MBConv followed by the configured local/global interaction.

    Each branch re-weights positions by a gate computed from the channel
    mean ``P`` of the MBConv output ``m``, so the block pools once and
    returns ``m ⊙ f`` with one per-position factor ``f``:
    ``1 + α_l·g_l(P) + α_g·g_g(P)`` in parallel mode (one term in local or
    global mode).  Series mode feeds the local result ``m ⊙ f_l``,
    ``f_l = 1 + α_l·g_l(P)``, to the global branch, whose channel mean is
    ``P·f_l``, keeping ``m`` as the residual base:
    ``f = 1 + α_g·f_l·g_g(P·f_l)``.  Fusion weights are learnable scalars
    starting at 0.5.

    With recording on, the block is one ``checkpoint`` node: its graph keeps
    only the block input, and the backward runs ``_body`` again.
    """

    def __init__(self, channels: int, p: int, mode: str = "parallel", *, rng, dtype=np.float32):
        super().__init__()
        if mode not in INTERACTION_MODES:
            raise ConfigError(f"unknown interaction mode {mode!r}; pick from {INTERACTION_MODES}")
        self.mode = mode
        self.mbconv = MBConv(channels, rng=rng, dtype=dtype)
        if mode in ("local", "series", "parallel"):
            self.local_branch = InteractionBranch(p, "local", rng=rng, dtype=dtype)
            self.alpha_local = Parameter(np.asarray(0.5, dtype=dtype))
        if mode in ("global", "series", "parallel"):
            self.global_branch = InteractionBranch(p, "global", rng=rng, dtype=dtype)
            self.alpha_global = Parameter(np.asarray(0.5, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        return checkpoint(self._body, x, self)

    def _body(self, x: Tensor) -> Tensor:
        m = self.mbconv(x)
        if self.mode == "without":
            return m
        n, _, h, w = m.shape
        pooled = reshape(mean(m, axis=1), (n, h, w, 1))
        if self.mode == "local":
            f = 1 + self.alpha_local * self.local_branch(pooled)
        elif self.mode == "global":
            f = 1 + self.alpha_global * self.global_branch(pooled)
        elif self.mode == "parallel":
            f = (1 + self.alpha_local * self.local_branch(pooled)
                 + self.alpha_global * self.global_branch(pooled))
        else:
            f_l = 1 + self.alpha_local * self.local_branch(pooled)
            f = 1 + self.alpha_global * f_l * self.global_branch(pooled * f_l)
        return m * reshape(f, (n, 1, h, w))


def irsc_fuse(encoder_pm: Tensor, decoder_up: Tensor) -> Tensor:
    """Information-retention skip: alternate-select half the merged channels,
    patch-reverse them back to encoder resolution, concatenate with the
    upsampled decoder features.  Adds no parameters.

    When the encoder's patch merge ran on a grid padded after its last row or
    column (odd stage extents), the reconstruction is cropped to the
    decoder's extents.
    """
    x_pr = patch_reverse(alternate_select(encoder_pm))
    th, tw = decoder_up.shape[-3], decoder_up.shape[-2]
    x_pr = crop_hw(x_pr, 0, 0, th, tw)
    if x_pr.shape[-3] != th or x_pr.shape[-2] != tw:
        raise ShapeError(
            f"irsc_fuse: reconstructed skip {x_pr.shape} does not cover decoder {decoder_up.shape}"
        )
    return concat([decoder_up, x_pr], axis=-1)
