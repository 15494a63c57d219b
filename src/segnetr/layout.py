"""Exactly invertible layout transforms.

Every operation here is a pure index permutation (plus optional zero padding
behind an explicit flag): no arithmetic ever touches a value, so round trips
are bitwise identities.  Tensors are laid out with the last three axes as
(H, W, C); any leading axes (batch) ride along untouched.

Gradients flow through all ops because each one is built from the recorded
primitives (reshape / transpose / pad / slice / index take).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .autodiff.tensor import Tensor, _make_output, pad as t_pad, reshape, slice_, transpose
from .errors import ContractError, LayoutError

__all__ = [
    "WindowGrid",
    "WindowStack",
    "DisplacementSpec",
    "local_partition",
    "local_reverse",
    "displace",
    "undisplace",
    "global_partition",
    "global_reverse",
    "patch_merge",
    "alternate_select",
    "patch_reverse",
    "pad_to_multiple",
    "crop_hw",
]


def _hwc(x: Tensor) -> tuple[int, int, int]:
    if x.ndim < 3:
        raise LayoutError(f"layout ops need at least 3 axes (H, W, C), got shape {x.shape}")
    return x.shape[-3], x.shape[-2], x.shape[-1]


@dataclass(frozen=True)
class WindowGrid:
    """Geometry of a partitioned (possibly padded) image."""

    h: int
    w: int
    c: int
    p: int

    def __post_init__(self):
        if self.p <= 0 or self.h <= 0 or self.w <= 0 or self.c <= 0:
            raise LayoutError(f"window grid extents must be positive: {self}")
        if self.h % self.p or self.w % self.p:
            raise LayoutError(f"window size {self.p} does not divide ({self.h}, {self.w})")

    @property
    def rows(self) -> int:
        return self.h // self.p

    @property
    def cols(self) -> int:
        return self.w // self.p

    @property
    def num_windows(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class DisplacementSpec:
    """Even/odd-alternating cyclic patch displacement at granularity ``p``.

    Composition order is fixed: a horizontal pass, then a vertical pass on
    the shifted result, both wrapping cyclically.  A patch at grid (r, c)
    first moves one patch right if r is even and one left if r is odd; it
    then moves one patch down if its new column is even and one up if odd.
    """

    p: int

    def __post_init__(self):
        if self.p <= 0:
            raise LayoutError(f"displacement granularity must be positive, got {self.p}")


@dataclass
class WindowStack:
    """Partitioned windows: Tensor shaped (..., num_windows, P, P, C).

    ``grid`` describes the padded image that was actually partitioned;
    ``pad_before``/``orig_hw`` record how to crop back to the source extents.
    Displaced stacks remember their DisplacementSpec so only global_reverse
    can undo them.
    """

    windows: Tensor
    grid: WindowGrid
    displaced: bool = False
    spec: Optional[DisplacementSpec] = None
    pad_before: tuple[int, int] = (0, 0)
    orig_hw: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if self.orig_hw is None:
            self.orig_hw = (self.grid.h, self.grid.w)
        g = self.grid
        expect = (g.num_windows, g.p, g.p, g.c)
        if tuple(self.windows.shape[-4:]) != expect:
            raise LayoutError(
                f"window stack shape {self.windows.shape} does not end in {expect}"
            )


# -- padding helpers ---------------------------------------------------------


def pad_to_multiple(x: Tensor, mult: int) -> tuple[Tensor, tuple[int, int], tuple[int, int]]:
    """Zero-pad H and W up to multiples of ``mult`` (centered, floor-before).

    Returns (padded tensor, (top, left) offsets, original (H, W)).
    """
    h, w, _ = _hwc(x)
    ph = (-h) % mult
    pw = (-w) % mult
    if ph == 0 and pw == 0:
        return x, (0, 0), (h, w)
    top, left = ph // 2, pw // 2
    spec = [(0, 0)] * (x.ndim - 3) + [(top, ph - top), (left, pw - left), (0, 0)]
    return t_pad(x, spec), (top, left), (h, w)


def crop_hw(x: Tensor, top: int, left: int, h: int, w: int) -> Tensor:
    if top == 0 and left == 0 and x.shape[-3] == h and x.shape[-2] == w:
        return x
    return slice_(x, (Ellipsis, slice(top, top + h), slice(left, left + w), slice(None)))


# -- local partition / reverse -----------------------------------------------


def _partition_grid(x: Tensor, p: int, pad: bool) -> tuple[Tensor, tuple[int, int], tuple[int, int]]:
    h, w, _ = _hwc(x)
    if h % p or w % p:
        if not pad:
            raise LayoutError(f"window size {p} does not divide extents ({h}, {w}); pass pad=True")
        return pad_to_multiple(x, p)
    return x, (0, 0), (h, w)


def local_partition(x: Tensor, p: int, pad: bool = False) -> WindowStack:
    """Split (..., H, W, C) into contiguous P×P windows, row-major."""
    xp, before, orig = _partition_grid(x, p, pad)
    h, w, c = _hwc(xp)
    grid = WindowGrid(h, w, c, p)
    lead = xp.shape[:-3]
    nl = len(lead)
    x5 = reshape(xp, lead + (grid.rows, p, grid.cols, p, c))
    xt = transpose(x5, tuple(range(nl)) + (nl, nl + 2, nl + 1, nl + 3, nl + 4))
    win = reshape(xt, lead + (grid.num_windows, p, p, c))
    return WindowStack(win, grid, displaced=False, pad_before=before, orig_hw=orig)


def _reverse_windows(ws: WindowStack) -> Tensor:
    g = ws.grid
    lead = ws.windows.shape[:-4]
    nl = len(lead)
    x5 = reshape(ws.windows, lead + (g.rows, g.cols, g.p, g.p, g.c))
    xt = transpose(x5, tuple(range(nl)) + (nl, nl + 2, nl + 1, nl + 3, nl + 4))
    full = reshape(xt, lead + (g.h, g.w, g.c))
    top, left = ws.pad_before
    h0, w0 = ws.orig_hw
    return crop_hw(full, top, left, h0, w0)


def local_reverse(ws: WindowStack) -> Tensor:
    """Exact inverse of local_partition."""
    if ws.displaced:
        raise ContractError("local_reverse received a displaced stack; use global_reverse")
    return _reverse_windows(ws)


# -- displacement ------------------------------------------------------------


@lru_cache(maxsize=256)
def _pixel_perm(h: int, w: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat pixel permutation for displace: out.flat[q] = in.flat[perm[q]].

    Built by brute-force application of the two-pass rule on the patch grid,
    then expanded to pixel granularity.  Returns (perm, inverse perm).
    """
    rows, cols = h // p, w // p
    r = np.arange(rows)[:, None]
    c = np.arange(cols)[None, :]
    c1 = (c + np.where(r % 2 == 1, -1, 1)) % cols
    r1 = (r + np.where(c1 % 2 == 1, -1, 1)) % rows
    rr, cc = np.broadcast_arrays(r, c)
    src_r = np.empty((rows, cols), dtype=np.int64)
    src_c = np.empty((rows, cols), dtype=np.int64)
    src_r[r1, c1] = rr
    src_c[r1, c1] = cc
    pix_r = np.repeat(np.repeat(src_r, p, axis=0), p, axis=1) * p + (np.arange(h) % p)[:, None]
    pix_c = np.repeat(np.repeat(src_c, p, axis=0), p, axis=1) * p + (np.arange(w) % p)[None, :]
    perm = (pix_r * w + pix_c).ravel()
    inv = np.argsort(perm)
    return perm, inv


def _take_rows(x: Tensor, idx: np.ndarray, inv: np.ndarray) -> Tensor:
    """Permute along axis -2; backward applies the inverse permutation."""
    data = np.take(x.data, idx, axis=-2)
    return _make_output(data, (x,), lambda g: (np.take(g, inv, axis=-2),))


def _apply_displacement(x: Tensor, spec: DisplacementSpec, inverse: bool) -> Tensor:
    h, w, c = _hwc(x)
    if h % spec.p or w % spec.p:
        raise LayoutError(f"displacement granularity {spec.p} does not divide ({h}, {w})")
    perm, inv = _pixel_perm(h, w, spec.p)
    if inverse:
        perm, inv = inv, perm
    lead = x.shape[:-3]
    flat = reshape(x, lead + (h * w, c))
    moved = _take_rows(flat, perm, inv)
    return reshape(moved, lead + (h, w, c))


def displace(x: Tensor, spec: DisplacementSpec) -> Tensor:
    """Permute P×P patches as ``spec`` directs; values are copied, never computed."""
    return _apply_displacement(x, spec, inverse=False)


def undisplace(x: Tensor, spec: DisplacementSpec) -> Tensor:
    """Exact inverse of displace with the same spec."""
    return _apply_displacement(x, spec, inverse=True)


# -- global partition / reverse ----------------------------------------------


def global_partition(x: Tensor, p: int, pad: bool = False) -> WindowStack:
    """Displace at granularity P, then partition into 2P×2P windows.

    Displacement happens on the unpadded tensor (P must divide H and W);
    padding, when enabled, only squares the displaced result up to a 2P
    multiple for the partition.
    """
    spec = DisplacementSpec(p)
    moved = displace(x, spec)
    xp, before, orig = _partition_grid(moved, 2 * p, pad)
    h, w, c = _hwc(xp)
    grid = WindowGrid(h, w, c, 2 * p)
    ws = local_partition(xp, 2 * p)
    return WindowStack(
        ws.windows, grid, displaced=True, spec=spec, pad_before=before, orig_hw=orig
    )


def global_reverse(ws: WindowStack) -> Tensor:
    """Exact inverse of global_partition: un-window, crop, un-displace."""
    if not ws.displaced or ws.spec is None:
        raise ContractError("global_reverse received a non-displaced stack; use local_reverse")
    return undisplace(_reverse_windows(ws), ws.spec)


# -- patch merge / reverse / channel selection --------------------------------


def patch_merge(x: Tensor) -> Tensor:
    """(…, H, W, C) → (…, H/2, W/2, 4C): out[i,j,4k+2di+dj] = in[2i+di,2j+dj,k]."""
    h, w, c = _hwc(x)
    if h % 2 or w % 2:
        raise LayoutError(f"patch_merge needs even extents, got ({h}, {w})")
    lead = x.shape[:-3]
    nl = len(lead)
    x5 = reshape(x, lead + (h // 2, 2, w // 2, 2, c))
    xt = transpose(x5, tuple(range(nl)) + (nl, nl + 2, nl + 4, nl + 1, nl + 3))
    return reshape(xt, lead + (h // 2, w // 2, 4 * c))


def alternate_select(x: Tensor) -> Tensor:
    """Keep even-indexed channels 0, 2, 4, … (half the channel count)."""
    _, _, c = _hwc(x)
    if c % 2:
        raise LayoutError(f"alternate_select needs an even channel count, got {c}")
    return slice_(x, (Ellipsis, slice(0, None, 2)))


def patch_reverse(x: Tensor) -> Tensor:
    """Inverse of patch_merge: (…, h, w, C) → (…, 2h, 2w, C/4)."""
    h, w, c = _hwc(x)
    if c % 4:
        raise LayoutError(f"patch_reverse needs channels divisible by 4, got {c}")
    lead = x.shape[:-3]
    nl = len(lead)
    x5 = reshape(x, lead + (h, w, c // 4, 2, 2))
    xt = transpose(x5, tuple(range(nl)) + (nl, nl + 3, nl + 1, nl + 4, nl + 2))
    return reshape(xt, lead + (2 * h, 2 * w, c // 4))
