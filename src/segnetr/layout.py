"""Exactly invertible layout transforms.

Every operation here is a pure index permutation (plus optional zero padding
behind an explicit flag): no arithmetic ever touches a value, so round trips
are bitwise identities.  Tensors are laid out with the last three axes as
(H, W, C); any leading axes (batch) ride along untouched.

Each window transform (partition, reverse, displacement) is one recorded
pick by a cached index map: every output pixel names the input pixel it
copies, or a padding zero.  The gradient is picked back by the inverse map,
and every reverse runs its partition's map the other way round, so the
window geometry is written once, in ``_index_map``.
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
    def num_windows(self) -> int:
        return (self.h // self.p) * (self.w // self.p)


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

    ``grid`` describes the padded image that was actually partitioned and
    ``orig_hw`` the source extents, which ``pad_to_multiple``'s rule pads to
    ``grid``'s.  A displaced stack (global windows, P = 2× the displacement
    granularity) can only be undone by global_reverse.
    """

    windows: Tensor
    grid: WindowGrid
    displaced: bool = False
    orig_hw: Optional[tuple[int, int]] = None

    def __post_init__(self):
        g = self.grid
        if self.orig_hw is None:
            self.orig_hw = (g.h, g.w)
        expect = (g.num_windows, g.p, g.p, g.c)
        if tuple(self.windows.shape[-4:]) != expect:
            raise LayoutError(
                f"window stack shape {self.windows.shape} does not end in {expect}"
            )
        h, w = self.orig_hw
        if g.h != h + (-h) % g.p or g.w != w + (-w) % g.p or (self.displaced and g.p % 2):
            raise LayoutError(f"grid {g} is not how source extents {self.orig_hw} are windowed")


# -- padding helpers ---------------------------------------------------------


def _centred_pad(n: int, mult: int) -> tuple[int, int]:
    """Zeros (before, after) that pad extent ``n`` to a multiple of ``mult``:
    centred, the odd one after."""
    if mult <= 0:
        raise LayoutError(f"window size must be positive, got {mult}")
    extra = (-n) % mult
    return extra // 2, extra - extra // 2


def pad_to_multiple(x: Tensor, mult: int) -> tuple[Tensor, tuple[int, int], tuple[int, int]]:
    """Zero-pad H and W up to multiples of ``mult`` (centered, floor-before).

    Returns (padded tensor, (top, left) offsets, original (H, W)).
    """
    h, w, _ = _hwc(x)
    (top, bottom), (left, right) = _centred_pad(h, mult), _centred_pad(w, mult)
    if bottom == 0 and right == 0:
        return x, (0, 0), (h, w)
    spec = [(0, 0)] * (x.ndim - 3) + [(top, bottom), (left, right), (0, 0)]
    return t_pad(x, spec), (top, left), (h, w)


def crop_hw(x: Tensor, top: int, left: int, h: int, w: int) -> Tensor:
    if top == 0 and left == 0 and x.shape[-3] == h and x.shape[-2] == w:
        return x
    return slice_(x, (Ellipsis, slice(top, top + h), slice(left, left + w), slice(None)))


# -- window transforms: one pick by an index map each ------------------------


def _pixel_perm(h: int, w: int, p: int) -> np.ndarray:
    """Flat pixel permutation for displace: out.flat[perm[q]] = in.flat[q].

    Each pixel moves with its P×P patch by the two-pass rule of
    ``DisplacementSpec`` and keeps its offset inside the patch.
    """
    if h % p or w % p:
        raise LayoutError(f"displacement granularity {p} does not divide ({h}, {w})")
    y, x = np.arange(h)[:, None], np.arange(w)[None, :]
    r, c = y // p, x // p
    c1 = (c + np.where(r % 2 == 1, -1, 1)) % (w // p)
    r1 = (r + np.where(c1 % 2 == 1, -1, 1)) % (h // p)
    return ((r1 * p + y % p) * w + c1 * p + x % p).ravel()


# room for the 270 maps of one layout_suite and gradient_suite pass, so a
# repeated pass builds none; int32 maps keep the cache half as large
@lru_cache(maxsize=512)
def _index_map(h: int, w: int, window: int, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (src, inv) over flat pixels for an h×w image displaced at
    granularity ``shift`` (0: not displaced), then padded as
    ``pad_to_multiple`` pads it and cut into window×window windows, row-major
    (``window`` 0: left whole).  Output pixel k copies input pixel src[k], or
    is a padding zero where src[k] is −1; input pixel q lands at inv[q]."""
    src = np.arange(h * w)
    if shift:
        src[_pixel_perm(h, w, shift)] = np.arange(h * w)
    if window:
        (top, bottom), (left, right) = _centred_pad(h, window), _centred_pad(w, window)
        ys = np.arange(-top, h + bottom)[:, None]
        xs = np.arange(-left, w + right)[None, :]
        pix = np.where((ys >= 0) & (ys < h) & (xs >= 0) & (xs < w), ys * w + xs, -1)
        pix = pix.reshape(len(ys) // window, window, -1, window).transpose(0, 2, 1, 3).ravel()
        src = np.where(pix >= 0, src[pix], -1)
    kept = np.flatnonzero(src >= 0)
    inv = np.empty(h * w, dtype=np.int32)
    inv[src[kept]] = kept
    src = src.astype(np.int32)
    src.flags.writeable = inv.flags.writeable = False
    return src, inv


def _pick(x: Tensor, n_lead: int, idx: np.ndarray, back: np.ndarray, tail: tuple) -> Tensor:
    """One recorded node: output pixel k copies input pixel idx[k] (a zero
    where it is −1), shaped lead + ``tail``; the rule picks the gradient
    back by ``back``."""
    lead, in_tail = x.shape[:n_lead], x.shape[n_lead:]

    def gather(a, idx, tail):
        rows = a.reshape(lead + (-1, a.shape[-1]))
        out = np.take(rows, idx, axis=-2)
        if idx.size > rows.shape[-2]:  # a map only pads when it has more outputs than inputs
            out[..., idx < 0, :] = 0
        return out.reshape(lead + tail)

    return _make_output(gather(x.data, idx, tail), (x,), lambda g: (gather(g, back, in_tail),))


def _partition(x: Tensor, window: int, shift: int, pad: bool) -> WindowStack:
    h, w, c = _hwc(x)
    if window <= 0:
        raise LayoutError(f"window size must be positive, got {window}")
    src, inv = _index_map(h, w, window, shift)  # first, so a bad displacement is what is named
    if (h % window or w % window) and not pad:
        raise LayoutError(f"window size {window} does not divide extents ({h}, {w}); pass pad=True")
    grid = WindowGrid(h + (-h) % window, w + (-w) % window, c, window)
    windows = _pick(x, x.ndim - 3, src, inv, (grid.num_windows, window, window, c))
    return WindowStack(windows, grid, displaced=shift > 0, orig_hw=(h, w))


def _reverse(ws: WindowStack, shift: int) -> Tensor:
    src, inv = _index_map(*ws.orig_hw, ws.grid.p, shift)
    return _pick(ws.windows, ws.windows.ndim - 4, inv, src, ws.orig_hw + (ws.grid.c,))


def local_partition(x: Tensor, p: int, pad: bool = False) -> WindowStack:
    """Split (..., H, W, C) into contiguous P×P windows, row-major."""
    return _partition(x, p, 0, pad)


def local_reverse(ws: WindowStack) -> Tensor:
    """Exact inverse of local_partition."""
    if ws.displaced:
        raise ContractError("local_reverse received a displaced stack; use global_reverse")
    return _reverse(ws, 0)


def displace(x: Tensor, spec: DisplacementSpec) -> Tensor:
    """Permute P×P patches as ``spec`` directs; values are copied, never computed."""
    h, w, c = _hwc(x)
    src, inv = _index_map(h, w, 0, spec.p)
    return _pick(x, x.ndim - 3, src, inv, (h, w, c))


def undisplace(x: Tensor, spec: DisplacementSpec) -> Tensor:
    """Exact inverse of displace with the same spec."""
    h, w, c = _hwc(x)
    src, inv = _index_map(h, w, 0, spec.p)
    return _pick(x, x.ndim - 3, inv, src, (h, w, c))


def global_partition(x: Tensor, p: int, pad: bool = False) -> WindowStack:
    """Displace at granularity P, then partition into 2P×2P windows.

    Displacement happens on the unpadded tensor (P must divide H and W);
    padding, when enabled, only squares the displaced result up to a 2P
    multiple for the partition.
    """
    return _partition(x, 2 * p, p, pad)


def global_reverse(ws: WindowStack) -> Tensor:
    """Exact inverse of global_partition: un-window, crop, un-displace."""
    if not ws.displaced:
        raise ContractError("global_reverse received a non-displaced stack; use local_reverse")
    return _reverse(ws, ws.grid.p // 2)


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
