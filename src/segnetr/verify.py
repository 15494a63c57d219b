"""Self-verification suites shared by the CLI and the test gate.

``layout_suite`` exercises the layout transforms' exactness guarantees:
bitwise round trips for local/global windowing and patch merging across
P ∈ {1, 2, 4, 8}, value-multiset preservation, and displacement non-vacuity
(every 2P window after displacement draws from at least two distinct
un-displaced 2P-aligned blocks whenever the grid has at least 2×2 such
blocks).

``op_cases`` is the one list of op gradient cases: a small random case per
differentiable op and per conv and norm configuration.  ``gradient_suite``
runs 64-bit central finite differences against recorded gradients for each
of them, then for window attention, a layout chain, the IRSC fuse and a
full SegNetr block; affine ops are held to 1e-6, everything else to 1e-3.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import functional as F
from .autodiff.gradcheck import grad_check
from .autodiff.tensor import (
    Tensor,
    concat,
    mean,
    pad,
    reshape,
    slice_,
    sum_,
    transpose,
)
from .blocks import BatchNorm2d, Conv2d, SegnetrBlock, WindowAttention, conv_norm, irsc_fuse
from .layout import (
    DisplacementSpec,
    alternate_select,
    displace,
    global_partition,
    global_reverse,
    local_partition,
    local_reverse,
    patch_merge,
    patch_reverse,
)

AFFINE_TOL = 1e-6
GENERAL_TOL = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _round_trip_cases(rng: np.random.Generator, p: int, n_cases: int):
    """Random HWC shapes whose extents are multiples of p (odd multiples of
    p but not of 2p appear too, exercising the padded global path)."""
    for _ in range(n_cases):
        h = p * int(rng.integers(1, 7))
        w = p * int(rng.integers(1, 7))
        c = int(rng.integers(1, 5))
        lead = (int(rng.integers(1, 3)),) if rng.random() < 0.5 else ()
        yield Tensor(rng.standard_normal(lead + (h, w, c)).astype(np.float32))


def layout_suite(seed: int = 0, cases_per_p: int = 50) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    for p in (1, 2, 4, 8):
        lr_ok = gr_ok = pr_ok = multiset_ok = True
        detail = ""
        for x in _round_trip_cases(rng, p, cases_per_p):
            back = local_reverse(local_partition(x, p))
            if not np.array_equal(back.data, x.data):
                lr_ok, detail = False, f"LR∘LP mismatch at {x.shape}"
                break
            ws = global_partition(x, p, pad=True)
            reference = np.concatenate(
                [x.data.reshape(-1), np.zeros(ws.windows.size - x.size, dtype=x.data.dtype)]
            )
            if not np.array_equal(np.sort(ws.windows.data, axis=None), np.sort(reference)):
                multiset_ok, detail = False, f"GP multiset changed at {x.shape}"
                break
            back = global_reverse(ws)
            if not np.array_equal(back.data, x.data):
                gr_ok, detail = False, f"GR∘GP mismatch at {x.shape}"
                break
            he, we = x.shape[-3] - x.shape[-3] % 2, x.shape[-2] - x.shape[-2] % 2
            if he and we:
                even = slice_(x, (Ellipsis, slice(0, he), slice(0, we), slice(None)))
                back = patch_reverse(patch_merge(even))
                if not np.array_equal(back.data, even.data):
                    pr_ok, detail = False, f"PR∘PM mismatch at {even.shape}"
                    break
        results.append(CheckResult(f"round-trips p={p}", lr_ok and gr_ok and pr_ok and multiset_ok, detail))
    results.append(_non_vacuity())
    return results


def _non_vacuity() -> CheckResult:
    """Provenance check: displace block-id labels and demand every 2P window
    mixes ≥ 2 source blocks, on every grid with ≥ 2×2 blocks of size 2P."""
    for p in (1, 2, 4, 8):
        win = 2 * p
        for bh in (2, 3, 4):
            for bw in (2, 3, 5):
                h, w = bh * win, bw * win
                ids = (np.arange(h)[:, None] // win) * bw + (np.arange(w)[None, :] // win)
                labels = Tensor(ids.astype(np.float32)[..., None])
                moved = displace(labels, DisplacementSpec(p))
                ws = local_partition(moved, win)
                flat = ws.windows.data.reshape(ws.grid.num_windows, -1)
                counts = (np.sort(flat, axis=1)[:, 1:] != np.sort(flat, axis=1)[:, :-1]).sum(axis=1) + 1
                if counts.min() < 2:
                    return CheckResult(
                        "displacement non-vacuity", False,
                        f"p={p} grid {bh}x{bw}: window with single source block",
                    )
    return CheckResult("displacement non-vacuity", True)


# -- gradient suite ----------------------------------------------------------


def _t(rng: np.random.Generator, *shape: int, scale: float = 1.0, shift: float = 0.0) -> Tensor:
    return Tensor(rng.standard_normal(shape) * scale + shift, requires_grad=True, dtype=np.float64)


def _conv(**kw) -> Callable[..., Tensor]:
    return lambda x, w, b=None: F.conv2d(x, w, b, **kw)


def _conv_norm_eval(running_mean: np.ndarray, running_var: np.ndarray) -> Callable[..., Tensor]:
    """``(x, W, γ, β) ↦ conv_norm(x, conv, norm)`` for a 3×3 padded conv and
    an eval-mode norm holding the given running statistics; the modules are
    built once and take the checked tensors on every call."""
    conv = Conv2d(3, 4, 3, padding=1, bias=False, rng=np.random.default_rng(0), dtype=np.float64)
    norm = BatchNorm2d(4, dtype=np.float64).eval()
    norm.running_mean[...], norm.running_var[...] = running_mean, running_var

    def fn(x, w, g, b):
        conv.weight, norm.gamma, norm.beta = w, g, b
        return conv_norm(x, conv, norm)

    return fn


OpCase = tuple[str, float, Callable[..., Tensor], list[Tensor]]


def op_cases(rng: np.random.Generator) -> list[OpCase]:
    """``(name, tol, fn, inputs)``: one small random float64 case per
    differentiable op and per conv and norm configuration the system runs,
    extents at most 8.  This is the only op list: ``gradient_suite`` checks
    it, and the tests check it again over more seeds."""
    t = functools.partial(_t, rng)

    def affine(c):
        return [t(c, scale=0.2, shift=1.0), t(c, scale=0.2)]

    labels = rng.integers(0, 3, size=(2, 3, 1))
    rm, rv = np.zeros(4), np.ones(4)
    eval_rm, eval_rv = np.linspace(-0.3, 0.3, 4), np.linspace(0.5, 1.5, 4)
    return [
        ("add broadcast", AFFINE_TOL, lambda x, y: x + y, [t(3, 4), t(4)]),
        ("sub", AFFINE_TOL, lambda x, y: x - y, [t(3, 4), t(3, 4)]),
        ("mul", GENERAL_TOL, lambda x, y: x * y, [t(3, 4), t(3, 4)]),
        ("sigmoid", GENERAL_TOL, F.sigmoid, [t(4, 4)]),
        ("silu", GENERAL_TOL, F.silu, [t(4, 4)]),
        ("gelu", GENERAL_TOL, F.gelu, [t(4, 4)]),
        ("linear", AFFINE_TOL, F.linear, [t(4, 6), t(3, 6), t(3)]),
        ("reshape", AFFINE_TOL, lambda x: reshape(x, (2, 8)), [t(4, 4)]),
        ("transpose", AFFINE_TOL, lambda x: transpose(x, (1, 0, 2)), [t(2, 3, 4)]),
        ("concat", AFFINE_TOL, lambda x, y: concat([x, y], axis=1), [t(3, 2), t(3, 4)]),
        ("slice", AFFINE_TOL, lambda x: slice_(x, (slice(1, 3), slice(0, 2))), [t(4, 4)]),
        ("pad", AFFINE_TOL, lambda x: pad(x, ((1, 1), (0, 2))), [t(3, 3)]),
        ("sum", AFFINE_TOL, lambda x: sum_(x, axis=1), [t(3, 5)]),
        ("mean keepdims", AFFINE_TOL, lambda x: mean(x, axis=(1, 2), keepdims=True), [t(2, 3, 4)]),
        ("softmax", GENERAL_TOL, lambda x: F.softmax(x, axis=-1), [t(4, 6)]),
        ("conv2d 3x3", AFFINE_TOL, _conv(padding=1), [t(1, 2, 5, 5), t(3, 2, 3, 3, scale=0.5), t(3)]),
        ("conv2d stride2", AFFINE_TOL, _conv(stride=2), [t(1, 2, 7, 7), t(3, 2, 3, 3, scale=0.5), t(3)]),
        ("conv2d grouped", AFFINE_TOL, _conv(padding=1, groups=2), [t(2, 4, 5, 5), t(6, 2, 3, 3, scale=0.5), t(6)]),
        ("conv2d grouped strided", AFFINE_TOL, _conv(stride=2, padding=1, groups=2),
         [t(1, 4, 6, 6), t(4, 2, 3, 3, scale=0.5), t(4)]),
        ("conv2d depthwise", AFFINE_TOL, _conv(padding=1, groups=4), [t(1, 4, 6, 6), t(4, 1, 3, 3, scale=0.5), t(4)]),
        ("conv2d depthwise strided", AFFINE_TOL, _conv(stride=2, padding=1, groups=3),
         [t(2, 3, 5, 6), t(3, 1, 3, 3, scale=0.5)]),
        ("conv2d 1x1", AFFINE_TOL, _conv(), [t(2, 3, 4, 5), t(4, 3, 1, 1, scale=0.5), t(4)]),
        ("conv2d 1x1 strided", AFFINE_TOL, _conv(stride=2), [t(3, 3, 5, 6), t(4, 3, 1, 1, scale=0.5)]),
        ("conv2d 1x1 on a 1x1 map", AFFINE_TOL, _conv(), [t(3, 5, 1, 1), t(4, 5, 1, 1, scale=0.5), t(4)]),
        ("bilinear_upsample2x", AFFINE_TOL, F.bilinear_upsample2x, [t(1, 2, 3, 4)]),
        ("global_avg_pool", AFFINE_TOL, F.global_avg_pool, [t(2, 3, 4, 4)]),
        ("layer_norm", GENERAL_TOL, F.layer_norm, [t(4, 6), *affine(6)]),
        ("batch_norm train", GENERAL_TOL, lambda x, g, b: F.batch_norm(x, g, b, rm.copy(), rv.copy(), True),
         [t(3, 4, 4, 4), *affine(4)]),
        ("batch_norm eval", AFFINE_TOL, lambda x, g, b: F.batch_norm(x, g, b, eval_rm, eval_rv, False),
         [t(3, 4, 4, 4), *affine(4)]),
        ("batch_norm_silu", GENERAL_TOL, lambda x, g, b: F.batch_norm_silu(x, g, b, rm.copy(), rv.copy()),
         [t(3, 4, 4, 4), *affine(4)]),
        ("conv_norm eval", GENERAL_TOL, _conv_norm_eval(eval_rm, eval_rv),
         [t(2, 3, 5, 6), t(4, 3, 3, 3, scale=0.5), *affine(4)]),
        ("cross_entropy", GENERAL_TOL, lambda x: F.cross_entropy(x, labels), [t(2, 3, 3, 1)]),
    ]


def _window_attention_case(rng: np.random.Generator):
    wa = WindowAttention(4, rng=np.random.default_rng(7), dtype=np.float64)

    def fn(xx, *params):
        return wa(local_partition(mean(xx, axis=-1, keepdims=True), 2))

    return fn, [_t(rng, 4, 4, 3), *(p for _, p in wa.named_parameters())]


def _layout_chain_case(rng: np.random.Generator):
    def fn(xx):
        merged = patch_merge(global_reverse(global_partition(xx, 1)))
        return patch_reverse(alternate_select(merged))

    return fn, [_t(rng, 4, 4, 8)]


def _irsc_case(rng: np.random.Generator):
    return irsc_fuse, [_t(rng, 4, 4, 8), _t(rng, 8, 8, 2)]


def _block_case(rng: np.random.Generator):
    block = SegnetrBlock(4, 2, "parallel", rng=np.random.default_rng(11), dtype=np.float64)
    block.train()
    labels = np.random.default_rng(3).integers(0, 4, size=(2, 8, 8))

    def fn(xx, *params):
        return F.cross_entropy(block(xx), labels)

    return fn, [_t(rng, 2, 4, 8, 8, scale=0.5), *(p for _, p in block.named_parameters())]


_MODULE_CASES = (
    ("window_attention", GENERAL_TOL, _window_attention_case),
    ("layout chain", AFFINE_TOL, _layout_chain_case),
    ("irsc_fuse", AFFINE_TOL, _irsc_case),
    ("segnetr block", GENERAL_TOL, _block_case),
)


def gradient_suite(seed: int = 0) -> list[CheckResult]:
    """One check per ``op_cases`` case, then one per module case."""
    rng = np.random.default_rng(seed)
    checks = op_cases(rng) + [(name, tol, *build(rng)) for name, tol, build in _MODULE_CASES]
    results = []
    for name, tol, fn, inputs in checks:
        res = grad_check(fn, inputs)
        results.append(
            CheckResult(name, res.max_rel_error < tol, f"max rel err {res.max_rel_error:.3e} (tol {tol:g})")
        )
    return results
