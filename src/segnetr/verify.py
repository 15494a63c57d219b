"""Self-verification suites shared by the CLI and the test gate.

``layout_suite`` exercises the layout transforms' exactness guarantees:
bitwise round trips for local/global windowing and patch merging across
P ∈ {1, 2, 4, 8}, value-multiset preservation, and displacement non-vacuity
(every 2P window after displacement draws from at least two distinct
un-displaced 2P-aligned blocks whenever the grid has at least 2×2 such
blocks).

``gradient_suite`` runs 64-bit central finite differences against recorded
gradients for every differentiable op and a full SegNetr block; affine ops
are held to 1e-6, everything else to 1e-3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import functional as F
from .autodiff.gradcheck import grad_check
from .autodiff.tensor import (
    Tensor,
    concat,
    exp,
    log,
    mean,
    pad,
    reshape,
    slice_,
    sqrt,
    sum_,
    transpose,
)
from .blocks import SegnetrBlock, WindowAttention, irsc_fuse
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


def gradient_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    checks: list[tuple[str, float, Callable[[], tuple]]] = []

    def case(name, tol, fn, *inputs):
        checks.append((name, tol, lambda: (fn, inputs)))

    a, b = _t(rng, 3, 4), _t(rng, 3, 4)
    row = _t(rng, 4)
    case("add broadcast", AFFINE_TOL, lambda x, y: x + y, a, row)
    case("sub", AFFINE_TOL, lambda x, y: x - y, a, b)
    case("mul", GENERAL_TOL, lambda x, y: x * y, a, b)
    case("div", GENERAL_TOL, lambda x, y: x / y, a, _t(rng, 3, 4, shift=4.0))
    case("neg", AFFINE_TOL, lambda x: -x, a)
    case("exp", GENERAL_TOL, exp, _t(rng, 3, 3, scale=0.5))
    case("log", GENERAL_TOL, log, _t(rng, 3, 3, shift=3.0))
    case("sqrt", GENERAL_TOL, sqrt, _t(rng, 3, 3, shift=3.0))
    case("relu", GENERAL_TOL, F.relu, _t(rng, 4, 4, shift=0.3))
    case("sigmoid", GENERAL_TOL, F.sigmoid, _t(rng, 4, 4))
    case("silu", GENERAL_TOL, F.silu, _t(rng, 4, 4))
    case("gelu", GENERAL_TOL, F.gelu, _t(rng, 4, 4))
    case("matmul", AFFINE_TOL, lambda x, y: x @ y, _t(rng, 3, 5), _t(rng, 5, 2))
    case("linear", AFFINE_TOL, lambda x, w, c: F.linear(x, w, c), _t(rng, 4, 6), _t(rng, 3, 6), _t(rng, 3))
    case("reshape", AFFINE_TOL, lambda x: reshape(x, (2, 8)), _t(rng, 4, 4))
    case("transpose", AFFINE_TOL, lambda x: transpose(x, (1, 0, 2)), _t(rng, 2, 3, 4))
    case("concat", AFFINE_TOL, lambda x, y: concat([x, y], axis=1), a, b)
    case("slice", AFFINE_TOL, lambda x: slice_(x, (slice(1, 3), slice(0, 2))), _t(rng, 4, 4))
    case("pad", AFFINE_TOL, lambda x: pad(x, ((1, 1), (0, 2))), _t(rng, 3, 3))
    case("sum", AFFINE_TOL, lambda x: sum_(x, axis=1), _t(rng, 3, 5))
    case("mean keepdims", AFFINE_TOL, lambda x: mean(x, axis=(1, 2), keepdims=True), _t(rng, 2, 3, 4))
    case("softmax", GENERAL_TOL, lambda x: F.softmax(x, axis=-1), _t(rng, 4, 6))
    case("log_softmax", GENERAL_TOL, lambda x: F.log_softmax(x, axis=1), _t(rng, 3, 5))

    conv_cases = [
        ("conv2d 3x3", dict(stride=1, padding=1, groups=1), (2, 3, 6, 6), (4, 3, 3, 3)),
        ("conv2d stride2", dict(stride=2, padding=0, groups=1), (1, 2, 7, 7), (3, 2, 3, 3)),
        ("conv2d grouped", dict(stride=1, padding=1, groups=2), (2, 4, 5, 5), (6, 2, 3, 3)),
        ("conv2d depthwise", dict(stride=1, padding=1, groups=4), (1, 4, 6, 6), (4, 1, 3, 3)),
        ("conv2d 1x1", dict(stride=1, padding=0, groups=1), (2, 5, 4, 4), (3, 5, 1, 1)),
    ]
    for name, kw, xs, wshape in conv_cases:
        case(
            name, AFFINE_TOL,
            lambda x, w, c, kw=kw: F.conv2d(x, w, c, **kw),
            _t(rng, *xs), _t(rng, *wshape, scale=0.5), _t(rng, wshape[0]),
        )

    case("bilinear_upsample2x", AFFINE_TOL, F.bilinear_upsample2x, _t(rng, 2, 3, 5, 4))
    case("global_avg_pool", AFFINE_TOL, F.global_avg_pool, _t(rng, 2, 3, 4, 4))
    case(
        "layer_norm", GENERAL_TOL,
        lambda x, g, c: F.layer_norm(x, g, c), _t(rng, 4, 6),
        _t(rng, 6, scale=0.2, shift=1.0), _t(rng, 6, scale=0.2),
    )
    rm, rv = np.zeros(5), np.ones(5)
    case(
        "batch_norm train", GENERAL_TOL,
        lambda x, g, c: F.batch_norm(x, g, c, rm.copy(), rv.copy(), True),
        _t(rng, 4, 5, 6, 6), _t(rng, 5, scale=0.2, shift=1.0), _t(rng, 5, scale=0.2),
    )
    case(
        "batch_norm eval", GENERAL_TOL,
        lambda x, g, c: F.batch_norm(x, g, c, rm + 0.3, rv + 0.5, False),
        _t(rng, 2, 5, 4, 4), _t(rng, 5, scale=0.2, shift=1.0), _t(rng, 5, scale=0.2),
    )
    case(
        "cross_entropy", GENERAL_TOL,
        lambda x: F.cross_entropy(x, np.array([[1, 0], [2, 1]])), _t(rng, 2, 3, 2),
    )

    def window_attention_case():
        wa = WindowAttention(4, rng=np.random.default_rng(7), dtype=np.float64)
        x = _t(rng, 4, 4, 3)

        def fn(xx, *params):
            return wa(local_partition(mean(xx, axis=-1, keepdims=True), 2))

        return fn, (x,) + tuple(p for _, p in wa.named_parameters())

    checks.append(("window_attention", GENERAL_TOL, window_attention_case))

    def layout_grad_case():
        x = _t(rng, 4, 4, 8)

        def fn(xx):
            ws = global_partition(xx, 1)
            back = global_reverse(ws)
            merged = patch_merge(back)
            return patch_reverse(alternate_select(merged))

        return fn, (x,)

    checks.append(("layout chain", AFFINE_TOL, layout_grad_case))

    def irsc_case():
        enc = _t(rng, 4, 4, 8)
        dec = _t(rng, 8, 8, 2)
        return (lambda e, d: irsc_fuse(e, d)), (enc, dec)

    checks.append(("irsc_fuse", AFFINE_TOL, irsc_case))

    def full_block_case():
        block = SegnetrBlock(4, 2, "parallel", rng=np.random.default_rng(11), dtype=np.float64)
        block.train()
        x = _t(rng, 2, 4, 8, 8, scale=0.5)
        labels = np.random.default_rng(3).integers(0, 4, size=(2, 8, 8))

        def fn(xx, *params):
            return F.cross_entropy(block(xx), labels)

        return fn, (x,) + tuple(p for _, p in block.named_parameters())

    checks.append(("segnetr block", GENERAL_TOL, full_block_case))

    results = []
    for name, tol, thunk in checks:
        fn, inputs = thunk()
        res = grad_check(fn, list(inputs))
        results.append(
            CheckResult(name, res.max_rel_error < tol, f"max rel err {res.max_rel_error:.3e} (tol {tol:g})")
        )
    return results
