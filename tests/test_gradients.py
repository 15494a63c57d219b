"""Backward-pass semantics, Adam behavior, and finite-difference checks."""

import weakref

import numpy as np
import pytest

from segnetr.autodiff import (
    Adam,
    Parameter,
    Tensor,
    backward,
    concat,
    conv2d,
    cross_entropy,
    gelu,
    grad_check,
    layer_norm,
    linear,
    mean,
    pad,
    relu,
    reshape,
    sigmoid,
    silu,
    softmax,
    sum_,
    transpose,
)
from segnetr.autodiff import batch_norm, batch_norm_silu, bilinear_upsample2x, global_avg_pool, log_softmax
from segnetr.autodiff.tensor import (
    _make_output,
    active_tape,
    exp,
    log,
    no_grad,
    slice_,
    sqrt,
)
from segnetr.blocks import BatchNorm2d, Conv2d, conv_norm
from segnetr.errors import ContractError

from .oracles import adam_naive


def t64(arr, rg=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=rg)


class TestBackward:
    def test_sum_gives_ones(self):
        x = t64(np.random.default_rng(0).standard_normal((3, 4)))
        backward(sum_(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_closed_form(self):
        x = t64([1.0, 2.0])
        backward(sum_(x * x))
        np.testing.assert_allclose(x.grad, [2.0, 4.0], rtol=1e-12)

    def test_fan_out_accumulates(self):
        x = t64(np.ones((2, 2)))
        backward(sum_(x) + sum_(x))
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))

    def test_non_scalar_loss_rejected(self):
        x = t64(np.ones(3))
        with pytest.raises(ContractError):
            backward(x * x)

    def test_untracked_leaf_gets_no_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=False, dtype=np.float64)
        w = t64(np.full((2, 2), 3.0))
        backward(sum_(x * w))
        assert x.grad is None
        np.testing.assert_array_equal(w.grad, np.ones((2, 2)))

    def test_tape_cleared_after_backward(self):
        x = t64(np.ones(4))
        loss = sum_(x * x)
        assert len(active_tape()) > 0
        backward(loss)
        assert len(active_tape()) == 0

    def test_saved_arrays_freed_during_backward(self):
        # a later op's saved array is gone by the time an earlier op's rule runs
        x = t64(np.ones(4))
        saved = np.arange(4.0)
        saved_ref = weakref.ref(saved)
        freed_when_earlier_rule_ran = []

        def earlier_rule(g):
            freed_when_earlier_rule_ran.append(saved_ref() is None)
            return (g,)

        h = _make_output(x.data * 2.0, (x,), earlier_rule)
        later = _make_output(h.data * saved, (h,), lambda g, s=saved: (g * s,))
        loss = sum_(later)
        del saved, h, later
        assert saved_ref() is not None
        backward(loss)
        assert freed_when_earlier_rule_ran == [True]
        assert len(active_tape()) == 0
        np.testing.assert_array_equal(x.grad, np.arange(4.0))

    def test_no_grad_records_nothing(self):
        x = t64(np.ones(4))
        with no_grad():
            y = x * x + x
        assert len(active_tape()) == 0
        assert y.grad is None

    def test_parameter_used_twice_gets_both_contributions(self):
        rng = np.random.default_rng(5)
        x1, x2 = rng.standard_normal((2, 3, 4, 4)), rng.standard_normal((2, 3, 4, 4))
        g1, g2 = rng.standard_normal((2, 5, 4, 4)), rng.standard_normal((2, 5, 4, 4))
        w = t64(rng.standard_normal((5, 3, 1, 1)))

        def loss(*pairs):
            return sum_(concat([conv2d(t64(x, rg=False), w) * t64(g, rg=False) for x, g in pairs], axis=0))

        separate = []
        for pair in ((x1, g1), (x2, g2)):
            w.zero_grad()
            backward(loss(pair))
            separate.append(w.grad)
        w.zero_grad()
        backward(loss((x1, g1), (x2, g2)))
        np.testing.assert_array_equal(w.grad, separate[0] + separate[1])

    def test_leaf_grad_is_not_shared(self):
        # add passes one gradient array to both operands, and the backward
        # sweep reaches x + y before sum_(x); each leaf must get its own copy,
        # so neither a later contribution nor an in-place edit of the
        # returned grad reaches the other leaf or a later graph
        x, y = t64(np.ones(3)), t64(np.ones(3))
        backward(sum_(x) + sum_(x + y))
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
        np.testing.assert_array_equal(y.grad, np.ones(3))
        y.grad *= 7.0
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
        x.zero_grad()
        y.zero_grad()
        backward(sum_(x) + sum_(x + y))
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
        np.testing.assert_array_equal(y.grad, np.ones(3))

    def test_grad_accumulates_across_backward_calls(self):
        x = t64(np.ones(3))
        backward(sum_(x))
        backward(sum_(x))
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))

    def test_consumed_graph_raises(self):
        # backward(l1) empties the tape, l2's entries included; l2 then has
        # no graph left, and its backward must say so instead of returning
        # with every grad still None
        x = t64(np.ones(3))
        l1, l2 = sum_(x * x), sum_(x + x)
        backward(l1)
        x.zero_grad()
        with pytest.raises(ContractError, match="no longer on the tape"):
            backward(l2)
        assert x.grad is None

    def test_repeated_backward_raises(self):
        x = t64(np.ones(3))
        loss = sum_(x * x)
        backward(loss)
        with pytest.raises(ContractError):
            backward(loss)
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))

    def test_raise_leaves_pending_graph_intact(self):
        x = t64(np.ones(3))
        stale = sum_(x * x)
        backward(stale)
        live = sum_(x * 3.0)
        pending = len(active_tape())
        x.zero_grad()
        with pytest.raises(ContractError):
            backward(stale)
        assert len(active_tape()) == pending
        backward(live)
        np.testing.assert_array_equal(x.grad, np.full(3, 3.0))


class TestAdam:
    def test_missing_gradient_leaves_parameter_unchanged(self):
        p = Parameter(np.array([1.0, -2.0]))
        before = p.data.copy()
        Adam([p], lr=0.1).step()
        np.testing.assert_array_equal(p.data, before)

    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = Parameter(np.array([1.0, -2.0]))
        p.grad = np.zeros(2)
        Adam([p], lr=0.1).step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_magnitude_bounded_by_lr(self):
        rng = np.random.default_rng(1)
        p = Parameter(rng.standard_normal(16))
        before = p.data.copy()
        p.grad = rng.standard_normal(16) * 10.0
        Adam([p], lr=1e-3).step()
        assert np.all(np.abs(p.data - before) <= 1e-3 * (1.0 + 1e-6))

    def test_three_steps_on_quadratic_shrink_x(self):
        p = Parameter(np.array(1.0))
        opt = Adam([p], lr=0.1)
        magnitudes = [abs(float(p.data))]
        for _ in range(3):
            opt.zero_grad()
            backward(p * p)
            opt.step()
            magnitudes.append(abs(float(p.data)))
        assert all(b < a for a, b in zip(magnitudes, magnitudes[1:]))

    def test_matches_scalar_simulation(self):
        grads = [2.0, -0.7, 0.3, 1.1]
        p = Parameter(np.array(1.0))
        opt = Adam([p], lr=0.05)
        got = []
        for g in grads:
            p.grad = np.array(g)
            opt.step()
            got.append(float(p.data))
        np.testing.assert_allclose(got, adam_naive(1.0, grads, lr=0.05), rtol=1e-6)

    def test_step_counter_increments(self):
        p = Parameter(np.array(1.0))
        opt = Adam([p])
        for want in (1, 2, 3):
            p.grad = np.array(1.0)
            opt.step()
            assert opt.state.step == want


class TestGradCheckExamples:
    def test_linear_is_exact(self):
        rng = np.random.default_rng(2)
        res = grad_check(
            linear,
            [t64(rng.standard_normal((4, 6))), t64(rng.standard_normal((3, 6))), t64(rng.standard_normal(3))],
        )
        assert res.max_rel_error < 1e-9
        assert len(res.per_input) == 3

    def test_softmax(self):
        res = grad_check(lambda x: softmax(x, axis=-1), [t64(np.random.default_rng(3).standard_normal((4, 5)))])
        assert res.max_rel_error < 1e-6

    def test_conv2d(self):
        rng = np.random.default_rng(4)
        res = grad_check(
            lambda x, w, b: conv2d(x, w, b, padding=1),
            [t64(rng.standard_normal((1, 2, 5, 5))), t64(rng.standard_normal((3, 2, 3, 3))), t64(rng.standard_normal(3))],
        )
        assert res.max_rel_error < 1e-6


AFFINE = 1e-6
GENERAL = 1e-3


def _op_inventory(rng):
    """One small random case per differentiable op, extents at most 8."""

    def t(*shape, scale=1.0, shift=0.0):
        return t64(rng.standard_normal(shape) * scale + shift)

    labels = rng.integers(0, 3, size=(2, 3, 1))
    rm, rv = np.zeros(4), np.ones(4)
    eval_rm, eval_rv = np.linspace(-0.3, 0.3, 4), np.linspace(0.5, 1.5, 4)
    return [
        ("add", AFFINE, lambda x, y: x + y, [t(3, 4), t(4)]),
        ("sub", AFFINE, lambda x, y: x - y, [t(3, 4), t(3, 4)]),
        ("mul", GENERAL, lambda x, y: x * y, [t(3, 4), t(3, 4)]),
        ("div", GENERAL, lambda x, y: x / y, [t(3, 4), t(3, 4, shift=4.0)]),
        ("neg", AFFINE, lambda x: -x, [t(5)]),
        ("exp", GENERAL, exp, [t(3, 3, scale=0.5)]),
        ("log", GENERAL, log, [t(3, 3, shift=3.0)]),
        ("sqrt", GENERAL, sqrt, [t(3, 3, shift=3.0)]),
        ("relu", GENERAL, relu, [t(4, 4, shift=0.3)]),
        ("sigmoid", GENERAL, sigmoid, [t(4, 4)]),
        ("silu", GENERAL, silu, [t(4, 4)]),
        ("gelu", GENERAL, gelu, [t(4, 4)]),
        ("matmul", AFFINE, lambda x, y: x @ y, [t(3, 5), t(5, 2)]),
        ("linear", AFFINE, linear, [t(4, 6), t(3, 6), t(3)]),
        ("reshape", AFFINE, lambda x: reshape(x, (2, 8)), [t(4, 4)]),
        ("transpose", AFFINE, lambda x: transpose(x, (1, 0, 2)), [t(2, 3, 4)]),
        ("concat", AFFINE, lambda x, y: concat([x, y], axis=1), [t(3, 2), t(3, 4)]),
        ("slice", AFFINE, lambda x: slice_(x, (slice(1, 3), slice(0, 2))), [t(4, 4)]),
        ("pad", AFFINE, lambda x: pad(x, ((1, 1), (0, 2))), [t(3, 3)]),
        ("sum", AFFINE, lambda x: sum_(x, axis=1), [t(3, 5)]),
        ("mean", AFFINE, lambda x: mean(x, axis=(1, 2), keepdims=True), [t(2, 3, 4)]),
        ("softmax", GENERAL, lambda x: softmax(x, axis=-1), [t(4, 6)]),
        ("log_softmax", GENERAL, lambda x: log_softmax(x, axis=1), [t(3, 5)]),
        ("conv2d", AFFINE, lambda x, w, b: conv2d(x, w, b, stride=1, padding=1), [t(1, 2, 5, 5), t(3, 2, 3, 3, scale=0.5), t(3)]),
        ("conv2d grouped", AFFINE, lambda x, w, b: conv2d(x, w, b, stride=2, padding=1, groups=2), [t(1, 4, 6, 6), t(4, 2, 3, 3, scale=0.5), t(4)]),
        ("bilinear", AFFINE, bilinear_upsample2x, [t(1, 2, 3, 4)]),
        ("global_avg_pool", AFFINE, global_avg_pool, [t(2, 3, 4, 4)]),
        ("layer_norm", GENERAL, layer_norm, [t(4, 6), t(6, scale=0.2, shift=1.0), t(6, scale=0.2)]),
        ("batch_norm", GENERAL, lambda x, g, b: batch_norm(x, g, b, rm.copy(), rv.copy(), True), [t(3, 4, 4, 4), t(4, scale=0.2, shift=1.0), t(4, scale=0.2)]),
        ("cross_entropy", GENERAL, lambda x: cross_entropy(x, labels), [t(2, 3, 3, 1)]),
        ("conv2d depthwise", AFFINE, lambda x, w, b: conv2d(x, w, b, stride=1, padding=1, groups=3), [t(2, 3, 5, 6), t(3, 1, 3, 3, scale=0.5), t(3)]),
        ("conv2d depthwise strided", AFFINE, lambda x, w: conv2d(x, w, stride=2, padding=1, groups=3), [t(2, 3, 5, 6), t(3, 1, 3, 3, scale=0.5)]),
        ("batch_norm eval", AFFINE, lambda x, g, b: batch_norm(x, g, b, eval_rm, eval_rv, False), [t(3, 4, 4, 4), t(4, scale=0.2, shift=1.0), t(4, scale=0.2)]),
        ("conv2d 1x1", AFFINE, lambda x, w, b: conv2d(x, w, b), [t(2, 3, 4, 5), t(4, 3, 1, 1, scale=0.5), t(4)]),
        ("conv2d 1x1 strided", AFFINE, lambda x, w: conv2d(x, w, stride=2), [t(3, 3, 5, 6), t(4, 3, 1, 1, scale=0.5)]),
        ("conv2d 1x1 on a 1x1 map", AFFINE, lambda x, w, b: conv2d(x, w, b), [t(3, 5, 1, 1), t(4, 5, 1, 1, scale=0.5), t(4)]),
        ("conv_norm eval", GENERAL, _conv_norm_eval(eval_rm, eval_rv), [t(2, 3, 5, 6), t(4, 3, 3, 3, scale=0.5), t(4, scale=0.2, shift=1.0), t(4, scale=0.2)]),
        ("batch_norm_silu", GENERAL, lambda x, g, b: batch_norm_silu(x, g, b, rm.copy(), rv.copy()), [t(3, 4, 4, 4), t(4, scale=0.2, shift=1.0), t(4, scale=0.2)]),
    ]


def _conv_norm_eval(running_mean, running_var):
    """``(x, W, γ, β) ↦ conv_norm(x, conv, norm)`` for a 3×3 padded conv and
    an eval-mode norm holding the given running statistics."""

    def fn(x, w, g, b):
        conv = Conv2d(3, 4, 3, padding=1, bias=False, rng=np.random.default_rng(0), dtype=np.float64)
        norm = BatchNorm2d(4, dtype=np.float64).eval()
        norm.running_mean[...], norm.running_var[...] = running_mean, running_var
        conv.weight, norm.gamma, norm.beta = w, g, b
        return conv_norm(x, conv, norm)

    return fn


@pytest.mark.parametrize("seed", range(20))
def test_every_op_passes_finite_differences(seed):
    rng = np.random.default_rng(seed + 100)
    for name, tol, fn, inputs in _op_inventory(rng):
        res = grad_check(fn, inputs)
        assert res.max_rel_error < tol, f"{name}: {res.max_rel_error:.3e} >= {tol:g}"
