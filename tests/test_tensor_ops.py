"""Forward-value tests for the tensor ops: hand cases plus naive oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segnetr.autodiff import (
    Tensor,
    backward,
    bilinear_upsample2x,
    concat,
    conv2d,
    cross_entropy,
    gelu,
    layer_norm,
    linear,
    matmul,
    mean,
    relu,
    reshape,
    sigmoid,
    silu,
    softmax,
    transpose,
)
from segnetr.autodiff import batch_norm, batch_norm_silu, no_grad, sum_
from segnetr.autodiff.functional import _interp_matrix
from segnetr.autodiff.tensor import mul
from segnetr.errors import ShapeError, ValidationError

from .conftest import _root, closure_arrays, graph_saved_bytes
from .oracles import (
    batch_norm_silu_naive,
    bilinear2x_naive,
    conv2d_naive,
    cross_entropy_naive,
    depthwise_grad_naive,
    gelu_tanh_reference,
    gelu_two_buffer,
    layer_norm_naive,
    linear_naive,
    matmul_naive,
    sigmoid_reference,
    silu_reference,
    silu_two_buffer,
    softmax_grad_naive,
    softmax_naive,
)


def t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestRearrange:
    def test_reshape_preserves_row_major_values(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        y = reshape(x, (3, 2))
        assert y.shape == (3, 2)
        np.testing.assert_array_equal(y.data.ravel(), x.data.ravel())

    def test_permute_then_inverse_is_identity(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 4, 5)))
        y = transpose(transpose(x, (2, 0, 1)), (1, 2, 0))
        np.testing.assert_array_equal(y.data, x.data)

    def test_concat_rows_in_argument_order(self):
        a = Tensor(np.full((1, 4), 1.0))
        b = Tensor(np.full((1, 4), 2.0))
        y = concat([a, b], axis=0)
        assert y.shape == (2, 4)
        np.testing.assert_array_equal(y.data[0], 1.0)
        np.testing.assert_array_equal(y.data[1], 2.0)

    def test_bad_reshape_raises(self):
        with pytest.raises(ShapeError):
            reshape(Tensor(np.zeros((2, 3))), (4, 2))


class TestMatmulLinear:
    def test_matmul_identity(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        y = matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(y.data, a.data)

    def test_matmul_against_triple_loop(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal((5, 2))
        got = matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, matmul_naive(a, b), rtol=1e-12)

    def test_linear_identity(self):
        x = Tensor(np.array([[3.0, -7.0]]))
        y = linear(x, Tensor(np.eye(2)), Tensor(np.zeros(2)))
        np.testing.assert_array_equal(y.data, x.data)

    def test_linear_hand_case(self):
        x = Tensor(np.array([1.0, 2.0]))
        w = Tensor(np.array([[1.0, 1.0], [1.0, -1.0]]))
        y = linear(x, w, Tensor(np.zeros(2)))
        np.testing.assert_allclose(y.data, [3.0, -1.0])

    def test_linear_matches_matmul_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 6))
        w = rng.standard_normal((3, 6))
        b = rng.standard_normal(3)
        got = linear(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(got, matmul_naive(x, w.T) + b, rtol=1e-6)

    def test_linear_width_mismatch(self):
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


class TestSoftmax:
    def test_uniform_input(self):
        y = softmax(Tensor(np.zeros(4)), axis=-1)
        np.testing.assert_allclose(y.data, 0.25)

    def test_large_inputs_do_not_overflow(self):
        y = softmax(Tensor(np.array([1000.0, 1000.0])), axis=-1)
        assert np.all(np.isfinite(y.data))
        np.testing.assert_allclose(y.data, [0.5, 0.5])

    @pytest.mark.parametrize("row, want", [([-1000.0, -1000.0], [0.5, 0.5]), ([1000.0, -1000.0], [1.0, 0.0])])
    def test_extreme_inputs_stay_finite(self, row, want):
        x = Tensor(np.array(row, dtype=np.float32), requires_grad=True)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            y = softmax(x, axis=-1)
            backward(sum_(y * Tensor(np.array([1.0, -2.0], dtype=np.float32))))
        np.testing.assert_allclose(y.data, want)
        assert np.all(np.isfinite(x.grad))

    def test_closed_form_quarter(self):
        y = softmax(t64([0.0, math.log(3.0)]), axis=-1)
        np.testing.assert_allclose(y.data, [0.25, 0.75], rtol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, row):
        y = softmax(Tensor(np.asarray(row, dtype=np.float32)), axis=-1)
        assert abs(float(y.data.sum()) - 1.0) <= 1e-6
        assert np.all(y.data > 0) and np.all(y.data < 1.0 + 1e-6)


def _rows(a):
    return a.reshape(-1, a.shape[-1])


class TestFusedOps:
    """linear, layer_norm, softmax and cross_entropy are one recorded op each
    with a hand-written rule: forward values and every input and parameter
    gradient against the float64 scalar oracles."""

    TOL = {np.float64: 1e-12, np.float32: 2e-5}

    def _run(self, op, arrays, dtype, seed):
        rng = np.random.default_rng(seed)
        inputs = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
        y = op(*inputs)
        g = np.asarray(rng.standard_normal(y.shape)).astype(dtype)
        backward(sum_(y * Tensor(g)))
        assert y._node is None
        assert y.data.dtype == dtype and all(t.grad.dtype == dtype for t in inputs)
        return y.data, g, [t.grad for t in inputs]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("shape", [(5,), (4, 5), (2, 3, 5)])
    def test_linear(self, shape, bias, dtype):
        rng = np.random.default_rng(90)
        x, w, b = rng.standard_normal(shape), rng.standard_normal((4, 5)), rng.standard_normal(4)
        arrays = [x, w, b] if bias else [x, w]
        y, g, grads = self._run(linear, arrays, dtype, 91)
        want_y, gx, gw, gb = linear_naive(_rows(x.astype(dtype)), w.astype(dtype),
                                          b.astype(dtype) if bias else None, _rows(g))
        tol = self.TOL[dtype]
        assert y.shape == shape[:-1] + (4,)
        np.testing.assert_allclose(_rows(y), want_y, rtol=0, atol=tol)
        np.testing.assert_allclose(_rows(grads[0]), gx, rtol=0, atol=tol)
        np.testing.assert_allclose(grads[1], gw, rtol=0, atol=tol)
        if bias:
            np.testing.assert_allclose(grads[2], gb, rtol=0, atol=tol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm(self, dtype):
        rng = np.random.default_rng(92)
        x = rng.standard_normal((3, 2, 7)) * 2.0 + 0.5
        gamma, beta = rng.standard_normal(7) * 0.3 + 1.0, rng.standard_normal(7) * 0.3
        y, g, (gx, ggamma, gbeta) = self._run(layer_norm, [x, gamma, beta], dtype, 93)
        want = layer_norm_naive(_rows(x.astype(dtype)), gamma.astype(dtype), beta.astype(dtype), _rows(g))
        for got, ref in zip((y, gx, ggamma, gbeta), want):
            np.testing.assert_allclose(_rows(got) if got.ndim > 1 else got, ref, rtol=0, atol=self.TOL[dtype])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis", [-1, 1])
    def test_softmax(self, axis, dtype):
        x = np.random.default_rng(94).standard_normal((3, 4, 6)) * 3.0
        y, g, (gx,) = self._run(lambda t: softmax(t, axis=axis), [x], dtype, 95)
        xs, ys, gs, gxs = (np.moveaxis(a, axis, -1) for a in (x.astype(dtype), y, g, gx))
        for idx in np.ndindex(*xs.shape[:-1]):
            np.testing.assert_allclose(ys[idx], softmax_naive([float(v) for v in xs[idx]]),
                                       rtol=0, atol=self.TOL[dtype])
            np.testing.assert_allclose(gxs[idx], softmax_grad_naive(xs[idx], gs[idx]),
                                       rtol=0, atol=self.TOL[dtype])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cross_entropy(self, dtype):
        rng = np.random.default_rng(96)
        logits = rng.standard_normal((2, 3, 4, 5)) * 2.0
        labels = rng.integers(0, 3, size=(2, 4, 5))
        loss, g, (gz,) = self._run(lambda t: cross_entropy(t, labels), [logits], dtype, 97)
        want_loss, want_grad = cross_entropy_naive(logits.astype(dtype), labels)
        assert loss.shape == ()
        np.testing.assert_allclose(loss, want_loss, rtol=0, atol=self.TOL[dtype])
        np.testing.assert_allclose(gz, want_grad * float(g), rtol=0, atol=self.TOL[dtype])


class TestConv:
    def test_identity_1x1(self):
        x = Tensor(np.random.default_rng(3).standard_normal((1, 2, 4, 4)))
        w = Tensor(np.eye(2).reshape(2, 2, 1, 1))
        y = conv2d(x, w, Tensor(np.zeros(2)))
        np.testing.assert_allclose(y.data, x.data, rtol=1e-6)

    def test_depthwise_box_sum(self):
        # channel c sums its 3x3 neighbourhood with weight c + 1
        x = Tensor(np.ones((1, 3, 5, 5)))
        w = Tensor(np.arange(1.0, 4.0).reshape(3, 1, 1, 1) * np.ones((3, 1, 3, 3)))
        y = conv2d(x, w, stride=1, padding=1, groups=3).data[0]
        for c in range(3):
            k = c + 1.0
            assert y[c, 2, 2] == 9.0 * k
            assert y[c, 0, 2] == 6.0 * k and y[c, 2, 4] == 6.0 * k
            assert y[c, 0, 0] == 4.0 * k and y[c, 0, 4] == 4.0 * k
            assert y[c, 4, 0] == 4.0 * k and y[c, 4, 4] == 4.0 * k

    @pytest.mark.parametrize("dtype, atol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_depthwise_against_oracle(self, padding, stride, kernel, dtype, atol):
        rng = np.random.default_rng(40 + 4 * padding + 2 * stride + kernel)
        x = rng.standard_normal((2, 3, 5, 7)).astype(dtype)
        w = rng.standard_normal((3, 1, kernel, kernel)).astype(dtype)
        b = rng.standard_normal(3).astype(dtype)
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding, groups=3).data
        want = conv2d_naive(x, w, b, stride=stride, padding=padding, groups=3)
        assert got.dtype == dtype and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)

    # float32: atol 1e-5 is about ten ulps at the largest |gw| here (8–16)
    @pytest.mark.parametrize("dtype, atol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_depthwise_grad_against_oracle(self, padding, stride, kernel, dtype, atol):
        rng = np.random.default_rng(80 + 4 * padding + 2 * stride + kernel)
        x = rng.standard_normal((2, 3, 5, 7)).astype(dtype)
        w = rng.standard_normal((3, 1, kernel, kernel)).astype(dtype)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        y = conv2d(xt, wt, stride=stride, padding=padding, groups=3)
        g = rng.standard_normal(y.shape).astype(dtype)
        backward(sum_(y * Tensor(g)))
        want_gx, want_gw = depthwise_grad_naive(x, w, g, stride=stride, padding=padding)
        assert xt.grad.dtype == dtype and wt.grad.dtype == dtype
        np.testing.assert_allclose(xt.grad, want_gx, rtol=0, atol=atol)
        np.testing.assert_allclose(wt.grad, want_gw, rtol=0, atol=atol)

    @pytest.mark.parametrize("dtype, atol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("n", [1, 3])
    def test_1x1_against_oracle(self, n, stride, bias, dtype, atol):
        rng = np.random.default_rng(60 + 4 * n + 2 * stride + bias)
        x = rng.standard_normal((n, 5, 6, 7)).astype(dtype)
        w = rng.standard_normal((4, 5, 1, 1)).astype(dtype)
        b = rng.standard_normal(4).astype(dtype) if bias else None
        got = conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b), stride=stride).data
        want = conv2d_naive(x, w, b, stride=stride, padding=0)
        assert got.dtype == dtype and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)

    def test_random_against_six_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 1, 4, 4))
        w = rng.standard_normal((1, 1, 3, 3))
        got = conv2d(Tensor(x), Tensor(w), padding=1).data
        np.testing.assert_allclose(got, conv2d_naive(x, w, padding=1), atol=1e-6)

    def test_strided_grouped_against_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 4, 6, 6))
        w = rng.standard_normal((6, 2, 3, 3))
        b = rng.standard_normal(6)
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1, groups=2).data
        want = conv2d_naive(x, w, b, stride=2, padding=1, groups=2)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_group_mismatch_raises(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 2, 1, 1))))


class TestMeanNorms:
    def test_mean_hand_cases(self):
        assert mean(Tensor(np.array([2.0, 4.0]))).data == 3.0
        x = Tensor(np.random.default_rng(6).standard_normal((3, 1, 2)))
        np.testing.assert_array_equal(mean(x, axis=1).data, x.data[:, 0, :])

    def test_mean_matches_direct_sum(self):
        arr = np.random.default_rng(7).standard_normal((4, 5))
        got = mean(Tensor(arr), axis=0).data
        np.testing.assert_allclose(got, arr.sum(axis=0) / 4.0, rtol=1e-6)

    def test_layer_norm_constant_input_is_zero_pre_affine(self):
        x = Tensor(np.full((2, 6), 3.5))
        y = layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)))
        np.testing.assert_allclose(y.data, 0.0, atol=1e-5)

    def test_layer_norm_standardized_input_fixed_point(self):
        y = layer_norm(t64([-1.0, 1.0]), t64(np.ones(2)), t64(np.zeros(2)))
        np.testing.assert_allclose(y.data, [-1.0, 1.0], atol=1e-2)

    def test_layer_norm_matches_two_pass_oracle(self):
        arr = np.random.default_rng(8).standard_normal((3, 7))
        g = np.random.default_rng(9).standard_normal(7)
        b = np.random.default_rng(10).standard_normal(7)
        got = layer_norm(Tensor(arr), Tensor(g), Tensor(b)).data
        mu = arr.mean(axis=-1, keepdims=True)
        var = ((arr - mu) ** 2).mean(axis=-1, keepdims=True)
        want = (arr - mu) / np.sqrt(var + 1e-5) * g + b
        np.testing.assert_allclose(got, want, rtol=1e-5)

    def test_batch_norm_matches_two_pass_oracle(self):
        arr = np.random.default_rng(11).standard_normal((4, 3, 2, 2))
        g = np.ones(3)
        b = np.zeros(3)
        rm = np.zeros(3)
        rv = np.ones(3)
        got = batch_norm(Tensor(arr), Tensor(g), Tensor(b), rm, rv, training=True).data
        mu = arr.mean(axis=(0, 2, 3), keepdims=True)
        var = ((arr - mu) ** 2).mean(axis=(0, 2, 3), keepdims=True)
        np.testing.assert_allclose(got, (arr - mu) / np.sqrt(var + 1e-5), rtol=1e-4, atol=1e-5)

    def _eval_case(self, seed):
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal((2, 3, 4, 5))
        g, b, rm = rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal(3)
        rv = rng.random(3) + 0.5
        return arr, g, b, rm, rv

    def test_batch_norm_eval_matches_formula(self):
        arr, g, b, rm, rv = self._eval_case(15)
        got = batch_norm(t64(arr), t64(g), t64(b), rm, rv, training=False).data
        c4 = (1, 3, 1, 1)
        want = (arr - rm.reshape(c4)) / np.sqrt(rv.reshape(c4) + 1e-5) * g.reshape(c4) + b.reshape(c4)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_batch_norm_eval_leaves_running_stats(self):
        arr, g, b, rm, rv = self._eval_case(16)
        rm_before, rv_before = rm.copy(), rv.copy()
        x = t64(arr)
        backward(mean(batch_norm(x, t64(g), t64(b), rm, rv, training=False)))
        assert x.grad is not None
        np.testing.assert_array_equal(rm, rm_before)
        np.testing.assert_array_equal(rv, rv_before)

    def test_batch_norm_training_rule_keeps_no_full_size_array_but_its_input(self):
        # x̂ is recomputed in the rule from the input the graph keeps
        x = Tensor(np.random.default_rng(17).standard_normal((4, 3, 5, 6)), requires_grad=True)
        g, b = Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True)
        y = batch_norm(x, g, b, np.zeros(3), np.ones(3), training=True)
        full = [a for a in closure_arrays(y._node[2]) if a.size >= x.size]
        assert len(full) == 1 and full[0] is x.data
        assert graph_saved_bytes(y) <= x.data.nbytes + y.data.nbytes + 1024

    def test_batch_norm_singleton_statistics_rejected(self):
        x = Tensor(np.zeros((1, 3, 1, 1)))
        with pytest.raises(ValidationError):
            batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), np.zeros(3), np.ones(3), training=True)


class TestBatchNormSilu:
    """The fused training ``batch_norm_silu`` node against the composed
    ``silu(batch_norm(x))`` byte for byte, and against the scalar oracle."""

    RUNNING = (np.linspace(-0.3, 0.3, 40), np.linspace(0.5, 1.5, 40))

    def _run(self, op, shape, dtype):
        rng = np.random.default_rng(80)
        c = shape[1]
        x = Tensor((rng.standard_normal(shape) * 2.0 + 0.5).astype(dtype), requires_grad=True)
        gamma = Tensor((rng.standard_normal(c) * 0.3 + 1.0).astype(dtype), requires_grad=True)
        beta = Tensor((rng.standard_normal(c) * 0.3).astype(dtype), requires_grad=True)
        rm, rv = (r[:c].astype(dtype) for r in self.RUNNING)
        y = op(x, gamma, beta, rm, rv)
        backward(sum_(y * Tensor(rng.standard_normal(shape).astype(dtype))))
        return [y.data, x.grad, gamma.grad, beta.grad, rm, rv]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, axes", [((2, 3, 5, 6), (0, 1, 2, 3)), ((3, 40, 30, 30), (0, 1, 2, 3)),
                                             ((2, 3, 6, 6), (0, 1, 3, 2))],
                             ids=["small", "row blocks", "transposed view"])
    def test_bitwise_equal_to_composed(self, shape, axes, dtype):
        # (3, 40, 30, 30) spans several row blocks of the in-place SiLU; on a
        # transposed view the rows it writes must be the output, not a copy
        fused = self._run(lambda x, *rest: batch_norm_silu(transpose(x, axes), *rest), shape, dtype)
        composed = self._run(lambda x, g, b, rm, rv: silu(batch_norm(transpose(x, axes), g, b, rm, rv, True)),
                             shape, dtype)
        for got, want in zip(fused, composed):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()

    def test_matches_scalar_oracle(self):
        shape = (2, 3, 4, 5)
        y, gx, ggamma, gbeta, rm, rv = self._run(batch_norm_silu, shape, np.float64)
        rng = np.random.default_rng(80)
        x = rng.standard_normal(shape) * 2.0 + 0.5
        gamma, beta = rng.standard_normal(3) * 0.3 + 1.0, rng.standard_normal(3) * 0.3
        want = batch_norm_silu_naive(x, gamma, beta, rng.standard_normal(shape))
        mu, var = want[4:]
        want_rm = self.RUNNING[0][:3] * 0.9 + 0.1 * mu
        want_rv = self.RUNNING[1][:3] * 0.9 + 0.1 * var
        for got, ref in zip((y, gx, ggamma, gbeta, rm, rv), want[:4] + (want_rm, want_rv)):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_no_grad_forward_peak_at_most_composed(self):
        # a train-mode forward under no_grad (the calibration forwards before
        # an inference run) must not allocate more than the two ops it fuses
        x = Tensor(np.random.default_rng(81).standard_normal((2, 64, 56, 56)).astype(np.float32))
        gamma, beta = Tensor(np.ones(64, np.float32)), Tensor(np.zeros(64, np.float32))

        def peak(op):
            rm, rv = np.zeros(64, np.float32), np.ones(64, np.float32)
            tracemalloc.start()
            try:
                with no_grad():
                    op(x, gamma, beta, rm, rv)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        composed = peak(lambda x, g, b, rm, rv: silu(batch_norm(x, g, b, rm, rv, True)))
        assert peak(batch_norm_silu) <= composed


def _saved_state_cases():
    """(name, op on a (4, 3, 5, 6) input) whose rule must keep no full-size
    array but that input."""
    rng = np.random.default_rng(18)
    ones, zeros = Tensor(np.ones(3)), Tensor(np.zeros(3))
    w_dw, w_dense = Tensor(rng.standard_normal((3, 1, 3, 3))), Tensor(rng.standard_normal((3, 3, 3, 3)))
    return [
        ("batch_norm_silu", lambda x: batch_norm_silu(x, ones, zeros, np.zeros(3), np.ones(3))),
        ("depthwise padded", lambda x: conv2d(x, w_dw, padding=1, groups=3)),
        ("conv2d 3x3 padded", lambda x: conv2d(x, w_dense, padding=1)),
    ]


@pytest.mark.parametrize("name, op", _saved_state_cases(), ids=[c[0] for c in _saved_state_cases()])
def test_rule_keeps_no_full_size_array_but_its_input(name, op):
    # the fused node recomputes its pre-activation and the conv rules
    # rebuild their zero-padded input rows
    x = Tensor(np.random.default_rng(17).standard_normal((4, 3, 5, 6)), requires_grad=True)
    full = [a for a in closure_arrays(op(x)._node[2]) if a.size >= x.size]
    assert full and all(_root(a) is x.data for a in full)


class TestActivations:
    def test_sigmoid_zero(self):
        assert sigmoid(Tensor(np.array(0.0))).data == 0.5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_silu_extreme_inputs(self, dtype):
        mags = [20.0, 88.0, 100.0, 1e4]
        xs = np.array(mags + [-m for m in mags] + [0.0], dtype=dtype)
        with np.errstate(all="raise"):
            x = Tensor(xs, requires_grad=True)
            s = sigmoid(x).data
            y = silu(x)
            backward(mean(y))
        assert s.dtype == dtype and y.data.dtype == dtype
        assert np.all(np.isfinite(s)) and np.all(np.isfinite(y.data)) and np.all(np.isfinite(x.grad))
        assert np.all((s >= 0.0) & (s <= 1.0))
        vals = [float(v) for v in xs]
        np.testing.assert_allclose(s, [sigmoid_reference(v) for v in vals], rtol=0, atol=1e-6)
        np.testing.assert_allclose(y.data, [silu_reference(v) for v in vals], rtol=0, atol=1e-6)

    def test_relu_negative(self):
        assert relu(Tensor(np.array(-3.0))).data == 0.0

    def test_gelu_matches_high_precision_reference(self):
        got = float(gelu(t64([1.0])).data[0])
        assert abs(got - gelu_tanh_reference(1.0)) < 1e-4

    def test_gelu_grid_against_reference(self):
        xs = np.linspace(-4, 4, 33)
        got = gelu(t64(xs)).data
        want = np.array([gelu_tanh_reference(v) for v in xs])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_gelu_float32_against_float64_reference(self):
        # float32 kernel against the float64 formula: forward within 1e-6
        # (half an ulp at |x| = 10 is 4.8e-7) and gradient within 5e-6 of a
        # central difference of the reference
        xs = np.concatenate([np.linspace(-10, 10, 401),
                             np.random.default_rng(72).standard_normal(200) * 3])
        x = Tensor(xs.astype(np.float32), requires_grad=True)
        y = gelu(x)
        backward(sum_(y))
        pts = [float(v) for v in x.data]
        h = 1e-5
        want = [gelu_tanh_reference(v) for v in pts]
        dwant = [(gelu_tanh_reference(v + h) - gelu_tanh_reference(v - h)) / (2 * h) for v in pts]
        assert y.data.dtype == np.float32 and x.grad.dtype == np.float32
        np.testing.assert_allclose(y.data, want, rtol=0, atol=1e-6)
        np.testing.assert_allclose(x.grad, dwant, rtol=0, atol=5e-6)


def _inplace_cases():
    """(name, op, input shapes); every op is run in float64 on random inputs."""
    rm, rv = np.linspace(-0.3, 0.3, 4), np.linspace(0.5, 1.5, 4)
    return [
        ("conv2d 1x1", lambda x, w: conv2d(x, w), [(2, 4, 5, 6), (3, 4, 1, 1)]),
        ("conv2d 3x3", lambda x, w: conv2d(x, w, padding=1), [(2, 4, 5, 6), (3, 4, 3, 3)]),
        ("conv2d depthwise", lambda x, w: conv2d(x, w, padding=1, groups=4), [(2, 4, 5, 6), (4, 1, 3, 3)]),
        ("silu", silu, [(2, 4, 5, 6)]),
        ("sigmoid", sigmoid, [(2, 4, 5, 6)]),
        ("gelu", gelu, [(2, 4, 5, 6)]),
        ("batch_norm train", lambda x, g, b: batch_norm(x, g, b, rm.copy(), rv.copy(), True), [(2, 4, 5, 6), (4,), (4,)]),
        ("batch_norm eval", lambda x, g, b: batch_norm(x, g, b, rm, rv, False), [(2, 4, 5, 6), (4,), (4,)]),
        ("batch_norm_silu", lambda x, g, b: batch_norm_silu(x, g, b, rm.copy(), rv.copy()), [(2, 4, 5, 6), (4,), (4,)]),
        ("mul broadcast gate", mul, [(4, 8, 5, 5), (4, 8, 1, 1)]),
        ("mul 0-d scalar", mul, [(), (4, 8, 5, 5)]),
        *_fused_cases(),
    ]


def _fused_cases():
    """(name, op, input shapes) of the single-op linear, layer norm, softmax
    and cross-entropy."""
    labels = np.random.default_rng(74).integers(0, 3, size=(2, 4, 5))
    return [
        ("linear", linear, [(2, 3, 6), (5, 6), (5,)]),
        ("layer_norm", layer_norm, [(2, 3, 6), (6,), (6,)]),
        ("softmax", lambda x: softmax(x, axis=-1), [(2, 3, 6)]),
        ("cross_entropy", lambda x: cross_entropy(x, labels), [(2, 3, 4, 5)]),
    ]


class TestWriteOnce:
    """Kernels that write into their own buffers must never write into
    their inputs, and must match their two-buffer forms byte for byte."""

    @pytest.mark.parametrize("name, op, shapes", _inplace_cases(), ids=[c[0] for c in _inplace_cases()])
    def test_inputs_untouched_and_not_aliased(self, name, op, shapes):
        rng = np.random.default_rng(70)
        inputs = [Tensor(np.asarray(rng.standard_normal(s)), requires_grad=True) for s in shapes]
        before = [t.data.tobytes() for t in inputs]
        y = op(*inputs)
        assert not np.shares_memory(y.data, inputs[0].data)
        # the op's own rule, called directly, leaves its gradient and inputs alone
        _, saved, rule = y._node
        assert saved == tuple(inputs)
        g = np.asarray(rng.standard_normal(y.shape))
        g_before = g.tobytes()
        rule(g)
        assert g.tobytes() == g_before
        assert [t.data.tobytes() for t in inputs] == before
        backward(sum_(y * Tensor(rng.standard_normal(y.shape))))
        assert [t.data.tobytes() for t in inputs] == before
        assert all(t.grad is not None for t in inputs)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op, reference", [(silu, silu_two_buffer), (gelu, gelu_two_buffer)],
                             ids=["silu", "gelu"])
    def test_bitwise_equal_to_two_buffer_form(self, op, reference, dtype):
        rng = np.random.default_rng(71)
        v = (rng.standard_normal((2, 3, 8, 8)) * 3.0).astype(dtype)
        v.flat[:9] = [0.0, -0.0, 20.0, -20.0, 88.0, -88.0, 1e4, -1e4, 1e-3]
        g = rng.standard_normal(v.shape).astype(dtype)
        x = Tensor(v, requires_grad=True)
        y = op(x)
        backward(sum_(y * Tensor(g)))
        want_y, want_gx = reference(v, g)
        assert y.data.dtype == dtype and x.grad.dtype == dtype
        assert y.data.tobytes() == want_y.tobytes()
        assert x.grad.tobytes() == want_gx.tobytes()


def _nan_filled(alloc):
    def poisoned(*args, **kwargs):
        arr = alloc(*args, **kwargs)
        if arr.dtype.kind == "f":
            arr.fill(np.nan)
        return arr

    return poisoned


def _poison_cases():
    """(name, op, input shapes) of the kernels run on NaN-filled allocations."""
    rm, rv = np.linspace(-0.3, 0.3, 4), np.linspace(0.5, 1.5, 4)

    def depthwise(stride, padding):
        return lambda x, w: conv2d(x, w, stride=stride, padding=padding, groups=4)

    return [
        *[(f"depthwise s{s} p{p}", depthwise(s, p), [(2, 4, 5, 7), (4, 1, 3, 3)]) for s in (1, 2) for p in (0, 1)],
        ("depthwise 4x64x56x56", lambda x, w: conv2d(x, w, padding=1, groups=64), [(4, 64, 56, 56), (64, 1, 3, 3)]),
        ("conv2d 3x3", lambda x, w: conv2d(x, w, padding=1), [(2, 4, 5, 6), (3, 4, 3, 3)]),
        ("conv2d 1x1", lambda x, w: conv2d(x, w), [(2, 4, 5, 6), (3, 4, 1, 1)]),
        ("conv2d 1x1 on a 1x1 map", lambda x, w: conv2d(x, w), [(4, 8, 1, 1), (6, 8, 1, 1)]),
        ("batch_norm train", lambda x, g, b: batch_norm(x, g, b, rm.copy(), rv.copy(), True), [(2, 4, 5, 6), (4,), (4,)]),
        ("batch_norm eval", lambda x, g, b: batch_norm(x, g, b, rm, rv, False), [(2, 4, 5, 6), (4,), (4,)]),
        ("batch_norm_silu", lambda x, g, b: batch_norm_silu(x, g, b, rm.copy(), rv.copy()), [(2, 4, 5, 6), (4,), (4,)]),
        ("batch_norm_silu 4x64x28x28", lambda x, g, b: batch_norm_silu(x, g, b, np.zeros(64), np.ones(64)),
         [(4, 64, 28, 28), (64,), (64,)]),
        ("silu", silu, [(2, 4, 5, 6)]),
        ("mul broadcast", mul, [(4, 8, 5, 5), (4, 8, 1, 1)]),
        *_fused_cases(),
    ]


class TestPoisonedAllocation:
    """Every element a kernel reads was written first: with each np.empty and
    np.empty_like buffer filled with NaN, forward outputs and input gradients
    equal an unpatched run byte for byte.  Fresh allocations often come back
    zeroed, so a read of unwritten memory can pass every other test."""

    @pytest.mark.parametrize("name, op, shapes", _poison_cases(), ids=[c[0] for c in _poison_cases()])
    def test_matches_unpoisoned_run(self, monkeypatch, name, op, shapes):
        def run():
            rng = np.random.default_rng(73)
            inputs = [Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True) for s in shapes]
            y = op(*inputs)
            backward(sum_(y * Tensor(rng.standard_normal(y.shape).astype(np.float32))))
            return [y.data.tobytes()] + [t.grad.tobytes() for t in inputs]

        want = run()
        monkeypatch.setattr(np, "empty", _nan_filled(np.empty))
        monkeypatch.setattr(np, "empty_like", _nan_filled(np.empty_like))
        assert run() == want


class TestBilinear:
    def test_constant_input_constant_output(self):
        y = bilinear_upsample2x(Tensor(np.full((1, 2, 3, 3), 7.0)))
        assert y.shape == (1, 2, 6, 6)
        np.testing.assert_allclose(y.data, 7.0, rtol=1e-6)

    def test_one_by_one_input(self):
        y = bilinear_upsample2x(Tensor(np.full((1, 1, 1, 1), 2.5)))
        assert y.shape == (1, 1, 2, 2)
        np.testing.assert_allclose(y.data, 2.5)

    def test_ramp_matches_hand_interpolation(self):
        ramp = np.array([[0.0, 1.0], [2.0, 3.0]])
        got = bilinear_upsample2x(Tensor(ramp.reshape(1, 1, 2, 2))).data[0, 0]
        np.testing.assert_allclose(got, bilinear2x_naive(ramp), atol=1e-6)

    def test_interpolation_matrices_are_cached_read_only(self):
        first = _interp_matrix(10, 5, np.dtype(np.float32))
        assert _interp_matrix(10, 5, np.dtype(np.float32)) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 2.0
        ramp = np.arange(5.0, dtype=np.float32)
        for _ in range(2):
            got = bilinear_upsample2x(Tensor(np.broadcast_to(ramp, (1, 1, 5, 5)).copy())).data[0, 0]
            np.testing.assert_allclose(got, bilinear2x_naive(np.broadcast_to(ramp, (5, 5))), atol=1e-6)

    def test_random_matches_per_pixel_oracle(self):
        arr = np.random.default_rng(12).standard_normal((3, 5))
        got = bilinear_upsample2x(Tensor(arr.reshape(1, 1, 3, 5))).data[0, 0]
        np.testing.assert_allclose(got, bilinear2x_naive(arr), atol=1e-6)


class TestCrossEntropy:
    def test_uniform_logits_give_ln2(self):
        logits = Tensor(np.zeros((1, 2, 2, 2)))
        loss = cross_entropy(logits, np.zeros((1, 2, 2), dtype=np.int64))
        np.testing.assert_allclose(loss.data, math.log(2.0), rtol=1e-6)

    def test_confident_logits_beat_uniform(self):
        logits = np.zeros((1, 2, 2, 2), dtype=np.float32)
        logits[:, 1] = 3.0
        loss = cross_entropy(Tensor(logits), np.ones((1, 2, 2), dtype=np.int64))
        assert float(loss.data) < math.log(2.0)

    def test_random_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(13)
        logits = rng.standard_normal((1, 3, 2, 2))
        labels = rng.integers(0, 3, size=(1, 2, 2))
        loss = float(cross_entropy(t64(logits), labels).data)
        acc = 0.0
        for i in range(2):
            for j in range(2):
                row = logits[0, :, i, j]
                acc -= math.log(math.exp(row[labels[0, i, j]] - row.max()) / np.exp(row - row.max()).sum())
        np.testing.assert_allclose(loss, acc / 4.0, rtol=1e-9)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_extreme_logits_stay_finite(self, dtype):
        # a right and a wrong confident pixel: loss ≈ (0 + 2e4)/2, gradients ±0.5
        logits = np.array([1e4, -1e4, -1e4, 1e4], dtype=dtype).reshape(1, 2, 1, 2)
        x = Tensor(logits, requires_grad=True)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            loss = cross_entropy(x, np.array([[[0, 0]]]))
            backward(loss)
        np.testing.assert_allclose(float(loss.data), 1e4, rtol=1e-6)
        np.testing.assert_allclose(x.grad.reshape(2, 2), [[0.0, -0.5], [0.0, 0.5]], atol=1e-7)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValidationError):
            cross_entropy(Tensor(np.zeros((1, 2, 1, 1))), np.full((1, 1, 1), 5, dtype=np.int64))


class TestDeterminism:
    def test_bitwise_repeatability(self):
        def run():
            rng = np.random.default_rng(14)
            x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32), requires_grad=True)
            w = Tensor(rng.standard_normal((3, 3, 3, 3)).astype(np.float32), requires_grad=True)
            y = gelu(conv2d(x, w, padding=1))
            loss = mean(y * y)
            backward(loss)
            return y.data.copy(), x.grad.copy(), w.grad.copy()

        first, second = run(), run()
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
