"""Block-level tests: MBConv, window attention, branches, fusion."""

import numpy as np
import pytest

from segnetr.autodiff import Tensor, backward, grad_check, mean, sum_
from segnetr.autodiff import functional as F
from segnetr.autodiff.tensor import no_grad
from segnetr.blocks import (
    BatchNorm2d,
    Conv2d,
    MBConv,
    InteractionBranch,
    SegnetrBlock,
    WindowAttention,
    conv_norm,
    irsc_fuse,
)
from segnetr.costs import count_params
from segnetr.errors import ConfigError, ShapeError
from segnetr.layout import local_partition

from .oracles import (
    block_interaction_naive,
    branch_naive,
    branch_weights,
    patch_merge_naive,
    patch_reverse_naive,
    window_attention_naive,
    window_ffn_params,
)


def rng_(seed=0):
    return np.random.default_rng(seed)


def rand(shape, seed=0, dtype=np.float32):
    return Tensor(rng_(seed).standard_normal(shape).astype(dtype))


def zero_weights(module):
    for _, p in module.named_parameters():
        p.data[...] = 0


class TestMBConv:
    def test_zeroed_block_is_residual_identity(self):
        block = MBConv(4, rng=rng_(1))
        zero_weights(block)
        x = rand((2, 4, 6, 6), seed=2)
        np.testing.assert_array_equal(block(x).data, x.data)

    def test_param_count_closed_form(self):
        c = 64
        mid, sq = 4 * c, c
        want = (
            c * mid          # expand 1x1, no bias
            + 2 * mid        # expand norm affine
            + mid * 9        # depthwise 3x3, no bias
            + 2 * mid        # depthwise norm affine
            + (mid * sq + sq)    # se reduce 1x1 + bias
            + (sq * mid + mid)   # se expand 1x1 + bias
            + mid * c        # project 1x1, no bias
            + 2 * c          # project norm affine
        )
        assert count_params(MBConv(c, rng=rng_(3))) == want == 69312

    def test_gradcheck_full_block(self):
        # N=1 requires eval-mode statistics (training would be degenerate).
        block = MBConv(4, rng=rng_(4), dtype=np.float64).eval()
        for m in block.modules():
            if hasattr(m, "running_var"):
                m.running_mean += rng_(40).standard_normal(m.running_mean.shape) * 0.1
                m.running_var += 0.5
        x = Tensor(rng_(5).standard_normal((1, 4, 6, 6)), requires_grad=True, dtype=np.float64)
        params = [p for _, p in block.named_parameters()]
        res = grad_check(lambda xx, *ps: sum_(block(xx) * block(xx)), [x] + params)
        assert res.max_rel_error < 1e-3

    def test_preserves_shape(self):
        block = MBConv(6, rng=rng_(6))
        assert block(rand((3, 6, 5, 7), seed=7)).shape == (3, 6, 5, 7)


# (name, Conv2d arguments, keyword arguments, input shape): the three kinds
# of conv that the models follow with a norm
CONV_NORM_CASES = [
    ("1x1", (6, 8, 1), {}, (2, 6, 5, 7)),
    ("3x3 depthwise", (6, 6, 3), dict(padding=1, groups=6), (2, 6, 5, 7)),
    ("3x3 stride-2 stem", (3, 8, 3), dict(stride=2, padding=1), (2, 3, 9, 8)),
]


def conv_norm_pair(args, kw, dtype, seed=80):
    """A conv and an eval-mode norm with non-trivial γ, β and running
    statistics, all drawn from ``seed``."""
    conv = Conv2d(*args, **kw, bias=False, rng=rng_(seed), dtype=dtype)
    norm = BatchNorm2d(args[1], dtype=dtype).eval()
    r = rng_(seed + 1)
    c = args[1]
    norm.gamma.data[...] = r.uniform(0.5, 1.5, c)
    norm.beta.data[...] = r.standard_normal(c) * 0.3
    norm.running_mean[...] = r.standard_normal(c) * 0.5
    norm.running_var[...] = r.uniform(0.2, 2.0, c)
    return conv, norm


class TestConvNorm:
    """Eval-mode ``conv_norm`` folds the norm into the conv; it must equal
    the unfolded ``norm(conv(x))`` and follow every edit of its inputs."""

    # f64 within 1e-12 absolute.  f32 within rtol 1e-6 plus atol 2e-6: the
    # fold rounds W·scale before the sum instead of scaling the sum, which
    # moved outputs of magnitude up to 10 by at most 9.5e-7.
    @pytest.mark.parametrize("dtype, rtol, atol", [(np.float64, 0, 1e-12), (np.float32, 1e-6, 2e-6)],
                             ids=["f64", "f32"])
    @pytest.mark.parametrize("name, args, kw, shape", CONV_NORM_CASES,
                             ids=[c[0] for c in CONV_NORM_CASES])
    def test_eval_fold_equals_unfolded(self, name, args, kw, shape, dtype, rtol, atol):
        conv, norm = conv_norm_pair(args, kw, dtype)
        x = rand(shape, seed=81, dtype=dtype)
        got = conv_norm(x, conv, norm).data
        assert got.dtype == dtype
        np.testing.assert_allclose(got, norm(conv(x)).data, rtol=rtol, atol=atol)

    def test_training_mode_is_unfolded(self):
        conv, norm = conv_norm_pair((6, 8, 1), {}, np.float64)
        norm.train()
        x = rand((2, 6, 5, 7), seed=82, dtype=np.float64)
        got = conv_norm(x, conv, norm).data
        np.testing.assert_array_equal(got, norm(conv(x)).data)

    def test_fold_follows_in_place_edits(self):
        conv, norm = conv_norm_pair((3, 8, 3), dict(stride=2, padding=1), np.float64)
        x = rand((2, 3, 9, 8), seed=83, dtype=np.float64)
        before = conv_norm(x, conv, norm).data
        edits = [
            lambda: norm.gamma.data.__imul__(1.5),
            lambda: norm.running_mean.__iadd__(0.25),
            lambda: norm.running_var.__imul__(2.0),
            lambda: conv.weight.data.__imul__(-0.5),
        ]
        for edit in edits:
            edit()
            got = conv_norm(x, conv, norm).data
            assert not np.allclose(got, before)
            np.testing.assert_allclose(got, norm(conv(x)).data, rtol=0, atol=1e-12)
            before = got

    def test_eval_leaves_running_buffers_untouched(self):
        conv, norm = conv_norm_pair((6, 6, 3), dict(padding=1, groups=6), np.float64)
        saved = norm.running_mean.tobytes(), norm.running_var.tobytes()
        x = Tensor(rng_(84).standard_normal((2, 6, 5, 7)), requires_grad=True, dtype=np.float64)
        backward(sum_(conv_norm(x, conv, norm)))
        with no_grad():
            conv_norm(x, conv, norm)
        assert (norm.running_mean.tobytes(), norm.running_var.tobytes()) == saved


def pool(x: Tensor) -> Tensor:
    """Channel mean of an (..., H, W, C) tensor, kept as a one-channel map."""
    return mean(x, axis=-1, keepdims=True)


class TestWindowAttention:
    def test_constant_window_gives_uniform_rows(self):
        wa = WindowAttention(4, rng=rng_(8))
        ws = local_partition(Tensor(np.full((4, 4, 1), 2.0, dtype=np.float32)), 2)
        np.testing.assert_allclose(wa(ws).data, 0.25, atol=1e-7)

    def test_singleton_window_is_one(self):
        wa = WindowAttention(1, rng=rng_(9))
        ws = local_partition(pool(rand((3, 3, 2), seed=10)), 1)
        np.testing.assert_array_equal(wa(ws).data, np.ones((9, 1), dtype=np.float32))

    def test_matches_scalar_oracle(self):
        # the oracle takes the channel mean inside each window; the module
        # takes windows of the map pooled first
        wa = WindowAttention(4, rng=rng_(11), dtype=np.float64)
        x = rand((4, 6, 3), seed=12, dtype=np.float64)
        got = wa(local_partition(pool(x), 2)).data
        want = window_attention_naive(
            local_partition(x, 2).windows.data,
            wa.norm.gamma.data, wa.norm.beta.data,
            wa.fc1.weight.data, wa.fc1.bias.data,
            wa.fc2.weight.data, wa.fc2.bias.data,
        )
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_rows_sum_to_one(self):
        wa = WindowAttention(16, rng=rng_(13))
        ws = local_partition(pool(rand((8, 8, 5), seed=14)), 4)
        sums = wa(ws).data.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_area_mismatch_rejected(self):
        wa = WindowAttention(4, rng=rng_(15))
        with pytest.raises(ShapeError):
            wa(local_partition(rand((9, 9, 1), seed=16), 3))

    def test_multichannel_windows_rejected(self):
        wa = WindowAttention(4, rng=rng_(15))
        with pytest.raises(ShapeError, match="pooled map"):
            wa(local_partition(rand((4, 4, 3), seed=16), 2))

    @pytest.mark.parametrize("area", [1, 4, 16, 64, 256])
    def test_param_count_matches_oracle(self, area):
        wa = WindowAttention(area, rng=rng_(16))
        assert count_params(wa) == window_ffn_params(area) == 4 * area * area + 5 * area


class TestInteractionBranch:
    """A branch returns a gate on the pooled map; ``x ⊙ gate`` is the
    residual term the oracle computes on the full tensor."""

    def test_constant_input_is_identity(self):
        for kind in ("local", "global"):
            branch = InteractionBranch(2, kind, rng=rng_(17))
            x = Tensor(np.full((8, 8, 3), 1.5, dtype=np.float32))
            np.testing.assert_array_equal((x * branch(pool(x))).data, x.data)

    def test_whole_image_window_formula(self):
        branch = InteractionBranch(4, "local", rng=rng_(18), dtype=np.float64)
        x = rand((4, 4, 2), seed=19, dtype=np.float64)
        attn = branch.attention(local_partition(pool(x), 4)).data.reshape(4, 4, 1)
        np.testing.assert_allclose((x * branch(pool(x))).data, x.data * attn * 16.0, rtol=1e-12)

    def _check_local(self, shape):
        branch = InteractionBranch(2, "local", rng=rng_(20), dtype=np.float64)
        x = rand(shape, seed=21, dtype=np.float64)
        want = branch_naive(x.data, 2, 2, *branch_weights(branch))
        np.testing.assert_allclose((x * branch(pool(x))).data, want, atol=1e-9)

    def _check_global(self, shape, p):
        branch = InteractionBranch(p, "global", rng=rng_(22), dtype=np.float64)
        x = rand(shape, seed=23, dtype=np.float64)
        want = branch_naive(x.data, p, 2 * p, *branch_weights(branch), displaced=True)
        np.testing.assert_allclose((x * branch(pool(x))).data, want, atol=1e-9)

    def test_local_matches_scalar_oracle(self):
        self._check_local((6, 8, 3))

    def test_global_matches_scalar_oracle(self):
        self._check_global((8, 8, 3), 2)

    def test_padded_local_matches_scalar_oracle(self):
        self._check_local((5, 7, 3))

    @pytest.mark.parametrize("shape,p", [((6, 10, 3), 2), ((7, 7, 3), 1)])
    def test_padded_global_matches_scalar_oracle(self, shape, p):
        self._check_global(shape, p)

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            InteractionBranch(2, "diagonal", rng=rng_(24))

    def test_patch_size_one_local_branch_is_identity(self):
        # a softmax over a one-position window is exactly 1, so at P=1 the
        # local gate is 1 and x ⊙ gate is x bitwise whatever the weights,
        # and the attention parameters get all-zero gradients
        branch = InteractionBranch(1, "local", rng=rng_(25))
        x = Tensor(rng_(26).standard_normal((2, 5, 7, 3)).astype(np.float32), requires_grad=True)
        for shift in (0.0, 5.0):
            for _, p in branch.named_parameters():
                p.data += shift + rng_(27).standard_normal(p.shape).astype(np.float32)
                p.zero_grad()
            out = x * branch(pool(x))
            assert out.data.tobytes() == x.data.tobytes()
            backward(sum_(out * rand(out.shape, seed=28)))
            for name, p in branch.named_parameters():
                assert p.grad is not None and not p.grad.any(), name


def gates(block, m):
    """(pooled map P, g_l(·), g_g(·)) of a block as plain arrays."""
    n, _, h, w = m.shape
    pooled = m.data.mean(axis=1).reshape(n, h, w, 1)

    def local(v):
        return block.local_branch(Tensor(v)).data

    def global_(v):
        return block.global_branch(Tensor(v)).data

    return pooled, local, global_


class TestSegnetrBlock:
    def test_without_mode_equals_mbconv(self):
        block = SegnetrBlock(4, 2, "without", rng=rng_(25))
        x = rand((2, 4, 8, 8), seed=26)
        np.testing.assert_array_equal(block(x).data, block.mbconv(x).data)

    @pytest.mark.parametrize("mode", ["local", "global", "series", "parallel"])
    def test_zero_alpha_reduces_to_mbconv(self, mode):
        block = SegnetrBlock(4, 2, mode, rng=rng_(27))
        for name, p in block.named_parameters():
            if name.startswith("alpha"):
                p.data[...] = 0
        x = rand((2, 4, 8, 8), seed=28)
        np.testing.assert_array_equal(block(x).data, block.mbconv(x).data)

    def test_parallel_formula(self):
        # m ⊙ (1 + α_l·g_l(P) + α_g·g_g(P)), in the block's operation order
        block = SegnetrBlock(4, 2, "parallel", rng=rng_(29))
        x = rand((2, 4, 8, 8), seed=30)
        got = block(x)
        m = block.mbconv(x)
        pooled, local, global_ = gates(block, m)
        a_l, a_g = block.alpha_local.data, block.alpha_global.data
        f = 1 + a_l * local(pooled) + a_g * global_(pooled)
        manual = m.data * f.reshape(2, 1, 8, 8)
        assert got.data.tobytes() == manual.tobytes()

    def test_series_formula(self):
        # m ⊙ (1 + α_g·f_l·g_g(P·f_l)), f_l = 1 + α_l·g_l(P)
        block = SegnetrBlock(4, 2, "series", rng=rng_(31))
        x = rand((2, 4, 8, 8), seed=32)
        got = block(x)
        m = block.mbconv(x)
        pooled, local, global_ = gates(block, m)
        a_l, a_g = block.alpha_local.data, block.alpha_global.data
        f_l = 1 + a_l * local(pooled)
        f = 1 + a_g * f_l * global_(pooled * f_l)
        manual = m.data * f.reshape(2, 1, 8, 8)
        assert got.data.tobytes() == manual.tobytes()

    @pytest.mark.parametrize("mode", ["local", "global", "series", "parallel"])
    @pytest.mark.parametrize("shape,p", [((2, 4, 8, 8), 2), ((2, 4, 6, 10), 2), ((2, 4, 7, 7), 1)])
    def test_matches_oracle_composition(self, mode, shape, p):
        # float64 block against h + α·branch(h) composed from the scalar
        # branch oracle; (6, 10) and (7, 7) pad their global windows
        block = SegnetrBlock(4, p, mode, rng=rng_(41), dtype=np.float64)
        for _, prm in block.named_parameters():
            prm.data += 0.1 * rng_(42).standard_normal(prm.shape)
        x = rand(shape, seed=43, dtype=np.float64)
        got = block(x).data
        want = block_interaction_naive(block, block.mbconv(x).data)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_parallel_differs_from_series(self):
        parallel = SegnetrBlock(4, 2, "parallel", rng=rng_(33))
        series = SegnetrBlock(4, 2, "series", rng=rng_(33))
        x = rand((2, 4, 8, 8), seed=34)
        assert not np.array_equal(parallel(x).data, series(x).data)

    @pytest.mark.parametrize("mode", ["without", "local", "global", "series", "parallel"])
    def test_gradient_reaches_every_parameter(self, mode):
        block = SegnetrBlock(4, 2, mode, rng=rng_(35))
        x = rand((2, 4, 8, 8), seed=36)
        backward(sum_(block(x) * block(x)))
        for name, p in block.named_parameters():
            assert p.grad is not None and np.linalg.norm(p.grad) > 0, name

    @pytest.mark.parametrize("mode", ["without", "local", "global", "series", "parallel"])
    @pytest.mark.parametrize("shape", [(1, 4, 8, 8), (2, 4, 6, 10)])
    def test_shape_preserved(self, mode, shape):
        block = SegnetrBlock(4, 2, mode, rng=rng_(37))
        if shape[0] == 1:
            block.eval()
        assert block(rand(shape, seed=38)).shape == shape

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            SegnetrBlock(4, 2, "both", rng=rng_(39))


class TestIrscFuse:
    def test_shape_law(self):
        enc_pm = rand((2, 2, 16), seed=40)
        dec = rand((4, 4, 6), seed=41)
        out = irsc_fuse(enc_pm, dec)
        assert out.shape == (4, 4, 8)

    def test_decoder_channels_pass_through(self):
        enc_pm = rand((2, 2, 16), seed=42)
        dec = rand((4, 4, 6), seed=43)
        out = irsc_fuse(enc_pm, dec)
        np.testing.assert_array_equal(out.data[..., :6], dec.data)

    def test_zero_encoder_gives_zero_skip_channels(self):
        dec = rand((4, 4, 3), seed=44)
        out = irsc_fuse(Tensor(np.zeros((2, 2, 8), dtype=np.float32)), dec)
        np.testing.assert_array_equal(out.data[..., 3:], 0.0)

    def test_skip_channels_match_composed_oracle(self):
        x = rand((4, 4, 4), seed=45)
        enc_pm = Tensor(patch_merge_naive(x.data))
        dec = rand((4, 4, 5), seed=46)
        out = irsc_fuse(enc_pm, dec)
        want = patch_reverse_naive(patch_merge_naive(x.data)[..., ::2])
        np.testing.assert_array_equal(out.data[..., 5:], want)

    def test_undersized_skip_rejected(self):
        with pytest.raises(ShapeError):
            irsc_fuse(rand((1, 1, 8), seed=47), rand((4, 4, 2), seed=48))
