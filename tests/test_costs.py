"""Parameter/MAC accounting and segmentation-metric tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segnetr.autodiff import Tensor, backward, sum_
from segnetr.blocks import Conv2d, Linear
from segnetr.costs import (
    ConfusionCounts,
    confusion,
    conv_macs,
    cost_report,
    count_flops,
    count_params,
    iou_dice,
    linear_macs,
)
from segnetr.errors import ContractError, ShapeError, ValidationError
from segnetr.model import ModelConfig, build

from .conftest import forward_macs
from .oracles import confusion_naive


def small_model(**over):
    cfg = ModelConfig(base_channels=4, resolution=32, **over)
    return build(cfg)


class TestParamCounting:
    def test_linear_10_to_5(self):
        assert count_params(Linear(10, 5, rng=np.random.default_rng(0))) == 55

    def test_conv_3x3_16_to_32(self):
        assert count_params(Conv2d(16, 32, 3, rng=np.random.default_rng(1))) == 4640

    def test_invariant_under_forward_backward(self):
        model = small_model()
        before = count_params(model)
        x = Tensor(np.random.default_rng(2).standard_normal((2, 3, 32, 32)).astype(np.float32))
        backward(sum_(model(x) * model(x)))
        assert count_params(model) == before


class TestMacFormulas:
    def test_conv_formula_example(self):
        assert conv_macs(56, 56, 32, 16, 3) == 14_450_688

    def test_linear_formula(self):
        assert linear_macs(7, 16, 32) == 7 * 16 * 32

    def test_grouped_conv_divides_fan_in(self):
        assert conv_macs(8, 8, 32, 32, 3, groups=32) == 8 * 8 * 32 * 1 * 9


class TestCostReport:
    def test_totals_equal_row_sums(self):
        report = cost_report(small_model(), 32)
        assert report.total_params == sum(r.params for r in report.rows)
        assert report.total_macs == sum(r.macs for r in report.rows)
        assert report.total_params == count_params(small_model())

    def test_layout_rows_cost_nothing(self):
        report = cost_report(small_model(), 32)
        named = [r for r in report.rows if r.name.endswith(("patch_merge", ".skip", "partition", "reverse", "displace"))]
        assert named, "expected layout rows in the report"
        for row in named:
            assert row.macs == 0 and row.eltops == 0 and row.params == 0, row

    def test_convention_totals(self):
        report = cost_report(small_model(), 32)
        assert report.total("mac") == report.total_macs + report.total_eltops
        assert report.total("2flop") == 2 * report.total_macs + report.total_eltops

    def test_mac_only_rows_double_under_2flop(self):
        report = cost_report(small_model(), 32)
        mac_only = [r for r in report.rows if r.eltops == 0 and r.macs > 0]
        assert mac_only
        total_mac = sum(r.macs for r in mac_only)
        assert sum(2 * r.macs + r.eltops for r in mac_only) == 2 * total_mac

    def test_attention_macs_double_with_height(self):
        model = small_model()
        base = cost_report(model, (32, 32)).attention_macs
        tall = cost_report(model, (64, 32)).attention_macs
        assert base > 0 and tall == 2 * base

    def test_csv_and_text_rendering(self):
        report = cost_report(small_model(), 32)
        csv = report.as_csv()
        assert csv.splitlines()[0] == "layer,params,macs"
        assert len(csv.splitlines()) == len(report.rows) + 1
        text = report.as_text()
        assert "total" in text and "convention" in text

    def test_rejects_non_model(self):
        with pytest.raises(ContractError):
            cost_report(Linear(4, 4, rng=np.random.default_rng(3)), 32)

    def test_rejects_bad_input_extent(self):
        # the forward's own rule: 24 -> a 12x12 stage 0 that P=8 cannot tile
        with pytest.raises(ShapeError, match="^stage 0: "):
            cost_report(small_model(), 24)

    @pytest.mark.parametrize("variant", ["segnetr", "segnetr-s", "mini-unet"])
    def test_totals_match_a_real_forward(self, variant):
        # the walk against the ops a batch-1 eval forward really runs; every
        # linear of the model is a window-attention FFN layer
        model = build(ModelConfig(variant=variant))
        for hw in [(224, 224), (448, 224), (240, 176), (112, 112)]:
            counted = forward_macs(model, *hw)
            report = cost_report(model, hw)
            assert (sum(counted.values()), counted["linear"]) == (
                report.total_macs, report.attention_macs), hw

    def test_count_flops_wraps_total(self):
        model = small_model()
        assert count_flops(model, 32, "2flop") == cost_report(model, 32, "2flop").total()


class TestConfusion:
    def test_identical_maps(self):
        m = np.array([[0, 1], [1, 0]])
        counts = confusion(m, m, 2)
        np.testing.assert_array_equal(counts.fp, 0)
        np.testing.assert_array_equal(counts.fn, 0)
        assert counts.tp.sum() == m.size

    def test_disjoint_binary_masks_have_zero_tp(self):
        pred = np.array([1, 1, 0, 0])
        gt = np.array([0, 0, 1, 1])
        counts = confusion(pred, gt, 2)
        np.testing.assert_array_equal(counts.tp, 0)

    def test_random_4x4_matches_set_counting_oracle(self):
        rng = np.random.default_rng(4)
        pred = rng.integers(0, 3, size=(4, 4))
        gt = rng.integers(0, 3, size=(4, 4))
        counts = confusion(pred, gt, 3)
        tp, fp, fn = confusion_naive(pred, gt, 3)
        np.testing.assert_array_equal(counts.tp, tp)
        np.testing.assert_array_equal(counts.fp, fp)
        np.testing.assert_array_equal(counts.fn, fn)

    def test_validation(self):
        with pytest.raises(ValidationError):
            confusion(np.zeros((2, 2)), np.zeros((2, 2), dtype=int), 2)
        with pytest.raises(ValidationError):
            confusion(np.zeros((2, 2), dtype=int), np.zeros((2, 3), dtype=int), 2)
        with pytest.raises(ValidationError):
            confusion(np.full((2, 2), 7), np.zeros((2, 2), dtype=int), 2)


class TestIouDice:
    def test_perfect_prediction(self):
        m = np.array([[0, 1], [1, 1]])
        metrics = iou_dice(confusion(m, m, 2))
        np.testing.assert_array_equal(metrics.iou, 1.0)
        np.testing.assert_array_equal(metrics.dice, 1.0)
        assert metrics.mean_iou == metrics.mean_dice == 1.0

    def test_hand_counted_case(self):
        pred = np.array([1, 1, 0, 0])
        gt = np.array([1, 0, 1, 0])
        metrics = iou_dice(confusion(pred, gt, 2))
        np.testing.assert_allclose(metrics.iou[1], 1 / 3)
        np.testing.assert_allclose(metrics.dice[1], 1 / 2)

    def test_empty_class_scores_one_and_is_excluded(self):
        pred = np.array([0, 1, 1, 0])
        gt = np.array([0, 1, 0, 0])
        metrics = iou_dice(confusion(pred, gt, 3))
        assert metrics.iou[2] == metrics.dice[2] == 1.0
        assert not metrics.evaluated[2]
        np.testing.assert_allclose(metrics.mean_iou, metrics.iou[:2].mean())

    def test_all_empty_counts_are_vacuously_perfect(self):
        counts = ConfusionCounts(np.zeros(2, dtype=int), np.zeros(2, dtype=int), np.zeros(2, dtype=int), 0)
        metrics = iou_dice(counts)
        assert metrics.mean_iou == metrics.mean_dice == 1.0
        assert not metrics.evaluated.any()

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            ConfusionCounts(np.array([-1]), np.array([0]), np.array([0]), 4)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dice_iou_identity(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        pred = rng.integers(0, k, size=(6, 6))
        gt = rng.integers(0, k, size=(6, 6))
        metrics = iou_dice(confusion(pred, gt, k))
        for i in range(k):
            if metrics.evaluated[i]:
                want = 2 * metrics.iou[i] / (1 + metrics.iou[i])
                assert abs(metrics.dice[i] - want) < 1e-9
