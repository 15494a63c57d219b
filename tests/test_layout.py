"""Index-law and round-trip tests for the layout transforms."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segnetr.autodiff import Tensor
from segnetr.errors import ContractError, LayoutError
from segnetr.layout import (
    DisplacementSpec,
    WindowGrid,
    WindowStack,
    alternate_select,
    crop_hw,
    displace,
    global_partition,
    global_reverse,
    local_partition,
    local_reverse,
    pad_to_multiple,
    patch_merge,
    patch_reverse,
    undisplace,
)

from .conftest import graph_nodes
from .oracles import (
    displace_map_naive,
    displace_naive,
    patch_merge_naive,
    patch_reverse_naive,
    window_of,
)


def rand(shape, seed=0):
    return Tensor(np.random.default_rng(seed).standard_normal(shape).astype(np.float32))


class TestLocalPartition:
    def test_single_window_identity(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1))
        ws = local_partition(x, 2)
        assert ws.windows.shape == (1, 2, 2, 1)
        np.testing.assert_array_equal(ws.windows.data[0, :, :, 0], [[1, 2], [3, 4]])

    def test_4x4_window_contents(self):
        x = Tensor(np.arange(1.0, 17.0).reshape(4, 4, 1))
        ws = local_partition(x, 2)
        np.testing.assert_array_equal(ws.windows.data[0, :, :, 0], [[1, 2], [5, 6]])
        np.testing.assert_array_equal(ws.windows.data[3, :, :, 0], [[11, 12], [15, 16]])

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_index_law_by_brute_force(self, p):
        x = rand((8, 8, 3), seed=p)
        ws = local_partition(x, p)
        for i in range(8):
            for j in range(8):
                wi, off = window_of(i, j, p, 8 // p)
                np.testing.assert_array_equal(
                    ws.windows.data[wi, off // p, off % p], x.data[i, j]
                )

    def test_non_divisible_rejected(self):
        with pytest.raises(LayoutError):
            local_partition(rand((5, 6, 1)), 2)

    def test_padding_flag_pads_then_reverse_crops(self):
        x = rand((5, 6, 2), seed=3)
        ws = local_partition(x, 4, pad=True)
        assert ws.windows.shape == (4, 4, 4, 2)
        np.testing.assert_array_equal(local_reverse(ws).data, x.data)


class TestLocalReverse:
    def test_inverse_of_examples(self):
        for shape, p in (((2, 2, 1), 2), ((4, 4, 1), 2)):
            x = rand(shape, seed=p)
            np.testing.assert_array_equal(local_reverse(local_partition(x, p)).data, x.data)

    def test_single_window_round_trip(self):
        x = rand((3, 3, 2), seed=9)
        np.testing.assert_array_equal(local_reverse(local_partition(x, 3)).data, x.data)

    def test_displaced_stack_rejected(self):
        ws = global_partition(rand((4, 4, 1)), 1)
        with pytest.raises(ContractError):
            local_reverse(ws)

    @given(
        p=st.sampled_from([1, 2, 4]),
        hm=st.integers(1, 4),
        wm=st.integers(1, 4),
        c=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, p, hm, wm, c, seed):
        x = rand((p * hm, p * wm, c), seed=seed)
        np.testing.assert_array_equal(local_reverse(local_partition(x, p)).data, x.data)


class TestDisplace:
    def test_singleton_grid_is_identity(self):
        x = rand((3, 3, 2), seed=1)
        np.testing.assert_array_equal(displace(x, DisplacementSpec(3)).data, x.data)

    def test_two_by_two_truth_table(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1))
        got = displace(x, DisplacementSpec(1)).data[:, :, 0]
        np.testing.assert_array_equal(got, [[4.0, 3.0], [2.0, 1.0]])

    @pytest.mark.parametrize("case,parity,shape,p", [
        (0, "cross", (8, 8, 2), 2),
        (1, "cross", (6, 10, 1), 2),
        (2, "cross", (3, 5, 2), 1),
    ])
    def test_matches_two_pass_oracle(self, case, parity, shape, p):
        x = rand(shape, seed=case)
        got = displace(x, DisplacementSpec(p)).data
        np.testing.assert_array_equal(got, displace_naive(x.data, p))

    def test_inverse_restores_bitwise(self):
        x = rand((8, 8, 2), seed=5)
        spec = DisplacementSpec(2)
        np.testing.assert_array_equal(undisplace(displace(x, spec), spec).data, x.data)

    def test_bad_spec_rejected(self):
        with pytest.raises(LayoutError):
            DisplacementSpec(0)

    def test_non_divisible_rejected(self):
        with pytest.raises(LayoutError):
            displace(rand((5, 4, 1)), DisplacementSpec(2))


class TestGlobalPartition:
    def test_single_window_is_displaced_image(self):
        for p in (1, 2):
            x = rand((2 * p, 2 * p, 2), seed=p)
            ws = global_partition(x, p)
            assert ws.displaced and ws.windows.shape == (1, 2 * p, 2 * p, 2)
            want = displace_naive(x.data, p)
            np.testing.assert_array_equal(ws.windows.data[0], want)

    def test_windows_mix_source_blocks(self):
        ids = Tensor((np.arange(4)[:, None] // 2 * 2 + np.arange(4)[None, :] // 2).astype(np.float32)[..., None])
        ws = global_partition(ids, 1)
        for w in ws.windows.data:
            assert len(np.unique(w)) >= 2

    def test_round_trip_bitwise(self):
        x = rand((8, 8, 3), seed=7)
        np.testing.assert_array_equal(global_reverse(global_partition(x, 2)).data, x.data)

    def test_padded_odd_grid_round_trip(self):
        x = rand((6, 6, 2), seed=8)
        ws = global_partition(x, 2, pad=True)
        assert ws.windows.shape[-4:] == (4, 4, 4, 2)
        np.testing.assert_array_equal(global_reverse(ws).data, x.data)

    def test_non_displaced_stack_rejected_by_global_reverse(self):
        with pytest.raises(ContractError):
            global_reverse(local_partition(rand((4, 4, 1)), 2))

    def test_multiset_preserved(self):
        x = rand((4, 4, 2), seed=11)
        ws = global_partition(x, 1)
        np.testing.assert_array_equal(
            np.sort(ws.windows.data, axis=None), np.sort(x.data, axis=None)
        )


class TestPatchMerge:
    def test_2x2_ordering(self):
        x = Tensor(np.array([[10.0, 11.0], [12.0, 13.0]]).reshape(2, 2, 1))
        y = patch_merge(x)
        assert y.shape == (1, 1, 4)
        np.testing.assert_array_equal(y.data[0, 0], [10.0, 11.0, 12.0, 13.0])

    def test_constant_stays_constant(self):
        y = patch_merge(Tensor(np.full((4, 6, 2), 2.5)))
        assert y.shape == (2, 3, 8)
        np.testing.assert_array_equal(y.data, 2.5)

    def test_full_index_map_against_oracle(self):
        x = rand((6, 8, 3), seed=13)
        np.testing.assert_array_equal(patch_merge(x).data, patch_merge_naive(x.data))

    def test_odd_extent_rejected(self):
        with pytest.raises(LayoutError):
            patch_merge(rand((3, 4, 1)))


class TestAlternateSelect:
    def test_four_channel_example(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 4))
        np.testing.assert_array_equal(alternate_select(x).data[0, 0], [1.0, 3.0])

    def test_two_channel_keeps_channel_zero(self):
        x = rand((2, 2, 2), seed=14)
        np.testing.assert_array_equal(alternate_select(x).data, x.data[..., :1])

    def test_output_channel_m_is_input_channel_2m(self):
        x = rand((3, 4, 8), seed=15)
        y = alternate_select(x)
        for m in range(4):
            np.testing.assert_array_equal(y.data[..., m], x.data[..., 2 * m])

    def test_odd_channels_rejected(self):
        with pytest.raises(LayoutError):
            alternate_select(rand((2, 2, 3)))


class TestPatchReverse:
    def test_inverse_of_merge_example(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 4))
        y = patch_reverse(x)
        assert y.shape == (2, 2, 1)
        np.testing.assert_array_equal(y.data[:, :, 0], [[1.0, 2.0], [3.0, 4.0]])

    def test_round_trip(self):
        x = rand((6, 4, 5), seed=16)
        np.testing.assert_array_equal(patch_reverse(patch_merge(x)).data, x.data)

    def test_irsc_chain_matches_composed_oracles(self):
        x = rand((4, 4, 4), seed=17)
        got = patch_reverse(alternate_select(patch_merge(x)))
        assert got.shape == (4, 4, 2)
        merged = patch_merge_naive(x.data)
        want = patch_reverse_naive(merged[..., ::2])
        np.testing.assert_array_equal(got.data, want)

    def test_channels_not_multiple_of_four_rejected(self):
        with pytest.raises(LayoutError):
            patch_reverse(rand((2, 2, 6)))


class TestStackAndGridContracts:
    def test_grid_validation(self):
        with pytest.raises(LayoutError):
            WindowGrid(4, 4, 1, 3)
        with pytest.raises(LayoutError):
            WindowGrid(0, 4, 1, 1)

    def test_stack_shape_validation(self):
        grid = WindowGrid(4, 4, 1, 2)
        with pytest.raises(LayoutError):
            WindowStack(Tensor(np.zeros((4, 3, 3, 1))), grid)

    def test_stack_grid_must_window_its_source_extents(self):
        # a reverse reads its geometry from orig_hw and grid.p, so a grid
        # that padding orig_hw would not give, or a displaced stack whose
        # window is not twice a displacement granularity, is refused
        with pytest.raises(LayoutError):
            WindowStack(Tensor(np.zeros((4, 2, 2, 1))), WindowGrid(4, 4, 1, 2), orig_hw=(2, 2))
        with pytest.raises(LayoutError):
            WindowStack(Tensor(np.zeros((4, 1, 1, 1))), WindowGrid(2, 2, 1, 1), displaced=True)
        assert WindowStack(Tensor(np.zeros((4, 2, 2, 1))), WindowGrid(4, 4, 1, 2), orig_hw=(3, 4)).orig_hw == (3, 4)

    @pytest.mark.parametrize("op", [local_partition, global_partition, pad_to_multiple])
    @pytest.mark.parametrize("size", [0, -2])
    def test_non_positive_window_size_rejected(self, op, size):
        with pytest.raises(LayoutError, match="must be positive"):
            op(rand((4, 4, 1)), size)

    def test_pad_to_multiple_and_crop(self):
        x = rand((5, 6, 2), seed=18)
        padded, before, orig = pad_to_multiple(x, 4)
        assert padded.shape == (8, 8, 2) and orig == (5, 6)
        back = crop_hw(padded, before[0], before[1], 5, 6)
        np.testing.assert_array_equal(back.data, x.data)


# unpadded and padded windows of each kind, and the toy model's 7×7 stage at
# P=1, whose global windows pad an odd, cyclically wrapped patch grid
WINDOW_CASES = [
    (local_partition, local_reverse, (2, 8, 8, 3), 2),
    (local_partition, local_reverse, (2, 5, 6, 3), 4),
    (local_partition, local_reverse, (2, 7, 7, 1), 1),
    (global_partition, global_reverse, (2, 8, 8, 3), 2),
    (global_partition, global_reverse, (2, 6, 6, 3), 2),
    (global_partition, global_reverse, (2, 7, 7, 1), 1),
]


class TestAdjoints:
    """Each window transform is one recorded node, and its rule takes an
    upstream gradient g to the matching reverse transform of g, bit for bit."""

    @staticmethod
    def assert_rule_gives(out, g, want):
        (record,) = graph_nodes(out)
        (grad,) = record[2](g)
        assert grad.shape == want.shape and grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("partition,reverse,shape,p", WINDOW_CASES)
    def test_partition_and_reverse(self, partition, reverse, shape, p):
        ws = partition(Tensor(rand(shape).data, requires_grad=True), p, pad=True)
        g = rand(ws.windows.shape, seed=1).data
        self.assert_rule_gives(ws.windows, g, reverse(replace(ws, windows=Tensor(g))).data)
        back = reverse(replace(ws, windows=Tensor(ws.windows.data, requires_grad=True)))
        g = rand(shape, seed=2).data
        self.assert_rule_gives(back, g, partition(Tensor(g), p, pad=True).windows.data)

    @pytest.mark.parametrize("shape,p", [((2, 8, 8, 3), 2), ((2, 7, 7, 1), 1)])
    def test_displace(self, shape, p):
        spec = DisplacementSpec(p)
        g = rand(shape, seed=3).data
        x = Tensor(rand(shape).data, requires_grad=True)
        self.assert_rule_gives(displace(x, spec), g, undisplace(Tensor(g), spec).data)
        self.assert_rule_gives(undisplace(x, spec), g, displace(Tensor(g), spec).data)


class TestZeroArithmetic:
    """Layout ops move values; they must never compute with them."""

    def test_nan_and_inf_survive_round_trips_bitwise(self):
        base = np.random.default_rng(19).standard_normal((8, 8, 4)).astype(np.float32)
        base[0, 0, 0] = np.nan
        base[1, 2, 3] = np.inf
        base[5, 7, 1] = -np.inf
        x = Tensor(base)
        for y in (
            local_reverse(local_partition(x, 2)),
            global_reverse(global_partition(x, 2)),
            patch_reverse(patch_merge(x)),
            undisplace(displace(x, DisplacementSpec(2)), DisplacementSpec(2)),
        ):
            assert y.data.tobytes() == base.tobytes()

    def test_displaced_values_are_copies_not_results(self):
        x = rand((6, 6, 1), seed=20)
        moved = displace(x, DisplacementSpec(1)).data
        np.testing.assert_array_equal(np.sort(moved, axis=None), np.sort(x.data, axis=None))


def test_displacement_map_is_bijection():
    for rows, cols in ((2, 2), (3, 5), (4, 4), (6, 2)):
        dest = displace_map_naive(rows, cols)
        assert sorted(dest.values()) == sorted(dest.keys())
