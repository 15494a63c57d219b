"""Synthetic dataset generator tests."""

import numpy as np
import pytest

from segnetr.data import SyntheticSamples, _paint, gen_synthetic
from segnetr.errors import ValidationError


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        a = gen_synthetic(1, 32, 2, seed=7)
        b = gen_synthetic(1, 32, 2, seed=7)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.masks, b.masks)

    def test_different_seed_differs(self):
        a = gen_synthetic(1, 32, 2, seed=7)
        b = gen_synthetic(1, 32, 2, seed=8)
        assert not np.array_equal(a.images, b.images)

    def test_sample_i_independent_of_n(self):
        big = gen_synthetic(5, 32, 3, seed=11)
        small = gen_synthetic(3, 32, 3, seed=11)
        np.testing.assert_array_equal(big.images[2], small.images[2])
        np.testing.assert_array_equal(big.masks[2], small.masks[2])


class TestPerIndexBatches:
    """A sample is a function of (seed, index), so a batch of any indices
    equals the matching rows of the whole set, bit for bit."""

    @pytest.mark.parametrize("n, seed, num_classes, channels", [
        (1, 0, 2, 3), (5, 7, 2, 1), (6, 11, 3, 3), (9, 123456789, 4, 1), (12, 2**40, 2, 3),
    ])
    def test_batch_rows_equal_the_whole_set(self, n, seed, num_classes, channels):
        whole = gen_synthetic(n, 16, num_classes, seed, channels=channels)
        samples = SyntheticSamples(n, 16, num_classes, seed, channels=channels)
        rng = np.random.default_rng(seed % 1000)
        for indices in (rng.permutation(n), rng.integers(0, n, size=2 * n + 1), [n - 1] * 3):
            batch = samples.batch(indices)
            assert batch.images.dtype == np.float32 and batch.masks.dtype == np.int64
            assert batch.images.tobytes() == whole.images[indices].tobytes()
            assert batch.masks.tobytes() == whole.masks[indices].tobytes()
            assert batch.num_classes == num_classes

    @pytest.mark.parametrize("n, seed, num_classes, channels", [(4, 3, 2, 3), (3, 29, 5, 1)])
    def test_sample_i_is_child_i_of_the_spawned_seeds(self, n, seed, num_classes, channels):
        # oracle: child i of SeedSequence(seed).spawn(n), painted on its own
        batch = SyntheticSamples(n, 16, num_classes, seed, channels=channels).batch(range(n))
        for i, child in enumerate(np.random.SeedSequence(seed).spawn(n)):
            image, mask = _paint(np.random.default_rng(child), 16, num_classes, channels, 0.05)
            assert batch.images[i].tobytes() == image.tobytes()
            assert batch.masks[i].tobytes() == mask.tobytes()

    @pytest.mark.parametrize("batch_size", [1, 3, 7, 8])
    def test_batches_go_through_the_set_in_order(self, batch_size):
        whole = gen_synthetic(7, 16, 3, seed=4)
        parts = list(SyntheticSamples(7, 16, 3, seed=4).batches(batch_size))
        assert [len(m) for _, m in parts] == [len(m) for _, m in whole.batches(batch_size)]
        assert np.concatenate([i for i, _ in parts]).tobytes() == whole.images.tobytes()
        assert np.concatenate([m for _, m in parts]).tobytes() == whole.masks.tobytes()

    @pytest.mark.parametrize("indices", [[0, 4], [-1]])
    def test_batch_rejects_out_of_range_indices(self, indices):
        with pytest.raises(ValidationError, match=f"sample index {indices[-1]} outside"):
            SyntheticSamples(4, 16, 2, seed=0).batch(indices)


class TestContent:
    def test_binary_masks_use_only_two_classes(self):
        ds = gen_synthetic(8, 32, 2, seed=1)
        assert set(np.unique(ds.masks)) <= {0, 1}

    def test_multiclass_labels_below_num_classes(self):
        ds = gen_synthetic(8, 32, 4, seed=2)
        assert ds.masks.min() >= 0 and ds.masks.max() < 4

    def test_images_clipped_to_unit_range(self):
        ds = gen_synthetic(8, 32, 2, seed=3)
        assert ds.images.dtype == np.float32
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_mean_foreground_fraction_in_band(self):
        ds = gen_synthetic(100, 32, 2, seed=4)
        assert 0.05 < ds.foreground_fraction() < 0.6

    def test_every_sample_has_some_foreground(self):
        ds = gen_synthetic(20, 32, 2, seed=5)
        assert all((ds.masks[i] > 0).any() for i in range(20))

    def test_shapes_and_channel_modes(self):
        rgb = gen_synthetic(2, 16, 2, seed=6)
        assert rgb.images.shape == (2, 3, 16, 16) and rgb.masks.shape == (2, 16, 16)
        gray = gen_synthetic(2, 16, 2, seed=6, channels=1)
        assert gray.images.shape == (2, 1, 16, 16)

    def test_noise_free_mode(self):
        ds = gen_synthetic(2, 16, 2, seed=7, noise_sigma=0.0)
        fg = ds.images[0][:, ds.masks[0] > 0]
        bg = ds.images[0][:, ds.masks[0] == 0]
        assert fg.mean() > bg.mean()

    def test_batches_iterator(self):
        ds = gen_synthetic(5, 16, 2, seed=8)
        batches = list(ds.batches(2))
        assert [b[0].shape[0] for b in batches] == [2, 2, 1]


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(n=0, size=16, num_classes=2, seed=0),
        dict(n=1, size=4, num_classes=2, seed=0),
        dict(n=1, size=16, num_classes=1, seed=0),
        dict(n=1, size=16, num_classes=2, seed=0, channels=2),
        dict(n=1, size=16, num_classes=2, seed=0, noise_sigma=-0.1),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValidationError):
            gen_synthetic(**kwargs)
        with pytest.raises(ValidationError):
            SyntheticSamples(**kwargs)
