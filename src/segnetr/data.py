"""Synthetic shape-segmentation data.

Each sample paints 1-3 random ellipses or axis-aligned rectangles onto a dark
background; the mask labels shape interiors with classes 1..K-1 (later shapes
overwrite earlier ones) and the image colors each class with a bright
per-sample color over additive Gaussian noise.

A sample is a function of ``(seed, index)``: sample i is painted from
``SeedSequence(seed, spawn_key=(i,))``, which is ``SeedSequence(seed).spawn(n)[i]``
for every n > i.  So ``SyntheticSamples`` can paint any batch of indices on
demand and holds no image itself, and ``gen_synthetic`` is the same painter
over ``range(n)``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import ValidationError


@dataclass
class SyntheticDataset:
    images: np.ndarray  # (n, channels, size, size) float32 in [0, 1]
    masks: np.ndarray  # (n, size, size) int64, values < num_classes
    num_classes: int
    seed: int
    noise_sigma: float

    def __len__(self) -> int:
        return self.images.shape[0]

    def batches(self, batch_size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Full batches in dataset order; a trailing short batch is kept."""
        for start in range(0, len(self), batch_size):
            yield self.images[start : start + batch_size], self.masks[start : start + batch_size]

    def foreground_fraction(self) -> float:
        return float((self.masks > 0).mean())


@dataclass(frozen=True)
class SyntheticSamples:
    """``n`` size×size samples of one seed, painted only when asked for:
    ``batch`` paints any indices, and ``batches`` goes through all ``n`` one
    batch at a time, so a consumer holds one batch, never the whole set."""

    n: int
    size: int
    num_classes: int
    seed: int
    channels: int = 3
    noise_sigma: float = 0.05

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"need at least one sample, got n={self.n}")
        if self.size < 8:
            raise ValidationError(f"size must be at least 8, got {self.size}")
        if self.num_classes < 2:
            raise ValidationError(f"num_classes must be at least 2, got {self.num_classes}")
        if self.channels not in (1, 3):
            raise ValidationError(f"channels must be 1 or 3, got {self.channels}")
        if self.noise_sigma < 0:
            raise ValidationError(f"noise_sigma must be non-negative, got {self.noise_sigma}")

    def batch(self, indices: Iterable[int]) -> SyntheticDataset:
        """Samples ``indices`` in the order given, repeats allowed."""
        indices = [operator.index(i) for i in indices]
        for i in indices:
            if not 0 <= i < self.n:
                raise ValidationError(f"sample index {i} outside [0, {self.n})")
        images = np.empty((len(indices), self.channels, self.size, self.size), dtype=np.float32)
        masks = np.empty((len(indices), self.size, self.size), dtype=np.int64)
        for row, i in enumerate(indices):
            rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(i,)))
            images[row], masks[row] = _paint(rng, self.size, self.num_classes, self.channels,
                                             self.noise_sigma)
        return SyntheticDataset(images, masks, self.num_classes, self.seed, self.noise_sigma)

    def batches(self, batch_size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Batches in index order, each painted when reached; a trailing
        short batch is kept."""
        for start in range(0, self.n, batch_size):
            part = self.batch(range(start, min(start + batch_size, self.n)))
            yield part.images, part.masks


def _paint(rng: np.random.Generator, size: int, num_classes: int, channels: int,
           noise_sigma: float) -> tuple[np.ndarray, np.ndarray]:
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    mask = np.zeros((size, size), dtype=np.int64)
    background = rng.uniform(0.05, 0.35, size=channels)
    image = np.broadcast_to(background[:, None, None], (channels, size, size)).copy()
    class_colors = rng.uniform(0.5, 0.95, size=(num_classes, channels))
    for _ in range(int(rng.integers(1, 4))):
        label = int(rng.integers(1, num_classes))
        cy, cx = rng.uniform(0.2 * size, 0.8 * size, size=2)
        ay, ax = rng.uniform(0.08 * size, 0.28 * size, size=2)
        if rng.random() < 0.5:
            inside = ((yy - cy) / ay) ** 2 + ((xx - cx) / ax) ** 2 <= 1.0
        else:
            inside = (np.abs(yy - cy) <= ay) & (np.abs(xx - cx) <= ax)
        mask[inside] = label
        image[:, inside] = class_colors[label][:, None]
    image += rng.normal(0.0, noise_sigma, size=image.shape)
    return np.clip(image, 0.0, 1.0).astype(np.float32), mask


def gen_synthetic(n: int, size: int, num_classes: int, seed: int, *,
                  channels: int = 3, noise_sigma: float = 0.05) -> SyntheticDataset:
    """Generate ``n`` deterministic size×size samples for the given seed."""
    return SyntheticSamples(n, size, num_classes, seed, channels, noise_sigma).batch(range(n))
