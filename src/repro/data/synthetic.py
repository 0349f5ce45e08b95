"""Synthetic image-classification datasets.

The generator produces class-conditional images from a mixture of spatial
basis patterns: each class owns a set of low-frequency prototypes, and every
sample is a noisy, randomly scaled blend of its class prototypes.  The
resulting datasets

* are learnable by the scaled-down model zoo to well above chance accuracy,
* contain per-channel statistics with diverse dynamic ranges (the property
  FlexiQ exploits), and
* are fully deterministic given a seed, so every benchmark run reproduces
  the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

import numpy as np


@dataclass(frozen=True)
class DatasetConfig:
    """Configuration of a synthetic image dataset."""

    name: str
    num_classes: int = 10
    image_size: int = 16
    channels: int = 3
    train_size: int = 512
    test_size: int = 256
    noise_scale: float = 0.35
    prototypes_per_class: int = 3
    seed: int = 7


class SyntheticImageDataset:
    """Deterministic class-conditional image dataset with batching helpers."""

    def __init__(self, config: DatasetConfig) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed)
        self._prototypes = self._make_prototypes(rng)
        self.train_images, self.train_labels = self._sample(rng, config.train_size)
        self.test_images, self.test_labels = self._sample(rng, config.test_size)

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def _make_prototypes(self, rng: np.random.Generator) -> np.ndarray:
        """Build per-class prototype images from smooth random fields."""
        cfg = self.config
        size = cfg.image_size
        yy, xx = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size))
        prototypes = np.zeros(
            (cfg.num_classes, cfg.prototypes_per_class, cfg.channels, size, size),
            dtype=np.float32,
        )
        for cls in range(cfg.num_classes):
            for proto in range(cfg.prototypes_per_class):
                for channel in range(cfg.channels):
                    freq_x = rng.integers(1, 4)
                    freq_y = rng.integers(1, 4)
                    phase = rng.uniform(0, 2 * np.pi)
                    amplitude = rng.uniform(0.5, 1.5)
                    pattern = amplitude * np.sin(
                        2 * np.pi * (freq_x * xx + freq_y * yy) + phase
                    )
                    blob_x, blob_y = rng.uniform(0.2, 0.8, size=2)
                    blob = np.exp(-(((xx - blob_x) ** 2 + (yy - blob_y) ** 2) / 0.05))
                    prototypes[cls, proto, channel] = pattern + 1.5 * blob
        return prototypes

    def _sample(
        self, rng: np.random.Generator, count: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        cfg = self.config
        labels = rng.integers(0, cfg.num_classes, size=count)
        images = np.zeros(
            (count, cfg.channels, cfg.image_size, cfg.image_size), dtype=np.float32
        )
        for index, label in enumerate(labels):
            weights = rng.dirichlet(np.ones(cfg.prototypes_per_class))
            blend = np.tensordot(weights, self._prototypes[label], axes=1)
            scale = rng.uniform(0.8, 1.2)
            noise = rng.normal(0.0, cfg.noise_scale, size=blend.shape)
            images[index] = scale * blend + noise
        # Normalise to roughly unit variance per dataset.
        images = (images - images.mean()) / (images.std() + 1e-8)
        return images.astype(np.float32), labels.astype(np.int64)

    # ------------------------------------------------------------------
    # Access helpers
    # ------------------------------------------------------------------
    @property
    def num_classes(self) -> int:
        return self.config.num_classes

    def train_batches(
        self, batch_size: int, rng: np.random.Generator | None = None
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield shuffled training mini-batches."""
        order = np.arange(len(self.train_labels))
        if rng is not None:
            rng.shuffle(order)
        for start in range(0, len(order), batch_size):
            index = order[start : start + batch_size]
            yield self.train_images[index], self.train_labels[index]

    def test_batches(self, batch_size: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield test mini-batches in order."""
        for start in range(0, len(self.test_labels), batch_size):
            yield (
                self.test_images[start : start + batch_size],
                self.test_labels[start : start + batch_size],
            )


DATASET_REGISTRY: Dict[str, DatasetConfig] = {
    # CIFAR-10 stand-in: small images, fewer samples.
    "synthetic-cifar10": DatasetConfig(
        name="synthetic-cifar10", num_classes=10, image_size=16,
        train_size=512, test_size=256, seed=11,
    ),
    # CIFAR-100 stand-in: more classes, same geometry.
    "synthetic-cifar100": DatasetConfig(
        name="synthetic-cifar100", num_classes=20, image_size=16,
        train_size=640, test_size=256, seed=13,
    ),
    # ImageNet stand-in: same geometry but a harder noise level, so the
    # accuracy differences between precision settings are visible.
    "synthetic-imagenet": DatasetConfig(
        name="synthetic-imagenet", num_classes=10, image_size=16,
        train_size=512, test_size=256, noise_scale=0.6, seed=17,
    ),
}

_DATASET_CACHE: Dict[str, SyntheticImageDataset] = {}


def build_dataset(name: str) -> SyntheticImageDataset:
    """Build a registered synthetic dataset once; later calls share it."""
    if name not in DATASET_REGISTRY:
        raise KeyError(
            f"unknown dataset {name!r}; available: {', '.join(sorted(DATASET_REGISTRY))}"
        )
    if name not in _DATASET_CACHE:
        _DATASET_CACHE[name] = SyntheticImageDataset(DATASET_REGISTRY[name])
    return _DATASET_CACHE[name]
