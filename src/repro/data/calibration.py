"""Calibration sampling used by range estimation and channel selection."""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np


def calibration_batches(data: np.ndarray, batch_size: int) -> List[np.ndarray]:
    """Split ``data`` into consecutive batches of ``batch_size`` (the last may be short)."""
    return [data[start : start + batch_size] for start in range(0, len(data), batch_size)]


class CalibrationSampler:
    """Draw small, deterministic calibration batches from a dataset.

    The paper calibrates activation ranges and the channel error scores on a
    small sampled dataset (128--256 images, Table 1); this class wraps that
    sampling so all FlexiQ components see the same calibration set.
    """

    def __init__(
        self,
        images: np.ndarray,
        size: int,
        batch_size: int = 32,
        seed: int = 0,
    ) -> None:
        if size <= 0:
            raise ValueError("calibration size must be positive")
        rng = np.random.default_rng(seed)
        count = min(size, len(images))
        index = rng.choice(len(images), size=count, replace=False)
        self.samples = np.array(images[index], copy=True)
        self.batch_size = int(batch_size)

    def __len__(self) -> int:
        return len(self.samples)

    def batches(self, limit: Optional[int] = None) -> Iterator[np.ndarray]:
        """Yield calibration batches, optionally capped at ``limit`` samples."""
        data = self.samples if limit is None else self.samples[:limit]
        return iter(calibration_batches(data, self.batch_size))

    def all(self) -> np.ndarray:
        """Return the full calibration set as one array."""
        return self.samples
