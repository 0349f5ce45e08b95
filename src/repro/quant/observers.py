"""Range observers for activations and weights.

Two observers are provided, mirroring the paper's setup (Section 8.1):

* :class:`MinMaxObserver` -- plain running min/max, used for weights.
* :class:`EmaMinMaxObserver` -- exponential moving average of per-batch
  min/max with momentum 0.99, used for activations.

The min/max observer tracks statistics per tensor or per channel along a
chosen axis; the EMA observer per tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass
class TensorRange:
    """Observed value range, possibly per channel."""

    low: np.ndarray
    high: np.ndarray

    @property
    def max_abs(self) -> np.ndarray:
        """Symmetric range radius max(|low|, |high|)."""
        return np.maximum(np.abs(self.low), np.abs(self.high))


def _reduce_axes(shape_len: int, channel_axis: Optional[int]) -> Optional[Tuple[int, ...]]:
    if channel_axis is None:
        return None
    return tuple(axis for axis in range(shape_len) if axis != channel_axis)


class MinMaxObserver:
    """Track running minimum/maximum, per tensor or per channel."""

    def __init__(self, channel_axis: Optional[int] = None) -> None:
        self.channel_axis = channel_axis
        self._low: Optional[np.ndarray] = None
        self._high: Optional[np.ndarray] = None

    @property
    def initialized(self) -> bool:
        return self._low is not None

    def observe(self, values: np.ndarray) -> None:
        """Update the running range with a new batch of values."""
        values = np.asarray(values)
        axes = _reduce_axes(values.ndim, self.channel_axis)
        if axes is None:
            batch_low = np.asarray(values.min(), dtype=np.float32).reshape(1)
            batch_high = np.asarray(values.max(), dtype=np.float32).reshape(1)
        else:
            batch_low = values.min(axis=axes).astype(np.float32)
            batch_high = values.max(axis=axes).astype(np.float32)
        if self._low is None:
            self._low, self._high = batch_low.copy(), batch_high.copy()
        else:
            np.minimum(self._low, batch_low, out=self._low)
            np.maximum(self._high, batch_high, out=self._high)

    def range(self) -> TensorRange:
        if self._low is None:
            raise RuntimeError("observer has not seen any data")
        return TensorRange(low=self._low.copy(), high=self._high.copy())


class EmaMinMaxObserver:
    """Per-tensor exponential-moving-average min/max observer (momentum 0.99
    by default)."""

    def __init__(self, momentum: float = 0.99) -> None:
        if not 0.0 < momentum < 1.0:
            raise ValueError("momentum must lie in (0, 1)")
        self.momentum = float(momentum)
        self._low: Optional[np.ndarray] = None
        self._high: Optional[np.ndarray] = None

    @property
    def initialized(self) -> bool:
        return self._low is not None

    def observe(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        batch_low = np.asarray(values.min(), dtype=np.float32).reshape(1)
        batch_high = np.asarray(values.max(), dtype=np.float32).reshape(1)
        if self._low is None:
            self._low, self._high = batch_low.copy(), batch_high.copy()
        else:
            m = self.momentum
            self._low = m * self._low + (1.0 - m) * batch_low
            self._high = m * self._high + (1.0 - m) * batch_high

    def range(self) -> TensorRange:
        if self._low is None:
            raise RuntimeError("observer has not seen any data")
        return TensorRange(low=self._low.copy(), high=self._high.copy())
