"""Effective bit extraction (the paper's "bit-lowering", Section 4.1).

Given values already quantized at a high bitwidth (8 bits), FlexiQ converts a
feature channel to a low bitwidth (4 bits) by extracting a window of bits
that starts just below the channel's highest *used* bit, instead of always
taking the top bits.  For channels whose value range leaves the top bits
unused this increases the effective precision of the 4-bit representation.

Terminology used throughout this module:

``used_bits``
    Number of magnitude bits needed to represent the channel's largest
    absolute quantized value (the sign bit is excluded).  An 8-bit channel
    has at most 7 used bits.
``shift`` (extraction position)
    The low-bitwidth value is ``round(q_high / 2**shift)``; reconstructing
    multiplies back by ``2**shift``.  Uniform (naive) lowering always uses
    ``shift = high_bits - low_bits``; FlexiQ uses
    ``shift = clip(used_bits - (low_bits - 1), 0, high_bits - low_bits)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.quant.quantizers import int_range


def unused_bits(max_abs_q: np.ndarray, bits: int = 8) -> np.ndarray:
    """Number of unused magnitude bits per channel.

    ``max_abs_q`` holds each channel's maximum absolute value in the
    ``bits``-wide integer domain.  A channel whose largest magnitude fits in
    ``k`` bits leaves ``bits - 1 - k`` magnitude bits unused.
    """
    max_abs_q = np.abs(np.asarray(max_abs_q, dtype=np.float64))
    used = used_bits(max_abs_q)
    return np.maximum((bits - 1) - used, 0).astype(np.int64)


def used_bits(max_abs_q: np.ndarray) -> np.ndarray:
    """Magnitude bits required to represent each value of ``max_abs_q``."""
    max_abs_q = np.abs(np.asarray(max_abs_q, dtype=np.float64))
    with np.errstate(divide="ignore"):
        bits = np.ceil(np.log2(np.floor(max_abs_q) + 1.0))
    return np.maximum(bits, 0).astype(np.int64)


def extraction_shift(
    max_abs_q: np.ndarray, high_bits: int = 8, low_bits: int = 4
) -> np.ndarray:
    """FlexiQ's static extraction position for each channel.

    The returned shift keeps the ``low_bits - 1`` most significant *used*
    magnitude bits (plus sign).  It never exceeds the naive shift
    ``high_bits - low_bits`` and never goes below zero.
    """
    naive = high_bits - low_bits
    shift = used_bits(max_abs_q) - (low_bits - 1)
    return np.clip(shift, 0, naive).astype(np.int64)


def dynamic_extraction_shift(
    q_values: np.ndarray, high_bits: int = 8, low_bits: int = 4
) -> np.ndarray:
    """Extraction position computed from the actual runtime values.

    Mirrors the hardware trick described in the paper: OR all values in the
    channel group together to find the highest set bit, then place the
    extraction window right below it.
    """
    magnitudes = np.abs(np.asarray(q_values).astype(np.int64))
    max_abs = magnitudes.max() if magnitudes.size else 0
    return extraction_shift(np.asarray(max_abs), high_bits=high_bits, low_bits=low_bits)


def group_shared_max(values: np.ndarray, group_size: int) -> np.ndarray:
    """Share the maximum value within contiguous groups of ``group_size``.

    The last group may be shorter than ``group_size``; it shares the maximum
    of its own (short) tail only.  Implemented as a padded reshape + reduce so
    it stays vectorized for any channel count.
    """
    values = np.asarray(values)
    if group_size <= 0:
        raise ValueError("group_size must be positive")
    n = values.shape[0]
    if group_size == 1 or n == 0:
        return values.copy()
    pad = (-n) % group_size
    if pad:
        if np.issubdtype(values.dtype, np.integer):
            fill = np.iinfo(values.dtype).min
        else:
            fill = -np.inf
        padded = np.concatenate([values, np.full(pad, fill, dtype=values.dtype)])
    else:
        padded = values
    shared = np.repeat(padded.reshape(-1, group_size).max(axis=1), group_size)
    return shared[:n]


def lower_bits(
    q_high: np.ndarray, shift: np.ndarray, low_bits: int = 4
) -> np.ndarray:
    """Convert high-bitwidth integers to ``low_bits`` using extraction ``shift``.

    ``shift`` broadcasts against ``q_high``.  Values whose magnitude exceeds
    the representable window saturate (this is the behaviour analysed in
    Figure 13).
    """
    qmin, qmax = int_range(low_bits)
    q_high = np.asarray(q_high, dtype=np.float64)
    factor = np.power(2.0, np.asarray(shift, dtype=np.float64))
    lowered = np.round(q_high / factor)
    return np.clip(lowered, qmin, qmax).astype(np.int32)


def raise_bits(q_low: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Map extracted low-bit values back onto the high-bit integer grid."""
    factor = np.power(2.0, np.asarray(shift, dtype=np.float64))
    return (np.asarray(q_low, dtype=np.float64) * factor).astype(np.int32)


def saturation_fraction(q_high: np.ndarray, shift: np.ndarray) -> float:
    """Fraction of values that saturate the 4-bit window under ``shift``."""
    qmin, qmax = int_range(4)
    q_high = np.asarray(q_high, dtype=np.float64)
    factor = np.power(2.0, np.asarray(shift, dtype=np.float64))
    lowered = np.round(q_high / factor)
    saturated = (lowered < qmin) | (lowered > qmax)
    if saturated.size == 0:
        return 0.0
    return float(np.mean(saturated))


@dataclass
class BitExtractionPlan:
    """Static per-feature-channel extraction positions for one layer.

    Attributes
    ----------
    weight_shift:
        Extraction shift for the weight values of each feature channel,
        shaped (feature_channels,).
    act_shift:
        Extraction shift for the activations of each feature channel,
        shaped (feature_channels,).
    high_bits, low_bits:
        Source and target bitwidths (8 and 4 throughout the paper).
    """

    weight_shift: np.ndarray
    act_shift: np.ndarray
    high_bits: int = 8
    low_bits: int = 4

    def __post_init__(self) -> None:
        self.weight_shift = np.asarray(self.weight_shift, dtype=np.int64)
        self.act_shift = np.asarray(self.act_shift, dtype=np.int64)
        if self.weight_shift.shape != self.act_shift.shape:
            raise ValueError("weight and activation shifts must align per channel")

    @property
    def num_channels(self) -> int:
        return int(self.weight_shift.shape[0])

    @property
    def naive_shift(self) -> int:
        return self.high_bits - self.low_bits

    def effective_weight_bits(self) -> np.ndarray:
        """Effective precision of the lowered weights per channel.

        A channel whose extraction window skips ``naive_shift - shift`` unused
        bits behaves like a ``low_bits + (naive_shift - shift)``-bit quantizer
        for in-range values.
        """
        gain = self.naive_shift - self.weight_shift
        return self.low_bits + gain

    @staticmethod
    def naive(num_channels: int, high_bits: int = 8, low_bits: int = 4) -> "BitExtractionPlan":
        """Plan equivalent to uniform bit lowering (always keep top bits)."""
        shift = np.full(num_channels, high_bits - low_bits, dtype=np.int64)
        return BitExtractionPlan(
            weight_shift=shift.copy(), act_shift=shift.copy(),
            high_bits=high_bits, low_bits=low_bits,
        )

    @staticmethod
    def from_channel_maxima(
        weight_max_q: np.ndarray,
        act_max_q: np.ndarray,
        high_bits: int = 8,
        low_bits: int = 4,
    ) -> "BitExtractionPlan":
        """Build a plan from per-channel maxima in the high-bit integer domain."""
        return BitExtractionPlan(
            weight_shift=extraction_shift(weight_max_q, high_bits, low_bits),
            act_shift=extraction_shift(act_max_q, high_bits, low_bits),
            high_bits=high_bits,
            low_bits=low_bits,
        )

    def group_reduce(self, group_size: int) -> "BitExtractionPlan":
        """Coarsen the plan so all channels in a hardware group share a shift.

        The group shift must accommodate the largest value in the group, so
        the maximum shift within each group is used.  Channel counts that are
        not a multiple of ``group_size`` are handled by treating the trailing
        channels as one short group.
        """
        if group_size <= 0:
            raise ValueError("group_size must be positive")
        return BitExtractionPlan(
            weight_shift=group_shared_max(self.weight_shift, group_size),
            act_shift=group_shared_max(self.act_shift, group_size),
            high_bits=self.high_bits,
            low_bits=self.low_bits,
        )
