"""Functional simulator of the mixed-precision GEMM kernel.

The latency models in :mod:`repro.hardware.gpu` are analytic; this module
complements them with a *functional* kernel that performs the exact integer
arithmetic the hardware would: per-group bit extraction of activations and
weights, 4-bit multiply-accumulate of the extracted values, bit-shifted
accumulation into the 8-bit partial sums.  It is used to

* verify that the FlexiQ runtime layers (:mod:`repro.core.runtime`) and the
  hardware kernel produce identical results, and
* count the operations (MMA instructions, shift-adds, bytes moved) that the
  latency models charge -- the Section 8.6 overhead analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bit_extraction import dynamic_extraction_shift, lower_bits


@dataclass
class KernelStats:
    """Operation counts accumulated by the functional kernel."""

    mma_int8: int = 0
    mma_int4: int = 0
    shift_accumulates: int = 0
    dynamic_or_reductions: int = 0
    weight_bytes: int = 0
    activation_bytes: int = 0


def mixed_gemm_reference(
    q_x: np.ndarray,
    q_w: np.ndarray,
    boundary: int,
    act_shift: np.ndarray,
    weight_shift: np.ndarray,
) -> np.ndarray:
    """Reference mixed-precision GEMM: ``q_x @ q_w.T`` with a 4-bit prefix.

    ``q_x``: (rows, K) int activations; ``q_w``: (N, K) int weights;
    the first ``boundary`` columns use extracted 4-bit values with the
    given per-channel shifts, the remainder full 8-bit values.
    """
    q_x = np.asarray(q_x, dtype=np.int64)
    q_w = np.asarray(q_w, dtype=np.int64)
    acc = np.zeros((q_x.shape[0], q_w.shape[0]), dtype=np.int64)
    if boundary > 0:
        a_shift = np.asarray(act_shift[:boundary], dtype=np.int64)
        w_shift = np.asarray(weight_shift[:boundary], dtype=np.int64)
        x_low = lower_bits(q_x[:, :boundary], a_shift[None, :]).astype(np.int64)
        w_low = lower_bits(q_w[:, :boundary], w_shift[None, :]).astype(np.int64)
        shifted_x = x_low << a_shift[None, :]
        shifted_w = w_low << w_shift[None, :]
        acc += shifted_x @ shifted_w.T
    if boundary < q_x.shape[1]:
        acc += q_x[:, boundary:] @ q_w[:, boundary:].T
    return acc


class MixedPrecisionGemm:
    """Group-structured mixed GEMM with explicit per-group accumulation.

    This follows the hardware dataflow: the reduction dimension is split into
    channel groups; each 4-bit group produces a partial sum via an INT4 MMA
    which is then shifted by the group's extraction position and added to the
    accumulator; 8-bit groups accumulate directly.
    """

    low_bits = 4
    high_bits = 8

    def __init__(self, group_size: int = 32) -> None:
        if group_size <= 0:
            raise ValueError("group_size must be positive")
        self.group_size = group_size
        self.stats = KernelStats()

    def __call__(
        self,
        q_x: np.ndarray,
        q_w: np.ndarray,
        max_4bit_ch: int,
        act_shift: np.ndarray,
        weight_shift: np.ndarray,
        dynamic_extraction: bool = False,
    ) -> np.ndarray:
        """Run the kernel; returns the int accumulator (rows, N)."""
        q_x = np.asarray(q_x, dtype=np.int64)
        q_w = np.asarray(q_w, dtype=np.int64)
        rows, channels = q_x.shape
        n_out = q_w.shape[0]
        if q_w.shape[1] != channels:
            raise ValueError("activation/weight channel mismatch")
        if not 0 <= max_4bit_ch <= channels:
            raise ValueError("max_4bit_ch out of range")

        acc = np.zeros((rows, n_out), dtype=np.int64)
        self.stats.weight_bytes += q_w.size  # weights stored as 8-bit
        self.stats.activation_bytes += q_x.size

        group = self.group_size
        for start in range(0, channels, group):
            stop = min(start + group, channels)
            x_slice = q_x[:, start:stop]
            w_slice = q_w[:, start:stop]
            if stop <= max_4bit_ch:
                # 4-bit group: extract, multiply in 4-bit, shift-accumulate.
                a_shift = int(act_shift[start:stop].max())
                w_shift = int(weight_shift[start:stop].max())
                if dynamic_extraction:
                    a_shift = int(
                        dynamic_extraction_shift(
                            x_slice, self.high_bits, self.low_bits
                        )
                    )
                    self.stats.dynamic_or_reductions += x_slice.size
                x_low = lower_bits(x_slice, a_shift, self.low_bits).astype(np.int64)
                w_low = lower_bits(w_slice, w_shift, self.low_bits).astype(np.int64)
                partial = x_low @ w_low.T
                acc += partial << (a_shift + w_shift)
                self.stats.mma_int4 += rows * n_out * (stop - start)
                self.stats.shift_accumulates += rows * n_out
            else:
                acc += x_slice @ w_slice.T
                self.stats.mma_int8 += rows * n_out * (stop - start)
        return acc
