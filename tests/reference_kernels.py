"""Test oracles for the integer kernels: the arithmetic stated plainly.

None of these runs on any serving or paper path; tests hold the library's
kernels, extraction planes and quantizers against them.
"""

from __future__ import annotations

import numpy as np

from repro.core.bit_extraction import lower_bits, raise_bits
from repro.quant.quantizers import QuantParams, dequantize, int_range, quantize


def uniform_gemm_reference(q_x: np.ndarray, q_w: np.ndarray, bits: int) -> np.ndarray:
    """Uniform integer GEMM used as the INT4/INT8 baseline kernel."""
    qmin, qmax = int_range(bits)
    q_x = np.clip(np.asarray(q_x, dtype=np.int64), qmin, qmax)
    q_w = np.clip(np.asarray(q_w, dtype=np.int64), qmin, qmax)
    return q_x @ q_w.T


def lowering_error(
    q_high: np.ndarray, shift: np.ndarray, low_bits: int = 4
) -> np.ndarray:
    """Absolute reconstruction error (in the high-bit integer domain)."""
    reconstructed = raise_bits(lower_bits(q_high, shift, low_bits), shift)
    return np.abs(np.asarray(q_high, dtype=np.float64) - reconstructed)


def quantization_error(values: np.ndarray, qparams: QuantParams) -> float:
    """Mean absolute error introduced by quantize/dequantize round trip."""
    values = np.asarray(values, dtype=np.float32)
    reconstructed = dequantize(quantize(values, qparams), qparams)
    return float(np.mean(np.abs(values - reconstructed)))
