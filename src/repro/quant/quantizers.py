"""Uniform symmetric quantization primitives.

All quantization in the reproduction is symmetric (zero point 0), matching
Equation (1) of the paper: ``x_q = clip(round(x / S), Q_n, Q_p)``.  Scales may
be per tensor or per channel; the helpers below keep the broadcasting rules
in one place so the quantized layers and the FlexiQ kernels agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.quant.observers import TensorRange
from repro.tensor import Tensor


def int_range(bits: int) -> Tuple[int, int]:
    """Signed integer range [Q_n, Q_p] for a bitwidth."""
    if bits < 2 or bits > 8:
        raise ValueError("supported bitwidths are 2..8")
    return -(2 ** (bits - 1)), 2 ** (bits - 1) - 1


@dataclass
class QuantParams:
    """Scale/bitwidth bundle describing a symmetric uniform quantizer."""

    scale: np.ndarray
    bits: int
    channel_axis: Optional[int] = None

    def __post_init__(self) -> None:
        self.scale = np.asarray(self.scale, dtype=np.float32).reshape(-1)
        self.qmin, self.qmax = int_range(self.bits)

    @property
    def per_channel(self) -> bool:
        return self.channel_axis is not None

    def broadcast_scale(self, ndim: int) -> np.ndarray:
        """Return the scale shaped for broadcasting against an ndim-array."""
        if not self.per_channel:
            return self.scale.reshape(())
        shape = [1] * ndim
        shape[self.channel_axis] = -1
        return self.scale.reshape(shape)


def compute_qparams(
    value_range: TensorRange,
    bits: int,
    channel_axis: Optional[int] = None,
) -> QuantParams:
    """Derive symmetric quantization parameters from an observed range (the
    scale is floored at 1e-8, so an all-zero channel still divides)."""
    _, qmax = int_range(bits)
    scale = value_range.max_abs.astype(np.float32) / qmax
    scale = np.maximum(scale, 1e-8)
    return QuantParams(scale=scale, bits=bits, channel_axis=channel_axis)


def quantize(values: np.ndarray, qparams: QuantParams) -> np.ndarray:
    """Quantize float values to integers (int32 storage, int``bits`` range)."""
    values = np.asarray(values, dtype=np.float32)
    scale = qparams.broadcast_scale(values.ndim)
    q = np.round(values / scale)
    return np.clip(q, qparams.qmin, qparams.qmax).astype(np.int32)


def quantize_unclipped(values: np.ndarray, qparams: QuantParams) -> np.ndarray:
    """``rint(values / scale)`` as a fresh float32 array, *not* clipped.

    The first half of :func:`quantize`, for callers that merge the clip into
    a later pass (:meth:`repro.core.prepared.PreparedKernel.lower`).
    """
    values = np.asarray(values, dtype=np.float32)
    q = values / qparams.broadcast_scale(values.ndim)
    np.rint(q, out=q)
    return q


def quantize_cast(
    values: np.ndarray, qparams: QuantParams, dtype=np.float64
) -> np.ndarray:
    """:func:`quantize` fused with the cast to the GEMM dtype.

    Skips the int32 detour of ``quantize(values, qparams).astype(dtype)``
    while remaining bit-exact with it: the division and rounding happen in
    float32 exactly as in :func:`quantize`, and the rounded, clipped values
    are small integers representable exactly in every float dtype.  Used by
    the uniform quantized kernels, which quantize activations on every
    forward but must never pay avoidable extra passes.
    """
    q = quantize_unclipped(values, qparams)
    np.maximum(q, qparams.qmin, out=q)
    np.minimum(q, qparams.qmax, out=q)
    if dtype == np.float32:
        return q
    return q.astype(dtype)


def gemm_plane(plane: np.ndarray, amax=128.0) -> np.ndarray:
    """``plane`` (K, out) as float32 if a float32 GEMM against it is exact.

    ``amax`` (scalar or (K,); 128 covers every supported bitwidth) bounds the
    integer activations row ``k`` meets.  Integer entries with ``max_j sum_k
    amax[k] * |plane[k, j]| < 2**24`` qualify (proof in
    :mod:`repro.core.prepared`); any other plane stays float64.
    """
    bound = (np.abs(plane) * np.reshape(amax, (-1, 1))).sum(axis=0).max(initial=0.0)
    if bound < 2.0 ** 24 and np.array_equal(plane, np.rint(plane)):
        return plane.astype(np.float32)
    return np.asarray(plane, dtype=np.float64)


def dequantize(q: np.ndarray, qparams: QuantParams) -> np.ndarray:
    """Map integer values back to floats."""
    q = np.asarray(q)
    scale = qparams.broadcast_scale(q.ndim)
    return (q.astype(np.float32) * scale).astype(np.float32)


def _ste_round(x: Tensor) -> Tensor:
    """Round with a straight-through gradient (identity in the backward pass)."""
    data = np.round(x.data)

    def backward(grad: np.ndarray):
        return (grad,)

    return Tensor._make(data, (x,), backward)


def fake_quantize(x: Tensor, qparams: QuantParams) -> Tensor:
    """Differentiable quantize-dequantize used for quantization-aware training.

    The forward pass reproduces the integer grid exactly; the backward pass
    uses the straight-through estimator with clipping-range masking, the
    standard recipe for QAT finetuning.
    """
    scale = Tensor(qparams.broadcast_scale(x.ndim))
    scaled = x / scale
    clipped = scaled.clip(float(qparams.qmin), float(qparams.qmax))
    rounded = _ste_round(clipped)
    return rounded * scale


def lower_bitwidth_naive(q_high: np.ndarray, high_bits: int, low_bits: int) -> np.ndarray:
    """Uniform (non-FlexiQ) bit lowering: keep the top ``low_bits`` bits.

    Equivalent to re-quantizing onto a grid that is ``2**(high_bits-low_bits)``
    times coarser.  Used as the baseline in Figure 1 and the ablation study.
    """
    shift = high_bits - low_bits
    qmin, qmax = int_range(low_bits)
    q_low = np.round(np.asarray(q_high, dtype=np.float64) / (1 << shift))
    return np.clip(q_low, qmin, qmax).astype(np.int32)
