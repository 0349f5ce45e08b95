"""Quantized linear and convolution layers (uniform INT4/INT8 baselines).

Each quantized layer goes through three phases:

1. ``calibrating`` -- the layer runs in float and its observers record the
   input-activation ranges (per tensor for the scale, per feature channel for
   FlexiQ's later analysis).
2. ``freeze()`` -- quantization parameters are computed from the observers
   and the integer weights are cached (int8) so inference never re-quantizes
   them; ``reset_calibration()`` and weight updates invalidate the cache.
3. quantized inference -- activations are mapped to integers per batch, the
   cached integer weights are reused, and the matrix multiplication is
   carried out on integer values (stored as floats so NumPy uses BLAS:
   float32 where :func:`repro.quant.quantizers.gemm_plane` proves that exact
   for the layer's weights, float64 otherwise), then rescaled back to float
   in float64.  This phase has one kernel body per layer,
   ``_quantized_forward``, from ``ndarray`` to ``ndarray``: ``forward`` hands
   it a raw array as is (inference, see :mod:`repro.nn.module`) and unwraps /
   rewraps a ``Tensor`` around it.

The FlexiQ mixed-precision layers in :mod:`repro.core.runtime` subclass these
and override only the integer kernel.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module, Parameter
from repro.quant.observers import EmaMinMaxObserver, MinMaxObserver, TensorRange
from repro.quant.quantizers import (
    QuantParams,
    compute_qparams,
    dequantize,
    fake_quantize,
    gemm_plane,
    quantize,
    quantize_cast,
)
from repro.tensor import Tensor, TensorOrArray, functional as F
from repro.tensor.functional import kept_columns, unfold


def conv_rescale(acc: np.ndarray, scale: np.ndarray, bias: Optional[Parameter]) -> np.ndarray:
    """(N, out, H', W') integer accumulators -- any strides: the kept columns
    of :func:`unfold`'s grid are read as they are -- to the float32 output:
    times ``scale`` (out, 1, 1) in float64 whatever the GEMM dtype (the result
    does not depend on it), plus bias, downcast."""
    out = np.multiply(acc, scale, dtype=np.float64)
    if bias is not None:
        out += bias.data[:, None, None]
    return out.astype(np.float32, order="C")


class QuantizedLayer(Module):
    """Common machinery shared by :class:`QuantLinear` and :class:`QuantConv2d`."""

    def __init__(self, weight_bits: int, act_bits: int, act_momentum: float = 0.99) -> None:
        super().__init__()
        self.weight_bits = int(weight_bits)
        self.act_bits = int(act_bits)
        self.calibrating = True
        # Per-tensor activation scale (EMA, like the paper) plus per-feature-
        # channel ranges used by FlexiQ's scoring and bit extraction.
        self.act_observer = EmaMinMaxObserver(momentum=act_momentum)
        self.act_channel_observer = MinMaxObserver(channel_axis=0)
        self.weight_qparams: Optional[QuantParams] = None
        self.act_qparams: Optional[QuantParams] = None
        # When set to a bitwidth, forward() runs the differentiable
        # fake-quantized path at that precision (used for QAT finetuning).
        self.qat_bits: Optional[int] = None
        # Cached integer weights (int8) plus the GEMM-ready float transpose,
        # computed once at freeze() instead of on every forward pass.
        # ``_q_weight_src`` holds references to the exact weight array and
        # QuantParams object the cache was built from; rebinding either
        # (optimizer steps, load_state_dict, analysis code swapping qparams)
        # is detected by identity, in-place mutation needs an explicit
        # invalidate_weight_cache().
        self._q_weight_cache: Optional[np.ndarray] = None
        self._q_weight_src: Optional[tuple] = None
        self._w_gemm_cache: Optional[np.ndarray] = None

    # -- implemented by subclasses ------------------------------------
    @property
    def feature_channels(self) -> int:
        raise NotImplementedError

    def _weight_matrix(self) -> np.ndarray:
        """Weights reshaped to (out_channels, feature_channels * k) form."""
        raise NotImplementedError

    def _float_forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def _observe_input(self, x: np.ndarray) -> None:
        raise NotImplementedError

    def _quantized_forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- calibration ----------------------------------------------------
    def qparams_at(self, weight_bits: int, act_bits: int) -> Tuple[QuantParams, QuantParams]:
        """Per-channel weight and per-tensor activation quant params at these widths."""
        weight = self._weight_reference().data
        weight = weight.reshape(weight.shape[0], -1)
        weight_range = TensorRange(low=weight.min(axis=1), high=weight.max(axis=1))
        return (
            compute_qparams(weight_range, weight_bits, channel_axis=0),
            compute_qparams(self.act_observer.range(), act_bits),
        )

    def freeze(self) -> None:
        """Finish calibration: compute weight and activation quant params."""
        self.weight_qparams, self.act_qparams = self.qparams_at(self.weight_bits, self.act_bits)
        self.calibrating = False
        # Quant params changed: rebuild the cached integer weights eagerly so
        # the first quantized forward is already on the fast path.
        self.invalidate_weight_cache()
        self.quantized_weight()

    def _weight_reference(self) -> Parameter:
        raise NotImplementedError

    # -- prepared weight cache ------------------------------------------
    def quantized_weight(self) -> np.ndarray:
        """Integer weights (int8 storage), cached between forward passes.

        The cache is rebuilt whenever the layer's weight array has been
        rebound since the last call (identity check), and dropped explicitly
        by :meth:`freeze`, :meth:`reset_calibration` and
        :meth:`invalidate_weight_cache`.
        """
        if self.weight_qparams is None:
            raise RuntimeError("freeze() must be called before quantized_weight")
        weight = self._weight_reference().data
        src = self._q_weight_src
        if (
            self._q_weight_cache is None
            or src[0] is not weight
            or src[1] is not self.weight_qparams
        ):
            self._q_weight_cache = quantize(weight, self.weight_qparams).astype(
                np.int8
            )
            self._q_weight_src = (weight, self.weight_qparams)
            self._w_gemm_cache = None
            self._on_weight_cache_invalidated()
        return self._q_weight_cache

    def _gemm_weight_t(self) -> np.ndarray:
        """Quantized weights as a GEMM-ready (features * taps, out) plane:
        float32 when exact for any activation bitwidth (:func:`gemm_plane`),
        else float64; callers cast the activations to its dtype."""
        q_w = self.quantized_weight()
        if self._w_gemm_cache is None:
            self._w_gemm_cache = gemm_plane(
                np.ascontiguousarray(q_w.reshape(q_w.shape[0], -1).T, np.float64)
            )
        return self._w_gemm_cache

    def invalidate_weight_cache(self) -> None:
        """Drop all cached weight-side state (int8 weights, GEMM operands)."""
        self._q_weight_cache = None
        self._q_weight_src = None
        self._w_gemm_cache = None
        self._on_weight_cache_invalidated()

    def _on_weight_cache_invalidated(self) -> None:
        """Hook for subclasses holding derived state (prepared kernels)."""

    # -- inference ------------------------------------------------------
    def forward(self, x: TensorOrArray) -> TensorOrArray:
        inference = isinstance(x, np.ndarray)
        if inference and (self.calibrating or self.qat_bits is not None):
            # The float and fake-quantized phases exist for their graph.
            x, inference = Tensor(x), False
        if self.calibrating:
            self._observe_input(x.data)
            return self._float_forward(x)
        if self.weight_qparams is None or self.act_qparams is None:
            raise RuntimeError("freeze() must be called before quantized inference")
        if self.qat_bits is not None:
            return self.qat_forward(x, weight_bits=self.qat_bits, act_bits=self.qat_bits)
        if inference:
            return self._quantized_forward(x)
        return Tensor(self._quantized_forward(x.data))

    def reset_calibration(self) -> None:
        """Discard observer state and re-enter calibration mode.

        Used after finetuning, when the weight values (and hence activation
        distributions) have moved and the quantization grids must be
        re-estimated.
        """
        momentum = self.act_observer.momentum
        self.act_observer = EmaMinMaxObserver(momentum=momentum)
        self.act_channel_observer = MinMaxObserver(channel_axis=0)
        self.weight_qparams = None
        self.act_qparams = None
        self.calibrating = True
        self.invalidate_weight_cache()

    def qat_forward(self, x: Tensor, weight_bits: Optional[int] = None,
                    act_bits: Optional[int] = None) -> Tensor:
        """Differentiable fake-quantized forward pass (for finetuning)."""
        if self.weight_qparams is None or self.act_qparams is None:
            raise RuntimeError("freeze() must be called before QAT forward")
        w_params = self.weight_qparams
        a_params = self.act_qparams
        if weight_bits is not None and weight_bits != w_params.bits:
            w_params = compute_qparams(
                TensorRange(
                    low=-w_params.scale * (2 ** (w_params.bits - 1)),
                    high=w_params.scale * (2 ** (w_params.bits - 1) - 1),
                ),
                weight_bits,
                channel_axis=0,
            )
        if act_bits is not None and act_bits != a_params.bits:
            a_params = compute_qparams(
                TensorRange(
                    low=-a_params.scale * (2 ** (a_params.bits - 1)),
                    high=a_params.scale * (2 ** (a_params.bits - 1) - 1),
                ),
                act_bits,
            )
        fake_w = fake_quantize(self._weight_reference(), w_params)
        fake_x = fake_quantize(x, a_params)
        return self._apply(fake_x, fake_w)

    def _apply(self, x: Tensor, weight: Tensor) -> Tensor:
        """Apply the layer's linear operation with explicit weights."""
        raise NotImplementedError

    # -- introspection ----------------------------------------------------
    def input_channel_range(self) -> TensorRange:
        """Observed per-feature-channel activation ranges (from calibration)."""
        return self.act_channel_observer.range()


class QuantLinear(QuantizedLayer):
    """Uniform symmetric quantized fully connected layer."""

    def __init__(self, source: Linear, weight_bits: int = 8, act_bits: int = 8) -> None:
        super().__init__(weight_bits, act_bits)
        self.in_features = source.in_features
        self.out_features = source.out_features
        self.weight = Parameter(source.weight.data.copy())
        self.bias = Parameter(source.bias.data.copy()) if source.bias is not None else None

    @property
    def feature_channels(self) -> int:
        return self.in_features

    def _weight_reference(self) -> Parameter:
        return self.weight

    def _weight_matrix(self) -> np.ndarray:
        return self.weight.data.reshape(self.out_features, self.in_features, 1)

    def _observe_input(self, x: np.ndarray) -> None:
        flat = x.reshape(-1, self.in_features)
        self.act_observer.observe(flat)
        self.act_channel_observer.observe(flat.T)

    def _float_forward(self, x: Tensor) -> Tensor:
        out = x.matmul(Tensor(self.weight.data.T))
        if self.bias is not None:
            out = out + Tensor(self.bias.data)
        return out

    def _apply(self, x: Tensor, weight: Tensor) -> Tensor:
        out = x.matmul(weight.transpose())
        if self.bias is not None:
            out = out + self.bias
        return out

    def forward(self, x: TensorOrArray) -> TensorOrArray:
        if x.shape[-1:] != (self.in_features,):
            raise ValueError(
                f"{self!r} expects {self.in_features} input features, got shape {tuple(x.shape)}"
            )
        return super().forward(x)

    def _quantized_forward(self, x: np.ndarray) -> np.ndarray:
        w_t = self._gemm_weight_t()
        acc = quantize_cast(x, self.act_qparams, w_t.dtype) @ w_t
        scale = self.act_qparams.scale * self.weight_qparams.scale  # (out,)
        acc = np.multiply(acc, scale, dtype=np.float64)
        if self.bias is not None:
            acc += self.bias.data
        return acc.astype(np.float32)

    def __repr__(self) -> str:
        return (
            f"QuantLinear(in={self.in_features}, out={self.out_features}, "
            f"w{self.weight_bits}a{self.act_bits})"
        )


class QuantConv2d(QuantizedLayer):
    """Uniform symmetric quantized 2D convolution (via im2col GEMM)."""

    def __init__(self, source: Conv2d, weight_bits: int = 8, act_bits: int = 8) -> None:
        super().__init__(weight_bits, act_bits)
        self.in_channels = source.in_channels
        self.out_channels = source.out_channels
        self.kernel_size = source.kernel_size
        self.stride = source.stride
        self.padding = source.padding
        self.groups = source.groups
        self.weight = Parameter(source.weight.data.copy())
        self.bias = Parameter(source.bias.data.copy()) if source.bias is not None else None

    @property
    def feature_channels(self) -> int:
        return self.in_channels

    def _weight_reference(self) -> Parameter:
        return self.weight

    def _weight_matrix(self) -> np.ndarray:
        k = self.kernel_size
        if self.groups == 1:
            return self.weight.data.reshape(
                self.out_channels, self.in_channels, k * k
            )
        # For grouped convolutions, expand to a dense (out, in, taps) view so
        # per-feature-channel statistics have a uniform shape; weights outside
        # a channel's group are structurally zero.
        dense = np.zeros(
            (self.out_channels, self.in_channels, k * k), dtype=np.float32
        )
        in_per_group = self.in_channels // self.groups
        out_per_group = self.out_channels // self.groups
        for group in range(self.groups):
            rows = slice(group * out_per_group, (group + 1) * out_per_group)
            cols = slice(group * in_per_group, (group + 1) * in_per_group)
            dense[rows, cols] = self.weight.data[rows].reshape(
                out_per_group, in_per_group, k * k
            )
        return dense

    def _observe_input(self, x: np.ndarray) -> None:
        self.act_observer.observe(x)
        # Per-feature-channel statistics: collapse batch and spatial dims.
        per_channel = x.transpose(1, 0, 2, 3).reshape(x.shape[1], -1)
        self.act_channel_observer.observe(per_channel)

    def _float_forward(self, x: Tensor) -> Tensor:
        weight = Tensor(self.weight.data)
        bias = Tensor(self.bias.data) if self.bias is not None else None
        return F.conv2d(
            x, weight, bias, stride=self.stride, padding=self.padding, groups=self.groups
        )

    def _apply(self, x: Tensor, weight: Tensor) -> Tensor:
        return F.conv2d(
            x, weight, self.bias, stride=self.stride, padding=self.padding,
            groups=self.groups,
        )

    def forward(self, x: TensorOrArray) -> TensorOrArray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"{self!r} expects {self.in_channels} input channels, got shape {tuple(x.shape)}"
            )
        return super().forward(x)

    def _quantized_forward(self, x: np.ndarray) -> np.ndarray:
        if self.groups != 1:
            return self._simulated_quantized_forward(x)
        # Quantize the image before unfolding (k*k times less data); zero
        # padding maps to quantized zero, so this commutes with the unfold.
        w_t = self._gemm_weight_t()
        q_img = quantize_cast(x, self.act_qparams, np.float32)
        k = self.kernel_size
        cols, grid = unfold(q_img, (k, k), self.stride, self.padding, w_t.dtype)
        scale = self.act_qparams.scale * self.weight_qparams.scale
        return conv_rescale(kept_columns(w_t.T @ cols, grid), scale[:, None, None], self.bias)

    def _simulated_quantized_forward(self, x: np.ndarray) -> np.ndarray:
        """Quantize-dequantize both operands and convolve in float.

        For symmetric quantization this is numerically equivalent to the
        integer kernel followed by rescaling (``S_x q_x * S_w q_w =
        S_x S_w (q_x q_w)``); it is used for grouped/depthwise convolutions
        where the im2col integer path would be needlessly slow.
        """
        dq_x = dequantize(quantize(x, self.act_qparams), self.act_qparams)
        dq_w = dequantize(self.quantized_weight(), self.weight_qparams)
        return F.conv2d(
            dq_x, dq_w, self.bias, stride=self.stride, padding=self.padding, groups=self.groups
        )

    def __repr__(self) -> str:
        return (
            f"QuantConv2d(in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, w{self.weight_bits}a{self.act_bits})"
        )
