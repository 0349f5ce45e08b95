"""Unused-bit statistics (Figures 1 and 12).

Given a calibrated 8-bit model, these helpers report how many of the top
magnitude bits are unused in each feature channel's weights and activations,
and quantify the quantization error saved by FlexiQ's bit extraction when a
fraction of channels is lowered to 4-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.bit_extraction import (
    extraction_shift,
    lower_bits,
    raise_bits,
    unused_bits,
)
from repro.nn.module import Module
from repro.quant.qmodel import iter_quantized_layers
from repro.quant.qmodules import QuantizedLayer
from repro.quant.quantizers import lower_bitwidth_naive, quantize


@dataclass
class UnusedBitProfile:
    """Distribution of unused bits across one layer's feature channels."""

    layer_name: str
    weight_unused: np.ndarray  # per-channel unused magnitude bits (weights)
    act_unused: np.ndarray     # per-channel unused magnitude bits (activations)

    def histogram(self, which: str = "weight") -> Dict[int, float]:
        """Fraction of channels with 0, 1, 2, 3, >=4 unused bits."""
        values = self.weight_unused if which == "weight" else self.act_unused
        total = max(len(values), 1)
        hist = {}
        for bits in range(4):
            hist[bits] = float(np.count_nonzero(values == bits)) / total
        hist[4] = float(np.count_nonzero(values >= 4)) / total
        return hist

    def fraction_with_unused(self) -> float:
        """Fraction of channels with at least one unused bit (weights)."""
        return float(np.mean(self.weight_unused >= 1))


def layer_unused_bit_profile(name: str, layer: QuantizedLayer) -> UnusedBitProfile:
    """Unused-bit counts for one calibrated quantized layer."""
    q_weight = quantize(layer._weight_reference().data, layer.weight_qparams)
    weight_matrix = np.abs(q_weight.reshape(q_weight.shape[0], layer.feature_channels, -1))
    weight_max = weight_matrix.max(axis=(0, 2))
    act_range = layer.input_channel_range()
    act_max_q = np.clip(
        np.round(act_range.max_abs / layer.act_qparams.scale), 0, layer.act_qparams.qmax
    )
    return UnusedBitProfile(
        layer_name=name,
        weight_unused=unused_bits(weight_max, bits=layer.weight_qparams.bits),
        act_unused=unused_bits(act_max_q, bits=layer.act_qparams.bits),
    )


def model_unused_bit_profiles(model: Module) -> Dict[str, UnusedBitProfile]:
    """Unused-bit profiles for every calibrated quantized layer."""
    profiles: Dict[str, UnusedBitProfile] = {}
    for name, layer in iter_quantized_layers(model):
        if layer.weight_qparams is None:
            continue
        profiles[name] = layer_unused_bit_profile(name, layer)
    return profiles


def bit_extraction_error_comparison(
    layer: QuantizedLayer,
    low_ratio: float = 0.5,
) -> Dict[str, float]:
    """Figure 1 (right): weight quantization error with vs without extraction.

    Lowers the ``low_ratio`` fraction of feature channels with the smallest
    value ranges to 4 bits and reports the mean absolute reconstruction
    error (relative to the float weights) for

    * ``"uniform"`` -- naive lowering that always keeps the top bits, and
    * ``"flexiq"`` -- FlexiQ's extraction that skips unused bits.
    """
    weight = layer._weight_reference().data
    q_weight = quantize(weight, layer.weight_qparams)
    out_ch = q_weight.shape[0]
    features = layer.feature_channels
    per_channel = np.abs(q_weight.reshape(out_ch, features, -1))
    channel_max = per_channel.max(axis=(0, 2))

    num_low = int(round(features * low_ratio))
    selected = np.argsort(channel_max, kind="stable")[:num_low]
    scale = layer.weight_qparams.broadcast_scale(2).reshape(-1, 1)

    q_matrix = q_weight.reshape(out_ch, features, -1)
    errors = {"uniform": 0.0, "flexiq": 0.0}
    count = 0
    high_bits = layer.weight_qparams.bits
    shifts = extraction_shift(channel_max, high_bits=high_bits)
    for channel in selected:
        q_channel = q_matrix[:, channel, :]
        naive = lower_bitwidth_naive(q_channel, high_bits, 4)
        naive_reconstructed = naive.astype(np.float64) * (1 << (high_bits - 4))
        flexi = raise_bits(
            lower_bits(q_channel, shifts[channel]), shifts[channel]
        )
        errors["uniform"] += float(np.abs(q_channel - naive_reconstructed).mean())
        errors["flexiq"] += float(np.abs(q_channel - flexi).mean())
        count += 1
    if count:
        errors = {key: value / count for key, value in errors.items()}
    # Express in the float domain using the mean per-output-channel scale.
    mean_scale = float(np.mean(scale))
    return {key: value * mean_scale for key, value in errors.items()}
