"""Saturated-channel analysis under static bit extraction (Figure 13).

A channel *saturates* when, on fresh inputs, its values exceed the range the
statically chosen extraction window can represent (the calibration data
under-estimated the channel's range).  The paper observes that vision
transformers rarely saturate while CNNs saturate a little (usually by one
bit), and that saturated channels end up de-prioritised by the selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.analysis.capture import capture_layer_io, release_capture
from repro.core.bit_extraction import extraction_shift, saturation_fraction
from repro.nn.module import Module
from repro.quant.qmodel import iter_quantized_layers
from repro.quant.quantizers import quantize
from repro.tensor import Tensor, no_grad


@dataclass
class SaturationProfile:
    """Per-channel saturation statistics for one layer."""

    layer_name: str
    static_shift: np.ndarray        # calibration-time extraction shift per channel
    optimal_shift: np.ndarray       # shift that the evaluation data actually needs
    saturated_fraction: np.ndarray  # fraction of values saturating per channel

    @property
    def num_channels(self) -> int:
        return len(self.static_shift)

    def fraction_saturated_channels(self) -> float:
        """Fraction of channels with any saturation."""
        return float(np.mean(self.saturated_fraction > 0.0))

    def saturation_depth(self) -> np.ndarray:
        """How many bits short the static window is, per channel (>= 0)."""
        return np.maximum(self.optimal_shift - self.static_shift, 0)


def saturation_profiles(
    model: Module,
    evaluation_batch: np.ndarray,
) -> Dict[str, SaturationProfile]:
    """Measure activation saturation of static 4-bit extraction windows.

    The model must be a calibrated quantized model; ``evaluation_batch`` is a
    set of inputs *not* used for calibration (the paper uses 1024 samples).
    """
    targets = [
        name
        for name, layer in iter_quantized_layers(model)
        if layer.weight_qparams is not None
    ]
    wrappers = capture_layer_io(model, targets)
    try:
        with no_grad():
            model.eval()
            model(Tensor(evaluation_batch))
        profiles: Dict[str, SaturationProfile] = {}
        for name in targets:
            wrapper = wrappers[name]
            layer = wrapper.inner
            captured = wrapper.last_input
            if captured is None:
                continue
            channels = layer.feature_channels
            if captured.ndim == 4:
                per_channel = np.abs(captured).transpose(1, 0, 2, 3).reshape(channels, -1)
            else:
                per_channel = np.abs(captured.reshape(-1, channels)).T
            # Static window from calibration statistics.
            act_range = layer.input_channel_range()
            act_max_q = np.clip(
                np.round(act_range.max_abs / layer.act_qparams.scale),
                0,
                layer.act_qparams.qmax,
            )
            static_shift = extraction_shift(
                act_max_q, high_bits=layer.act_qparams.bits
            )
            # What the evaluation data actually needs.
            observed_q = np.clip(
                np.round(per_channel.max(axis=1) / layer.act_qparams.scale),
                0,
                layer.act_qparams.qmax,
            )
            optimal_shift = extraction_shift(
                observed_q, high_bits=layer.act_qparams.bits
            )
            # Per-channel saturation fraction of the quantized activations.
            q_act = quantize(captured, layer.act_qparams)
            if q_act.ndim == 4:
                q_per_channel = q_act.transpose(1, 0, 2, 3).reshape(channels, -1)
            else:
                q_per_channel = q_act.reshape(-1, channels).T
            saturated = np.asarray(
                [
                    saturation_fraction(q_per_channel[c], static_shift[c])
                    for c in range(channels)
                ]
            )
            profiles[name] = SaturationProfile(
                layer_name=name,
                static_shift=static_shift,
                optimal_shift=optimal_shift,
                saturated_fraction=saturated,
            )
        return profiles
    finally:
        release_capture(model, wrappers)
