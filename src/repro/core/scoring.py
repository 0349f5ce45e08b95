"""Channel error-estimation scores (Section 4.2).

For every feature channel the score multiplies

* the maximum value range of the weight parameters connected to that channel
  (taken across the output-channel dimension), and
* the observed activation range of the channel (from calibration data).

Channels with small scores are the cheapest to compute at low bitwidth:
their unused bits let the bit-extraction window cover them with little
additional quantization error.  The selection algorithms consume these
scores, optionally aggregated over hardware channel groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.nn.module import Module
from repro.quant.qmodel import iter_quantized_layers
from repro.quant.qmodules import QuantizedLayer


@dataclass
class ChannelScore:
    """Per-feature-channel error estimation scores for one layer."""

    layer_name: str
    scores: np.ndarray
    weight_range: np.ndarray
    act_range: np.ndarray

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.weight_range = np.asarray(self.weight_range, dtype=np.float64)
        self.act_range = np.asarray(self.act_range, dtype=np.float64)

    @property
    def num_channels(self) -> int:
        return int(self.scores.shape[0])

    def group_scores(self, group_size: int) -> np.ndarray:
        """Aggregate scores over contiguous channel groups (sum within group)."""
        if self.num_channels % group_size != 0:
            raise ValueError(
                f"{self.layer_name}: {self.num_channels} channels not divisible "
                f"by group size {group_size}"
            )
        return self.scores.reshape(-1, group_size).sum(axis=1)


def score_layer(name: str, layer: QuantizedLayer) -> ChannelScore:
    """Compute the error-estimation score for a single calibrated layer."""
    weight_matrix = layer._weight_matrix()  # (out, features, taps)
    weight_range = weight_matrix.max(axis=(0, 2)) - weight_matrix.min(axis=(0, 2))
    act_range_obj = layer.input_channel_range()
    act_range = act_range_obj.high - act_range_obj.low
    scores = weight_range * act_range
    return ChannelScore(
        layer_name=name,
        scores=scores,
        weight_range=weight_range,
        act_range=act_range,
    )


def estimate_channel_scores(
    model: Module,
    layer_names: Optional[List[str]] = None,
) -> Dict[str, ChannelScore]:
    """Score every quantized layer of a calibrated model.

    Parameters
    ----------
    model:
        A model whose Linear/Conv2d layers were replaced by calibrated
        :class:`~repro.quant.qmodules.QuantizedLayer` instances.
    layer_names:
        Restrict scoring to these layers (default: all quantized layers).
    """
    scores: Dict[str, ChannelScore] = {}
    for name, layer in iter_quantized_layers(model):
        if layer_names is not None and name not in layer_names:
            continue
        if not layer.act_channel_observer.initialized:
            raise RuntimeError(
                f"layer {name!r} has no calibration statistics; run calibrate_model first"
            )
        scores[name] = score_layer(name, layer)
    return scores
