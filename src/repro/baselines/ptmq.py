"""PTMQ-style post-training multi-bit quantization.

PTMQ (Xu et al., AAAI 2024) supports several inference bitwidths from one
model *without* retraining by keeping a separate set of quantization scale
factors per bitwidth and choosing the bitwidth per layer at run time.  The
reproduction keeps the same two defining properties:

* the model stores per-bitwidth quantization parameters, calibrated once
  post-training, and
* the runtime bitwidth is selected layer-wise (whole layers switch, unlike
  FlexiQ's feature-channel granularity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.calibration import calibration_batches
from repro.data.synthetic import SyntheticImageDataset
from repro.nn.module import Module
from repro.quant.qmodel import (
    greedy_average_bits,
    iter_quantized_layers,
    model_average_bits,
    quantize_model,
)
from repro.quant.quantizers import QuantParams
from repro.train.loop import evaluate_accuracy


@dataclass
class PTMQModel:
    """A quantized model carrying per-bitwidth scale sets."""

    model: Module
    bit_choices: List[int]
    scale_sets: Dict[int, Dict[str, Dict[str, QuantParams]]]
    layer_bits: Dict[str, int]

    def set_global_bits(self, bits: int) -> None:
        """Run every layer at ``bits`` (must be one of the calibrated choices)."""
        self.set_layer_bits({name: bits for name in self.layer_bits})

    def set_layer_bits(self, assignment: Dict[str, int]) -> None:
        """Apply a per-layer bitwidth assignment from the calibrated sets."""
        for name, layer in iter_quantized_layers(self.model):
            bits = assignment.get(name)
            if bits is None:
                continue
            if bits not in self.scale_sets:
                raise ValueError(f"bitwidth {bits} was not calibrated")
            params = self.scale_sets[bits][name]
            layer.weight_bits = bits
            layer.act_bits = bits
            layer.weight_qparams = params["weight"]
            layer.act_qparams = params["act"]
            self.layer_bits[name] = bits

    def average_bits(self) -> float:
        """Parameter-weighted average weight bitwidth of the current assignment."""
        return model_average_bits(self.model)

    def accuracy(self, dataset: SyntheticImageDataset) -> float:
        return evaluate_accuracy(self.model, dataset)


def ptmq_quantize(
    model: Module,
    calibration: np.ndarray,
    bit_choices: Sequence[int] = (4, 6, 8),
    calibration_batch_size: int = 32,
) -> PTMQModel:
    """Calibrate one model with scale sets for every bitwidth in ``bit_choices``.

    Every layer, first and last included, starts at ``max(bit_choices)``;
    :func:`ptmq_average_bit_assignment` keeps the first and last there.
    """
    quantized = quantize_model(
        model, weight_bits=max(bit_choices), act_bits=max(bit_choices),
        calibration_batches=calibration_batches(calibration, calibration_batch_size),
    )

    scale_sets: Dict[int, Dict[str, Dict[str, QuantParams]]] = {}
    for bits in sorted(bit_choices):
        per_layer: Dict[str, Dict[str, QuantParams]] = {}
        for name, layer in iter_quantized_layers(quantized):
            weight, act = layer.qparams_at(bits, bits)
            per_layer[name] = {"weight": weight, "act": act}
        scale_sets[bits] = per_layer

    layer_bits = {name: max(bit_choices) for name, _ in iter_quantized_layers(quantized)}
    ptmq = PTMQModel(
        model=quantized,
        bit_choices=sorted(bit_choices),
        scale_sets=scale_sets,
        layer_bits=layer_bits,
    )
    ptmq.set_global_bits(max(bit_choices))
    return ptmq


def ptmq_average_bit_assignment(
    ptmq: PTMQModel,
    target_average_bits: float,
    sensitivities: Optional[Dict[str, float]] = None,
) -> Dict[str, int]:
    """Greedy layer-wise assignment hitting a target average bitwidth.

    Layers are flipped from the highest to the lowest calibrated bitwidth in
    ascending order of ``sensitivities`` (defaulting to parameter count,
    i.e. large layers first, which maximises the bitwidth reduction per flip).
    """
    layers = iter_quantized_layers(ptmq.model)
    sizes = {name: layer._weight_reference().size for name, layer in layers}
    if sensitivities is None:
        order = sorted(sizes, key=lambda name: -sizes[name])
    else:
        order = sorted(sensitivities, key=lambda name: sensitivities[name])
    # First/last layers stay at the highest precision.
    return greedy_average_bits(
        sizes, dict.fromkeys(sizes, max(ptmq.bit_choices)), order,
        min(ptmq.bit_choices), target_average_bits,
    )
