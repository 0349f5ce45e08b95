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

from repro.data.synthetic import SyntheticImageDataset
from repro.nn.module import Module
from repro.quant.observers import TensorRange
from repro.quant.qmodel import iter_quantized_layers, quantize_model
from repro.quant.quantizers import QuantParams, compute_qparams
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
        total = 0
        weighted = 0.0
        for name, layer in iter_quantized_layers(self.model):
            count = layer._weight_reference().size
            weighted += self.layer_bits[name] * count
            total += count
        return weighted / max(total, 1)

    def accuracy(self, dataset: SyntheticImageDataset) -> float:
        return evaluate_accuracy(self.model, dataset)


def ptmq_quantize(
    model: Module,
    calibration: np.ndarray,
    bit_choices: Sequence[int] = (4, 6, 8),
    calibration_batch_size: int = 32,
    first_last_bits: int = 8,
) -> PTMQModel:
    """Calibrate one model with scale sets for every bitwidth in ``bit_choices``."""
    batches = [
        calibration[start : start + calibration_batch_size]
        for start in range(0, len(calibration), calibration_batch_size)
    ]
    quantized = quantize_model(
        model, weight_bits=max(bit_choices), act_bits=max(bit_choices),
        calibration_batches=batches, first_last_bits=first_last_bits,
    )

    scale_sets: Dict[int, Dict[str, Dict[str, QuantParams]]] = {}
    for bits in sorted(bit_choices):
        per_layer: Dict[str, Dict[str, QuantParams]] = {}
        for name, layer in iter_quantized_layers(quantized):
            weight = layer._weight_reference().data
            weight_range = TensorRange(
                low=weight.reshape(weight.shape[0], -1).min(axis=1),
                high=weight.reshape(weight.shape[0], -1).max(axis=1),
            )
            per_layer[name] = {
                "weight": compute_qparams(weight_range, bits, channel_axis=0),
                "act": compute_qparams(layer.act_observer.range(), bits),
            }
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
    layers = list(iter_quantized_layers(ptmq.model))
    sizes = {name: layer._weight_reference().size for name, layer in layers}
    total = sum(sizes.values())
    assignment = {name: max(ptmq.bit_choices) for name, _ in layers}
    low = min(ptmq.bit_choices)

    if sensitivities is None:
        order = sorted(sizes, key=lambda name: -sizes[name])
    else:
        order = sorted(sensitivities, key=lambda name: sensitivities[name])
    # First/last layers stay at the highest precision.
    names = [name for name, _ in layers]
    protected = {names[0], names[-1]} if len(names) > 2 else set()

    def average() -> float:
        return sum(assignment[name] * sizes[name] for name in assignment) / total

    for name in order:
        if name in protected or name not in assignment:
            continue
        if average() <= target_average_bits:
            break
        assignment[name] = low
    return assignment
