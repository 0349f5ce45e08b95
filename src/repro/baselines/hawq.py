"""HAWQ-v3-style layer-wise mixed-precision quantization.

HAWQ assigns a bitwidth to every *layer* based on a Hessian-derived
sensitivity metric: layers whose loss surface is flat with respect to their
weights tolerate 4-bit quantization, sensitive layers stay at 8-bit.

The second-order information is approximated here (as in several follow-up
works) by an empirical sensitivity proxy: the increase in output distortion
when only that layer is quantized to the low bitwidth, normalised by the
layer's parameter count.  This preserves HAWQ's defining characteristics --
whole layers flip precision, the assignment is static, and the knob is the
average bitwidth -- which is what the Table 5 comparison exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.data.calibration import calibration_batches
from repro.nn.module import Module
from repro.quant.qmodel import (
    default_forward,
    greedy_average_bits,
    iter_quantized_layers,
    quantize_model,
    recalibrate_model,
)
from repro.tensor import no_grad


@dataclass
class HawqResult:
    """Outcome of a layer-wise mixed-precision assignment."""

    model: Module
    layer_bits: Dict[str, int]
    sensitivities: Dict[str, float]


def layer_sensitivities(model: Module, calibration: np.ndarray) -> Dict[str, float]:
    """Per-layer sensitivity: output distortion when only that layer is 4-bit."""
    batches = calibration_batches(calibration, 32)

    def calibrated() -> Module:
        return quantize_model(model, weight_bits=8, act_bits=8, calibration_batches=batches)

    reference_model = calibrated()
    samples = calibration[:32]
    with no_grad():
        reference = default_forward(reference_model, samples).data.copy()

    sensitivities: Dict[str, float] = {}
    for name, layer in iter_quantized_layers(reference_model):
        probe = calibrated()
        recalibrate_model(probe, batches, {name: 4})
        with no_grad():
            perturbed = default_forward(probe, samples).data
        distortion = float(np.linalg.norm(perturbed - reference))
        sensitivities[name] = distortion / max(layer._weight_reference().size, 1)
    return sensitivities


def hawq_layerwise_quantize(
    model: Module,
    calibration: np.ndarray,
    target_average_bits: float = 6.0,
) -> HawqResult:
    """Assign per-layer bitwidths (4 or 8) to hit a target average bitwidth.

    Layers are sorted by ascending sensitivity and flipped to 4 bits until
    the parameter-weighted average bitwidth reaches the target, the HAWQ-v3
    integer-programming objective solved greedily.  The first and last
    layers stay at 8 bits and count at that width.
    """
    sensitivities = layer_sensitivities(model, calibration)
    batches = calibration_batches(calibration, 32)
    quantized = quantize_model(
        model, weight_bits=8, act_bits=8, calibration_batches=batches
    )

    layers = iter_quantized_layers(quantized)
    initial = {name: layer.weight_bits for name, layer in layers}
    layer_bits = greedy_average_bits(
        {name: layer._weight_reference().size for name, layer in layers},
        initial,
        sorted(initial, key=lambda name: sensitivities.get(name, np.inf)),
        4,
        target_average_bits,
    )
    # Apply the assignment and re-calibrate the flipped layers.
    flipped = {name: bits for name, bits in layer_bits.items() if bits != initial[name]}
    recalibrate_model(quantized, batches, flipped)
    return HawqResult(model=quantized, layer_bits=layer_bits, sensitivities=sensitivities)
