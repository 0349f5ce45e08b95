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
from typing import Dict, Optional

import numpy as np

from repro.data.calibration import calibration_batches
from repro.nn.module import Module
from repro.quant.qmodel import (
    ForwardFn,
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


def layer_sensitivities(
    model: Module,
    calibration: np.ndarray,
    low_bits: int = 4,
    high_bits: int = 8,
    forward_fn: Optional[ForwardFn] = None,
    batch_size: int = 32,
) -> Dict[str, float]:
    """Per-layer sensitivity: output distortion when only that layer is 4-bit."""
    forward_fn = forward_fn or default_forward
    batches = calibration_batches(calibration, batch_size)

    def calibrated() -> Module:
        return quantize_model(model, weight_bits=high_bits, act_bits=high_bits,
                              calibration_batches=batches, forward_fn=forward_fn)

    reference_model = calibrated()
    samples = calibration[:batch_size]
    with no_grad():
        reference = forward_fn(reference_model, samples).data.copy()

    sensitivities: Dict[str, float] = {}
    for name, layer in iter_quantized_layers(reference_model):
        probe = calibrated()
        recalibrate_model(probe, batches, {name: low_bits}, forward_fn=forward_fn)
        with no_grad():
            perturbed = forward_fn(probe, samples).data
        distortion = float(np.linalg.norm(perturbed - reference))
        sensitivities[name] = distortion / max(layer._weight_reference().size, 1)
    return sensitivities


def hawq_layerwise_quantize(
    model: Module,
    calibration: np.ndarray,
    target_average_bits: float = 6.0,
    low_bits: int = 4,
    high_bits: int = 8,
    forward_fn: Optional[ForwardFn] = None,
    batch_size: int = 32,
    first_last_bits: int = 8,
) -> HawqResult:
    """Assign per-layer bitwidths to hit a target average bitwidth.

    Layers are sorted by ascending sensitivity and flipped to ``low_bits``
    until the parameter-weighted average bitwidth reaches the target, the
    HAWQ-v3 integer-programming objective solved greedily.  The first and
    last layers stay at ``first_last_bits`` and count at that width.
    """
    sensitivities = layer_sensitivities(
        model, calibration, low_bits=low_bits, high_bits=high_bits,
        forward_fn=forward_fn, batch_size=batch_size,
    )
    batches = calibration_batches(calibration, batch_size)
    quantized = quantize_model(
        model, weight_bits=high_bits, act_bits=high_bits, calibration_batches=batches,
        first_last_bits=first_last_bits, forward_fn=forward_fn,
    )

    layers = iter_quantized_layers(quantized)
    initial = {name: layer.weight_bits for name, layer in layers}
    layer_bits = greedy_average_bits(
        {name: layer._weight_reference().size for name, layer in layers},
        initial,
        sorted(initial, key=lambda name: sensitivities.get(name, np.inf)),
        low_bits,
        target_average_bits,
    )
    # Apply the assignment and re-calibrate the flipped layers.
    flipped = {name: bits for name, bits in layer_bits.items() if bits != initial[name]}
    recalibrate_model(quantized, batches, flipped, forward_fn=forward_fn)
    return HawqResult(model=quantized, layer_bits=layer_bits, sensitivities=sensitivities)
