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
from typing import Callable, Dict, Optional

import numpy as np

from repro.nn.module import Module
from repro.quant.qmodel import (
    calibrate_model,
    iter_quantized_layers,
    quantize_model,
)
from repro.tensor import Tensor, no_grad

ForwardFn = Callable[[Module, np.ndarray], Tensor]


@dataclass
class HawqResult:
    """Outcome of a layer-wise mixed-precision assignment."""

    model: Module
    layer_bits: Dict[str, int]
    sensitivities: Dict[str, float]

    def average_bits(self) -> float:
        """Parameter-weighted average weight bitwidth."""
        total = 0
        weighted = 0.0
        for name, layer in iter_quantized_layers(self.model):
            count = layer._weight_reference().size
            weighted += self.layer_bits.get(name, layer.weight_bits) * count
            total += count
        return weighted / max(total, 1)


def layer_sensitivities(
    model: Module,
    calibration: np.ndarray,
    low_bits: int = 4,
    high_bits: int = 8,
    forward_fn: Optional[ForwardFn] = None,
    batch_size: int = 32,
) -> Dict[str, float]:
    """Per-layer sensitivity: output distortion when only that layer is 4-bit."""
    forward_fn = forward_fn or (lambda m, batch: m(Tensor(batch)))
    batches = [
        calibration[start : start + batch_size]
        for start in range(0, len(calibration), batch_size)
    ]
    reference_model = quantize_model(
        model, weight_bits=high_bits, act_bits=high_bits, calibration_batches=batches,
        forward_fn=forward_fn,
    )
    samples = calibration[:batch_size]
    with no_grad():
        reference = forward_fn(reference_model, samples).data.copy()

    sensitivities: Dict[str, float] = {}
    layer_names = [name for name, _ in iter_quantized_layers(reference_model)]
    for name in layer_names:
        probe = quantize_model(
            model, weight_bits=high_bits, act_bits=high_bits, calibration_batches=batches,
            forward_fn=forward_fn,
        )
        layer = probe.get_submodule(name)
        layer.weight_bits = low_bits
        layer.act_bits = low_bits
        layer.reset_calibration()
        calibrate_model(probe, batches, forward_fn=forward_fn)
        with no_grad():
            perturbed = forward_fn(probe, samples).data
        distortion = float(np.linalg.norm(perturbed - reference))
        size = layer._weight_reference().size
        sensitivities[name] = distortion / max(size, 1)
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
    HAWQ-v3 integer-programming objective solved greedily.
    """
    forward_fn = forward_fn or (lambda m, batch: m(Tensor(batch)))
    sensitivities = layer_sensitivities(
        model, calibration, low_bits=low_bits, high_bits=high_bits,
        forward_fn=forward_fn, batch_size=batch_size,
    )
    batches = [
        calibration[start : start + batch_size]
        for start in range(0, len(calibration), batch_size)
    ]
    quantized = quantize_model(
        model, weight_bits=high_bits, act_bits=high_bits, calibration_batches=batches,
        first_last_bits=first_last_bits, forward_fn=forward_fn,
    )

    layers = list(iter_quantized_layers(quantized))
    sizes = {name: layer._weight_reference().size for name, layer in layers}
    total_params = sum(sizes.values())
    layer_bits = {name: high_bits for name, _ in layers}

    # Do not flip the first/last layers (kept at first_last_bits).
    flippable = [name for name, _ in layers][1:-1] if len(layers) > 2 else []
    order = sorted(flippable, key=lambda name: sensitivities.get(name, np.inf))

    def average() -> float:
        return sum(layer_bits[name] * sizes[name] for name in layer_bits) / total_params

    for name in order:
        if average() <= target_average_bits:
            break
        layer_bits[name] = low_bits

    # Apply the assignment and re-calibrate the flipped layers.
    for name, layer in layers:
        bits = layer_bits[name]
        if bits != layer.weight_bits:
            layer.weight_bits = bits
            layer.act_bits = bits
            layer.reset_calibration()
    calibrate_model(quantized, batches, forward_fn=forward_fn)
    return HawqResult(model=quantized, layer_bits=layer_bits, sensitivities=sensitivities)
