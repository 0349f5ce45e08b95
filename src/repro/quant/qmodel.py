"""Model-level quantization pass.

:func:`quantize_model` walks a float model, replaces every ``Linear`` /
``Conv2d`` with its quantized counterpart (keeping the first and last layers
at 8 bits, the usual convention the paper also follows), calibrates the
activation observers on sample data, and freezes the quantization parameters.

``layer_types`` names the ``(Linear, Conv2d)`` replacement classes, so
:mod:`repro.core` substitutes FlexiQ's mixed-precision layers while reusing
the same traversal and calibration machinery.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module
from repro.quant.qmodules import QuantConv2d, QuantLinear, QuantizedLayer
from repro.tensor import Tensor, no_grad

ForwardFn = Callable[[Module, np.ndarray], Tensor]


def default_forward(model: Module, batch: np.ndarray) -> Tensor:
    """Feed a raw image batch to a vision model (the default ``forward_fn``)."""
    return model(Tensor(batch))


def iter_quantizable_layers(model: Module) -> List[Tuple[str, Module]]:
    """Return (dotted name, layer) for every Linear/Conv2d in traversal order.

    Registration order matches execution order for all models in the
    registry, so the first/last entries correspond to the network's first and
    last compute layers.
    """
    layers: List[Tuple[str, Module]] = []
    for name, module in model.named_modules():
        if isinstance(module, (Linear, Conv2d)) and not isinstance(module, QuantizedLayer):
            layers.append((name, module))
    return layers


def iter_quantized_layers(model: Module) -> List[Tuple[str, QuantizedLayer]]:
    """Return (dotted name, layer) for every quantized layer in the model."""
    return [
        (name, module)
        for name, module in model.named_modules()
        if isinstance(module, QuantizedLayer)
    ]


def set_qat_bits(model: Module, bits: Optional[int]) -> None:
    """Switch every quantized layer of ``model`` into (or out of) QAT mode."""
    for _, layer in iter_quantized_layers(model):
        layer.qat_bits = bits


def quantize_model(
    model: Module,
    weight_bits: int = 8,
    act_bits: Optional[int] = None,
    calibration_batches: Optional[Iterable[np.ndarray]] = None,
    first_last_bits: int = 8,
    layer_types: Tuple[type, type] = (QuantLinear, QuantConv2d),
    forward_fn: Optional[ForwardFn] = None,
) -> Module:
    """Quantize all Linear/Conv2d layers of a deep copy of ``model``.

    Parameters
    ----------
    weight_bits, act_bits:
        Target bitwidths for weights and activations.  ``act_bits`` defaults
        to ``weight_bits``.
    calibration_batches:
        Iterable of input batches used to calibrate activation ranges.  When
        omitted the caller must run :func:`calibrate_model` manually.
    first_last_bits:
        Bitwidth for the first and last quantizable layers (the paper keeps
        them at 8 bits).
    layer_types:
        The quantized classes that replace ``Linear`` and ``Conv2d``, in
        that order; each is built as ``cls(layer, weight_bits=, act_bits=)``.
    forward_fn:
        How to feed a raw input batch to the model.  Defaults to wrapping the
        batch in a :class:`Tensor` (vision models); the LLM case study passes
        token ids straight through.
    """
    act_bits = act_bits if act_bits is not None else weight_bits
    linear_type, conv_type = layer_types
    target = copy.deepcopy(model)

    layers = iter_quantizable_layers(target)
    if not layers:
        raise ValueError("model contains no quantizable layers")
    last_index = len(layers) - 1
    for index, (name, layer) in enumerate(layers):
        if index == 0 or index == last_index:
            w_bits, a_bits = first_last_bits, first_last_bits
        else:
            w_bits, a_bits = weight_bits, act_bits
        layer_type = linear_type if isinstance(layer, Linear) else conv_type
        target.set_submodule(name, layer_type(layer, weight_bits=w_bits, act_bits=a_bits))

    if calibration_batches is not None:
        calibrate_model(target, calibration_batches, forward_fn=forward_fn)
    return target


def calibrate_model(
    model: Module,
    calibration_batches: Iterable[np.ndarray],
    forward_fn: Optional[ForwardFn] = None,
) -> Module:
    """Run calibration batches through the model and freeze quantizers."""
    forward_fn = forward_fn or default_forward
    model.eval()
    ran_any = False
    with no_grad():
        for batch in calibration_batches:
            forward_fn(model, batch)
            ran_any = True
    if not ran_any:
        raise ValueError("calibration requires at least one batch")
    for _, layer in iter_quantized_layers(model):
        if layer.calibrating:
            layer.freeze()
    return model


def recalibrate_model(
    model: Module,
    calibration_batches: Iterable[np.ndarray],
    layer_bits: Optional[Mapping[str, int]] = None,
    forward_fn: Optional[ForwardFn] = None,
) -> Module:
    """Set bits, reset calibration and re-calibrate.

    The layers named in ``layer_bits`` move weights and activations to that
    width; ``None`` re-calibrates every layer at its own widths.  Other
    layers keep their frozen grids.
    """
    for name, layer in iter_quantized_layers(model):
        if layer_bits is None or name in layer_bits:
            if layer_bits is not None:
                layer.weight_bits = layer.act_bits = layer_bits[name]
            layer.reset_calibration()
    return calibrate_model(model, calibration_batches, forward_fn=forward_fn)


def greedy_average_bits(
    sizes: Mapping[str, int], layer_bits: Mapping[str, int], order: Iterable[str],
    low_bits: int, target_average_bits: float,
) -> Dict[str, int]:
    """Flip layers to ``low_bits`` in ``order`` until the average hits the target.

    The average is weighted by ``sizes`` (every layer, in network order) and
    checked before each flip.  The first and last layers never flip.
    """
    names = list(sizes)
    protected = {names[0], names[-1]} if names else set()
    total = sum(sizes.values())
    assignment = dict(layer_bits)
    for name in order:
        if name in protected or name not in sizes:
            continue
        if sum(assignment[n] * sizes[n] for n in assignment) / total <= target_average_bits:
            break
        assignment[name] = low_bits
    return assignment


def model_average_bits(model: Module) -> float:
    """Parameter-weighted average weight bitwidth of a quantized model.

    Used to report the "average bitwidth" columns of Tables 2 and 5.
    """
    total_params = 0
    weighted_bits = 0.0
    for _, layer in iter_quantized_layers(model):
        count = layer._weight_reference().size
        bits = getattr(layer, "effective_weight_bits", None)
        if bits is None:
            bits = float(layer.weight_bits)
        else:
            bits = float(bits() if callable(bits) else bits)
        total_params += count
        weighted_bits += bits * count
    if total_params == 0:
        return 0.0
    return weighted_bits / total_params
