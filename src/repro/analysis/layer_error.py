"""Layer-wise output error analyses (Figure 14, Table 6, Section 8.7/8.8).

Both analyses replay alternative precision settings layer-locally: the input
each layer sees under 8-bit inference is captured once, then fed to the same
layer configured as uniform INT4 or as FlexiQ at various 4-bit ratios, and
the distance between the resulting outputs and the 8-bit outputs is reported.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.analysis.capture import capture_layer_io, release_capture
from repro.core.runtime import FlexiQConv2d, FlexiQLinear, FlexiQModel
from repro.nn.module import Module
from repro.tensor import Tensor, no_grad


def _capture_inputs(
    model: Module, layer_names: Sequence[str], batch: np.ndarray,
    forward_fn=None,
) -> Dict[str, np.ndarray]:
    """Run the model at its current (8-bit) setting and capture layer inputs."""
    forward_fn = forward_fn or (lambda m, data: m(Tensor(data)))
    wrappers = capture_layer_io(model, layer_names)
    try:
        with no_grad():
            forward_fn(model, batch)
        return {
            name: wrapper.last_input
            for name, wrapper in wrappers.items()
            if wrapper.last_input is not None
        }
    finally:
        release_capture(model, wrappers)


def _layer_output(layer, captured_input: np.ndarray) -> np.ndarray:
    with no_grad():
        return layer(Tensor(captured_input)).data


def layer_output_errors(
    runtime: FlexiQModel,
    batch: np.ndarray,
    ratios: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    layer_names: Optional[Sequence[str]] = None,
    norm: str = "l2",
    include_uniform_int4: bool = True,
    forward_fn=None,
) -> Dict[str, Dict[str, float]]:
    """Figure 14: normalised per-layer output distance to the 8-bit output.

    Returns ``{layer: {"int4": d, "flexiq_25": d, ...}}`` where each distance
    is normalised by the norm of the layer's 8-bit output.
    """
    model = runtime.model
    names = list(layer_names) if layer_names is not None else [
        name for name, _ in runtime.flexiq_layers()
        if name in runtime.layout_plan.layouts
    ]
    runtime.set_ratio(0.0)
    inputs = _capture_inputs(model, names, batch, forward_fn=forward_fn)

    results: Dict[str, Dict[str, float]] = {}
    for name in names:
        if name not in inputs:
            continue
        layer = model.get_submodule(name)
        reference = _layer_output(layer, inputs[name])
        ref_norm = _norm(reference, norm)
        entry: Dict[str, float] = {}

        if include_uniform_int4:
            entry["int4"] = _distance(
                _uniform_int4_output(layer, inputs[name]), reference, norm
            ) / ref_norm

        for ratio in ratios:
            layer.set_ratio(ratio)
            entry[f"flexiq_{int(round(ratio * 100))}"] = _distance(
                _layer_output(layer, inputs[name]), reference, norm
            ) / ref_norm
        layer.set_boundary(0)
        results[name] = entry
    runtime.set_ratio(runtime.current_ratio)
    return results


def selection_layer_errors(
    runtimes: Dict[str, FlexiQModel],
    batch: np.ndarray,
    ratios: Sequence[float] = (0.25, 0.5, 0.75),
    layer_names: Optional[Sequence[str]] = None,
    norm: str = "l1",
    forward_fn=None,
) -> Dict[str, Dict[str, Dict[float, float]]]:
    """Table 6: per-layer errors of different selection algorithms.

    ``runtimes`` maps a selection-algorithm name (e.g. ``"evolutionary"``,
    ``"greedy"``, ``"random"``) to the FlexiQ runtime produced with that
    algorithm.  Unlike :func:`layer_output_errors`, the error here is
    measured on the *whole-model* activations: each runtime runs end-to-end
    at the requested ratio and the captured layer outputs are compared with
    the same runtime's 8-bit outputs, so inter-layer error amplification is
    included (the effect the evolutionary selection optimises for).

    Returns ``{layer: {algorithm: {ratio: normalised error}}}``.
    """
    results: Dict[str, Dict[str, Dict[float, float]]] = {}
    forward_fn = forward_fn or (lambda m, data: m(Tensor(data)))
    for algorithm, runtime in runtimes.items():
        model = runtime.model
        names = list(layer_names) if layer_names is not None else [
            name for name, _ in runtime.flexiq_layers()
            if name in runtime.layout_plan.layouts
        ]
        # Reference: 8-bit outputs of every target layer.
        runtime.set_ratio(0.0)
        wrappers = capture_layer_io(model, names)
        try:
            with no_grad():
                forward_fn(model, batch)
            reference = {
                name: wrapper.last_output.copy() for name, wrapper in wrappers.items()
            }
            for ratio in ratios:
                runtime.set_ratio(ratio)
                with no_grad():
                    forward_fn(model, batch)
                for name, wrapper in wrappers.items():
                    ref = reference[name]
                    error = _distance(wrapper.last_output, ref, norm) / _norm(ref, norm)
                    results.setdefault(name, {}).setdefault(algorithm, {})[ratio] = error
        finally:
            release_capture(model, wrappers)
        runtime.set_ratio(0.0)
    return results


def _uniform_int4_output(layer, captured_input: np.ndarray) -> np.ndarray:
    """Output of the layer re-quantized uniformly to 4-bit (weights + acts)."""
    original = (layer.weight_qparams, layer.act_qparams, layer.weight_bits, layer.act_bits)
    try:
        layer.weight_qparams, layer.act_qparams = layer.qparams_at(4, 4)
        layer.weight_bits = 4
        layer.act_bits = 4
        boundary = getattr(layer, "max_4bit_ch", 0)
        if isinstance(layer, (FlexiQLinear, FlexiQConv2d)):
            layer.set_boundary(0) if layer.layout is not None else None
        output = _layer_output(layer, captured_input)
        if isinstance(layer, (FlexiQLinear, FlexiQConv2d)) and layer.layout is not None:
            layer.set_boundary(boundary)
        return output
    finally:
        layer.weight_qparams, layer.act_qparams, layer.weight_bits, layer.act_bits = original


def _distance(a: np.ndarray, b: np.ndarray, norm: str) -> float:
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    if norm == "l1":
        return float(np.abs(diff).mean())
    return float(np.linalg.norm(diff))


def _norm(a: np.ndarray, norm: str) -> float:
    a = np.asarray(a, dtype=np.float64)
    if norm == "l1":
        return float(np.abs(a).mean()) + 1e-12
    return float(np.linalg.norm(a)) + 1e-12
