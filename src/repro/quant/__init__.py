"""Uniform quantization framework (observers, quantizers, quantized layers).

This package provides the INT8/INT4 channel-wise quantization baselines the
paper compares against, and the building blocks FlexiQ's mixed-precision
runtime (:mod:`repro.core`) extends.
"""

from repro.quant.observers import EmaMinMaxObserver, MinMaxObserver, TensorRange
from repro.quant.quantizers import (
    QuantParams,
    compute_qparams,
    dequantize,
    fake_quantize,
    quantize,
)
from repro.quant.qmodules import QuantConv2d, QuantLinear, QuantizedLayer
from repro.quant.qmodel import (
    calibrate_model,
    iter_quantizable_layers,
    quantize_model,
)

__all__ = [
    "EmaMinMaxObserver",
    "MinMaxObserver",
    "QuantConv2d",
    "QuantLinear",
    "QuantParams",
    "QuantizedLayer",
    "TensorRange",
    "calibrate_model",
    "compute_qparams",
    "dequantize",
    "fake_quantize",
    "iter_quantizable_layers",
    "quantize",
    "quantize_model",
]
