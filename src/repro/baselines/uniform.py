"""Uniform channel-wise quantization baselines (Uniform INT4 / INT8)."""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

from repro.data.calibration import calibration_batches
from repro.data.synthetic import SyntheticImageDataset
from repro.nn.module import Module
from repro.quant.qmodel import quantize_model
from repro.train.loop import evaluate_accuracy


def quantize_uniform(
    model: Module,
    bits: int,
    calibration_batches: Iterable[np.ndarray],
) -> Module:
    """Quantize every layer uniformly to ``bits`` (channel-wise weights).

    The first and last layers stay at 8 bits, following the convention used
    throughout the paper's evaluation.
    """
    return quantize_model(
        model, weight_bits=bits, act_bits=bits, calibration_batches=calibration_batches
    )


def uniform_accuracy_sweep(
    model: Module,
    dataset: SyntheticImageDataset,
    calibration: np.ndarray,
    bit_widths: Sequence[int] = (4, 8),
) -> Dict[int, float]:
    """Accuracy (%) of the model quantized uniformly at each bitwidth."""
    results: Dict[int, float] = {}
    batches = calibration_batches(calibration, 32)
    for bits in bit_widths:
        quantized = quantize_uniform(model, bits, batches)
        results[int(bits)] = evaluate_accuracy(quantized, dataset)
    return results
