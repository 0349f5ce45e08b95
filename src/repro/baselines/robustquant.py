"""RobustQuant-style finetuning: one model robust to many bitwidths.

RobustQuant (Chmiel et al., NeurIPS 2020) finetunes a network so that its
accuracy degrades gracefully under *any* uniform quantization bitwidth,
rather than optimising for a single precision.  The mechanism reproduced
here is bitwidth-randomised quantization-aware training: every step the
model runs a fake-quantized forward pass at a bitwidth sampled from the
supported set, so the weights settle in regions that are flat with respect
to quantization perturbations of different magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.calibration import calibration_batches
from repro.data.synthetic import SyntheticImageDataset
from repro.nn.module import Module
from repro.quant.qmodel import (
    iter_quantized_layers,
    quantize_model,
    recalibrate_model,
    set_qat_bits,
)
from repro.tensor import Tensor, functional as F
from repro.train.loop import evaluate_accuracy, sgd_epochs


@dataclass
class RobustQuantConfig:
    """Hyper-parameters for bitwidth-randomised QAT."""

    bit_choices: Sequence[int] = (4, 6, 8)
    epochs: int = 2
    batch_size: int = 32
    learning_rate: float = 1e-2
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 0


def robustquant_finetune(
    model: Module,
    dataset: SyntheticImageDataset,
    calibration: np.ndarray,
    config: RobustQuantConfig = RobustQuantConfig(),
    calibration_batch_size: int = 32,
) -> Module:
    """Finetune ``model`` to be robust across the configured bitwidths.

    Returns a calibrated quantized model whose ``qat_bits``/``weight_bits``
    can then be set to any of the supported precisions at run time.
    """
    batches = calibration_batches(calibration, calibration_batch_size)
    quantized = quantize_model(model, weight_bits=8, act_bits=8, calibration_batches=batches)

    def batch_loss(images: np.ndarray, labels: np.ndarray, rng: np.random.Generator) -> Tensor:
        set_qat_bits(quantized, int(rng.choice(config.bit_choices)))
        return F.cross_entropy(quantized(Tensor(images)), labels)

    sgd_epochs(quantized, dataset, config, batch_loss)
    # Re-calibrate after training moved the weights.
    return recalibrate_model(quantized, batches)


def evaluate_at_bits(
    quantized: Module,
    dataset: SyntheticImageDataset,
    bits: int,
    calibration: np.ndarray,
    calibration_batch_size: int = 32,
) -> float:
    """Accuracy (%) of a RobustQuant/AnyPrecision model evaluated at ``bits``.

    Evaluation re-uses the model's weights but re-derives the quantization
    grid for the requested bitwidth (the schemes store a single model and
    dynamically quantize it, as described in Section 2.2 of the paper).
    Before returning, the grid is re-derived at each layer's original width
    (these models quantize weights and activations at one width).
    """
    batches = calibration_batches(calibration, calibration_batch_size)
    original = {name: layer.weight_bits for name, layer in iter_quantized_layers(quantized)}
    recalibrate_model(quantized, batches, dict.fromkeys(original, bits))
    accuracy = evaluate_accuracy(quantized, dataset)
    recalibrate_model(quantized, batches, original)
    return accuracy
