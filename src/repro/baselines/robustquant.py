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

from repro.core.finetune import set_qat_bits
from repro.data.synthetic import SyntheticImageDataset
from repro.nn.module import Module
from repro.quant.qmodel import quantize_model
from repro.tensor import Tensor, functional as F
from repro.train.optim import SGD


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
    batches = [
        calibration[start : start + calibration_batch_size]
        for start in range(0, len(calibration), calibration_batch_size)
    ]
    quantized = quantize_model(
        model, weight_bits=8, act_bits=8, calibration_batches=batches
    )

    optimizer = SGD(
        quantized.parameters(),
        lr=config.learning_rate,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )
    rng = np.random.default_rng(config.seed)
    quantized.train()
    for _ in range(config.epochs):
        for images, labels in dataset.train_batches(config.batch_size, rng=rng):
            bits = int(rng.choice(config.bit_choices))
            set_qat_bits(quantized, bits)
            optimizer.zero_grad()
            logits = quantized(Tensor(images))
            loss = F.cross_entropy(logits, labels)
            loss.backward()
            optimizer.step()
    set_qat_bits(quantized, None)
    quantized.eval()

    # Re-calibrate after training moved the weights.
    from repro.core.finetune import refresh_quantization

    refresh_quantization(quantized, batches)
    return quantized


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
    """
    from repro.quant.qmodel import iter_quantized_layers
    from repro.train.loop import evaluate_accuracy

    original_bits = {}
    for name, layer in iter_quantized_layers(quantized):
        original_bits[name] = (layer.weight_bits, layer.act_bits)
        layer.weight_bits = bits
        layer.act_bits = bits
        layer.reset_calibration()
    batches = [
        calibration[start : start + calibration_batch_size]
        for start in range(0, len(calibration), calibration_batch_size)
    ]
    from repro.quant.qmodel import calibrate_model

    calibrate_model(quantized, batches)
    accuracy = evaluate_accuracy(quantized, dataset)
    for name, layer in iter_quantized_layers(quantized):
        layer.weight_bits, layer.act_bits = original_bits[name]
    return accuracy
