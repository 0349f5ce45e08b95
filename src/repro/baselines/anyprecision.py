"""AnyPrecision-style multi-bitwidth training.

AnyPrecision DNNs (Yu et al., AAAI 2021) train one set of weights that can be
executed at several precisions by accumulating, for every batch, the losses
of fake-quantized forward passes at *all* supported bitwidths (knowledge is
optionally distilled from the highest precision to the lower ones).  This is
the mechanism reproduced here; evaluation at a particular bitwidth then uses
the same dynamic-quantization path as RobustQuant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.calibration import calibration_batches
from repro.data.synthetic import SyntheticImageDataset
from repro.nn.module import Module
from repro.quant.qmodel import quantize_model, recalibrate_model, set_qat_bits
from repro.tensor import Tensor, functional as F
from repro.train.loop import sgd_epochs


@dataclass
class AnyPrecisionConfig:
    """Hyper-parameters for multi-bitwidth joint training."""

    bit_choices: Sequence[int] = (4, 6, 8)
    epochs: int = 2
    batch_size: int = 32
    learning_rate: float = 1e-2
    momentum: float = 0.9
    weight_decay: float = 1e-4
    distill_from_highest: bool = True
    seed: int = 0


def anyprecision_finetune(
    model: Module,
    dataset: SyntheticImageDataset,
    calibration: np.ndarray,
    config: AnyPrecisionConfig = AnyPrecisionConfig(),
    calibration_batch_size: int = 32,
) -> Module:
    """Jointly train one quantized model for all configured bitwidths."""
    batches = calibration_batches(calibration, calibration_batch_size)
    quantized = quantize_model(model, weight_bits=8, act_bits=8, calibration_batches=batches)
    bit_choices = sorted(config.bit_choices, reverse=True)

    def batch_loss(images: np.ndarray, labels: np.ndarray, rng: np.random.Generator) -> Tensor:
        soft_labels = None
        total_loss = None
        for bits in bit_choices:
            set_qat_bits(quantized, bits)
            logits = quantized(Tensor(images))
            loss = F.cross_entropy(logits, labels)
            if config.distill_from_highest:
                if soft_labels is None:
                    # Highest precision defines the distillation target.
                    soft_labels = F.softmax(logits.data)
                else:
                    loss = loss + F.soft_cross_entropy(logits, soft_labels)
            total_loss = loss if total_loss is None else total_loss + loss
        return total_loss

    sgd_epochs(quantized, dataset, config, batch_loss)
    return recalibrate_model(quantized, batches)
