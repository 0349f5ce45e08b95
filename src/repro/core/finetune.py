"""Optional finetuning with the specialized dual-bitwidth loss (Section 6).

For every batch the model runs two fake-quantized forward passes -- one at
the low bitwidth and one at the high bitwidth -- and the total loss combines
both (Equation 3):

    L_k     = CE(p(x; theta_k) | y_hard) + CE(p(x; theta_k) | p(x; theta_fp32))
    L_total = lambda * L_low + (1 - lambda) * L_high

The distillation term uses soft labels from the *full-precision* model, so
finetuning improves low-bitwidth accuracy without sacrificing high-bitwidth
accuracy.  The loss is all this module adds: batches, SGD and the step decay
come from :func:`repro.train.loop.sgd_epochs`, the loop every training recipe
shares.  After finetuning, quantization grids are re-calibrated because the
weights moved (:func:`refresh_quantization`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from repro.data.synthetic import SyntheticImageDataset
from repro.nn.module import Module
from repro.quant.qmodel import ForwardFn, default_forward, recalibrate_model, set_qat_bits
from repro.tensor import Tensor, functional as F, no_grad
from repro.train.loop import sgd_epochs


@dataclass
class FinetuneConfig:
    """Hyper-parameters for FlexiQ finetuning (scaled-down Table 1 settings)."""

    epochs: int = 2
    batch_size: int = 32
    learning_rate: float = 1e-2
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_step: int = 10
    lr_gamma: float = 0.1
    lambda_low: float = 0.5
    low_bits: int = 4
    high_bits: int = 8
    seed: int = 0


def dual_bitwidth_loss(
    model: Module,
    images: np.ndarray,
    labels: np.ndarray,
    soft_labels: np.ndarray,
    config: FinetuneConfig,
    forward_fn: Optional[ForwardFn] = None,
) -> Tensor:
    """Compute Equation (3) for one batch (returns a differentiable scalar)."""
    forward_fn = forward_fn or default_forward

    def bitwidth_loss(bits: int) -> Tensor:
        set_qat_bits(model, bits)
        logits = forward_fn(model, images)
        hard = F.cross_entropy(logits, labels)
        soft = F.soft_cross_entropy(logits, soft_labels)
        return hard + soft

    low = bitwidth_loss(config.low_bits)
    high = bitwidth_loss(config.high_bits)
    set_qat_bits(model, None)
    return low * config.lambda_low + high * (1.0 - config.lambda_low)


def finetune_quantized_model(
    model: Module,
    float_model: Module,
    dataset: SyntheticImageDataset,
    config: FinetuneConfig = FinetuneConfig(),
) -> List[float]:
    """Finetune a calibrated quantized model with the specialized loss.

    Parameters
    ----------
    model:
        The quantized (calibrated) model whose weights will be updated.
    float_model:
        The frozen full-precision model providing distillation soft labels.
    dataset:
        Training data (the paper uses the original training set or a subset).

    Returns the per-epoch training losses.
    """
    float_model.eval()

    def batch_loss(images: np.ndarray, labels: np.ndarray, rng: np.random.Generator) -> Tensor:
        with no_grad():
            soft_labels = F.softmax(float_model(Tensor(images)).data)
        return dual_bitwidth_loss(model, images, labels, soft_labels, config)

    return sgd_epochs(model, dataset, config, batch_loss)


def refresh_quantization(
    model: Module,
    calibration_batches: Iterable[np.ndarray],
    forward_fn: Optional[ForwardFn] = None,
) -> Module:
    """Re-calibrate all quantized layers after finetuning moved the weights."""
    return recalibrate_model(model, calibration_batches, forward_fn=forward_fn)
