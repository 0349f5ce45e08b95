"""Training loops: :func:`sgd_epochs`, the one SGD loop every image-model
recipe shares (each supplies only its per-batch loss), and the LM loop."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

import numpy as np

from repro.data.synthetic import SyntheticImageDataset
from repro.nn.module import Module
from repro.quant.qmodel import set_qat_bits
from repro.tensor import Tensor, functional as F, no_grad
from repro.train.optim import SGD, StepLR

BatchLoss = Callable[[np.ndarray, np.ndarray, np.random.Generator], Tensor]


@dataclass
class TrainingConfig:
    """Hyper-parameters for supervised training.

    Defaults mirror the paper's finetuning recipe (SGD, step decay 0.1,
    weight decay 1e-4) at a scale suited to the synthetic datasets.
    """

    epochs: int = 8
    batch_size: int = 32
    learning_rate: float = 5e-2
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_step: int = 4
    lr_gamma: float = 0.1
    seed: int = 0
    log_every: int = 0  # 0 disables progress printing


def evaluate_accuracy(
    model: Module, dataset: SyntheticImageDataset, batch_size: int = 64
) -> float:
    """Top-1 accuracy of ``model`` on the dataset's test split (in percent)."""
    model.eval()
    correct = 0
    total = 0
    with no_grad():
        for images, labels in dataset.test_batches(batch_size):
            logits = model(Tensor(images))
            correct += int((logits.data.argmax(axis=-1) == labels).sum())
            total += len(labels)
    return 100.0 * correct / max(total, 1)


def sgd_epochs(
    model: Module,
    dataset: SyntheticImageDataset,
    config: Any,
    batch_loss: BatchLoss,
) -> List[float]:
    """Train ``model`` with SGD on ``batch_loss``; return the per-epoch mean losses.

    ``config`` is any training config (``epochs``, ``batch_size``,
    ``learning_rate``, ``momentum``, ``weight_decay``, ``seed``).  The one
    generator seeded by ``config.seed`` shuffles every epoch and is passed to
    ``batch_loss(images, labels, rng)`` for any per-batch draw.  A ``StepLR``
    steps once per epoch when the config has an ``lr_step``.  Training ends in
    eval mode with every quantized layer out of QAT.
    """
    optimizer = SGD(
        model.parameters(),
        lr=config.learning_rate,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )
    lr_step = getattr(config, "lr_step", None)
    scheduler = None if lr_step is None else StepLR(optimizer, lr_step, gamma=config.lr_gamma)
    log_every = getattr(config, "log_every", 0)
    rng = np.random.default_rng(config.seed)
    epoch_losses: List[float] = []
    model.train()
    for epoch in range(config.epochs):
        losses = []
        for images, labels in dataset.train_batches(config.batch_size, rng=rng):
            optimizer.zero_grad()
            loss = batch_loss(images, labels, rng)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        if scheduler is not None:
            scheduler.step()
        epoch_losses.append(float(np.mean(losses)))
        if log_every and (epoch + 1) % log_every == 0:
            print(f"epoch {epoch + 1}/{config.epochs} loss {epoch_losses[-1]:.4f}")
    model.eval()
    set_qat_bits(model, None)
    return epoch_losses


def train_classifier(
    model: Module,
    dataset: SyntheticImageDataset,
    config: TrainingConfig = TrainingConfig(),
    loss_fn: Optional[Callable[[Tensor, np.ndarray], Tensor]] = None,
) -> List[float]:
    """Train ``model`` on the dataset's train split; return per-epoch losses."""
    loss_fn = loss_fn or F.cross_entropy
    return sgd_epochs(
        model, dataset, config, lambda images, labels, rng: loss_fn(model(Tensor(images)), labels)
    )


def train_language_model(
    model: Module,
    batches: List[np.ndarray],
    epochs: int = 4,
    learning_rate: float = 0.1,
    momentum: float = 0.9,
    seed: int = 0,
) -> List[float]:
    """Train a :class:`repro.nn.llm.TinyDecoderLM` on token-id batches."""
    optimizer = SGD(model.parameters(), lr=learning_rate, momentum=momentum)
    rng = np.random.default_rng(seed)
    epoch_losses: List[float] = []
    model.train()
    for _ in range(epochs):
        order = rng.permutation(len(batches))
        losses = []
        for index in order:
            optimizer.zero_grad()
            loss = model.loss(batches[index])
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        epoch_losses.append(float(np.mean(losses)))
    model.eval()
    return epoch_losses
