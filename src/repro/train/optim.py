"""Optimizers and learning-rate schedules.

The paper finetunes with SGD (momentum), a step decay of 0.1 every 10 epochs
and a weight decay of 1e-4; the classes here implement exactly those knobs.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.nn.module import Parameter


class SGD:
    """Stochastic gradient descent with momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-2,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update using the accumulated gradients."""
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            velocity *= self.momentum
            velocity += grad
            param.data = param.data - self.lr * velocity


class StepLR:
    """Multiply the learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: SGD, step_size: int, gamma: float = 0.1) -> None:
        self.optimizer = optimizer
        self.step_size = int(step_size)
        self.gamma = float(gamma)
        self._epoch = 0
        self._base_lr = optimizer.lr

    def step(self) -> None:
        """Advance one epoch and update the optimizer's learning rate."""
        self._epoch += 1
        decays = self._epoch // self.step_size
        self.optimizer.lr = self._base_lr * (self.gamma**decays)
