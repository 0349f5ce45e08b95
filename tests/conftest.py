"""Shared fixtures: small models, datasets and calibrated quantized models.

Fixtures are session-scoped where construction is expensive (training a tiny
model, running the FlexiQ pipeline) so the suite stays fast; tests must not
mutate session-scoped fixtures in ways that leak across tests (ratio changes
are fine because every test sets the ratio it needs).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import DatasetConfig, SyntheticImageDataset
from repro.nn.layers import BatchNorm2d, Conv2d, Linear, ReLU
from repro.nn.module import Module, Sequential
from repro.nn.resnet import resnet20
from repro.nn.vit import VisionTransformer
from repro.tensor import Tensor, functional as F
from repro.train.loop import TrainingConfig, train_classifier


class TinyMLP(Module):
    """Three-layer MLP on flattened images; the smallest quantizable model."""

    def __init__(self, in_features: int = 48, hidden: int = 32, classes: int = 4,
                 rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.fc1 = Linear(in_features, hidden, rng=rng)
        self.act1 = ReLU()
        self.fc2 = Linear(hidden, hidden, rng=rng)
        self.act2 = ReLU()
        self.fc3 = Linear(hidden, classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        return self.fc3(self.act2(self.fc2(self.act1(self.fc1(x)))))


class TinyConvNet(Module):
    """Small conv network with a residual-style structure for layout tests."""

    def __init__(self, channels: int = 8, classes: int = 4, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.stem = Conv2d(3, channels, 3, padding=1, rng=rng)
        self.bn = BatchNorm2d(channels)
        self.relu = ReLU()
        self.conv1 = Conv2d(channels, channels * 2, 3, padding=1, rng=rng)
        self.conv2 = Conv2d(channels * 2, channels * 2, 3, padding=1, rng=rng)
        self.head = Linear(channels * 2, classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.relu(self.bn(self.stem(x)))
        x = self.relu(self.conv1(x))
        x = self.relu(self.conv2(x))
        x = F.global_avg_pool2d(x)  # not x.mean: numpy's divide on an array
        return self.head(x)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_dataset() -> SyntheticImageDataset:
    """A very small, easy dataset (4 classes, 8x8 images)."""
    return SyntheticImageDataset(
        DatasetConfig(
            name="tiny", num_classes=4, image_size=8, train_size=128,
            test_size=64, noise_scale=0.3, seed=5,
        )
    )


@pytest.fixture(scope="session")
def mlp_dataset() -> SyntheticImageDataset:
    """Dataset matched to the TinyMLP input size (3x4x4 = 48 features)."""
    return SyntheticImageDataset(
        DatasetConfig(
            name="mlp", num_classes=4, image_size=4, train_size=128,
            test_size=64, noise_scale=0.3, seed=6,
        )
    )


@pytest.fixture(scope="session")
def trained_mlp(mlp_dataset) -> TinyMLP:
    model = TinyMLP(in_features=48, hidden=32, classes=4)
    train_classifier(
        model, mlp_dataset, TrainingConfig(epochs=6, learning_rate=0.05, seed=0)
    )
    return model


@pytest.fixture(scope="session")
def trained_convnet(tiny_dataset) -> TinyConvNet:
    model = TinyConvNet(channels=8, classes=4)
    train_classifier(
        model, tiny_dataset, TrainingConfig(epochs=5, learning_rate=0.05, seed=0)
    )
    return model


@pytest.fixture(scope="session")
def calibration_batch(mlp_dataset) -> np.ndarray:
    return mlp_dataset.train_images[:48]


@pytest.fixture(scope="session")
def conv_calibration(tiny_dataset) -> np.ndarray:
    return tiny_dataset.train_images[:48]


@pytest.fixture(scope="session")
def flexiq_runtime(trained_mlp, calibration_batch):
    """A FlexiQ runtime built from the trained MLP (greedy selection, fast)."""
    from repro.core import FlexiQConfig, FlexiQPipeline
    from repro.core.selection import SelectionConfig

    config = FlexiQConfig(
        ratios=(0.25, 0.5, 0.75, 1.0),
        group_size=4,
        selection="greedy",
        selection_config=SelectionConfig(group_size=4),
    )
    pipeline = FlexiQPipeline(trained_mlp, calibration_batch, config)
    return pipeline.run()


@pytest.fixture(scope="session")
def flexiq_conv_runtime(trained_convnet, conv_calibration):
    """A FlexiQ runtime built from the small conv net."""
    from repro.core import FlexiQConfig, FlexiQPipeline
    from repro.core.selection import SelectionConfig

    config = FlexiQConfig(
        ratios=(0.5, 1.0),
        group_size=4,
        selection="greedy",
        selection_config=SelectionConfig(group_size=4),
    )
    pipeline = FlexiQPipeline(trained_convnet, conv_calibration, config)
    return pipeline.run()
