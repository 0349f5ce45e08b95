"""Residual CNNs: the ResNet-20/18/34/50 family (scaled for CPU experiments).

The reproductions keep the defining structural features of each variant --
basic vs bottleneck blocks, stage layout, stride-2 downsample shortcuts --
while shrinking channel widths so training and quantization sweeps run on a
CPU.  Channel widths stay multiples of the FlexiQ group size used on the
simulated hardware.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Identity,
    Linear,
    ReLU,
)
from repro.nn.module import Module, ModuleList, Sequential
from repro.tensor import TensorOrArray


def conv_bn_relu(
    in_ch: int,
    out_ch: int,
    kernel: int,
    stride: int = 1,
    rng: Optional[np.random.Generator] = None,
) -> Sequential:
    """Conv -> BN -> ReLU building block."""
    return Sequential(
        Conv2d(in_ch, out_ch, kernel, stride=stride, padding=kernel // 2,
               bias=False, rng=rng),
        BatchNorm2d(out_ch),
        ReLU(),
    )


class BasicBlock(Module):
    """Two 3x3 convolutions with a residual connection (ResNet-18/20/34)."""

    expansion = 1

    def __init__(
        self,
        in_ch: int,
        out_ch: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.conv1 = Conv2d(in_ch, out_ch, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(out_ch)
        self.relu = ReLU()
        self.conv2 = Conv2d(out_ch, out_ch, 3, stride=1, padding=1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(out_ch)
        if stride != 1 or in_ch != out_ch:
            self.downsample = Sequential(
                Conv2d(in_ch, out_ch, 1, stride=stride, bias=False, rng=rng),
                BatchNorm2d(out_ch),
            )
        else:
            self.downsample = Identity()

    def forward(self, x: TensorOrArray) -> TensorOrArray:
        identity = self.downsample(x)
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        return self.relu(out + identity)


class BottleneckBlock(Module):
    """1x1 -> 3x3 -> 1x1 bottleneck with expansion (ResNet-50)."""

    expansion = 4

    def __init__(
        self,
        in_ch: int,
        mid_ch: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        out_ch = mid_ch * self.expansion
        self.conv1 = Conv2d(in_ch, mid_ch, 1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(mid_ch)
        self.conv2 = Conv2d(mid_ch, mid_ch, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(mid_ch)
        self.conv3 = Conv2d(mid_ch, out_ch, 1, bias=False, rng=rng)
        self.bn3 = BatchNorm2d(out_ch)
        self.relu = ReLU()
        if stride != 1 or in_ch != out_ch:
            self.downsample = Sequential(
                Conv2d(in_ch, out_ch, 1, stride=stride, bias=False, rng=rng),
                BatchNorm2d(out_ch),
            )
        else:
            self.downsample = Identity()

    def forward(self, x: TensorOrArray) -> TensorOrArray:
        identity = self.downsample(x)
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.relu(self.bn2(self.conv2(out)))
        out = self.bn3(self.conv3(out))
        return self.relu(out + identity)


class ResNet(Module):
    """Configurable residual network.

    Parameters
    ----------
    block:
        ``BasicBlock`` or ``BottleneckBlock``.
    stage_blocks:
        Number of residual blocks per stage.
    stage_channels:
        Base channel count per stage (before block expansion).
    num_classes:
        Output dimension of the classifier (the input is an RGB image, and
        the stem is as wide as the first stage).
    """

    def __init__(
        self,
        block,
        stage_blocks: Sequence[int],
        stage_channels: Sequence[int],
        num_classes: int = 10,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        stem_channels = stage_channels[0]
        self.stem = conv_bn_relu(3, stem_channels, 3, stride=1, rng=rng)
        self.stages = ModuleList()
        in_ch = stem_channels
        for stage_index, (blocks, channels) in enumerate(
            zip(stage_blocks, stage_channels)
        ):
            stage_layers: List[Module] = []
            for block_index in range(blocks):
                stride = 2 if (stage_index > 0 and block_index == 0) else 1
                stage_layers.append(block(in_ch, channels, stride=stride, rng=rng))
                in_ch = channels * block.expansion
            self.stages.append(Sequential(*stage_layers))
        self.pool = GlobalAvgPool2d()
        self.head = Linear(in_ch, num_classes, rng=rng)
        self.num_classes = num_classes

    def forward(self, x: TensorOrArray) -> TensorOrArray:
        x = self.stem(x)
        for stage in self.stages:
            x = stage(x)
        x = self.pool(x)
        return self.head(x)

    def features(self, x: TensorOrArray) -> TensorOrArray:
        """Return pooled features before the classification head."""
        x = self.stem(x)
        for stage in self.stages:
            x = stage(x)
        return self.pool(x)


def resnet20(num_classes: int = 10, width: int = 8,
             rng: Optional[np.random.Generator] = None) -> ResNet:
    """CIFAR-style ResNet-20: three stages of three basic blocks."""
    return ResNet(
        BasicBlock,
        stage_blocks=[3, 3, 3],
        stage_channels=[width, width * 2, width * 4],
        num_classes=num_classes,
        rng=rng,
    )


def resnet18(num_classes: int = 10, width: int = 8,
             rng: Optional[np.random.Generator] = None) -> ResNet:
    """ImageNet-style ResNet-18: four stages of two basic blocks."""
    return ResNet(
        BasicBlock,
        stage_blocks=[2, 2, 2, 2],
        stage_channels=[width, width * 2, width * 4, width * 8],
        num_classes=num_classes,
        rng=rng,
    )


def resnet34(num_classes: int = 10, width: int = 8,
             rng: Optional[np.random.Generator] = None) -> ResNet:
    """ResNet-34: four stages with [3, 4, 6, 3] basic blocks."""
    return ResNet(
        BasicBlock,
        stage_blocks=[3, 4, 6, 3],
        stage_channels=[width, width * 2, width * 4, width * 8],
        num_classes=num_classes,
        rng=rng,
    )


def resnet50(num_classes: int = 10, width: int = 8,
             rng: Optional[np.random.Generator] = None) -> ResNet:
    """ResNet-50: four stages with [3, 4, 6, 3] bottleneck blocks."""
    return ResNet(
        BottleneckBlock,
        stage_blocks=[3, 4, 6, 3],
        stage_channels=[width, width * 2, width * 4, width * 8],
        num_classes=num_classes,
        rng=rng,
    )
