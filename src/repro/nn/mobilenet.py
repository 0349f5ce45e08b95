"""MobileNetV2-style network built from inverted residual blocks."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    ReLU6,
)
from repro.nn.module import Module, ModuleList, Sequential
from repro.tensor import TensorOrArray


class InvertedResidual(Module):
    """MobileNetV2 inverted residual: expand (1x1) -> depthwise (3x3) -> project (1x1)."""

    def __init__(
        self,
        in_ch: int,
        out_ch: int,
        stride: int,
        expand_ratio: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        hidden = in_ch * expand_ratio
        self.use_residual = stride == 1 and in_ch == out_ch

        layers: List[Module] = []
        if expand_ratio != 1:
            layers += [
                Conv2d(in_ch, hidden, 1, bias=False, rng=rng),
                BatchNorm2d(hidden),
                ReLU6(),
            ]
        layers += [
            Conv2d(hidden, hidden, 3, stride=stride, padding=1, groups=hidden,
                   bias=False, rng=rng),
            BatchNorm2d(hidden),
            ReLU6(),
            Conv2d(hidden, out_ch, 1, bias=False, rng=rng),
            BatchNorm2d(out_ch),
        ]
        self.block = Sequential(*layers)

    def forward(self, x: TensorOrArray) -> TensorOrArray:
        out = self.block(x)
        if self.use_residual:
            return out + x
        return out


class MobileNetV2(Module):
    """Scaled-down MobileNetV2 with the standard stage layout."""

    def __init__(
        self,
        num_classes: int = 10,
        width: int = 8,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        # (expand_ratio, out_channels, num_blocks, stride) per stage.
        stage_config = [
            (1, width, 1, 1),
            (4, width * 2, 2, 2),
            (4, width * 4, 2, 2),
            (4, width * 8, 2, 1),
        ]
        self.stem = Sequential(
            Conv2d(3, width, 3, stride=1, padding=1, bias=False, rng=rng),
            BatchNorm2d(width),
            ReLU6(),
        )
        blocks: List[Module] = []
        in_ch = width
        for expand, out_ch, repeats, stride in stage_config:
            for block_index in range(repeats):
                block_stride = stride if block_index == 0 else 1
                blocks.append(
                    InvertedResidual(in_ch, out_ch, block_stride, expand, rng=rng)
                )
                in_ch = out_ch
        self.blocks = ModuleList(blocks)
        last_ch = in_ch * 2
        self.final = Sequential(
            Conv2d(in_ch, last_ch, 1, bias=False, rng=rng),
            BatchNorm2d(last_ch),
            ReLU6(),
        )
        self.pool = GlobalAvgPool2d()
        self.head = Linear(last_ch, num_classes, rng=rng)
        self.num_classes = num_classes

    def forward(self, x: TensorOrArray) -> TensorOrArray:
        x = self.stem(x)
        for block in self.blocks:
            x = block(x)
        x = self.final(x)
        x = self.pool(x)
        return self.head(x)


def mobilenet_v2(num_classes: int = 10, width: int = 8,
                 rng: Optional[np.random.Generator] = None) -> MobileNetV2:
    """Build the scaled MobileNetV2 used by the evaluation."""
    return MobileNetV2(num_classes=num_classes, width=width, rng=rng)
