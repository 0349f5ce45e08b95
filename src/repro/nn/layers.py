"""Core layers: linear, convolution, normalisation and activations."""

from __future__ import annotations

from operator import is_
from typing import Optional

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, TensorOrArray, functional as F


def _kaiming_uniform(shape, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    bound = float(np.sqrt(6.0 / max(fan_in, 1)))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class Linear(Module):
    """Fully connected layer ``y = x @ W.T + b``.

    The *feature channels* FlexiQ operates on are the input features
    (``in_features``); the output-channel dimension carries the per-channel
    quantization scales, matching the paper's convention.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            _kaiming_uniform((out_features, in_features), in_features, rng)
        )
        self.bias = (
            Parameter(np.zeros(out_features, dtype=np.float32)) if bias else None
        )

    @property
    def feature_channels(self) -> int:
        """Number of input feature channels (FlexiQ's selection axis)."""
        return self.in_features

    def forward(self, x: TensorOrArray) -> TensorOrArray:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class Conv2d(Module):
    """2D convolution over (N, C, H, W) inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_channels % groups != 0 or out_channels % groups != 0:
            raise ValueError("channels must be divisible by groups")
        for field, value, least in (
            ("kernel_size", kernel_size, 1), ("stride", stride, 1), ("padding", padding, 0)
        ):
            if type(value) is bool or not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"Conv2d {field} must be an integer >= {least}, got {value!r}")
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        self.weight = Parameter(
            _kaiming_uniform(
                (out_channels, in_channels // groups, kernel_size, kernel_size),
                fan_in,
                rng,
            )
        )
        self.bias = (
            Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None
        )

    @property
    def feature_channels(self) -> int:
        """Number of input feature channels (FlexiQ's selection axis)."""
        return self.in_channels

    def forward(self, x: TensorOrArray) -> TensorOrArray:
        return F.conv2d(
            x,
            self.weight,
            self.bias,
            stride=self.stride,
            padding=self.padding,
            groups=self.groups,
        )

    def __repr__(self) -> str:
        return (
            f"Conv2d(in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, g={self.groups})"
        )


class BatchNorm2d(Module):
    """Batch normalisation over the channel dimension of (N, C, H, W)."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))
        # Inference-mode constant cache: with frozen statistics the mean and
        # standard deviation are constants; recomputing and re-wrapping them
        # (and re-shaping weight/bias for the ndarray branch) on every forward
        # is hot-path waste.  The per-element arithmetic (and hence the output,
        # bitwise) is unchanged -- only the small per-channel preamble is
        # cached.  Keyed on the identity of the four arrays, so update_buffer()
        # and an optimizer step (both rebind) invalidate it naturally; weight
        # and bias are cached as *views*, so an in-place edit shows too, and the
        # Tensor branch keeps the live Parameters so eval-mode backward still
        # reaches them.
        self._inference_cache = None

    def _inference_constants(self):
        """``(mean, std)`` as Tensors, ``(weight, bias)`` as (1, C, 1, 1) views."""
        src = (self.running_mean, self.running_var, self.weight.data, self.bias.data)
        cache = self._inference_cache
        if cache is None or not all(map(is_, cache[0], src)):
            shape = (1, -1, 1, 1)
            mean = Tensor(src[0].reshape(shape))
            std = (Tensor(src[1].reshape(shape)) + self.eps).sqrt()
            cache = src, (mean, std, src[2].reshape(shape), src[3].reshape(shape))
            self._inference_cache = cache
        return cache[1]

    def forward(self, x: TensorOrArray) -> TensorOrArray:
        if self.training:
            if isinstance(x, np.ndarray):
                x = Tensor(x)  # batch statistics belong to the autograd path
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            var = x.var(axis=(0, 2, 3), keepdims=True)
            with np.errstate(all="ignore"):
                new_mean = (
                    (1 - self.momentum) * self.running_mean
                    + self.momentum * mean.data.reshape(-1)
                )
                new_var = (
                    (1 - self.momentum) * self.running_var
                    + self.momentum * var.data.reshape(-1)
                )
            self.update_buffer("running_mean", new_mean)
            self.update_buffer("running_var", new_var)
        else:
            mean, std, weight, bias = self._inference_constants()
            if isinstance(x, np.ndarray):
                out = x - mean.data
                out /= std.data
                out *= weight
                out += bias
                return out
            weight = self.weight.reshape(1, self.num_features, 1, 1)
            bias = self.bias.reshape(1, self.num_features, 1, 1)
            return (x - mean) / std * weight + bias
        normalized = (x - mean) / (var + self.eps).sqrt()
        weight = self.weight.reshape(1, self.num_features, 1, 1)
        bias = self.bias.reshape(1, self.num_features, 1, 1)
        return normalized * weight + bias


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(np.ones(normalized_shape, dtype=np.float32))
        self.bias = Parameter(np.zeros(normalized_shape, dtype=np.float32))

    def forward(self, x: TensorOrArray) -> TensorOrArray:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


class ReLU(Module):
    def forward(self, x: TensorOrArray) -> TensorOrArray:
        return F.relu(x)


class ReLU6(Module):
    def forward(self, x: TensorOrArray) -> TensorOrArray:
        return F.relu6(x)


class GELU(Module):
    def forward(self, x: TensorOrArray) -> TensorOrArray:
        return F.gelu(x)


class Identity(Module):
    def forward(self, x: TensorOrArray) -> TensorOrArray:
        return x


class GlobalAvgPool2d(Module):
    def forward(self, x: TensorOrArray) -> TensorOrArray:
        return F.global_avg_pool2d(x)


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float = 0.1) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = np.random.default_rng(0)

    def forward(self, x: TensorOrArray) -> TensorOrArray:
        if not self.training or self.p == 0.0:
            return x
        mask = (self._rng.random(x.shape) >= self.p).astype(np.float32) / (1.0 - self.p)
        return x * Tensor(mask)  # a Tensor even for an array: training is autograd
