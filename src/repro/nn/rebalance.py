"""Function-preserving channel-scale rebalancing.

FlexiQ's premise (Section 2.3) is an empirical property of publicly available
pre-trained vision models: the weights connected to different *feature*
(input) channels of a layer span widely different value ranges, leaving the
top bits of an 8-bit representation unused for many channels.  That diversity
develops over long training on large datasets and does not emerge in the
short synthetic training used by this reproduction.

``rebalance_channel_scales`` injects the property *without changing the
model's function*: for every (normalisation -> activation -> linear/conv)
pair inside a block, the normalisation's per-channel affine output is scaled
by ``1/s_c`` and the consumer's corresponding weight input-channel by
``s_c``, with ``s_c`` drawn from a log-normal distribution.  Because ReLU is
positively homogeneous and the normalisation's affine parameters absorb the
inverse factor exactly, the network computes the same outputs bit-for-bit in
float -- only the split of each channel's dynamic range between activations
and weights changes, which is precisely the statistic quantization sees.
This mirrors how scale-migration techniques (e.g. SmoothQuant) move range
between activations and weights, applied here in reverse as a statistics
substitution documented in DESIGN.md.
"""

from __future__ import annotations

import numpy as np

from repro.nn.attention import TransformerBlock, SwinBlock
from repro.nn.layers import Conv2d, Linear
from repro.nn.llm import DecoderBlock
from repro.nn.module import Module
from repro.nn.resnet import BasicBlock, BottleneckBlock


def _sample_factors(rng: np.random.Generator, size: int, sigma: float) -> np.ndarray:
    factors = rng.lognormal(mean=0.0, sigma=sigma, size=size)
    return np.clip(factors, 0.25, 4.0).astype(np.float32)


def _scale_norm_down(norm, factors: np.ndarray) -> None:
    """Divide a BatchNorm/LayerNorm affine output by per-channel factors."""
    norm.weight.data = norm.weight.data / factors
    norm.bias.data = norm.bias.data / factors


def _scale_linear_inputs(layer: Linear, factors: np.ndarray) -> None:
    layer.weight.data = layer.weight.data * factors[None, :]


def _scale_conv_inputs(layer: Conv2d, factors: np.ndarray) -> None:
    if layer.groups != 1:
        raise ValueError("rebalancing grouped convolutions is not supported")
    layer.weight.data = layer.weight.data * factors[None, :, None, None]


def _rebalance_transformer_block(block, rng: np.random.Generator, sigma: float) -> None:
    """norm1 -> q/k/v projections and norm2 -> mlp.fc1 (exact: no nonlinearity)."""
    embed_dim = block.attn.attn.q_proj.in_features if isinstance(block, SwinBlock) else block.attn.q_proj.in_features
    attn = block.attn.attn if isinstance(block, SwinBlock) else block.attn
    factors = _sample_factors(rng, embed_dim, sigma)
    _scale_norm_down(block.norm1, factors)
    for proj in (attn.q_proj, attn.k_proj, attn.v_proj):
        _scale_linear_inputs(proj, factors)

    factors2 = _sample_factors(rng, block.mlp.fc1.in_features, sigma)
    _scale_norm_down(block.norm2, factors2)
    _scale_linear_inputs(block.mlp.fc1, factors2)


def _rebalance_basic_block(block: BasicBlock, rng: np.random.Generator, sigma: float) -> None:
    """bn1 -> ReLU -> conv2 (exact: ReLU is positively homogeneous)."""
    factors = _sample_factors(rng, block.conv2.in_channels, sigma)
    _scale_norm_down(block.bn1, factors)
    _scale_conv_inputs(block.conv2, factors)


def _rebalance_bottleneck_block(
    block: BottleneckBlock, rng: np.random.Generator, sigma: float
) -> None:
    """bn1 -> ReLU -> conv2 and bn2 -> ReLU -> conv3."""
    factors1 = _sample_factors(rng, block.conv2.in_channels, sigma)
    _scale_norm_down(block.bn1, factors1)
    _scale_conv_inputs(block.conv2, factors1)
    factors2 = _sample_factors(rng, block.conv3.in_channels, sigma)
    _scale_norm_down(block.bn2, factors2)
    _scale_conv_inputs(block.conv3, factors2)


def rebalance_channel_scales(
    model: Module, sigma: float = 0.6, seed: int = 0
) -> Module:
    """Apply function-preserving per-channel scale rebalancing in place.

    Handled block types: ViT/DeiT :class:`TransformerBlock`, Swin
    :class:`SwinBlock`, LLM :class:`DecoderBlock`, ResNet
    :class:`BasicBlock` / :class:`BottleneckBlock`.  Other structures (e.g.
    MobileNet's ReLU6-clipped inverted residuals, where the transform would
    not be exact) are left untouched.
    """
    if sigma <= 0:
        return model
    rng = np.random.default_rng(seed)
    for _, module in model.named_modules():
        if isinstance(module, (TransformerBlock, SwinBlock, DecoderBlock)):
            _rebalance_transformer_block(module, rng, sigma)
        elif isinstance(module, BottleneckBlock):
            _rebalance_bottleneck_block(module, rng, sigma)
        elif isinstance(module, BasicBlock):
            _rebalance_basic_block(module, rng, sigma)
    return model
