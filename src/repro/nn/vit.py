"""Vision transformers: ViT/DeiT and a windowed Swin variant."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.attention import SwinBlock, TransformerBlock
from repro.nn.layers import Conv2d, LayerNorm, Linear
from repro.nn.module import Module, ModuleList, Parameter
from repro.tensor import Tensor, TensorOrArray, functional as F


class PatchEmbedding(Module):
    """Split an image into non-overlapping patches and embed each linearly.

    Implemented as a strided convolution (the usual trick), which also makes
    the patch projection a quantizable conv layer -- in the paper the first
    layer stays 8-bit, and the quantization passes here follow the same rule.
    """

    def __init__(
        self,
        image_size: int,
        patch_size: int,
        in_channels: int,
        embed_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if image_size % patch_size != 0:
            raise ValueError("image_size must be divisible by patch_size")
        self.image_size = image_size
        self.patch_size = patch_size
        self.grid_size = image_size // patch_size
        self.num_patches = self.grid_size**2
        self.proj = Conv2d(
            in_channels, embed_dim, patch_size, stride=patch_size, rng=rng
        )

    def forward(self, x: TensorOrArray) -> TensorOrArray:
        n = x.shape[0]
        patches = self.proj(x)  # (N, D, g, g)
        d = patches.shape[1]
        return patches.reshape(n, d, self.num_patches).transpose(0, 2, 1)


class VisionTransformer(Module):
    """ViT/DeiT-style encoder classifier.

    DeiT differs from ViT mainly in its training recipe (distillation); the
    reproduction models both families with this class and distinguishes them
    via configuration (depth/width/heads) in the registry, mirroring how the
    paper treats them as separate checkpoints of the same architecture.
    """

    def __init__(
        self,
        image_size: int = 16,
        patch_size: int = 4,
        in_channels: int = 3,
        embed_dim: int = 32,
        depth: int = 4,
        num_heads: int = 4,
        mlp_ratio: float = 2.0,
        num_classes: int = 10,
        use_cls_token: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.embed_dim = embed_dim
        self.use_cls_token = use_cls_token
        self.patch_embed = PatchEmbedding(
            image_size, patch_size, in_channels, embed_dim, rng=rng
        )
        tokens = self.patch_embed.num_patches + (1 if use_cls_token else 0)
        self.pos_embed = Parameter(
            rng.normal(0.0, 0.02, size=(1, tokens, embed_dim)).astype(np.float32)
        )
        if use_cls_token:
            self.cls_token = Parameter(
                rng.normal(0.0, 0.02, size=(1, 1, embed_dim)).astype(np.float32)
            )
        self.blocks = ModuleList(
            [
                TransformerBlock(embed_dim, num_heads, mlp_ratio, rng=rng)
                for _ in range(depth)
            ]
        )
        self.norm = LayerNorm(embed_dim)
        self.head = Linear(embed_dim, num_classes, rng=rng)
        self.num_classes = num_classes

    def forward(self, x: TensorOrArray) -> TensorOrArray:
        tokens = self.patch_embed(x)
        n = tokens.shape[0]
        inference = isinstance(tokens, np.ndarray)
        if self.use_cls_token:
            cls = np.broadcast_to(self.cls_token.data, (n, 1, self.embed_dim))
            if not inference:
                # Adds an exact zero whose only purpose is to route the
                # gradient of every row back to the one cls_token.
                cls = Tensor(cls.copy()) + (self.cls_token - self.cls_token.detach())
            tokens = F.concatenate([cls, tokens], axis=1)
        tokens = tokens + (self.pos_embed.data if inference else self.pos_embed)
        for block in self.blocks:
            tokens = block(tokens)
        tokens = self.norm(tokens)
        if self.use_cls_token:
            pooled = tokens[:, 0]
        else:
            pooled = F.mean(tokens, axis=1)
        return self.head(pooled)


class PatchMerging(Module):
    """Swin patch merging: concatenate 2x2 neighbourhoods and project 4D -> 2D."""

    def __init__(self, embed_dim: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.embed_dim = embed_dim
        self.norm = LayerNorm(embed_dim * 4)
        self.reduction = Linear(embed_dim * 4, embed_dim * 2, bias=False, rng=rng)

    def forward(self, x: TensorOrArray, grid_size: int) -> TensorOrArray:
        n, t, d = x.shape
        grid = x.reshape(n, grid_size, grid_size, d)
        x00 = grid[:, 0::2, 0::2, :]
        x01 = grid[:, 0::2, 1::2, :]
        x10 = grid[:, 1::2, 0::2, :]
        x11 = grid[:, 1::2, 1::2, :]
        merged = F.concatenate([x00, x01, x10, x11], axis=-1)
        merged = merged.reshape(n, (grid_size // 2) ** 2, d * 4)
        return self.reduction(self.norm(merged))


class SwinTransformer(Module):
    """Hierarchical windowed transformer (Swin-style)."""

    def __init__(
        self,
        image_size: int = 16,
        patch_size: int = 2,
        in_channels: int = 3,
        embed_dim: int = 16,
        depths: tuple = (2, 2),
        num_heads: tuple = (2, 4),
        window: int = 4,
        mlp_ratio: float = 2.0,
        num_classes: int = 10,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.patch_embed = PatchEmbedding(
            image_size, patch_size, in_channels, embed_dim, rng=rng
        )
        self.window = window
        grid = self.patch_embed.grid_size
        self.pos_embed = Parameter(
            rng.normal(0.0, 0.02, size=(1, grid * grid, embed_dim)).astype(np.float32)
        )

        self.stages = ModuleList()
        self.mergers = ModuleList()
        dim = embed_dim
        self._stage_grids = []
        for stage_index, (depth, heads) in enumerate(zip(depths, num_heads)):
            blocks = ModuleList(
                [
                    SwinBlock(
                        dim,
                        heads,
                        window=min(window, grid),
                        shift=(i % 2 == 1),
                        mlp_ratio=mlp_ratio,
                        rng=rng,
                    )
                    for i in range(depth)
                ]
            )
            self.stages.append(blocks)
            self._stage_grids.append(grid)
            if stage_index < len(depths) - 1:
                self.mergers.append(PatchMerging(dim, rng=rng))
                dim *= 2
                grid //= 2
        self.norm = LayerNorm(dim)
        self.head = Linear(dim, num_classes, rng=rng)
        self.num_classes = num_classes

    def forward(self, x: TensorOrArray) -> TensorOrArray:
        tokens = self.patch_embed(x)
        tokens = tokens + (self.pos_embed.data if isinstance(tokens, np.ndarray) else self.pos_embed)
        for stage_index, blocks in enumerate(self.stages):
            grid = self._stage_grids[stage_index]
            for block in blocks:
                tokens = block(tokens, grid)
            if stage_index < len(self.mergers):
                tokens = self.mergers[stage_index](tokens, grid)
        tokens = self.norm(tokens)
        return self.head(F.mean(tokens, axis=1))


def vit(
    variant: str = "small",
    image_size: int = 16,
    num_classes: int = 10,
    rng: Optional[np.random.Generator] = None,
) -> VisionTransformer:
    """Build a ViT/DeiT family model (variants: tiny/small/base)."""
    configs = {
        "tiny": dict(embed_dim=16, depth=2, num_heads=2),
        "small": dict(embed_dim=32, depth=3, num_heads=4),
        "base": dict(embed_dim=48, depth=4, num_heads=4),
    }
    if variant not in configs:
        raise ValueError(f"unknown ViT variant {variant!r}")
    return VisionTransformer(
        image_size=image_size,
        patch_size=4,
        num_classes=num_classes,
        rng=rng,
        **configs[variant],
    )


def swin(
    variant: str = "small",
    image_size: int = 16,
    num_classes: int = 10,
    rng: Optional[np.random.Generator] = None,
) -> SwinTransformer:
    """Build a Swin family model (variants: small/base)."""
    configs = {
        "small": dict(embed_dim=24, depths=(2, 2), num_heads=(2, 4)),
        "base": dict(embed_dim=24, depths=(2, 4), num_heads=(2, 4)),
    }
    if variant not in configs:
        raise ValueError(f"unknown Swin variant {variant!r}")
    return SwinTransformer(
        image_size=image_size,
        patch_size=2,
        window=4,
        num_classes=num_classes,
        rng=rng,
        **configs[variant],
    )
