"""Attention primitives and transformer blocks for the vision models."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import Dropout, GELU, LayerNorm, Linear
from repro.nn.module import Module
from repro.tensor import Tensor, TensorOrArray, functional as F


class MultiHeadAttention(Module):
    """Standard multi-head self-attention with separate Q/K/V projections.

    The projections are three distinct :class:`Linear` layers, not one fused QKV
    matrix: FlexiQ's channel selection and the Table 6 layer-error analysis
    address Q/K/V individually.  Still three layers, three selections, three
    tables -- one GEMM where their type offers ``stacked_forward``.
    """

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if embed_dim % num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.q_proj = Linear(embed_dim, embed_dim, rng=rng)
        self.k_proj = Linear(embed_dim, embed_dim, rng=rng)
        self.v_proj = Linear(embed_dim, embed_dim, rng=rng)
        self.out_proj = Linear(embed_dim, embed_dim, rng=rng)

    def _split_heads(self, x: TensorOrArray) -> TensorOrArray:
        """(N, T, D) -> (N, heads, T, head_dim)."""
        n, t, _ = x.shape
        return x.reshape(n, t, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(
        self, x: TensorOrArray, mask: Optional[np.ndarray] = None
    ) -> TensorOrArray:
        # Written with operators both kinds define, so one body serves a
        # Tensor (graph recorded) and an ndarray (same values, no graph).
        n, t, _ = x.shape
        projections = (self.q_proj, self.k_proj, self.v_proj)
        kind, qkv = type(self.q_proj), None
        if isinstance(x, np.ndarray) and hasattr(kind, "stacked_forward") and all(
            type(p) is kind and "forward" not in vars(p) for p in projections
        ):  # see repro.nn.module: nobody could notice the three calls missing
            qkv = kind.stacked_forward(projections, x)
        if qkv is None:
            qkv = [projection(x) for projection in projections]
        q, k, v = map(self._split_heads, qkv)

        scale = 1.0 / float(np.sqrt(self.head_dim))
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale
        if mask is not None:
            scores = scores + mask.astype(np.float32)
        attn = F.softmax(scores, axis=-1)
        context = attn @ v  # (N, heads, T, head_dim)
        context = context.transpose(0, 2, 1, 3).reshape(n, t, self.embed_dim)
        return self.out_proj(context)


class MLP(Module):
    """Transformer feed-forward block: Linear -> GELU -> Linear."""

    def __init__(
        self,
        embed_dim: int,
        hidden_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.fc1 = Linear(embed_dim, hidden_dim, rng=rng)
        self.act = GELU()
        self.fc2 = Linear(hidden_dim, embed_dim, rng=rng)

    def forward(self, x: TensorOrArray) -> TensorOrArray:
        return self.fc2(self.act(self.fc1(x)))


class TransformerBlock(Module):
    """Pre-norm transformer encoder block (as in ViT/DeiT)."""

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        mlp_ratio: float = 2.0,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.norm1 = LayerNorm(embed_dim)
        self.attn = MultiHeadAttention(embed_dim, num_heads, rng=rng)
        self.norm2 = LayerNorm(embed_dim)
        self.mlp = MLP(embed_dim, int(embed_dim * mlp_ratio), rng=rng)
        self.drop = Dropout(dropout)

    def forward(
        self, x: TensorOrArray, mask: Optional[np.ndarray] = None
    ) -> TensorOrArray:
        x = x + self.drop(self.attn(self.norm1(x), mask=mask))
        x = x + self.drop(self.mlp(self.norm2(x)))
        return x


def _roll(x: TensorOrArray, shift_h: int, shift_w: int) -> TensorOrArray:
    """Cyclically roll a (N, H, W, D) tensor or array along its spatial axes."""
    if isinstance(x, np.ndarray):
        return np.roll(x, shift=(shift_h, shift_w), axis=(1, 2))
    data = np.roll(x.data, shift=(shift_h, shift_w), axis=(1, 2))

    def backward(grad: np.ndarray):
        return (np.roll(grad, shift=(-shift_h, -shift_w), axis=(1, 2)),)

    return Tensor._make(data, (x,), backward)


class WindowAttention(Module):
    """Window-partitioned attention used by the Swin family.

    Tokens are arranged on an (H, W) grid; attention is computed within
    non-overlapping ``window`` x ``window`` windows, optionally with a cyclic
    shift of half a window (the "SW-MSA" variant).
    """

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        window: int,
        shift: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.window = window
        self.shift = shift
        self.attn = MultiHeadAttention(embed_dim, num_heads, rng=rng)

    def forward(self, x: TensorOrArray, grid_size: int) -> TensorOrArray:
        n, t, d = x.shape
        if grid_size * grid_size != t:
            raise ValueError("token count does not form a square grid")
        window = self.window
        if grid_size % window != 0:
            raise ValueError("grid size must be divisible by the window size")

        grid = x.reshape(n, grid_size, grid_size, d)
        if self.shift:
            grid = _roll(grid, -self.shift, -self.shift)

        num_win = grid_size // window
        # (N, num_win, win, num_win, win, D) -> (N*num_win^2, win*win, D)
        windows = grid.reshape(n, num_win, window, num_win, window, d)
        windows = windows.transpose(0, 1, 3, 2, 4, 5)
        windows = windows.reshape(n * num_win * num_win, window * window, d)

        attended = self.attn(windows)

        attended = attended.reshape(n, num_win, num_win, window, window, d)
        attended = attended.transpose(0, 1, 3, 2, 4, 5)
        attended = attended.reshape(n, grid_size, grid_size, d)
        if self.shift:
            attended = _roll(attended, self.shift, self.shift)
        return attended.reshape(n, t, d)


class SwinBlock(Module):
    """Pre-norm Swin block: (shifted) window attention followed by an MLP."""

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        window: int,
        shift: bool,
        mlp_ratio: float = 2.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.norm1 = LayerNorm(embed_dim)
        self.attn = WindowAttention(
            embed_dim, num_heads, window, shift=window // 2 if shift else 0, rng=rng
        )
        self.norm2 = LayerNorm(embed_dim)
        self.mlp = MLP(embed_dim, int(embed_dim * mlp_ratio), rng=rng)

    def forward(self, x: TensorOrArray, grid_size: int) -> TensorOrArray:
        x = x + self.attn(self.norm1(x), grid_size)
        x = x + self.mlp(self.norm2(x))
        return x
