"""Small decoder-only language model for the Section 8.10 LLM case study.

The paper applies FlexiQ to OPT-350m / Qwen2.5-0.5B and measures WikiText2
perplexity.  Neither the checkpoints nor the dataset are available offline,
so the case study here uses a compact decoder-only transformer trained on a
synthetic character corpus (see :mod:`repro.data.text`).  The quantity being
reproduced is the *ordering* of perplexities across precision settings
(FP < INT8 <= FlexiQ 25..100% << uniform INT4), not absolute values.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.attention import MLP, MultiHeadAttention
from repro.nn.layers import LayerNorm, Linear
from repro.nn.module import Module, ModuleList, Parameter
from repro.tensor import Tensor, functional as F


def causal_mask(seq_len: int) -> np.ndarray:
    """Additive attention mask that blocks attention to future positions."""
    mask = np.full((seq_len, seq_len), -1e9, dtype=np.float32)
    return np.triu(mask, k=1)


class DecoderBlock(Module):
    """Pre-norm causal transformer decoder block."""

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        mlp_ratio: float = 2.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.norm1 = LayerNorm(embed_dim)
        self.attn = MultiHeadAttention(embed_dim, num_heads, rng=rng)
        self.norm2 = LayerNorm(embed_dim)
        self.mlp = MLP(embed_dim, int(embed_dim * mlp_ratio), rng=rng)

    def forward(self, x: Tensor, mask: np.ndarray) -> Tensor:
        x = x + self.attn(self.norm1(x), mask=mask)
        x = x + self.mlp(self.norm2(x))
        return x


class TinyDecoderLM(Module):
    """Decoder-only language model with learned positional embeddings."""

    def __init__(
        self,
        vocab_size: int = 64,
        max_seq_len: int = 32,
        embed_dim: int = 32,
        depth: int = 2,
        num_heads: int = 4,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.vocab_size = vocab_size
        self.max_seq_len = max_seq_len
        self.embed_dim = embed_dim
        self.token_embed = Parameter(
            rng.normal(0.0, 0.02, size=(vocab_size, embed_dim)).astype(np.float32)
        )
        self.pos_embed = Parameter(
            rng.normal(0.0, 0.02, size=(1, max_seq_len, embed_dim)).astype(np.float32)
        )
        self.blocks = ModuleList(
            [DecoderBlock(embed_dim, num_heads, rng=rng) for _ in range(depth)]
        )
        self.norm = LayerNorm(embed_dim)
        self.head = Linear(embed_dim, vocab_size, rng=rng)

    def forward(self, token_ids: np.ndarray) -> Tensor:
        """Return logits of shape (N, T, vocab) for integer ids (N, T)."""
        token_ids = np.asarray(token_ids)
        n, t = token_ids.shape
        if t > self.max_seq_len:
            raise ValueError("sequence longer than max_seq_len")
        embeddings = self.token_embed[token_ids.reshape(-1)]
        x = embeddings.reshape(n, t, self.embed_dim) + self.pos_embed[:, :t]
        mask = causal_mask(t)
        for block in self.blocks:
            x = block(x, mask)
        x = self.norm(x)
        return self.head(x)

    def loss(self, token_ids: np.ndarray) -> Tensor:
        """Next-token cross-entropy averaged over all prediction positions."""
        token_ids = np.asarray(token_ids)
        logits = self.forward(token_ids[:, :-1])
        targets = token_ids[:, 1:]
        n, t, v = logits.shape
        return F.cross_entropy(logits.reshape(n * t, v), targets.reshape(-1))

    def perplexity(self, token_ids: np.ndarray) -> float:
        """Corpus perplexity = exp(mean next-token NLL), 16 sequences a batch."""
        token_ids = np.asarray(token_ids)
        total_nll = 0.0
        total_tokens = 0
        for start in range(0, len(token_ids), 16):
            batch = token_ids[start : start + 16]
            nll = self.loss(batch).item()
            count = batch.shape[0] * (batch.shape[1] - 1)
            total_nll += nll * count
            total_tokens += count
        return float(np.exp(total_nll / max(total_tokens, 1)))


def tiny_lm(vocab_size: int = 64, rng: Optional[np.random.Generator] = None) -> TinyDecoderLM:
    """Build the default case-study language model."""
    return TinyDecoderLM(vocab_size=vocab_size, rng=rng)
