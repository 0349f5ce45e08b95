"""Synthetic character corpus for the LLM case study (Section 8.10).

The corpus is generated from a second-order Markov chain over a small
alphabet with a handful of recurring "phrases", which gives a compressible
structure a tiny decoder LM can learn (perplexity well below the uniform
baseline) while remaining fully offline and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass(frozen=True)
class TextCorpusConfig:
    """Configuration of the synthetic corpus."""

    vocab_size: int = 64
    train_tokens: int = 20_000
    test_tokens: int = 4_000
    seq_len: int = 32
    num_phrases: int = 24
    phrase_len: int = 6
    phrase_prob: float = 0.55
    seed: int = 23


class SyntheticTextCorpus:
    """Token corpus with train/test splits and fixed-length sequence views."""

    def __init__(self, config: TextCorpusConfig = TextCorpusConfig()) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed)
        self._phrases = [
            rng.integers(0, config.vocab_size, size=config.phrase_len)
            for _ in range(config.num_phrases)
        ]
        self.train_tokens = self._generate(rng, config.train_tokens)
        self.test_tokens = self._generate(rng, config.test_tokens)

    def _generate(self, rng: np.random.Generator, length: int) -> np.ndarray:
        cfg = self.config
        tokens: List[int] = []
        while len(tokens) < length:
            if rng.random() < cfg.phrase_prob:
                phrase = self._phrases[rng.integers(0, cfg.num_phrases)]
                tokens.extend(int(t) for t in phrase)
            else:
                tokens.append(int(rng.integers(0, cfg.vocab_size)))
        return np.asarray(tokens[:length], dtype=np.int64)

    def _sequences(self, tokens: np.ndarray) -> np.ndarray:
        seq_len = self.config.seq_len
        count = len(tokens) // seq_len
        return tokens[: count * seq_len].reshape(count, seq_len)

    def train_sequences(self) -> np.ndarray:
        """Return training data as (num_sequences, seq_len) token ids."""
        return self._sequences(self.train_tokens)

    def test_sequences(self) -> np.ndarray:
        """Return held-out data as (num_sequences, seq_len) token ids."""
        return self._sequences(self.test_tokens)

    def train_batches(
        self, batch_size: int, rng: np.random.Generator | None = None
    ) -> List[np.ndarray]:
        """Return shuffled training batches of token-id sequences."""
        sequences = self.train_sequences()
        order = np.arange(len(sequences))
        if rng is not None:
            rng.shuffle(order)
        return [
            sequences[order[start : start + batch_size]]
            for start in range(0, len(order), batch_size)
        ]


def build_text_corpus() -> SyntheticTextCorpus:
    """Build the default case-study corpus."""
    return SyntheticTextCorpus(TextCorpusConfig())
