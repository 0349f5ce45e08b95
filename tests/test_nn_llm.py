"""Tests for the tiny decoder LM used by the Section 8.10 case study."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.text import SyntheticTextCorpus, TextCorpusConfig, build_text_corpus
from repro.nn.llm import TinyDecoderLM, causal_mask, tiny_lm
from repro.tensor import no_grad
from repro.train.loop import train_language_model


@pytest.fixture(scope="module")
def lm():
    return TinyDecoderLM(vocab_size=32, max_seq_len=16, embed_dim=16, depth=2,
                         num_heads=2, rng=np.random.default_rng(0))


class TestCausalMask:
    def test_shape_and_values(self):
        mask = causal_mask(4)
        assert mask.shape == (4, 4)
        assert mask[0, 1] < -1e8
        assert mask[2, 1] == 0.0

    def test_causality_of_logits(self, lm):
        ids = np.random.default_rng(0).integers(0, 32, size=(1, 10))
        with no_grad():
            base = lm(ids).data.copy()
        changed = ids.copy()
        changed[0, 9] = (changed[0, 9] + 1) % 32
        with no_grad():
            out = lm(changed).data
        np.testing.assert_allclose(base[0, :9], out[0, :9], atol=1e-5)


class TestForwardAndLoss:
    def test_logit_shape(self, lm):
        ids = np.zeros((3, 12), dtype=np.int64)
        assert lm(ids).shape == (3, 12, 32)

    def test_sequence_too_long_raises(self, lm):
        with pytest.raises(ValueError):
            lm(np.zeros((1, 99), dtype=np.int64))

    def test_loss_close_to_uniform_at_init(self, lm):
        ids = np.random.default_rng(1).integers(0, 32, size=(4, 12))
        loss = lm.loss(ids).item()
        assert abs(loss - np.log(32)) < 1.0

    def test_perplexity_positive_and_bounded_at_init(self, lm):
        ids = np.random.default_rng(2).integers(0, 32, size=(8, 12))
        ppl = lm.perplexity(ids)
        assert 1.0 < ppl < 32 * 3


class TestTrainingOnCorpus:
    def test_training_reduces_perplexity(self):
        corpus = SyntheticTextCorpus(
            TextCorpusConfig(vocab_size=32, train_tokens=4000, test_tokens=800,
                             seq_len=16, seed=3)
        )
        model = TinyDecoderLM(vocab_size=32, max_seq_len=16, embed_dim=16, depth=2,
                              num_heads=2, rng=np.random.default_rng(0))
        test = corpus.test_sequences()
        before = model.perplexity(test)
        batches = corpus.train_batches(batch_size=16, rng=np.random.default_rng(0))
        losses = train_language_model(model, batches, epochs=3)
        after = model.perplexity(test)
        assert after < before * 0.9
        assert losses[-1] < losses[0]

    def test_builder(self):
        model = tiny_lm(vocab_size=64, rng=np.random.default_rng(0))
        assert model.vocab_size == 64
        assert build_text_corpus().config.vocab_size == 64
