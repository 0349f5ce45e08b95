"""Tests for attention primitives and transformer blocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.attention import (
    MLP,
    MultiHeadAttention,
    SwinBlock,
    TransformerBlock,
    WindowAttention,
    _roll,
)
from repro.nn.llm import causal_mask
from repro.nn.vit import PatchEmbedding, PatchMerging, VisionTransformer
from repro.quant.qmodel import quantize_model
from repro.tensor import Tensor, no_grad


# Every zoo model's array path runs through this code: a numpy
# invalid/overflow/divide warning fails.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def tokens(batch=2, length=8, dim=16, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(batch, length, dim)).astype(np.float32))


class TestMultiHeadAttention:
    def test_output_shape(self):
        attn = MultiHeadAttention(16, 4, rng=np.random.default_rng(0))
        assert attn(tokens()).shape == (2, 8, 16)

    def test_invalid_heads(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3)

    def test_separate_qkv_projections(self):
        attn = MultiHeadAttention(16, 2, rng=np.random.default_rng(0))
        names = [name for name, _ in attn.named_modules()]
        assert {"q_proj", "k_proj", "v_proj", "out_proj"}.issubset(set(names))

    def test_causal_mask_blocks_future(self):
        """With a causal mask, output at position t must not depend on tokens > t."""
        attn = MultiHeadAttention(8, 2, rng=np.random.default_rng(0))
        x = tokens(batch=1, length=6, dim=8, seed=1)
        mask = causal_mask(6)
        with no_grad():
            base = attn(x, mask=mask).data.copy()
            perturbed_tokens = x.data.copy()
            perturbed_tokens[0, 5] += 10.0  # change only the last token
            perturbed = attn(Tensor(perturbed_tokens), mask=mask).data
        np.testing.assert_allclose(base[0, :5], perturbed[0, :5], atol=1e-5)
        assert not np.allclose(base[0, 5], perturbed[0, 5])

    def test_gradients_flow(self):
        attn = MultiHeadAttention(8, 2, rng=np.random.default_rng(0))
        x = tokens(dim=8)
        attn(x).sum().backward()
        assert attn.q_proj.weight.grad is not None


class TestBlocks:
    def test_mlp_shape(self):
        mlp = MLP(16, 32, rng=np.random.default_rng(0))
        assert mlp(tokens()).shape == (2, 8, 16)

    def test_transformer_block_residual(self):
        block = TransformerBlock(16, 4, rng=np.random.default_rng(0))
        block.eval()
        out = block(tokens())
        assert out.shape == (2, 8, 16)

    def test_swin_block_runs(self):
        block = SwinBlock(8, 2, window=2, shift=True, rng=np.random.default_rng(0))
        x = tokens(batch=1, length=16, dim=8)
        assert block(x, grid_size=4).shape == (1, 16, 8)


class TestWindowAttention:
    def test_requires_square_grid(self):
        attn = WindowAttention(8, 2, window=2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            attn(tokens(length=10, dim=8), grid_size=3)

    def test_requires_divisible_window(self):
        attn = WindowAttention(8, 2, window=3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            attn(tokens(length=16, dim=8), grid_size=4)

    def test_window_locality(self):
        """Without shift, a token is unaffected by changes outside its window."""
        attn = WindowAttention(8, 2, window=2, shift=0, rng=np.random.default_rng(0))
        x = tokens(batch=1, length=16, dim=8, seed=2)
        with no_grad():
            base = attn(x, grid_size=4).data.copy()
            perturbed = x.data.copy()
            perturbed[0, 15] += 5.0  # bottom-right corner, different window from token 0
            out = attn(Tensor(perturbed), grid_size=4).data
        np.testing.assert_allclose(base[0, 0], out[0, 0], atol=1e-5)

    def test_shifted_windows_mix_across_window_boundary(self):
        attn = WindowAttention(8, 2, window=2, shift=1, rng=np.random.default_rng(0))
        x = tokens(batch=1, length=16, dim=8, seed=3)
        with no_grad():
            base = attn(x, grid_size=4).data.copy()
            perturbed = x.data.copy()
            perturbed[0, 5] += 5.0
            out = attn(Tensor(perturbed), grid_size=4).data
        # Some token outside the unshifted window of (1,1) must change too.
        assert not np.allclose(base, out)

    def test_roll_grad_is_inverse_roll(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1), requires_grad=True)
        rolled = _roll(x, 1, 0)
        grad = np.zeros((1, 4, 4, 1), dtype=np.float32)
        grad[0, 0, 0, 0] = 1.0
        (rolled * Tensor(grad)).sum().backward()
        assert x.grad[0, 3, 0, 0] == 1.0
        assert x.grad.sum() == 1.0


class TestNdarrayForward:
    """ndarray in => inference, Tensor in => autograd (repro.nn.module).

    The containers are type-agnostic once their projections accept arrays,
    which the float and quantized layers do; the float module stays the
    autograd reference.  Inputs are 16 tokens, a 4x4 grid.
    """

    CASES = {
        "attention": (lambda rng: MultiHeadAttention(16, 4, rng=rng), {}),
        "attention_masked": (
            lambda rng: MultiHeadAttention(16, 4, rng=rng), {"mask": causal_mask(16)}
        ),
        "mlp": (lambda rng: MLP(16, 32, rng=rng), {}),
        "block": (lambda rng: TransformerBlock(16, 4, rng=rng), {}),
        "block_masked": (
            lambda rng: TransformerBlock(16, 4, rng=rng), {"mask": causal_mask(16)}
        ),
        "window": (
            lambda rng: WindowAttention(16, 4, window=2, shift=0, rng=rng), {"grid_size": 4}
        ),
        "window_shifted": (
            lambda rng: WindowAttention(16, 4, window=2, shift=1, rng=rng), {"grid_size": 4}
        ),
        "patch_merging": (lambda rng: PatchMerging(16, rng=rng), {"grid_size": 4}),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_array_in_array_out_equals_tensor_path(self, name):
        factory, kwargs = self.CASES[name]
        float_module = factory(np.random.default_rng(0)).eval()
        x = tokens(length=16).data
        kept = x.copy()
        for module in (float_module, quantize_model(
            float_module, calibration_batches=[x],
            forward_fn=lambda m, batch: m(Tensor(batch), **kwargs),
        )):
            out = module(x, **kwargs)
            reference = module(Tensor(x), **kwargs)
            assert type(out) is np.ndarray and out.dtype == np.float32
            assert np.array_equal(out, reference.data)
            assert np.array_equal(x, kept)  # the input is never written

        graphed = Tensor(x, requires_grad=True)
        float_module(graphed, **kwargs).sum().backward()
        assert graphed.grad is not None
        assert all(p.grad is not None for p in float_module.parameters())

    @pytest.mark.parametrize("use_cls_token", [True, False])
    def test_vision_transformer(self, use_cls_token):
        vit = VisionTransformer(
            image_size=8, patch_size=4, embed_dim=16, depth=1, num_heads=2,
            num_classes=5, use_cls_token=use_cls_token,
            rng=np.random.default_rng(0),
        ).eval()
        x = np.random.default_rng(1).normal(size=(3, 3, 8, 8)).astype(np.float32)
        quantized = quantize_model(vit, calibration_batches=[x])
        for module in (quantized, quantized.patch_embed):
            out = module(x)
            assert type(out) is np.ndarray and out.dtype == np.float32
            assert np.array_equal(out, module(Tensor(x)).data)
        assert isinstance(quantized.patch_embed, PatchEmbedding)

        vit(Tensor(x)).sum().backward()
        assert all(p.grad is not None for p in vit.parameters())
