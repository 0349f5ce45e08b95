"""Tests for the model zoo: architectures, registry and rebalancing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.registry import (
    MODEL_REGISTRY,
    apply_pretrained_channel_statistics,
    build_model,
    get_spec,
    list_models,
)
from repro.nn.rebalance import rebalance_channel_scales
from repro.nn.resnet import resnet18, resnet20, resnet50
from repro.nn.mobilenet import mobilenet_v2
from repro.nn.vit import swin, vit
from repro.tensor import Tensor, no_grad


# Every zoo model's array path runs through this code: a numpy
# invalid/overflow/divide warning fails.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

VISION_MODELS = [name for name in list_models() if name != "tiny_lm"]


def _size(model):
    """A model's parameter count."""
    return sum(p.size for p in model.parameters())


def _input(batch=2, size=16):
    rng = np.random.default_rng(0)
    return Tensor(rng.normal(size=(batch, 3, size, size)).astype(np.float32))


class TestRegistry:
    def test_contains_paper_models(self):
        expected = {
            "resnet20", "resnet18", "resnet34", "resnet50", "mobilenet_v2",
            "vit_small", "vit_base", "deit_small", "deit_base",
            "swin_small", "swin_base", "tiny_lm",
        }
        assert expected == set(MODEL_REGISTRY)

    def test_list_models_by_family(self):
        assert "resnet18" in list_models("cnn")
        assert "vit_base" in list_models("transformer")
        assert list_models("llm") == ["tiny_lm"]

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            get_spec("resnet101")
        with pytest.raises(KeyError):
            build_model("nope")

    def test_abbreviations_match_paper(self):
        assert get_spec("resnet50").abbreviation == "RNet50"
        assert get_spec("swin_base").abbreviation == "Swin-B"

    def test_build_is_deterministic(self):
        a = build_model("resnet20", seed=3)
        b = build_model("resnet20", seed=3)
        for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self):
        a = build_model("vit_small", seed=1)
        b = build_model("vit_small", seed=2)
        assert any(
            not np.array_equal(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
        )


class TestForwardShapes:
    @pytest.mark.parametrize("name", VISION_MODELS)
    def test_forward_shape(self, name):
        model = build_model(name, seed=0)
        with no_grad():
            out = model(_input())
        assert out.shape == (2, 10)
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("name", VISION_MODELS)
    def test_float_model_serves_an_array(self, name):
        """ndarray in => inference holds for every float zoo model."""
        model = build_model(name, seed=0).eval()
        x = _input().data
        out = model(x)
        assert type(out) is np.ndarray and out.dtype == np.float32
        assert np.array_equal(out, model(Tensor(x)).data)

    def test_resnet_variants_depth_ordering(self):
        # Deeper variants have more parameters.
        p18 = _size(resnet18(rng=np.random.default_rng(0)))
        p34 = _size(resnet20(rng=np.random.default_rng(0)))
        p50 = _size(resnet50(rng=np.random.default_rng(0)))
        assert p50 > p18 > p34

    def test_resnet_features(self):
        model = resnet18(rng=np.random.default_rng(0))
        with no_grad():
            feats = model.features(_input())
        assert feats.ndim == 2

    def test_mobilenet_has_depthwise(self):
        from repro.nn.layers import Conv2d

        model = mobilenet_v2(rng=np.random.default_rng(0))
        assert any(
            isinstance(m, Conv2d) and m.groups > 1 for _, m in model.named_modules()
        )

    def test_vit_variants(self):
        small = vit("small", rng=np.random.default_rng(0))
        base = vit("base", rng=np.random.default_rng(0))
        assert _size(base) > _size(small)
        with pytest.raises(ValueError):
            vit("huge")

    def test_swin_variants(self):
        small = swin("small", rng=np.random.default_rng(0))
        base = swin("base", rng=np.random.default_rng(0))
        assert _size(base) > _size(small)
        with pytest.raises(ValueError):
            swin("giant")

    def test_vit_gradients_flow_to_patch_embed(self):
        model = vit("small", rng=np.random.default_rng(0))
        out = model(_input())
        out.sum().backward()
        grad = model.patch_embed.proj.weight.grad
        assert grad is not None and np.abs(grad).sum() > 0


class TestRebalancing:
    def test_rebalance_preserves_function_vit(self):
        model = build_model("vit_small", seed=0)
        x = _input()
        with no_grad():
            before = model(x).data.copy()
        rebalance_channel_scales(model, sigma=0.6, seed=1)
        with no_grad():
            after = model(x).data
        np.testing.assert_allclose(before, after, atol=1e-4)

    def test_rebalance_preserves_function_resnet(self):
        model = build_model("resnet50", seed=0)
        model.eval()
        x = _input()
        with no_grad():
            before = model(x).data.copy()
        rebalance_channel_scales(model, sigma=0.6, seed=2)
        with no_grad():
            after = model(x).data
        np.testing.assert_allclose(before, after, atol=1e-3)

    def test_rebalance_increases_weight_range_diversity(self):
        model = build_model("vit_small", seed=0)
        layer = model.get_submodule("blocks.0.attn.q_proj")
        before = np.abs(layer.weight.data).max(axis=0)
        spread_before = before.max() / before.min()
        rebalance_channel_scales(model, sigma=0.6, seed=3)
        after = np.abs(layer.weight.data).max(axis=0)
        spread_after = after.max() / after.min()
        assert spread_after > spread_before * 1.5

    def test_rebalance_zero_sigma_noop(self):
        model = build_model("vit_small", seed=0)
        before = model.get_submodule("blocks.0.attn.q_proj").weight.data.copy()
        rebalance_channel_scales(model, sigma=0.0, seed=0)
        np.testing.assert_array_equal(
            before, model.get_submodule("blocks.0.attn.q_proj").weight.data
        )

    def test_init_time_channel_statistics(self):
        model = build_model("resnet18", seed=0)
        before = model.get_submodule("stages.0.0.conv1").weight.data.copy()
        apply_pretrained_channel_statistics(model, np.random.default_rng(0), sigma=0.5)
        after = model.get_submodule("stages.0.0.conv1").weight.data
        assert not np.allclose(before, after)
        # Per-channel ratios are constant within a channel (pure scaling).
        ratio = after / np.where(before == 0, 1, before)
        per_channel = ratio[:, 0, :, :]
        assert np.allclose(per_channel, per_channel[0:1], atol=1e-5)
