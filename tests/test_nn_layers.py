"""Tests for the core layers (Linear, Conv2d, normalisation, pooling, dropout)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Dropout,
    GELU,
    GlobalAvgPool2d,
    Identity,
    LayerNorm,
    Linear,
    ReLU,
    ReLU6,
)
from repro.nn.module import Sequential
from repro.nn.resnet import BasicBlock, BottleneckBlock
from repro.quant.qmodel import quantize_model
from repro.tensor import Tensor


# Every zoo model's array path runs through these layers: a numpy
# invalid/overflow/divide warning fails.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestLinear:
    def test_output_shape_and_math(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        layer.weight.data = np.array([[1, 0, 0], [0, 2, 0]], dtype=np.float32)
        layer.bias.data = np.array([1, -1], dtype=np.float32)
        out = layer(Tensor(np.array([[1.0, 2.0, 3.0]], dtype=np.float32)))
        np.testing.assert_allclose(out.data, [[2.0, 3.0]])

    def test_no_bias(self):
        layer = Linear(4, 4, bias=False, rng=np.random.default_rng(0))
        assert layer.bias is None
        assert sum(p.size for p in layer.parameters()) == 16

    def test_feature_channels_is_input_dim(self):
        assert Linear(7, 3, rng=np.random.default_rng(0)).feature_channels == 7

    def test_batched_token_input(self):
        layer = Linear(8, 5, rng=np.random.default_rng(0))
        out = layer(Tensor(np.zeros((2, 6, 8), dtype=np.float32)))
        assert out.shape == (2, 6, 5)

    def test_gradients(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((4, 3), dtype=np.float32)))
        out.sum().backward()
        assert layer.weight.grad.shape == (2, 3)
        np.testing.assert_allclose(layer.bias.grad, [4.0, 4.0])


class TestConv2d:
    def test_output_shape(self):
        conv = Conv2d(3, 8, 3, stride=2, padding=1, rng=np.random.default_rng(0))
        out = conv(Tensor(np.zeros((2, 3, 8, 8), dtype=np.float32)))
        assert out.shape == (2, 8, 4, 4)

    def test_feature_channels(self):
        assert Conv2d(5, 8, 3, rng=np.random.default_rng(0)).feature_channels == 5

    def test_invalid_groups_raises(self):
        with pytest.raises(ValueError):
            Conv2d(3, 8, 3, groups=2)

    def test_depthwise_parameter_count(self):
        conv = Conv2d(8, 8, 3, groups=8, bias=False, rng=np.random.default_rng(0))
        assert conv.weight.size == 8 * 1 * 9

    @pytest.mark.parametrize(
        "field,value",
        [
            ("stride", 0), ("stride", -1), ("stride", 1.5), ("stride", True), ("stride", None),
            ("kernel_size", 0), ("kernel_size", -3), ("kernel_size", 3.0), ("kernel_size", "3"),
            ("padding", -1), ("padding", 0.5), ("padding", False),
        ],
    )
    def test_geometry_it_cannot_run_is_rejected(self, field, value):
        """Parent: ``stride=0`` a ``ZeroDivisionError`` at the first forward,
        ``padding=-1`` silently a 4x4 output for an 8x8 image, ``kernel_size=0``
        a 9x9 one, ``stride=1.5`` a ``TypeError`` inside ``im2col``.  The
        quantized convolutions copy the source's geometry: one check."""
        geometry = {"kernel_size": 3, "stride": 1, "padding": 0, field: value}
        with pytest.raises(ValueError) as raised:
            Conv2d(2, 4, **geometry)
        least = 0 if field == "padding" else 1
        assert str(raised.value) == f"Conv2d {field} must be an integer >= {least}, got {value!r}"

    def test_integer_geometry_of_any_integer_type_is_accepted(self):
        conv = Conv2d(2, 4, np.int64(3), stride=np.int32(2), padding=0, rng=np.random.default_rng(0))
        assert conv(Tensor(np.zeros((1, 2, 7, 7), np.float32))).shape == (1, 4, 3, 3)

    def test_identity_kernel(self):
        conv = Conv2d(1, 1, 1, bias=False, rng=np.random.default_rng(0))
        conv.weight.data[:] = 1.0
        x = np.random.default_rng(0).normal(size=(1, 1, 5, 5)).astype(np.float32)
        np.testing.assert_allclose(conv(Tensor(x)).data, x, atol=1e-6)


class TestNormalisation:
    def test_batchnorm_train_normalises(self):
        bn = BatchNorm2d(4)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(3.0, 2.0, size=(8, 4, 5, 5)).astype(np.float32))
        out = bn(x).data
        assert abs(out.mean()) < 1e-3
        assert abs(out.std() - 1.0) < 1e-2

    def test_batchnorm_updates_running_stats(self):
        bn = BatchNorm2d(2)
        before = bn.running_mean.copy()
        x = Tensor(np.random.default_rng(0).normal(5, 1, size=(4, 2, 3, 3)).astype(np.float32))
        bn(x)
        assert not np.allclose(bn.running_mean, before)

    def test_batchnorm_eval_uses_running_stats(self):
        bn = BatchNorm2d(2)
        bn.update_buffer("running_mean", np.array([1.0, 2.0], dtype=np.float32))
        bn.update_buffer("running_var", np.array([4.0, 9.0], dtype=np.float32))
        bn.eval()
        x = Tensor(np.ones((1, 2, 1, 1), dtype=np.float32))
        out = bn(x).data.reshape(-1)
        np.testing.assert_allclose(out, [(1 - 1) / 2, (1 - 2) / 3], atol=1e-3)

    def test_batchnorm_eval_constants_follow_every_source(self):
        """The cached (mean, std, weight, bias) are keyed by the identity of
        the four arrays and hold weight/bias as views: a replaced buffer, a
        rebound ``weight.data`` and an in-place edit each show in the very
        next forward, on an array and on a ``Tensor`` alike."""
        rng = np.random.default_rng(3)
        bn = BatchNorm2d(3).eval()
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)

        def fresh(bn):  # the same numbers through a module that never cached
            other = BatchNorm2d(3).eval()
            other.load_state_dict(bn.state_dict())
            return other(Tensor(x)).data

        def rebind_weight(bn):
            bn.weight.data = bn.weight.data * np.float32(1.5)

        def edit_weight_in_place(bn):
            bn.weight.data[1] = -2.0

        def edit_bias_in_place(bn):
            bn.bias.data += np.float32(0.25)

        seen = [bn(x)]
        for touch in (
            lambda bn: bn.update_buffer("running_mean", rng.normal(size=3).astype(np.float32)),
            lambda bn: bn.update_buffer("running_var", rng.uniform(1, 2, size=3).astype(np.float32)),
            rebind_weight, edit_weight_in_place, edit_bias_in_place,
            lambda bn: bn.load_state_dict({k: v + np.float32(1) for k, v in bn.state_dict().items()}),
        ):
            cached = bn._inference_constants()
            assert all(a is b for a, b in zip(cached, bn._inference_constants()))  # warm
            touch(bn)
            out = bn(x)
            assert type(out) is np.ndarray and not np.array_equal(out, seen[-1])
            assert np.array_equal(out, bn(Tensor(x)).data) and np.array_equal(out, fresh(bn))
            seen.append(out)

    def test_layernorm_normalises_last_dim(self):
        ln = LayerNorm(16)
        x = Tensor(np.random.default_rng(1).normal(4, 3, size=(5, 16)).astype(np.float32))
        out = ln(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-4)

    def test_layernorm_affine_params_used(self):
        ln = LayerNorm(4)
        ln.weight.data[:] = 2.0
        ln.bias.data[:] = 1.0
        x = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]], dtype=np.float32))
        out = ln(x).data
        assert out.mean() == pytest.approx(1.0, abs=1e-4)


class TestSimpleLayers:
    def test_relu_and_relu6(self):
        x = Tensor(np.array([-2.0, 3.0, 8.0], dtype=np.float32))
        np.testing.assert_allclose(ReLU()(x).data, [0, 3, 8])
        np.testing.assert_allclose(ReLU6()(x).data, [0, 3, 6])

    def test_relu_is_one_maximum_on_both_paths(self):
        """Parent (``x * (x > 0)``): ``nan`` with a RuntimeWarning at ``-inf``
        and ``-0.0`` for every negative."""
        import warnings

        x = np.array([-np.inf, -1.0, 0.0, 2.0], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outs = [ReLU()(x), ReLU()(Tensor(x)).data, Tensor(x).relu().data]
        for out in outs:
            assert out.dtype == np.float32 and out.tolist() == [0.0, 0.0, 0.0, 2.0]
            assert not np.signbit(out).any()
        leaf = Tensor(x, requires_grad=True)
        leaf.relu().sum().backward()
        assert leaf.grad.tolist() == [0.0, 0.0, 0.0, 1.0]  # the mask is unchanged

    def test_gelu_monotone_for_positive(self):
        x = Tensor(np.linspace(0.5, 3, 6).astype(np.float32))
        out = GELU()(x).data
        assert (np.diff(out) > 0).all()

    def test_identity(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        assert Identity()(x) is x

    def test_pooling_layers(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        assert GlobalAvgPool2d()(x).shape == (1, 1)

    def test_dropout_eval_is_identity(self):
        drop = Dropout(0.5)
        drop.eval()
        x = Tensor(np.ones((4, 4), dtype=np.float32))
        np.testing.assert_allclose(drop(x).data, x.data)

    def test_dropout_train_scales(self):
        drop = Dropout(0.5)
        drop.train()
        x = Tensor(np.ones((100, 100), dtype=np.float32))
        out = drop(x).data
        # Kept entries are scaled by 1/(1-p) = 2.
        assert set(np.unique(out)).issubset({0.0, 2.0})

    def test_dropout_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.5)


# ----------------------------------------------------------------------
# ndarray in => inference, Tensor in => autograd (repro.nn.module)
# ----------------------------------------------------------------------
def _eval_batchnorm():
    bn = BatchNorm2d(3)
    rng = np.random.default_rng(3)
    bn.update_buffer("running_mean", rng.normal(size=3).astype(np.float32))
    bn.update_buffer("running_var", rng.uniform(0.5, 2.0, size=3).astype(np.float32))
    bn.weight.data[:] = rng.normal(size=3)
    bn.bias.data[:] = rng.normal(size=3)
    return bn.eval()


def _layernorm():
    ln = LayerNorm(6)
    rng = np.random.default_rng(4)
    ln.weight.data[:] = rng.normal(size=6)
    ln.bias.data[:] = rng.normal(size=6)
    return ln


IMAGE, TOKENS = (2, 3, 6, 6), (2, 5, 6)


def _seeded(layer, *args, **kwargs):
    return lambda: layer(*args, rng=np.random.default_rng(5), **kwargs)


#: (module factory, input shape) for every leaf layer, and one container.
NDARRAY_LEAVES = {
    "linear": (_seeded(Linear, 6, 4), TOKENS),
    "conv2d": (_seeded(Conv2d, 3, 4, 3, padding=1), IMAGE),
    "conv2d_grouped": (_seeded(Conv2d, 3, 6, 3, stride=2, padding=1, groups=3), IMAGE),
    "batchnorm_eval": (_eval_batchnorm, IMAGE),
    "layernorm": (_layernorm, TOKENS),
    "relu": (ReLU, IMAGE),
    "relu6": (ReLU6, IMAGE),
    "gelu": (GELU, TOKENS),
    "identity": (Identity, TOKENS),
    "global_avg_pool": (GlobalAvgPool2d, IMAGE),
    "dropout_eval": (lambda: Dropout(0.5).eval(), TOKENS),
    "sequential": (
        lambda: Sequential(_eval_batchnorm(), ReLU6(), GlobalAvgPool2d()), IMAGE
    ),
}


def _input(shape, seed=0):
    # Wide enough to hit both sides of ReLU6's clip and GELU's tails.
    return (np.random.default_rng(seed).normal(size=shape) * 4.0).astype(np.float32)


class TestNdarrayForward:
    @pytest.mark.parametrize("name", sorted(NDARRAY_LEAVES))
    def test_array_in_array_out_equals_tensor_path(self, name):
        factory, shape = NDARRAY_LEAVES[name]
        module, x = factory(), _input(shape)
        kept = x.copy()
        out = module(x)
        reference = module(Tensor(x))
        assert type(out) is np.ndarray and type(reference) is Tensor
        assert out.dtype == reference.data.dtype == np.float32
        assert np.array_equal(out, reference.data)
        assert np.array_equal(x, kept)  # the input is never written

    @pytest.mark.parametrize("name", sorted(NDARRAY_LEAVES))
    def test_tensor_requiring_grad_still_records_a_graph(self, name):
        factory, shape = NDARRAY_LEAVES[name]
        module, x = factory(), Tensor(_input(shape), requires_grad=True)
        module(x).sum().backward()
        assert x.grad is not None and x.grad.shape == x.shape
        assert all(p.grad is not None for p in module.parameters())

    def test_training_mode_hands_an_array_to_autograd(self):
        """Batch statistics and dropout masks belong to the autograd path: a
        training-mode module given an array answers with a Tensor."""
        x = _input(IMAGE)
        bn = BatchNorm2d(3).train()
        out = bn(x)
        assert type(out) is Tensor
        assert np.array_equal(out.data, BatchNorm2d(3).train()(Tensor(x)).data)
        assert type(Dropout(0.5).train()(x)) is Tensor

    @pytest.mark.parametrize(
        "block",
        [
            lambda rng: BasicBlock(3, 3, rng=rng),
            lambda rng: BasicBlock(3, 8, stride=2, rng=rng),
            lambda rng: BottleneckBlock(3, 2, stride=2, rng=rng),
        ],
    )
    def test_resnet_blocks_are_type_agnostic(self, block):
        float_block = block(np.random.default_rng(0)).eval()
        x = _input(IMAGE)
        quantized = quantize_model(float_block, calibration_batches=[x])
        out = quantized(x)
        assert type(out) is np.ndarray
        assert np.array_equal(out, quantized(Tensor(x)).data)
        # The float block is the autograd reference and still differentiates.
        float_block(Tensor(x, requires_grad=True)).sum().backward()
        assert all(p.grad is not None for p in float_block.parameters())
