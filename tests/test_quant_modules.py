"""Tests for quantized layers and the model-level quantization pass."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import Conv2d, Linear
from repro.quant.qmodel import (
    calibrate_model,
    iter_quantizable_layers,
    iter_quantized_layers,
    model_average_bits,
    quantize_model,
)
from repro.quant.qmodules import QuantConv2d, QuantLinear
from repro.tensor import Tensor, no_grad


def make_linear(in_f=16, out_f=8, seed=0):
    rng = np.random.default_rng(seed)
    layer = Linear(in_f, out_f, rng=rng)
    return layer


def make_conv(in_c=4, out_c=8, seed=0, groups=1):
    rng = np.random.default_rng(seed)
    return Conv2d(in_c, out_c, 3, padding=1, groups=groups, rng=rng)


def calibrated_qlinear(bits=8, seed=0):
    source = make_linear(seed=seed)
    qlayer = QuantLinear(source, weight_bits=bits, act_bits=bits)
    rng = np.random.default_rng(seed + 1)
    data = rng.normal(size=(32, source.in_features)).astype(np.float32)
    qlayer(Tensor(data))
    qlayer.freeze()
    return source, qlayer, data


class TestQuantLinear:
    def test_calibration_then_freeze(self):
        _, qlayer, _ = calibrated_qlinear()
        assert not qlayer.calibrating
        assert qlayer.weight_qparams.per_channel
        assert qlayer.weight_qparams.scale.shape == (8,)

    def test_forward_before_freeze_records_and_matches_float(self):
        source = make_linear()
        qlayer = QuantLinear(source)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 16)).astype(np.float32))
        out = qlayer(x)
        np.testing.assert_allclose(out.data, source(x).data, atol=1e-5)
        assert qlayer.act_observer.initialized

    def test_freeze_without_data_raises(self):
        qlayer = QuantLinear(make_linear())
        with pytest.raises(RuntimeError):
            qlayer.freeze()

    def test_int8_close_to_float(self):
        source, qlayer, data = calibrated_qlinear(bits=8)
        x = Tensor(data[:8])
        ref = source(x).data
        out = qlayer(x).data
        scale = np.abs(ref).max()
        assert np.abs(out - ref).max() < 0.05 * scale

    def test_int4_worse_than_int8(self):
        source, q8, data = calibrated_qlinear(bits=8)
        _, q4, _ = calibrated_qlinear(bits=4)
        x = Tensor(data[:8])
        ref = source(x).data
        err8 = np.abs(q8(x).data - ref).mean()
        err4 = np.abs(q4(x).data - ref).mean()
        assert err4 > err8

    def test_token_shaped_input(self):
        _, qlayer, _ = calibrated_qlinear()
        x = Tensor(np.random.default_rng(2).normal(size=(2, 5, 16)).astype(np.float32))
        assert qlayer(x).shape == (2, 5, 8)

    def test_input_channel_range_shape(self):
        _, qlayer, _ = calibrated_qlinear()
        r = qlayer.input_channel_range()
        assert r.low.shape == (16,)

    def test_qat_forward_differentiable(self):
        _, qlayer, data = calibrated_qlinear()
        x = Tensor(data[:4], requires_grad=True)
        out = qlayer.qat_forward(x)
        out.sum().backward()
        assert qlayer.weight.grad is not None
        assert x.grad is not None

    def test_qat_forward_lower_bits_increases_error(self):
        source, qlayer, data = calibrated_qlinear()
        x = Tensor(data[:8])
        ref = source(x).data
        err8 = np.abs(qlayer.qat_forward(x, 8, 8).data - ref).mean()
        err4 = np.abs(qlayer.qat_forward(x, 4, 4).data - ref).mean()
        assert err4 > err8

    def test_qat_bits_attribute_switches_forward(self):
        _, qlayer, data = calibrated_qlinear()
        x = Tensor(data[:4])
        quantized = qlayer(x).data
        qlayer.qat_bits = 8
        qat = qlayer(x).data
        qlayer.qat_bits = None
        # Fake-quant and integer paths agree closely at 8 bits.
        np.testing.assert_allclose(quantized, qat, atol=1e-3)

    def test_reset_calibration(self):
        _, qlayer, data = calibrated_qlinear()
        qlayer.reset_calibration()
        assert qlayer.calibrating
        with pytest.raises(RuntimeError):
            qlayer.input_channel_range()


class TestQuantConv2d:
    def _calibrated(self, bits=8, groups=1):
        source = make_conv(groups=groups)
        qlayer = QuantConv2d(source, weight_bits=bits, act_bits=bits)
        data = np.random.default_rng(1).normal(size=(8, 4, 6, 6)).astype(np.float32)
        qlayer(Tensor(data))
        qlayer.freeze()
        return source, qlayer, data

    def test_int8_close_to_float(self):
        source, qlayer, data = self._calibrated()
        x = Tensor(data[:4])
        ref = source(x).data
        out = qlayer(x).data
        assert np.abs(out - ref).max() < 0.06 * np.abs(ref).max()

    def test_integer_path_equals_simulated_path(self):
        """The explicit integer GEMM and quantize-dequantize float conv agree."""
        _, qlayer, data = self._calibrated()
        x = data[:4]  # the kernel bodies run from ndarray to ndarray
        integer = qlayer._quantized_forward(x)
        simulated = qlayer._simulated_quantized_forward(x)
        np.testing.assert_allclose(integer, simulated, atol=1e-3, rtol=1e-3)

    def test_depthwise_conv_supported(self):
        source, qlayer, data = self._calibrated(groups=4)
        x = Tensor(data[:4])
        out = qlayer(x)
        assert out.shape == source(x).shape
        assert np.isfinite(out.data).all()

    def test_weight_matrix_dense_view_for_groups(self):
        _, qlayer, _ = self._calibrated(groups=4)
        dense = qlayer._weight_matrix()
        assert dense.shape == (8, 4, 9)

    def test_feature_channels(self):
        _, qlayer, _ = self._calibrated()
        assert qlayer.feature_channels == 4


class TestNdarrayForward:
    """ndarray in => inference, Tensor in => autograd (repro.nn.module)."""

    @pytest.mark.parametrize("groups", [1, 4])
    def test_frozen_layers_serve_arrays(self, groups):
        _, qlinear, rows = calibrated_qlinear()
        _, qconv, images = TestQuantConv2d()._calibrated(groups=groups)
        for layer, x in ((qlinear, rows[:4]), (qconv, images[:4])):
            out = layer(x)
            assert type(out) is np.ndarray and out.dtype == np.float32
            assert np.array_equal(out, layer(Tensor(x)).data)

    def test_calibration_and_qat_phases_take_the_autograd_path(self):
        source = make_linear()
        qlayer = QuantLinear(source)
        x = np.random.default_rng(0).normal(size=(4, 16)).astype(np.float32)
        assert type(qlayer(x)) is Tensor  # calibrating: observed, float forward
        assert qlayer.act_observer.initialized
        qlayer.freeze()
        qlayer.qat_bits = 4
        out = qlayer(x)
        assert type(out) is Tensor
        out.sum().backward()
        assert qlayer.weight.grad is not None


class SmallNet:
    """Helper building a 3-layer model for quantize_model tests."""

    @staticmethod
    def build(seed=0):
        from repro.nn.module import Module

        class Net(Module):
            def __init__(self):
                super().__init__()
                rng = np.random.default_rng(seed)
                self.conv = Conv2d(3, 8, 3, padding=1, rng=rng)
                self.mid = Linear(8, 16, rng=rng)
                self.head = Linear(16, 4, rng=rng)

            def forward(self, x):
                feats = self.conv(x).mean(axis=(2, 3))
                return self.head(self.mid(feats).relu())

        return Net()


class TestQuantizeModel:
    def _calibration(self):
        return [np.random.default_rng(7).normal(size=(16, 3, 8, 8)).astype(np.float32)]

    def test_replaces_all_layers(self):
        model = SmallNet.build()
        quantized = quantize_model(model, 8, calibration_batches=self._calibration())
        assert len(iter_quantized_layers(quantized)) == 3
        assert len(iter_quantizable_layers(quantized)) == 0

    @pytest.mark.parametrize("flexiq", [False, True], ids=["quant", "flexiq"])
    def test_layer_types_pick_each_replacement(self, flexiq):
        """``layer_types`` names the (Linear, Conv2d) replacement classes; the
        bit widths, calibration and uniform forward do not depend on the pair."""
        from repro.core.runtime import FlexiQConv2d, FlexiQLinear

        linear_type, conv_type = (FlexiQLinear, FlexiQConv2d) if flexiq else (QuantLinear, QuantConv2d)
        model = SmallNet.build()
        quantized = quantize_model(
            model, 4, calibration_batches=self._calibration(), layer_types=(linear_type, conv_type)
        )
        default = quantize_model(model, 4, calibration_batches=self._calibration())
        layers = iter_quantized_layers(quantized)
        assert [type(layer) for _, layer in layers] == [conv_type, linear_type, linear_type]
        for (name, layer), (ref_name, ref) in zip(layers, iter_quantized_layers(default)):
            assert name == ref_name and layer.weight_bits == ref.weight_bits
            np.testing.assert_array_equal(layer.act_qparams.scale, ref.act_qparams.scale)
        x = Tensor(self._calibration()[0][:2])
        np.testing.assert_array_equal(quantized(x).data, default(x).data)

    def test_original_model_untouched(self):
        model = SmallNet.build()
        quantize_model(model, 8, calibration_batches=self._calibration())
        assert len(iter_quantizable_layers(model)) == 3

    def test_first_last_kept_at_8bit(self):
        model = SmallNet.build()
        quantized = quantize_model(model, 4, calibration_batches=self._calibration())
        layers = iter_quantized_layers(quantized)
        assert layers[0][1].weight_bits == 8
        assert layers[-1][1].weight_bits == 8
        assert layers[1][1].weight_bits == 4

    def test_average_bits(self):
        model = SmallNet.build()
        q8 = quantize_model(model, 8, calibration_batches=self._calibration())
        assert model_average_bits(q8) == pytest.approx(8.0)
        q4 = quantize_model(model, 4, calibration_batches=self._calibration())
        assert 4.0 < model_average_bits(q4) < 8.0

    def test_accuracy_preserving_at_8bit(self):
        model = SmallNet.build()
        calibration = self._calibration()
        quantized = quantize_model(model, 8, calibration_batches=calibration)
        x = Tensor(calibration[0][:8])
        with no_grad():
            ref = model(x).data
            out = quantized(x).data
        assert np.abs(out - ref).max() < 0.1 * (np.abs(ref).max() + 1e-6)

    def test_calibration_required_before_inference(self):
        model = SmallNet.build()
        quantized = quantize_model(model, 8)
        # still calibrating: forward works (records), then freeze via calibrate_model
        calibrate_model(quantized, self._calibration())
        x = Tensor(self._calibration()[0][:2])
        assert quantized(x).shape == (2, 4)

    def test_calibrate_model_empty_batches_raises(self):
        model = SmallNet.build()
        quantized = quantize_model(model, 8)
        with pytest.raises(ValueError):
            calibrate_model(quantized, [])

    def test_the_float_model_is_left_untouched(self):
        model = SmallNet.build()
        quantized = quantize_model(model, 8, calibration_batches=self._calibration())
        assert len(iter_quantized_layers(quantized)) == 3
        assert iter_quantized_layers(model) == []

    def test_no_quantizable_layers_raises(self):
        from repro.nn.layers import ReLU
        from repro.nn.module import Sequential

        with pytest.raises(ValueError):
            quantize_model(Sequential(ReLU()), 8)
