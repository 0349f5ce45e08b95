"""Tests for the prepared-kernel cache (repro.core.prepared).

Covers the contract the serving stack relies on:

* cached (prepared) and uncached (reference) forwards are bit-exact for
  FlexiQLinear/FlexiQConv2d across ratios, group sizes and dynamic
  extraction on/off;
* the cache invalidates after ``reset_calibration()`` and after a QAT
  finetune step rebinds the weights;
* ``set_ratio()``/``set_boundary()`` never requantize or re-permute weights.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.runtime as runtime_module
import repro.quant.qmodules as qmodules
from repro.core.bit_extraction import BitExtractionPlan
from repro.core.layout import ChannelLayout
from repro.core.prepared import PreparedKernel, prepare_model
from repro.core.runtime import FlexiQConv2d, FlexiQLinear
from repro.nn.layers import Conv2d, Linear
from repro.quant.quantizers import quantize
from repro.tensor import Tensor
from repro.train.optim import SGD

RATIOS = (0.0, 0.25, 0.5, 1.0)


def calibrated_linear(in_f=16, out_f=8, seed=0):
    rng = np.random.default_rng(seed)
    source = Linear(in_f, out_f, rng=rng)
    scales = np.resize(
        np.repeat([0.1, 0.4, 1.0, 2.0], max(in_f // 4, 1)), in_f
    ).astype(np.float32)
    source.weight.data = source.weight.data * scales[None, :]
    layer = FlexiQLinear(source)
    data = (rng.normal(size=(64, in_f)) * scales[None, :]).astype(np.float32)
    layer(Tensor(data))
    layer.freeze()
    return layer, data


def calibrated_conv(channels=8, out_channels=6, seed=0):
    rng = np.random.default_rng(seed)
    source = Conv2d(channels, out_channels, 3, padding=1, rng=rng)
    scales = np.repeat([0.1, 0.5, 1.0, 2.0], channels // 4).astype(np.float32)
    source.weight.data = source.weight.data * scales[None, :, None, None]
    layer = FlexiQConv2d(source)
    data = (rng.normal(size=(16, channels, 6, 6)) * scales[None, :, None, None]).astype(
        np.float32
    )
    layer(Tensor(data))
    layer.freeze()
    return layer, data


def plan_for(layer):
    q_weight = quantize(layer.weight.data, layer.weight_qparams)
    weight_max = np.abs(
        q_weight.reshape(q_weight.shape[0], layer.feature_channels, -1)
    ).max(axis=(0, 2))
    act_range = layer.input_channel_range()
    act_max = np.clip(
        np.round(act_range.max_abs / layer.act_qparams.scale), 0, 127
    )
    return BitExtractionPlan.from_channel_maxima(weight_max, act_max)


def shuffled_layout(channels, seed=7):
    order = np.random.default_rng(seed).permutation(channels)
    return ChannelLayout("layer", order, {1.0: channels})


def forward_both_paths(layer, x):
    """Run the prepared and the uncached reference path on the same input."""
    layer.use_prepared = True
    layer.prepare()
    fast = layer(x).data.copy()
    layer.use_prepared = False
    slow = layer(x).data.copy()
    layer.use_prepared = True
    return fast, slow


class TestBitExactness:
    @pytest.mark.parametrize("group_size", [1, 4])
    @pytest.mark.parametrize("dynamic", [False, True])
    def test_linear_bit_exact_across_ratios(self, group_size, dynamic):
        layer, data = calibrated_linear()
        layer.configure(
            shuffled_layout(layer.feature_channels), plan_for(layer),
            group_size=group_size,
        )
        layer.set_dynamic_extraction(dynamic)
        x = Tensor(data[:8])
        for ratio in RATIOS:
            layer.set_boundary(int(round(ratio * layer.feature_channels)))
            fast, slow = forward_both_paths(layer, x)
            np.testing.assert_array_equal(fast, slow)

    @pytest.mark.parametrize("group_size", [1, 4])
    @pytest.mark.parametrize("dynamic", [False, True])
    def test_conv_bit_exact_across_ratios(self, group_size, dynamic):
        layer, data = calibrated_conv()
        layer.configure(
            shuffled_layout(layer.feature_channels), plan_for(layer),
            group_size=group_size,
        )
        layer.set_dynamic_extraction(dynamic)
        x = Tensor(data[:4])
        for ratio in RATIOS:
            layer.set_boundary(int(round(ratio * layer.feature_channels)))
            fast, slow = forward_both_paths(layer, x)
            np.testing.assert_array_equal(fast, slow)

    def test_channels_not_multiple_of_group_size(self):
        # 18 features with groups of 4: the last (short) group shares shifts.
        layer, data = calibrated_linear(in_f=18, out_f=5, seed=3)
        layer.configure(
            shuffled_layout(18, seed=3), plan_for(layer), group_size=4
        )
        x = Tensor(data[:8])
        for boundary in (0, 5, 18):
            layer.set_boundary(boundary)
            fast, slow = forward_both_paths(layer, x)
            np.testing.assert_array_equal(fast, slow)

    def test_unconfigured_layer_matches_reference(self):
        layer, data = calibrated_linear()
        x = Tensor(data[:8])
        fast, slow = forward_both_paths(layer, x)
        np.testing.assert_array_equal(fast, slow)

    def test_model_level_bit_exact(self, flexiq_runtime, calibration_batch):
        x = Tensor(calibration_batch[:8])
        for ratio in flexiq_runtime.available_ratios:
            flexiq_runtime.set_ratio(ratio)
            flexiq_runtime.prepare(use_prepared=True)
            fast = flexiq_runtime(x).data.copy()
            flexiq_runtime.prepare(use_prepared=False)
            slow = flexiq_runtime(x).data.copy()
            np.testing.assert_array_equal(fast, slow)
        flexiq_runtime.prepare(use_prepared=True)
        flexiq_runtime.set_ratio(0.0)


class TestPlaneDtype:
    """A plane is float32 exactly when ``gemm_plane`` proves that exact."""

    @staticmethod
    def frozen_conv(source, data):
        layer = FlexiQConv2d(source)
        out = layer(Tensor(data)).data  # calibration pass (float)
        layer.freeze()
        return layer, out

    def test_ordinary_planes_are_float32_only(self):
        layer, _ = calibrated_conv()
        layer.configure(shuffled_layout(8), plan_for(layer), group_size=4)
        prepared = layer.prepare()
        layer.set_boundary(4)
        layer.prepare()
        planes = [prepared.plane(b) for b in (0, 4, 8)]
        assert [p.dtype for p in planes] == [np.float32] * 3
        assert prepared.plane(0) is layer._gemm_weight_t()  # one copy, shared
        tables = sum(
            t.nbytes for entry in prepared._boundary_planes.values() for t in entry[1:]
        )
        stored = prepared.w8_t.nbytes + prepared.w4_t.nbytes + prepared.order.nbytes
        assert prepared.nbytes() == stored + planes[1].nbytes + planes[2].nbytes + tables

    @pytest.mark.parametrize("dynamic", [False, True])
    def test_saturated_layer_falls_back_and_mixed_stack_stays_exact(self, dynamic):
        """A float32 layer feeding a float64 one: prepared == uncached at
        every ratio, static and dynamic.

        Every weight of the second layer quantizes to +-127, so with 128
        channels x 3x3 taps its 8-bit plane's bound is 128 * 127 * 1152 >
        2**24 and the plane must stay float64.
        """
        rng = np.random.default_rng(5)
        images = rng.normal(size=(8, 8, 4, 4)).astype(np.float32)
        first, hidden = self.frozen_conv(Conv2d(8, 128, 3, padding=1, rng=rng), images)
        saturated = Conv2d(128, 4, 3, padding=1, rng=rng)
        signs = rng.choice([-1.0, 1.0], size=saturated.weight.data.shape)
        saturated.weight.data = (0.05 * signs).astype(np.float32)
        second, _ = self.frozen_conv(saturated, hidden)
        assert (np.abs(second.quantized_weight()) == 127).all()
        layers = (first, second)
        for layer in layers:
            channels = layer.feature_channels
            layout = ChannelLayout(
                "layer",
                rng.permutation(channels),
                {0.25: channels // 4, 0.5: channels // 2, 1.0: channels},
            )
            layer.configure(layout, plan_for(layer), group_size=4)
            layer.set_dynamic_extraction(dynamic)
        assert first.prepare().plane(0).dtype == np.float32
        assert second.prepare().plane(0).dtype == np.float64

        dtypes = set()
        for ratio in RATIOS:
            outputs = []
            for use_prepared in (False, True):
                x = Tensor(images[:3])
                for layer in layers:
                    layer.use_prepared = use_prepared
                    layer.set_ratio(ratio)
                    x = layer(x)
                outputs.append(x.data)
            np.testing.assert_array_equal(outputs[0], outputs[1])
            assert np.abs(outputs[0]).max() > 0
            dtypes |= {layer.prepare().plane(layer.max_4bit_ch).dtype for layer in layers}
        assert dtypes == {np.dtype(np.float32), np.dtype(np.float64)}


class TestCacheLifecycle:
    def configured_linear(self):
        layer, data = calibrated_linear()
        layer.configure(shuffled_layout(layer.feature_channels), plan_for(layer),
                        group_size=4)
        layer.set_boundary(8)
        layer(Tensor(data[:4]))
        return layer, data

    def test_freeze_populates_weight_cache(self):
        layer, _ = self.configured_linear()
        assert layer._q_weight_cache is not None
        assert layer._q_weight_cache.dtype == np.int8
        np.testing.assert_array_equal(
            layer._q_weight_cache,
            quantize(layer.weight.data, layer.weight_qparams),
        )
        assert layer._prepared is not None

    def test_reset_calibration_invalidates(self):
        layer, _ = self.configured_linear()
        layer.reset_calibration()
        assert layer._q_weight_cache is None
        assert layer._prepared is None
        assert layer._out_scale_cache is None

    def test_qat_step_invalidates_via_weight_rebind(self):
        layer, data = self.configured_linear()
        stale_prepared = layer._prepared
        stale_q = layer._q_weight_cache
        # A finetune step: fake-quantized forward, backward, optimizer step
        # (the optimizer rebinds weight.data, as load_state_dict does too).
        optimizer = SGD([layer.weight], lr=0.5, momentum=0.0)
        out = layer.qat_forward(Tensor(data[:4]), weight_bits=4, act_bits=4)
        out.sum().backward()
        optimizer.step()
        q_new = layer.quantized_weight()
        assert q_new is not stale_q
        np.testing.assert_array_equal(
            q_new, quantize(layer.weight.data, layer.weight_qparams)
        )
        layer.prepare()
        assert layer._prepared is not stale_prepared
        assert layer._prepared.weight_src is layer.weight.data

    def test_explicit_invalidate_after_inplace_mutation(self):
        layer, _ = self.configured_linear()
        layer.weight.data *= 0.5  # in-place: identity check cannot see this
        layer.invalidate_weight_cache()
        assert layer._q_weight_cache is None
        np.testing.assert_array_equal(
            layer.quantized_weight(),
            quantize(layer.weight.data, layer.weight_qparams),
        )

    def test_configure_drops_stale_plan_state(self):
        layer, _ = self.configured_linear()
        first = layer._prepared
        layer.configure(
            shuffled_layout(layer.feature_channels, seed=11), plan_for(layer),
            group_size=1,
        )
        assert layer._prepared is not first
        assert layer._prepared is not None  # eagerly rebuilt (still frozen)


class TestRatioSwitchIsO1:
    def test_set_ratio_never_rebuilds_or_requantizes(
        self, flexiq_runtime, calibration_batch, monkeypatch
    ):
        flexiq_runtime.prepare(use_prepared=True)
        x = Tensor(calibration_batch[:4])
        flexiq_runtime(x)  # warm every boundary-plane cache

        builds = []
        original_build = PreparedKernel.build
        monkeypatch.setattr(
            PreparedKernel, "build",
            staticmethod(lambda layer, taps: builds.append(layer) or original_build(layer, taps)),
        )
        # Track quantize() calls that touch any layer's weight array:
        # activations are quantized every forward, weights must never be.
        weight_ids = {
            id(layer.weight.data) for _, layer in flexiq_runtime.flexiq_layers()
        }
        weight_quantizes = []
        original_quantize = qmodules.quantize

        def spy(values, qparams):
            if id(values) in weight_ids:
                weight_quantizes.append(values.shape)
            return original_quantize(values, qparams)

        monkeypatch.setattr(qmodules, "quantize", spy)
        monkeypatch.setattr(runtime_module, "quantize", spy)
        for ratio in flexiq_runtime.available_ratios + [0.0, 1.0, 0.0]:
            flexiq_runtime.set_ratio(ratio)
            flexiq_runtime(x)
        assert builds == []
        assert weight_quantizes == []
        flexiq_runtime.set_ratio(0.0)

    def test_prepare_model_counts_layers(self, flexiq_runtime):
        count = prepare_model(flexiq_runtime.model, use_prepared=True)
        configured = [
            name
            for name, layer in flexiq_runtime.flexiq_layers()
            if layer.layout is not None
        ]
        assert count >= len(configured)


class TestPreparedKernelInternals:
    def test_boundary_plane_reuses_extremes(self):
        layer, _ = calibrated_linear()
        layer.configure(shuffled_layout(16), plan_for(layer), group_size=4)
        prepared = layer.prepare()
        combined0 = prepared._boundary_plane(0)[0]
        assert combined0 is prepared.w8_t  # boundary 0 slices the 8-bit plane

    def test_nbytes_and_repr(self):
        layer, _ = calibrated_linear()
        layer.configure(shuffled_layout(16), plan_for(layer), group_size=4)
        prepared = layer.prepare()
        assert prepared.nbytes() > 0
        assert "PreparedKernel" in repr(prepared)

    def test_boundary_plane_cache_is_bounded(self):
        from repro.core.prepared import _MAX_BOUNDARY_PLANES

        layer, data = calibrated_linear()
        layer.configure(shuffled_layout(16), plan_for(layer), group_size=1)
        prepared = layer.prepare()
        for boundary in range(17):
            layer.set_boundary(boundary)
            layer(Tensor(data[:2]))
        assert len(prepared._boundary_planes) <= _MAX_BOUNDARY_PLANES

    def test_merged_clip_is_refused_when_it_would_not_be_exact(self):
        """Rebinding the activation quantizer to 4 bits (as the uniform-INT4
        analysis does) leaves the 8-bit plane exact; lowering with the 8-bit
        plan's shifts is refused, never silently inexact."""
        layer, data = calibrated_linear()
        plan = plan_for(layer)
        assert plan.act_shift.max() > 0
        layer.configure(shuffled_layout(16), plan, group_size=4)
        layer.act_qparams = layer.act_qparams.with_bits(4)
        x = Tensor(data[:8])
        layer.set_boundary(0)
        fast = layer(x).data
        layer.use_prepared = False
        np.testing.assert_array_equal(fast, layer(x).data)
        layer.use_prepared = True
        layer.set_boundary(16)
        with pytest.raises(ValueError, match="merged clip"):
            layer(x)
