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
from repro.nn.attention import MultiHeadAttention
from repro.nn.layers import Conv2d, Linear
from repro.quant.quantizers import QuantParams, quantize
from repro.tensor import Tensor
from repro.train.optim import SGD

# A quantized forward that emits a numpy invalid/overflow/divide warning fails.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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


def configured_conv():
    """A frozen 3x3 FlexiQ convolution at boundary 4 of 8, its guard warm."""
    layer, data = calibrated_conv()
    layer.configure(shuffled_layout(layer.feature_channels), plan_for(layer), group_size=4)
    layer.set_boundary(4)
    layer(data[:3])
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


def flexiq_attention(dim=16, heads=2, seed=0):
    """A frozen MultiHeadAttention whose four projections are configured
    FlexiQLinear layers (random layouts, three ratios), plus calibration data."""
    rng = np.random.default_rng(seed)
    attn = MultiHeadAttention(dim, heads, rng=rng)
    data = rng.normal(size=(8, 5, dim)).astype(np.float32) * np.linspace(0.2, 2.0, dim, dtype=np.float32)
    names = ("q_proj", "k_proj", "v_proj", "out_proj")
    for name in names:
        attn.set_submodule(name, FlexiQLinear(getattr(attn, name)))
    attn(Tensor(data))  # calibration pass
    for name in names:
        layer = getattr(attn, name)
        layer.freeze()
        layer.configure(
            ChannelLayout(name, rng.permutation(dim), {0.25: dim // 4, 0.5: dim // 2, 1.0: dim}),
            plan_for(layer), group_size=4,
        )
        layer.set_ratio(0.5)
    return attn, data


def projections(module):
    """The FlexiQ layers of a layer or an attention block."""
    return [m for _, m in module.named_modules() if isinstance(m, (FlexiQLinear, FlexiQConv2d))]


def array_of(out):
    return out.data if isinstance(out, Tensor) else out


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


    # -- compiled steps: every staleness source takes effect on the very next
    # forward, for the single step and for the stacked Q/K/V one ------------
    def _rebind_weight(layer):
        layer.weight.data = layer.weight.data * np.float32(0.5)  # as an optimizer step does

    def _load_state(layer):
        layer.load_state_dict({k: v * np.float32(0.5) for k, v in layer.state_dict().items()})

    def _rebind_act_qparams(layer):
        layer.act_qparams = QuantParams(layer.act_qparams.scale * 2, 8)

    def _rebind_weight_qparams(layer):
        layer.weight_qparams = QuantParams(layer.weight_qparams.scale * 2, 8, channel_axis=0)

    def _rebind_bias(layer):
        layer.bias.data = layer.bias.data + np.float32(1.0)

    def _disable_prepared(layer):
        layer.use_prepared = False

    def _dynamic(layer):
        layer.set_dynamic_extraction(True)

    def _reconfigure(layer):
        layer.configure(
            shuffled_layout(layer.feature_channels, seed=11), plan_for(layer), group_size=1
        )
        layer.set_boundary(layer.feature_channels // 2)

    def _recalibrate(layer):
        layer.reset_calibration()
        rng = np.random.default_rng(5)
        shape = (layer.in_channels, 6, 6) if isinstance(layer, FlexiQConv2d) else (layer.in_features,)
        layer(Tensor(rng.normal(size=(32,) + shape).astype(np.float32) * 3))
        layer.freeze()

    def _inplace_then_invalidate(layer):
        layer.weight.data *= np.float32(0.5)
        layer.invalidate_weight_cache()

    #: (what happens to a layer, whether the output must move)
    STALENESS = {
        "weight.data rebound": (_rebind_weight, True),
        "load_state_dict": (_load_state, True),
        "act_qparams rebound": (_rebind_act_qparams, True),
        "weight_qparams rebound": (_rebind_weight_qparams, True),
        "bias.data rebound": (_rebind_bias, True),
        "use_prepared = False": (_disable_prepared, False),
        "dynamic extraction": (_dynamic, False),
        "re-configure": (_reconfigure, False),
        "reset_calibration + freeze": (_recalibrate, True),
        "in-place + invalidate": (_inplace_then_invalidate, True),
    }

    def _check_next_forward(self, module, touched, x, mutate, moves):
        before = module(x).copy()  # compiled path, warm
        for layer in touched:
            mutate(layer)
        after = array_of(module(x)).copy()  # the very next forward
        for layer in projections(module):
            layer.use_prepared = False
        np.testing.assert_array_equal(after, array_of(module(x)))  # == uncached
        if moves:
            assert not np.array_equal(before, after)
        if mutate is not TestCacheLifecycle._disable_prepared:
            for layer in projections(module):
                layer.use_prepared = True
            np.testing.assert_array_equal(array_of(module(x)), after)  # recompiled

    @pytest.mark.parametrize("what", STALENESS)
    def test_single_step_sees_it_on_the_next_forward(self, what):
        layer, data = self.configured_linear()
        assert layer._static_kernel(data[:4]) is layer._prepared  # the guard passes
        self._check_next_forward(layer, [layer], data[:4], *self.STALENESS[what])

    @pytest.mark.parametrize("what", STALENESS)
    def test_conv_step_sees_it_on_the_next_forward(self, what):
        layer, data = configured_conv()
        assert layer._static_kernel(data[:3]) is layer._prepared  # the guard passes
        self._check_next_forward(layer, [layer], data[:3], *self.STALENESS[what])

    def test_conv_guard_misses_take_the_checked_path(self):
        """Whatever the guard does not let through is answered by
        ``QuantizedLayer.forward`` as before: same values, same errors."""
        layer, data = configured_conv()
        x = data[:3]
        expected = layer(x)
        assert layer._static_kernel(np.asfortranarray(x)) is layer._prepared
        for miss in (Tensor(x), x.astype(np.float64), x[:, :7], x[0]):
            assert layer._static_kernel(miss) is None
        np.testing.assert_array_equal(layer(Tensor(x)).data, expected)
        np.testing.assert_array_equal(layer(x.astype(np.float64)), expected)
        with pytest.raises(ValueError, match=r"expects 8 input channels, got shape \(3, 7, 6, 6\)"):
            layer(x[:, :7])
        with pytest.raises(ValueError, match=r"expects 8 input channels, got shape \(8, 6, 6\)"):
            layer(x[0])
        with pytest.raises(ValueError, match="cannot convolve a 0x6 input"):
            layer(x[:, :, :0])
        layer.calibrating = True  # calibration is a float forward of a Tensor
        assert layer._static_kernel(x) is None and isinstance(layer(x), Tensor)

    @pytest.mark.parametrize("victim", ["q_proj", "k_proj", "v_proj"])
    @pytest.mark.parametrize("what", STALENESS)
    def test_stacked_step_sees_it_on_the_next_forward(self, what, victim):
        attn, data = flexiq_attention()
        attn(data[:2])
        assert len(attn.q_proj._prepared._stacked) == 1  # Q/K/V went through one GEMM
        mutate, moves = self.STALENESS[what]
        if mutate is TestCacheLifecycle._rebind_bias and victim == "k_proj":
            moves = False  # softmax does not see a constant added to every key
        self._check_next_forward(attn, [getattr(attn, victim)], data[:2], mutate, moves)

    @pytest.mark.parametrize("kind", ["linear", "stacked", "conv"])
    def test_qat_bits_takes_the_fake_quantized_path_at_once(self, kind):
        """``qat_bits`` is checked by the guard: the next forward is the
        differentiable fake-quantized one (a ``Tensor`` with a graph)."""
        if kind == "stacked":
            module, data = flexiq_attention()
            x = data[:2]
        else:
            module, data = self.configured_linear() if kind == "linear" else configured_conv()
            x = data[:4]
        before = module(x).copy()
        for layer in projections(module):
            layer.qat_bits = 4
        after = module(x)
        expected = module(Tensor(x))
        assert isinstance(after, Tensor) and after._backward is not None
        np.testing.assert_array_equal(after.data, expected.data)
        assert not np.array_equal(before, after.data)
        for layer in projections(module):
            layer.qat_bits = None
        np.testing.assert_array_equal(module(x), before)

    def test_sweeping_boundaries_stays_exact_and_bounded(self):
        """More boundaries than ``_MAX_BOUNDARY_PLANES``: planes and stacked
        steps are evicted, rebuilt on demand, and never inexact."""
        from repro.core.prepared import _MAX_BOUNDARY_PLANES

        attn, data = flexiq_attention(dim=24, heads=2)
        x = data[:2]
        q_proj, k_proj, v_proj, out_proj = projections(attn)
        assert attn.embed_dim + 1 > _MAX_BOUNDARY_PLANES
        for sweep in range(2):
            for boundary in range(attn.embed_dim + 1):
                q_proj.set_boundary(boundary)
                k_proj.set_boundary(attn.embed_dim - boundary)
                out_proj.set_boundary(boundary)
                fast = attn(x)
                for layer in projections(attn):
                    layer.use_prepared = False
                np.testing.assert_array_equal(fast, attn(x))
                for layer in projections(attn):
                    layer.use_prepared = True
                for layer in projections(attn):
                    kernel = layer._prepared
                    assert len(kernel._boundary_planes) <= _MAX_BOUNDARY_PLANES
                    assert len(kernel._stacked) <= _MAX_BOUNDARY_PLANES
        assert len(q_proj._prepared._stacked) == _MAX_BOUNDARY_PLANES
        assert k_proj._prepared._stacked == v_proj._prepared._stacked == {}

    def test_a_kernel_dropped_takes_its_stacked_steps_with_it(self):
        attn, data = flexiq_attention()
        attn(data[:2])
        kernel = attn.q_proj._prepared
        assert len(kernel._stacked) == 1
        size = kernel.nbytes()
        stacked_bytes = sum(entry[1] for entry in kernel._stacked.values())
        assert 0 < stacked_bytes < size  # the stacked copies are counted
        attn.q_proj.invalidate_weight_cache()
        assert attn.q_proj._prepared is None
        expected = attn(data[:2])  # guard miss: the old path rebuilds the kernel
        assert attn.q_proj._prepared is not kernel
        assert attn.q_proj._prepared._stacked == {}
        np.testing.assert_array_equal(attn(data[:2]), expected)  # stacked again
        assert len(attn.q_proj._prepared._stacked) == 1


class TestHooksAndWrappersKeepSeeingTheirCall:
    """The stacked projection is taken only when nobody could notice: an
    instance-level ``forward`` or a wrapping module on a projection falls the
    whole attention back to three calls."""

    def test_instance_level_forward_sees_one_call_per_attention_forward(self):
        attn, data = flexiq_attention()
        expected = attn(data[:2])
        stacked = len(attn.q_proj._prepared._stacked)
        calls = []
        inner = attn.k_proj.forward

        def spy(x):
            calls.append(x.shape)
            return inner(x)

        attn.k_proj.forward = spy
        for count in (1, 2, 3):
            np.testing.assert_array_equal(attn(data[:2]), expected)
            assert len(calls) == count
        del attn.k_proj.forward
        attn(data[:2])
        assert len(calls) == 3 and len(attn.q_proj._prepared._stacked) == stacked

    @pytest.mark.parametrize("batch", [1, 3])
    def test_a_wrapper_on_gemm_lowered_sees_one_call_per_conv(self, batch):
        """``bench/fwd.py --trace 1`` wraps ``gemm_lowered`` on every kernel and
        counts flops from the operand's shape: the guarded path still calls it
        through the instance, once, with a 2-D operand whose shape times
        ``out`` is the multiply-adds executed (junk columns included)."""
        layer, data = configured_conv()
        x = data[:batch]
        expected = layer(x)
        kernel, calls = layer._prepared, []
        inner = kernel.gemm_lowered

        def spy(q_cols, boundary):
            calls.append((q_cols.shape, boundary))
            return inner(q_cols, boundary)

        kernel.gemm_lowered = spy
        np.testing.assert_array_equal(layer(x), expected)
        np.testing.assert_array_equal(layer(Tensor(x)).data, expected)
        # 3x3, padding 1 on 6x6: a (6 + 2)-wide padded-row grid of 6 rows.
        assert calls == [((batch * 8 * 9, 6 * 8), 4)] * 2
        del kernel.gemm_lowered
        np.testing.assert_array_equal(layer(x), expected)
        assert len(calls) == 2

    def test_capture_wrapped_projection_still_records_its_input(self):
        from repro.analysis.capture import capture_layer_io, release_capture

        attn, data = flexiq_attention()
        expected = attn(data[:2])
        wrappers = capture_layer_io(attn, ["v_proj"])
        # The wrapper answers attribute lookups for its inner layer, but not
        # lookups on its *type*: the attention must not stack around it.
        assert hasattr(attn.v_proj, "stacked_forward")
        assert not hasattr(type(attn.v_proj), "stacked_forward")
        for x in (data[:2], Tensor(data[:2])):
            wrappers["v_proj"].last_input = None
            np.testing.assert_array_equal(array_of(attn(x)), expected)
            np.testing.assert_array_equal(wrappers["v_proj"].last_input, data[:2])
        release_capture(attn, wrappers)
        np.testing.assert_array_equal(attn(data[:2]), expected)


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
        act = layer.act_qparams
        layer.act_qparams = QuantParams(act.scale.copy(), 4, act.channel_axis)
        x = Tensor(data[:8])
        layer.set_boundary(0)
        fast = layer(x).data
        layer.use_prepared = False
        np.testing.assert_array_equal(fast, layer(x).data)
        layer.use_prepared = True
        layer.set_boundary(16)
        with pytest.raises(ValueError, match="merged clip"):
            layer(x)
