"""Tests for the FlexiQ mixed-precision runtime layers and model wrapper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bit_extraction import BitExtractionPlan
from repro.core.layout import ChannelLayout
from repro.core.runtime import FlexiQConv2d, FlexiQLinear, FlexiQModel
from repro.hardware.kernels import mixed_gemm_reference
from repro.nn.layers import Conv2d, Linear
from repro.quant.qmodules import QuantConv2d, QuantLinear
from repro.quant.quantizers import quantize
from repro.tensor import Tensor, no_grad


# A quantized forward that emits a numpy invalid/overflow/divide warning fails.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def calibrated_flexiq_linear(in_f=16, out_f=8, seed=0):
    rng = np.random.default_rng(seed)
    source = Linear(in_f, out_f, rng=rng)
    # Give feature channels different dynamic ranges so extraction matters.
    scales = np.repeat([0.1, 0.4, 1.0, 2.0], in_f // 4).astype(np.float32)
    source.weight.data = source.weight.data * scales[None, :]
    layer = FlexiQLinear(source)
    data = (rng.normal(size=(64, in_f)) * scales[None, :]).astype(np.float32)
    layer(Tensor(data))
    layer.freeze()
    return source, layer, data


def identity_layout(channels):
    return ChannelLayout("layer", np.arange(channels), {1.0: channels})


def plan_for(layer):
    q_weight = quantize(layer.weight.data, layer.weight_qparams)
    weight_max = np.abs(q_weight.reshape(q_weight.shape[0], layer.feature_channels, -1)).max(axis=(0, 2))
    act_range = layer.input_channel_range()
    act_max = np.clip(np.round(act_range.max_abs / layer.act_qparams.scale), 0, 127)
    return BitExtractionPlan.from_channel_maxima(weight_max, act_max)


class TestConfiguration:
    def test_configure_permutes_plan(self):
        _, layer, _ = calibrated_flexiq_linear()
        plan = plan_for(layer)
        order = np.arange(16)[::-1].copy()
        layout = ChannelLayout("layer", order, {1.0: 16})
        layer.configure(layout, plan, group_size=1)
        np.testing.assert_array_equal(layer.extraction_plan.weight_shift, plan.weight_shift[order])

    def test_configure_wrong_channel_count_raises(self):
        _, layer, _ = calibrated_flexiq_linear()
        with pytest.raises(ValueError):
            layer.configure(identity_layout(8), plan_for(layer))
        with pytest.raises(ValueError):
            layer.configure(identity_layout(16), BitExtractionPlan.naive(8))

    def test_set_boundary_bounds(self):
        _, layer, _ = calibrated_flexiq_linear()
        layer.configure(identity_layout(16), plan_for(layer))
        with pytest.raises(ValueError):
            layer.set_boundary(17)
        with pytest.raises(RuntimeError):
            FlexiQLinear(Linear(4, 4, rng=np.random.default_rng(0))).set_boundary(1)

    def test_set_ratio_uses_layout_boundaries(self):
        _, layer, _ = calibrated_flexiq_linear()
        layout = ChannelLayout("layer", np.arange(16), {0.5: 8, 1.0: 16})
        layer.configure(layout, plan_for(layer))
        layer.set_ratio(0.5)
        assert layer.max_4bit_ch == 8
        layer.set_ratio(1.0)
        assert layer.max_4bit_ch == 16
        layer.set_ratio(0.0)
        assert layer.max_4bit_ch == 0

    def test_effective_weight_bits(self):
        _, layer, _ = calibrated_flexiq_linear()
        layer.configure(identity_layout(16), plan_for(layer))
        layer.set_boundary(8)
        assert layer.effective_weight_bits() == pytest.approx(6.0)
        assert layer.current_4bit_fraction() == pytest.approx(0.5)


class TestMixedPrecisionNumerics:
    def test_boundary_zero_matches_plain_int8_layer(self):
        source, layer, data = calibrated_flexiq_linear()
        reference = QuantLinear(source)
        reference(Tensor(data))
        reference.freeze()
        layer.configure(identity_layout(16), plan_for(layer))
        layer.set_boundary(0)
        x = Tensor(data[:8])
        np.testing.assert_allclose(layer(x).data, reference(x).data, atol=1e-5)

    def test_matches_hardware_kernel_reference(self):
        _, layer, data = calibrated_flexiq_linear()
        plan = plan_for(layer)
        layer.configure(identity_layout(16), plan, group_size=1)
        layer.set_boundary(8)
        x = data[:4]
        q_x = quantize(x, layer.act_qparams)
        q_w = quantize(layer.weight.data, layer.weight_qparams)
        acc = mixed_gemm_reference(
            q_x, q_w, boundary=8,
            act_shift=layer.extraction_plan.act_shift,
            weight_shift=layer.extraction_plan.weight_shift,
        )
        expected = acc * (layer.act_qparams.scale * layer.weight_qparams.scale)[None, :]
        expected = expected + layer.bias.data[None, :]
        np.testing.assert_allclose(layer(Tensor(x)).data, expected, atol=1e-4, rtol=1e-4)

    def test_full_4bit_with_extraction_beats_naive_lowering(self):
        source, layer, data = calibrated_flexiq_linear(seed=3)
        x = Tensor(data[:16])
        with no_grad():
            reference = source(x).data
        plan = plan_for(layer)
        layer.configure(identity_layout(16), plan, group_size=1)
        layer.set_boundary(16)
        err_flexi = np.abs(layer(x).data - reference).mean()
        layer.configure(identity_layout(16), BitExtractionPlan.naive(16), group_size=1)
        layer.set_boundary(16)
        err_naive = np.abs(layer(x).data - reference).mean()
        assert err_flexi <= err_naive + 1e-6

    def test_error_monotone_in_ratio(self):
        source, layer, data = calibrated_flexiq_linear(seed=5)
        layer.configure(identity_layout(16), plan_for(layer), group_size=4)
        x = Tensor(data[:16])
        with no_grad():
            reference = source(x).data
        errors = []
        for boundary in (0, 8, 16):
            layer.set_boundary(boundary)
            errors.append(float(np.abs(layer(x).data - reference).mean()))
        assert errors[0] <= errors[1] + 1e-6 <= errors[2] + 2e-6

    def test_dynamic_extraction_helps_saturated_channels(self):
        """Channels whose runtime range exceeds the calibrated range saturate the
        static extraction window; dynamic extraction widens it (Section 8.6)."""
        _, layer, data = calibrated_flexiq_linear(seed=7)
        layer.configure(identity_layout(16), plan_for(layer), group_size=4)
        layer.set_boundary(16)
        # Blow up only the small-range channels (first quarter) so their values
        # stay inside the per-tensor 8-bit range but exceed their own
        # calibration-time maxima.
        x_big = data[:16].copy()
        x_big[:, :4] *= 6.0
        with no_grad():
            reference = Tensor(x_big).matmul(Tensor(layer.weight.data.T)).data + layer.bias.data
        static_err = np.abs(layer(Tensor(x_big)).data - reference).mean()
        layer.set_dynamic_extraction(True)
        dynamic_err = np.abs(layer(Tensor(x_big)).data - reference).mean()
        layer.set_dynamic_extraction(False)
        assert dynamic_err < static_err

    def test_permuted_layout_equivalent_to_identity_at_full_ratio(self):
        _, layer, data = calibrated_flexiq_linear(seed=9)
        plan = plan_for(layer)
        x = Tensor(data[:8])
        layer.configure(identity_layout(16), plan, group_size=1)
        layer.set_boundary(16)
        identity_out = layer(x).data.copy()
        order = np.random.default_rng(0).permutation(16)
        layer.configure(ChannelLayout("layer", order, {1.0: 16}), plan, group_size=1)
        layer.set_boundary(16)
        permuted_out = layer(x).data
        np.testing.assert_allclose(identity_out, permuted_out, atol=1e-5)


class TestFlexiQConv:
    def _calibrated_conv(self, seed=0):
        rng = np.random.default_rng(seed)
        source = Conv2d(8, 6, 3, padding=1, rng=rng)
        scales = np.repeat([0.1, 0.5, 1.0, 2.0], 2).astype(np.float32)
        source.weight.data = source.weight.data * scales[None, :, None, None]
        layer = FlexiQConv2d(source)
        data = (rng.normal(size=(16, 8, 6, 6)) * scales[None, :, None, None]).astype(np.float32)
        layer(Tensor(data))
        layer.freeze()
        return source, layer, data

    def test_boundary_zero_matches_quantconv(self):
        source, layer, data = self._calibrated_conv()
        reference = QuantConv2d(source)
        reference(Tensor(data))
        reference.freeze()
        plan_w = np.abs(quantize(layer.weight.data, layer.weight_qparams)).reshape(6, 8, -1).max(axis=(0, 2))
        act_max = np.clip(np.round(layer.input_channel_range().max_abs / layer.act_qparams.scale), 0, 127)
        layer.configure(identity_layout(8), BitExtractionPlan.from_channel_maxima(plan_w, act_max))
        layer.set_boundary(0)
        x = Tensor(data[:4])
        np.testing.assert_allclose(layer(x).data, reference(x).data, atol=1e-4)

    def test_error_increases_with_ratio_but_stays_bounded(self):
        source, layer, data = self._calibrated_conv(seed=2)
        plan_w = np.abs(quantize(layer.weight.data, layer.weight_qparams)).reshape(6, 8, -1).max(axis=(0, 2))
        act_max = np.clip(np.round(layer.input_channel_range().max_abs / layer.act_qparams.scale), 0, 127)
        layer.configure(identity_layout(8), BitExtractionPlan.from_channel_maxima(plan_w, act_max), group_size=4)
        x = Tensor(data[:4])
        with no_grad():
            reference = source(x).data
        layer.set_boundary(0)
        err_8 = np.abs(layer(x).data - reference).mean()
        layer.set_boundary(8)
        err_4 = np.abs(layer(x).data - reference).mean()
        assert err_8 <= err_4
        assert err_4 < 0.2 * np.abs(reference).mean() + 1e-3


class TestFlexiQModelWrapper:
    def test_available_ratios_include_zero(self, flexiq_runtime):
        assert flexiq_runtime.available_ratios[0] == 0.0
        assert 1.0 in flexiq_runtime.available_ratios

    def test_set_ratio_updates_all_layers(self, flexiq_runtime):
        flexiq_runtime.set_ratio(1.0)
        fractions = flexiq_runtime.per_layer_4bit_fraction()
        configured = [
            fraction for name, fraction in fractions.items()
            if name in flexiq_runtime.layout_plan.layouts
        ]
        assert all(fraction == pytest.approx(1.0) for fraction in configured)
        flexiq_runtime.set_ratio(0.0)
        assert all(
            fraction == 0.0 for fraction in flexiq_runtime.per_layer_4bit_fraction().values()
        )

    def test_average_weight_bits_decreases_with_ratio(self, flexiq_runtime):
        flexiq_runtime.set_ratio(0.0)
        bits_high = flexiq_runtime.average_weight_bits()
        flexiq_runtime.set_ratio(1.0)
        bits_low = flexiq_runtime.average_weight_bits()
        flexiq_runtime.set_ratio(0.0)
        assert bits_low < bits_high <= 8.0

    def test_forward_works_at_every_ratio(self, flexiq_runtime, calibration_batch):
        x = Tensor(calibration_batch[:4])
        for ratio in flexiq_runtime.available_ratios:
            flexiq_runtime.set_ratio(ratio)
            out = flexiq_runtime(x)
            assert out.shape == (4, 4)
            assert np.isfinite(out.data).all()
        flexiq_runtime.set_ratio(0.0)


# ----------------------------------------------------------------------
# Inference on raw arrays: ndarray path == Tensor path == uncached reference
# ----------------------------------------------------------------------
def _grouped_conv_net():
    """A small tree whose first layer is a grouped convolution (it stays at
    8 bits and runs the uniform kernel, which calls ``F.conv2d``)."""
    from repro.nn.layers import BatchNorm2d, GlobalAvgPool2d, ReLU6
    from repro.nn.module import Sequential

    rng = np.random.default_rng(0)
    return Sequential(
        Conv2d(3, 6, 3, padding=1, groups=3, rng=rng), BatchNorm2d(6), ReLU6(),
        Conv2d(6, 8, 3, padding=1, rng=rng), ReLU6(),
        Conv2d(8, 8, 3, padding=1, bias=False, rng=rng),
        GlobalAvgPool2d(), Linear(8, 10, rng=rng),
    )


@pytest.fixture(scope="module")
def zoo_runtimes():
    """name -> (runtime, test images), built once per name on first use."""
    from repro.core import FlexiQConfig, FlexiQPipeline
    from repro.core.selection import SelectionConfig
    from repro.nn.registry import build_model
    from repro.train.pretrain import get_dataset_for

    class _Zoo(dict):
        def __missing__(self, name):
            grouped = name == "grouped_conv"
            dataset = get_dataset_for("resnet18" if grouped else name)
            model = _grouped_conv_net() if grouped else build_model(name, seed=0)
            runtime = FlexiQPipeline(
                model.eval(),
                dataset.train_images[:32],
                FlexiQConfig(
                    ratios=(0.25, 0.5, 1.0), group_size=4, selection="greedy",
                    selection_config=SelectionConfig(group_size=4),
                ),
            ).run()
            self[name] = runtime, dataset.test_images
            return self[name]

    return _Zoo()


def _assert_parity(runtime, images, batches, dynamic, label):
    """At every ratio and batch: ``forward_batch`` on an array == on a
    ``Tensor`` == the uncached path, with ``array_equal``."""
    runtime.set_dynamic_extraction(dynamic)
    try:
        for ratio in runtime.available_ratios:
            for batch in batches:
                x = images[:batch]
                runtime.prepare(use_prepared=True)
                served, _ = runtime.forward_batch(x, ratio=ratio)
                graphed, _ = runtime.forward_batch(Tensor(x), ratio=ratio)
                runtime.prepare(use_prepared=False)
                reference = runtime(Tensor(x))
                assert isinstance(served, Tensor) and served.shape[0] == batch
                where = f"{label} ratio={ratio} batch={batch} dynamic={dynamic}"
                assert np.array_equal(served.data, graphed.data), where
                assert np.array_equal(served.data, reference.data), where
    finally:
        runtime.set_dynamic_extraction(False)
        runtime.prepare(use_prepared=True)
        runtime.set_ratio(0.0)


class TestNdarrayInference:
    MODELS = [
        "resnet18",
        "resnet50",  # 1x1 bottleneck convolutions: the grid is the image
        "vit_small",  # patch embedding: stride = kernel, no junk columns
        "grouped_conv",
        "swin_small",  # shifted windows, patch merging
        "mobilenet_v2",  # depthwise convolutions on the uniform kernel
    ]

    @pytest.mark.parametrize("dynamic", [False, True])
    @pytest.mark.parametrize("name", MODELS)
    def test_parity_matrix(self, zoo_runtimes, name, dynamic):
        runtime, images = zoo_runtimes[name]
        _assert_parity(runtime, images, (1, 3, 8), dynamic, name)

    @pytest.mark.parametrize("dynamic", [False, True])
    @pytest.mark.parametrize(
        "fixture,dataset",
        [("flexiq_runtime", "mlp_dataset"), ("flexiq_conv_runtime", "tiny_dataset")],
    )
    def test_parity_of_the_test_fixtures(self, request, fixture, dataset, dynamic):
        """The shared conftest runtimes (TinyMLP, TinyConvNet) obey the rule too."""
        runtime = request.getfixturevalue(fixture)
        images = request.getfixturevalue(dataset).test_images
        _assert_parity(runtime, images, (1, 3, 64), dynamic, fixture)

    def test_swin_window_attention_stacks_its_projections(self, zoo_runtimes):
        from repro.nn.attention import WindowAttention

        runtime, images = zoo_runtimes["swin_small"]
        runtime.prepare(use_prepared=True)
        ratios = runtime.available_ratios
        try:
            for ratio in ratios:
                runtime.forward_batch(images[:2], ratio=ratio)
        finally:
            runtime.set_ratio(0.0)
        windows = [m for _, m in runtime.model.named_modules() if isinstance(m, WindowAttention)]
        assert len(windows) == 4
        for window in windows:  # one stacked step per boundary triple, on Q's kernel
            assert 1 <= len(window.attn.q_proj._prepared._stacked) <= len(ratios)

    @pytest.mark.parametrize("name", ["vit_small", "resnet18", "swin_small", "mobilenet_v2"])
    def test_served_forward_builds_no_intermediate_tensor(
        self, zoo_runtimes, name, monkeypatch
    ):
        from repro.core.prepared import PreparedKernel

        runtime, images = zoo_runtimes[name]
        runtime.prepare(use_prepared=True)
        for ratio in runtime.available_ratios:  # warm caches at every boundary
            runtime.forward_batch(images[:2], ratio=ratio)

        constructed = []
        original = Tensor.__init__

        def counting(self, *args, **kwargs):
            constructed.append(1)
            original(self, *args, **kwargs)

        builds = (PreparedKernel.build_count, PreparedKernel.plane_build_count)
        monkeypatch.setattr(Tensor, "__init__", counting)
        for batch in (1, 8):
            for ratio in runtime.available_ratios:
                del constructed[:]
                output, _ = runtime.forward_batch(images[:batch], ratio=ratio)
                assert len(constructed) == 1  # the output wrap, nothing else
                assert type(output) is Tensor and output.dtype == np.float32
        monkeypatch.undo()
        assert builds == (PreparedKernel.build_count, PreparedKernel.plane_build_count)
        runtime.set_ratio(0.0)

    @pytest.mark.parametrize("name", ["resnet18", "vit_small"])
    def test_non_contiguous_batch_equals_contiguous(self, zoo_runtimes, name):
        """The unfold reads an image batch through its strides: Fortran order,
        a negatively-strided view and a strided slice give the same logits."""
        runtime, images = zoo_runtimes[name]
        runtime.prepare(use_prepared=True)
        x = np.ascontiguousarray(images[:3])
        views = {
            "fortran": np.asfortranarray(x),
            "reversed": np.ascontiguousarray(x[..., ::-1])[..., ::-1],
            "every other": np.repeat(x, 2, axis=0)[::2],
        }
        try:
            for ratio in runtime.available_ratios:
                expected, _ = runtime.forward_batch(x, ratio=ratio)
                for label, view in views.items():
                    assert not view.flags.c_contiguous and np.array_equal(view, x)
                    served, _ = runtime.forward_batch(view, ratio=ratio)
                    assert np.array_equal(served.data, expected.data), (label, ratio)
        finally:
            runtime.set_ratio(0.0)

    @pytest.mark.parametrize("name", ["vit_small", "resnet18"])
    def test_a_hundred_served_batches_compile_nothing(self, zoo_runtimes, name):
        """Steps, stacked steps and planes exist after one pass over the
        ratios; 100 engine batches that switch ratio every time add none,
        and every response equals the ``Tensor`` forward at its ratio."""
        from repro.core.prepared import PreparedKernel
        from repro.serving import (
            BatchingConfig, Request, RoundRobinRatioPolicy, RuntimeExecutor, ServingEngine,
        )

        runtime, images = zoo_runtimes[name]
        runtime.prepare(use_prepared=True)
        ratios = runtime.available_ratios
        for ratio in ratios:
            runtime.forward_batch(images[:1], ratio=ratio)
        attentions = [
            module for _, module in runtime.model.named_modules()
            if hasattr(module, "q_proj")
        ]
        assert bool(attentions) == (name == "vit_small")
        for attention in attentions:  # one stacked step per boundary triple, on Q's kernel
            assert 1 <= len(attention.q_proj._prepared._stacked) <= len(ratios)

        engine = ServingEngine(BatchingConfig(max_batch=3))
        engine.register("m", RuntimeExecutor(runtime), policy=RoundRobinRatioPolicy(ratios))
        requests = [
            Request(arrival_time=0.0, model="m", payload=images[i % len(images)])
            for i in range(300)
        ]
        builds = (PreparedKernel.build_count, PreparedKernel.plane_build_count)
        try:
            outcome = engine.run(requests=requests, record_responses=True)
            assert builds == (PreparedKernel.build_count, PreparedKernel.plane_build_count)
            assert len(outcome.batch_ratios) == 100
            assert set(outcome.batch_ratios) == set(ratios)
            for first in range(0, 24, 3):
                ratio = outcome.batch_ratios[first // 3]
                expected, _ = runtime.forward_batch(
                    Tensor(np.stack([r.payload for r in requests[first:first + 3]])), ratio=ratio
                )
                for offset in range(3):
                    assert np.array_equal(
                        outcome.responses[first + offset].output, expected.data[offset]
                    )
        finally:
            runtime.set_ratio(0.0)

    def test_empty_batch_is_rejected(self, zoo_runtimes):
        runtime, images = zoo_runtimes["vit_small"]
        with pytest.raises(ValueError, match="empty batch"):
            runtime.forward_batch(images[:0], ratio=0.0)
        with pytest.raises(ValueError, match="empty batch"):
            runtime.forward_batch(Tensor(images[:0]))
