"""Edge-case and failure-injection tests for the FlexiQ core."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FlexiQConfig, FlexiQPipeline
from repro.core.bit_extraction import BitExtractionPlan, extraction_shift, lower_bits
from repro.core.layout import ChannelLayout, build_layout_plan
from repro.core.runtime import FlexiQConv2d, FlexiQLinear
from repro.core.selection import (
    ChannelSelection,
    SelectionConfig,
    build_layer_groups,
    greedy_selection,
)
from repro.core.scoring import ChannelScore
from repro.nn.layers import Conv2d, Linear
from repro.quant.qmodules import QuantConv2d, QuantLinear
from repro.tensor import Tensor
from tests.conftest import TinyMLP

# A quantized forward that emits a numpy invalid/overflow/divide warning fails.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestExtremeBitwidths:
    def test_all_zero_channel(self):
        """A channel whose calibration max is zero gets shift 0 and no error
        on zero inputs."""
        shift = extraction_shift(np.array([0]), 8, 4)[0]
        assert shift == 0
        assert lower_bits(np.zeros(4), shift, 4).sum() == 0

    def test_two_bit_lowering(self):
        values = np.array([3, -4, 1, 0])
        lowered = lower_bits(values, 0, 2)
        assert lowered.min() >= -2 and lowered.max() <= 1

    def test_plan_with_single_channel(self):
        plan = BitExtractionPlan.from_channel_maxima(np.array([5]), np.array([90]))
        assert plan.num_channels == 1
        grouped = plan.group_reduce(1)
        np.testing.assert_array_equal(grouped.weight_shift, plan.weight_shift)


class TestDegenerateSelections:
    def test_zero_ratio_selection_is_empty(self):
        scores = {
            "x": ChannelScore("x", np.arange(8, dtype=float) + 1, np.ones(8), np.ones(8))
        }
        selection = greedy_selection(scores, 0.0, SelectionConfig(group_size=4))
        assert selection.total_selected() == 0
        assert selection.achieved_ratio() == 0.0

    def test_full_ratio_selects_everything(self):
        scores = {
            "x": ChannelScore("x", np.arange(8, dtype=float) + 1, np.ones(8), np.ones(8))
        }
        selection = greedy_selection(scores, 1.0, SelectionConfig(group_size=4))
        assert selection.achieved_ratio() == 1.0

    def test_single_group_layer(self):
        scores = {
            "x": ChannelScore("x", np.ones(4), np.ones(4), np.ones(4)),
            "y": ChannelScore("y", np.ones(16), np.ones(16), np.ones(16)),
        }
        selection = greedy_selection(scores, 0.5, SelectionConfig(group_size=4))
        assert 0.3 <= selection.achieved_ratio() <= 0.7

    def test_selection_with_base_already_at_target(self):
        scores = {
            "x": ChannelScore("x", np.arange(16, dtype=float) + 1, np.ones(16), np.ones(16))
        }
        config = SelectionConfig(group_size=4)
        half = greedy_selection(scores, 0.5, config)
        again = greedy_selection(scores, 0.5, config, base=half)
        assert again.is_superset_of(half)
        assert again.total_selected() == half.total_selected()


class TestLayoutEdgeCases:
    def test_single_ratio_plan(self):
        scores = {
            "x": ChannelScore("x", np.arange(8, dtype=float) + 1, np.ones(8), np.ones(8))
        }
        selection = greedy_selection(scores, 0.5, SelectionConfig(group_size=4))
        plan = build_layout_plan({0.5: selection})
        layout = plan.layout_for("x")
        assert layout.boundaries == {0.5: 4}
        assert layout.boundary_for(0.49) == 0

    def test_layout_with_nothing_selected(self):
        scores = {
            "x": ChannelScore("x", np.ones(8), np.ones(8), np.ones(8))
        }
        selection = greedy_selection(scores, 0.0, SelectionConfig(group_size=4))
        plan = build_layout_plan({0.0: selection})
        assert plan.layout_for("x").boundary_for(1.0) == 0


class TestRuntimeEdgeCases:
    def _layer(self, in_features=8):
        source = Linear(in_features, 4, rng=np.random.default_rng(0))
        layer = FlexiQLinear(source)
        data = np.random.default_rng(1).normal(size=(16, in_features)).astype(np.float32)
        layer(Tensor(data))
        layer.freeze()
        return layer, data

    def test_unconfigured_layer_behaves_as_int8(self):
        layer, data = self._layer()
        source_like = QuantLinear(Linear(8, 4, rng=np.random.default_rng(0)))
        # An unconfigured FlexiQ layer (no layout) multiplies exactly like the
        # plain int8 kernel.
        out = layer(Tensor(data[:4]))
        assert out.shape == (4, 4)
        assert layer.max_4bit_ch == 0

    def test_boundary_beyond_configured_layout_rejected(self):
        layer, _ = self._layer()
        layout = ChannelLayout("x", np.arange(8), {1.0: 8})
        plan = BitExtractionPlan.naive(8)
        layer.configure(layout, plan)
        with pytest.raises(ValueError):
            layer.set_boundary(9)

    def test_reconfiguration_resets_boundary(self):
        layer, _ = self._layer()
        layout = ChannelLayout("x", np.arange(8), {1.0: 8})
        layer.configure(layout, BitExtractionPlan.naive(8))
        layer.set_boundary(8)
        layer.configure(layout, BitExtractionPlan.naive(8))
        assert layer.max_4bit_ch == 0


class TestConvolutionRejectsBadInput:
    """A quantized convolution names what is wrong with an input it cannot
    convolve, instead of returning an empty array or dying inside numpy."""

    @staticmethod
    def frozen(kind, static=True):
        layer = kind(Conv2d(4, 8, 3, rng=np.random.default_rng(0)))
        layer(Tensor(np.random.default_rng(1).normal(size=(4, 4, 6, 6)).astype(np.float32)))
        layer.freeze()
        if kind is FlexiQConv2d:
            layer.configure(ChannelLayout("x", np.arange(4), {1.0: 4}), BitExtractionPlan.naive(4))
            layer.set_boundary(4)
            layer.set_dynamic_extraction(not static)
        return layer

    @pytest.mark.parametrize(
        "kind,static", [(QuantConv2d, True), (FlexiQConv2d, True), (FlexiQConv2d, False)]
    )
    @pytest.mark.parametrize("as_tensor", [False, True])
    def test_named_errors(self, kind, static, as_tensor):
        layer = self.frozen(kind, static)
        wrap = Tensor if as_tensor else (lambda x: x)
        good = layer(wrap(np.ones((1, 4, 3, 3), np.float32)))
        assert good.shape == (1, 8, 1, 1)
        for size in (2, 1):  # parent: an empty (1, 8, 0, 0) array; an as_strided crash
            with pytest.raises(ValueError, match=rf"{size}x{size} input.*3x3 kernel.*stride 1.*padding 0"):
                layer(wrap(np.ones((1, 4, size, size), np.float32)))
        with pytest.raises(ValueError, match=r"Conv2d\(in=4.* expects 4 input channels, got shape \(1, 3, 6, 6\)"):
            layer(wrap(np.ones((1, 3, 6, 6), np.float32)))
        with pytest.raises(ValueError, match=r"Conv2d\(in=4.* expects 4 input channels, got shape \(4, 6, 6\)"):
            layer(wrap(np.ones((4, 6, 6), np.float32)))  # 3-d: no batch axis
        if kind is FlexiQConv2d:  # the inline guard is live exactly on static arrays
            guarded = layer._static_kernel(wrap(np.ones((1, 4, 3, 3), np.float32)))
            assert (guarded is not None) == (static and not as_tensor)


class TestLinearRejectsWrongFeatureCount:
    """A quantized linear names itself and the shape it was given, in every
    phase and for both kinds of input (parent: "cannot reshape array of size
    128 into shape (2,32)" from FlexiQLinear, numpy's gufunc signature from
    QuantLinear, and only once calibration was over)."""

    @staticmethod
    def layer(kind, phase):
        layer = kind(Linear(8, 4, rng=np.random.default_rng(0)))
        if phase == "calibrating":
            return layer
        layer(Tensor(np.random.default_rng(1).normal(size=(16, 8)).astype(np.float32)))
        layer.freeze()
        if kind is FlexiQLinear:
            layer.configure(ChannelLayout("x", np.arange(8), {1.0: 8}), BitExtractionPlan.naive(8))
            layer.set_boundary(8)
        if phase == "qat":
            layer.qat_bits = 4
        return layer

    @pytest.mark.parametrize("kind", [QuantLinear, FlexiQLinear])
    @pytest.mark.parametrize("phase", ["calibrating", "qat", "quantized"])
    @pytest.mark.parametrize("as_tensor", [False, True])
    def test_named_errors(self, kind, phase, as_tensor):
        layer = self.layer(kind, phase)
        wrap = Tensor if as_tensor else (lambda x: x)
        assert layer(wrap(np.ones((2, 3, 8), np.float32))).shape == (2, 3, 4)
        assert layer(wrap(np.ones(8, np.float32))).shape == (4,)
        for shape in ((2, 16), (2, 3, 7), (16,), ()):
            with pytest.raises(ValueError) as raised:
                layer(wrap(np.ones(shape, np.float32)))
            message = str(raised.value)
            assert "Linear(in=8, out=4" in message  # QuantLinear(...) / FlexiQLinear(...)
            assert f"expects 8 input features, got shape {shape!r}" in message


class TestRatioIsValidated:
    """``FlexiQModel.set_ratio`` is the boundary every ratio crosses
    (``forward_batch``, ``RuntimeExecutor.execute``).  Parent:
    NaN ran every layer at its largest boundary and made ``ratio_switches``
    count every later batch; -1 and 2.0 were recorded as executed."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1, 2.0, 1.0001])
    def test_out_of_range_and_non_finite_ratios_are_rejected(
        self, flexiq_runtime, calibration_batch, bad
    ):
        from repro.serving import Request, RuntimeExecutor
        from repro.serving.engine import Batch

        flexiq_runtime.set_ratio(0.5)
        boundaries = [layer.max_4bit_ch for _, layer in flexiq_runtime.flexiq_layers()]
        switches = flexiq_runtime.ratio_switches
        x = calibration_batch[:2]
        requests = [Request(arrival_time=0.0, model="m", payload=row) for row in x]
        batch = Batch(model="m", start_time=0.0, size=2, indices=np.arange(2), requests=requests)
        executor = RuntimeExecutor(flexiq_runtime)
        try:
            for call in (
                lambda: flexiq_runtime.set_ratio(bad),
                lambda: flexiq_runtime.forward_batch(x, ratio=bad),
                lambda: executor.execute(batch, "flexiq", bad),
            ):
                with pytest.raises(ValueError) as raised:
                    call()
                assert f"in [0, 1], got {float(bad)!r}" in str(raised.value)
            assert flexiq_runtime.current_ratio == 0.5
            assert flexiq_runtime.ratio_switches == switches
            assert boundaries == [
                layer.max_4bit_ch for _, layer in flexiq_runtime.flexiq_layers()
            ]
        finally:
            flexiq_runtime.set_ratio(0.0)

    def test_unconfigured_in_range_ratio_floors_like_boundary_for(self, flexiq_runtime):
        """The table resolves a ratio to an index into the plan's ratios; the
        result is every layer's own ``boundary_for`` (arbitrary floats come
        from ``RatioSchedulePolicy``), and the table stays one row per layer."""
        configured = flexiq_runtime.layout_plan.layouts
        rows = len(flexiq_runtime._ratio_rows)
        try:
            for ratio in np.linspace(0.0, 1.0, 41).tolist() + [0.25 - 1e-12, 0.5 + 1e-12]:
                flexiq_runtime.set_ratio(ratio)
                assert flexiq_runtime.current_ratio == ratio
                for name, layer in flexiq_runtime.flexiq_layers():
                    if name in configured:
                        assert layer.max_4bit_ch == layer.layout.boundary_for(ratio), (name, ratio)
            assert len(flexiq_runtime._ratio_rows) == rows
        finally:
            flexiq_runtime.set_ratio(0.0)

    def test_a_layout_changed_behind_the_model_is_picked_up(self, trained_mlp, calibration_batch):
        config = FlexiQConfig(
            ratios=(0.5, 1.0), group_size=4, selection="greedy",
            selection_config=SelectionConfig(group_size=4),
        )
        runtime = FlexiQPipeline(trained_mlp, calibration_batch, config).run()
        name = next(iter(runtime.layout_plan.layouts))
        layer = dict(runtime.flexiq_layers())[name]
        runtime.set_ratio(1.0)
        channels = layer.feature_channels
        layer.configure(
            ChannelLayout(name, np.arange(channels), {0.5: 4, 1.0: channels - 4}),
            BitExtractionPlan.naive(channels),
        )
        assert layer.max_4bit_ch == 0  # configure() resets the boundary
        runtime.forward_batch(calibration_batch[:2], ratio=1.0)  # same ratio: still applied
        assert layer.max_4bit_ch == channels - 4
        runtime.set_ratio(0.5)
        assert layer.max_4bit_ch == 4
        layer.layout = None
        with pytest.raises(RuntimeError, match="configure"):
            runtime.set_ratio(0.5)


class TestPipelineEdgeCases:
    def test_single_ratio_pipeline(self, trained_mlp, calibration_batch):
        config = FlexiQConfig(
            ratios=(1.0,), group_size=4, selection="greedy",
            selection_config=SelectionConfig(group_size=4),
        )
        runtime = FlexiQPipeline(trained_mlp, calibration_batch, config).run()
        assert runtime.available_ratios == [0.0, 1.0]

    def test_tiny_calibration_set(self, trained_mlp, mlp_dataset):
        config = FlexiQConfig(
            ratios=(0.5,), group_size=4, selection="greedy",
            selection_config=SelectionConfig(group_size=4),
            fitness_samples=4,
        )
        calibration = mlp_dataset.train_images[:4]
        runtime = FlexiQPipeline(trained_mlp, calibration, config).run()
        runtime.set_ratio(0.5)
        out = runtime(Tensor(mlp_dataset.test_images[:2]))
        assert np.isfinite(out.data).all()

    def test_model_with_only_two_quantizable_layers(self, mlp_dataset):
        """With two layers both are first/last (8-bit) and nothing is selectable;
        the pipeline must still produce a working runtime."""
        from repro.nn.module import Module

        class TwoLayer(Module):
            def __init__(self):
                super().__init__()
                rng = np.random.default_rng(0)
                self.a = Linear(48, 16, rng=rng)
                self.b = Linear(16, 4, rng=rng)

            def forward(self, x):
                return self.b(self.a(x.reshape(x.shape[0], -1)).relu())

        config = FlexiQConfig(
            ratios=(0.5,), group_size=4, selection="greedy",
            selection_config=SelectionConfig(group_size=4),
        )
        runtime = FlexiQPipeline(TwoLayer(), mlp_dataset.train_images[:16], config).run()
        runtime.set_ratio(0.5)
        out = runtime(Tensor(mlp_dataset.test_images[:2]))
        assert out.shape == (2, 4)
