"""Tests for the analysis tooling (capture, unused bits, saturation, layer errors)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.capture import CapturingLayer, capture_layer_io, release_capture
from repro.analysis.layer_error import layer_output_errors, selection_layer_errors
from repro.analysis.reports import format_table
from repro.analysis.saturation import saturation_profiles
from repro.analysis.unused_bits import (
    bit_extraction_error_comparison,
    layer_unused_bit_profile,
    model_unused_bit_profiles,
)
from repro.quant.qmodel import iter_quantized_layers
from repro.tensor import Tensor, no_grad


class TestCapture:
    def test_capture_and_release(self, flexiq_runtime, calibration_batch):
        model = flexiq_runtime.model
        target = [name for name, _ in iter_quantized_layers(model)][1]
        original = model.get_submodule(target)
        wrappers = capture_layer_io(model, [target])
        assert isinstance(model.get_submodule(target), CapturingLayer)
        with no_grad():
            model(Tensor(calibration_batch[:4]))
        assert wrappers[target].last_input is not None
        assert wrappers[target].last_output is not None
        release_capture(model, wrappers)
        assert model.get_submodule(target) is original

    def test_wrapper_delegates_attributes(self, flexiq_runtime):
        model = flexiq_runtime.model
        target = [name for name, _ in iter_quantized_layers(model)][1]
        wrapper = CapturingLayer(model.get_submodule(target))
        assert wrapper.feature_channels == model.get_submodule(target).feature_channels


class TestUnusedBits:
    def test_profiles_for_all_layers(self, flexiq_runtime):
        profiles = model_unused_bit_profiles(flexiq_runtime.model)
        assert len(profiles) == 3
        for profile in profiles.values():
            hist = profile.histogram()
            assert sum(hist.values()) == pytest.approx(1.0, abs=1e-6)
            assert all(value >= 0 for value in hist.values())

    def test_layer_profile_shapes(self, flexiq_runtime):
        name, layer = iter_quantized_layers(flexiq_runtime.model)[1]
        profile = layer_unused_bit_profile(name, layer)
        assert profile.weight_unused.shape == (layer.feature_channels,)
        assert profile.act_unused.shape == (layer.feature_channels,)
        assert profile.fraction_with_unused() >= 0.0

    def test_every_calibrated_layer_is_profiled(self, flexiq_runtime):
        names = [name for name, _ in iter_quantized_layers(flexiq_runtime.model)]
        assert list(model_unused_bit_profiles(flexiq_runtime.model)) == names

    def test_bit_extraction_error_comparison(self, flexiq_runtime):
        """Figure 1: FlexiQ's extraction error never exceeds naive lowering."""
        for name, layer in iter_quantized_layers(flexiq_runtime.model):
            errors = bit_extraction_error_comparison(layer, low_ratio=0.5)
            assert errors["flexiq"] <= errors["uniform"] + 1e-9
            assert errors["uniform"] >= 0


class TestSaturation:
    def test_profiles_computed_on_fresh_data(self, flexiq_runtime, mlp_dataset):
        profiles = saturation_profiles(
            flexiq_runtime.model, mlp_dataset.test_images[:32]
        )
        assert len(profiles) == 3
        for profile in profiles.values():
            assert profile.saturated_fraction.shape == (profile.num_channels,)
            assert 0.0 <= profile.fraction_saturated_channels() <= 1.0
            assert (profile.saturation_depth() >= 0).all()

    def test_calibration_data_rarely_saturates(self, flexiq_runtime, calibration_batch):
        """Static windows were derived from this data, so saturation is minimal."""
        profiles = saturation_profiles(flexiq_runtime.model, calibration_batch)
        mean_sat = np.mean(
            [profile.saturated_fraction.mean() for profile in profiles.values()]
        )
        assert mean_sat < 0.1

    def test_model_restored_after_analysis(self, flexiq_runtime, mlp_dataset):
        before = [name for name, _ in iter_quantized_layers(flexiq_runtime.model)]
        saturation_profiles(flexiq_runtime.model, mlp_dataset.test_images[:16])
        after = [name for name, _ in iter_quantized_layers(flexiq_runtime.model)]
        assert before == after


class TestLayerErrors:
    def test_figure14_shape_and_ordering(self, flexiq_runtime, mlp_dataset):
        errors = layer_output_errors(
            flexiq_runtime, mlp_dataset.test_images[:16], ratios=(0.5, 1.0)
        )
        assert len(errors) >= 1
        for per_layer in errors.values():
            assert {"int4", "flexiq_50", "flexiq_100"} <= set(per_layer)
            # Errors are normalised and finite.
            assert all(np.isfinite(v) and v >= 0 for v in per_layer.values())
            # More 4-bit channels -> more error (weak monotonicity).
            assert per_layer["flexiq_50"] <= per_layer["flexiq_100"] + 0.05
            # FlexiQ at 100% does not exceed uniform INT4 by a wide margin.
            assert per_layer["flexiq_100"] <= per_layer["int4"] * 1.5 + 0.05

    def test_selection_layer_errors_structure(self, trained_mlp, calibration_batch, mlp_dataset):
        from repro.core import FlexiQConfig, FlexiQPipeline
        from repro.core.selection import SelectionConfig

        runtimes = {}
        for algorithm in ("greedy", "random"):
            config = FlexiQConfig(
                ratios=(0.5, 1.0), group_size=4, selection=algorithm,
                selection_config=SelectionConfig(group_size=4),
            )
            runtimes[algorithm] = FlexiQPipeline(trained_mlp, calibration_batch, config).run()
        table = selection_layer_errors(
            runtimes, mlp_dataset.test_images[:16], ratios=(0.5, 1.0)
        )
        assert len(table) >= 1
        for per_layer in table.values():
            assert set(per_layer) == {"greedy", "random"}
            for per_algorithm in per_layer.values():
                assert set(per_algorithm) == {0.5, 1.0}


class TestReports:
    def test_format_table_alignment(self):
        text = format_table(
            ["model", "acc"], [["resnet18", 71.234], ["vit", 80.1]], precision=1,
            title="Table X",
        )
        lines = text.splitlines()
        assert lines[0] == "Table X"
        assert "model" in lines[1] and "acc" in lines[1]
        assert "71.2" in text and "80.1" in text

    def test_format_table_handles_ints_and_strings(self):
        text = format_table(["a", "b"], [[1, "x"], [22, "yy"]])
        assert " 1 |  x" in text or "1 |  x" in text
