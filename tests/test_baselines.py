"""Tests for the baseline quantization schemes (uniform, HAWQ, multi-precision)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.anyprecision import AnyPrecisionConfig, anyprecision_finetune
from repro.baselines.hawq import hawq_layerwise_quantize, layer_sensitivities
from repro.baselines.ptmq import ptmq_average_bit_assignment, ptmq_quantize
from repro.baselines.robustquant import (
    RobustQuantConfig,
    evaluate_at_bits,
    robustquant_finetune,
)
from repro.baselines.uniform import quantize_uniform, uniform_accuracy_sweep
from repro.data.calibration import calibration_batches
from repro.quant.qmodel import greedy_average_bits, iter_quantized_layers, model_average_bits
from repro.train.loop import evaluate_accuracy


@pytest.fixture(scope="module")
def setup(request):
    """Trained MLP, dataset and calibration shared by the baseline tests."""
    trained = request.getfixturevalue("trained_mlp")
    dataset = request.getfixturevalue("mlp_dataset")
    calibration = request.getfixturevalue("calibration_batch")
    return trained, dataset, calibration


@pytest.fixture(scope="module")
def ptmq_model(setup):
    model, _, calibration = setup
    return ptmq_quantize(model, calibration, bit_choices=(4, 8))


class TestUniform:
    def test_sweep_orders_bitwidths(self, setup):
        model, dataset, calibration = setup
        sweep = uniform_accuracy_sweep(model, dataset, calibration, bit_widths=(2, 4, 8))
        assert set(sweep) == {2, 4, 8}
        assert sweep[8] >= sweep[2] - 3.0
        assert sweep[8] > 40.0

    def test_quantize_uniform_first_last_protected(self, setup):
        model, _, calibration = setup
        batches = [calibration[:32]]
        quantized = quantize_uniform(model, 4, batches)
        layers = iter_quantized_layers(quantized)
        assert layers[0][1].weight_bits == 8
        assert layers[-1][1].weight_bits == 8


class TestHawq:
    def test_sensitivities_positive_per_layer(self, setup):
        model, _, calibration = setup
        sens = layer_sensitivities(model, calibration[:32])
        assert len(sens) == 3
        assert all(value >= 0 for value in sens.values())

    def test_target_average_bits_reached(self, setup):
        model, dataset, calibration = setup
        result = hawq_layerwise_quantize(model, calibration[:32], target_average_bits=6.0)
        assert result.average_bits() <= 8.0
        assert set(result.layer_bits.values()) <= {4, 8}
        # The middle layer (only flippable one here) went to 4-bit.
        middle = list(result.layer_bits.values())[1]
        assert middle == 4
        acc = evaluate_accuracy(result.model, dataset)
        assert acc > 30.0

    def test_high_target_keeps_everything_8bit(self, setup):
        model, _, calibration = setup
        result = hawq_layerwise_quantize(model, calibration[:32], target_average_bits=8.0)
        assert set(result.layer_bits.values()) == {8}

    def test_first_and_last_stay_at_first_last_bits(self, setup):
        model, _, calibration = setup
        result = hawq_layerwise_quantize(
            model, calibration[:32], target_average_bits=8.0, high_bits=6, first_last_bits=8
        )
        bits = {name: layer.weight_bits for name, layer in iter_quantized_layers(result.model)}
        assert bits == result.layer_bits == {"fc1": 8, "fc2": 6, "fc3": 8}
        assert result.average_bits() > 6.0


class TestPtmq:
    def test_scale_sets_per_bitwidth(self, setup):
        model, dataset, calibration = setup
        ptmq = ptmq_quantize(model, calibration, bit_choices=(4, 6, 8))
        assert set(ptmq.scale_sets) == {4, 6, 8}
        # Scales grow as bitwidth shrinks (same range, fewer levels).
        name = next(iter(ptmq.scale_sets[4]))
        assert ptmq.scale_sets[4][name]["weight"].scale.mean() > (
            ptmq.scale_sets[8][name]["weight"].scale.mean()
        )

    def test_set_global_bits_switches_accuracy(self, setup):
        model, dataset, calibration = setup
        ptmq = ptmq_quantize(model, calibration, bit_choices=(4, 8))
        ptmq.set_global_bits(8)
        acc8 = ptmq.accuracy(dataset)
        ptmq.set_global_bits(4)
        acc4 = ptmq.accuracy(dataset)
        assert acc8 >= acc4 - 3.0
        assert ptmq.average_bits() == pytest.approx(4.0)

    def test_uncalibrated_bitwidth_rejected(self, setup):
        model, _, calibration = setup
        ptmq = ptmq_quantize(model, calibration, bit_choices=(4, 8))
        with pytest.raises(ValueError):
            ptmq.set_global_bits(6)

    def test_average_bit_assignment(self, setup):
        model, _, calibration = setup
        ptmq = ptmq_quantize(model, calibration, bit_choices=(4, 8))
        assignment = ptmq_average_bit_assignment(ptmq, target_average_bits=6.0)
        ptmq.set_layer_bits(assignment)
        assert ptmq.average_bits() <= 8.0
        layers = list(assignment)
        # First/last protected.
        assert assignment[layers[0]] == 8
        assert assignment[layers[-1]] == 8


class TestRobustQuantAndAnyPrecision:
    def test_robustquant_usable_at_multiple_bitwidths(self, setup):
        model, dataset, calibration = setup
        robust = robustquant_finetune(
            model, dataset, calibration,
            RobustQuantConfig(epochs=1, bit_choices=(4, 8), learning_rate=5e-3),
        )
        acc8 = evaluate_at_bits(robust, dataset, 8, calibration)
        acc4 = evaluate_at_bits(robust, dataset, 4, calibration)
        assert acc8 > 40.0
        assert acc4 > 25.0  # above chance after robustness training

    def test_evaluate_at_bits_leaves_the_model_as_it_found_it(self, setup):
        model, dataset, calibration = setup
        robust = robustquant_finetune(
            model, dataset, calibration,
            RobustQuantConfig(epochs=1, bit_choices=(2, 8), learning_rate=5e-3),
        )

        def grid_bits():
            return [
                (layer.weight_qparams.bits, layer.act_qparams.bits)
                for _, layer in iter_quantized_layers(robust)
            ]

        accuracy, bits = evaluate_accuracy(robust, dataset), grid_bits()
        evaluate_at_bits(robust, dataset, 2, calibration)
        assert grid_bits() == bits
        assert evaluate_accuracy(robust, dataset) == accuracy

    def test_anyprecision_runs_and_keeps_accuracy(self, setup):
        model, dataset, calibration = setup
        any_precision = anyprecision_finetune(
            model, dataset, calibration,
            AnyPrecisionConfig(epochs=1, bit_choices=(4, 8), learning_rate=5e-3),
        )
        acc = evaluate_accuracy(any_precision, dataset)
        assert acc > 40.0
        assert model_average_bits(any_precision) == pytest.approx(8.0)


def _flip_spec(sizes, start, order, low_bits, target):
    """Flip the shortest prefix of the flippable order that reaches the target."""
    names = list(sizes)
    flippable = [name for name in order if name in sizes and name not in (names[0], names[-1])]
    total = sum(sizes.values())
    for count in range(len(flippable) + 1):
        bits = {name: low_bits if name in flippable[:count] else start[name] for name in names}
        if count == len(flippable) or sum(bits[n] * sizes[n] for n in names) / total <= target:
            return bits


class TestOneAssignmentRule:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=8),
        start=st.sampled_from([8, 6]),
        low_bits=st.sampled_from([2, 4]),
        target=st.floats(1.0, 9.0),
        data=st.data(),
    )
    def test_greedy_flip_equals_the_plain_loop(self, sizes, start, low_bits, target, data):
        names = [f"layer{i}" for i in range(len(sizes))]
        sizes = dict(zip(names, sizes))
        starts = {name: start for name in names}
        starts[names[0]] = starts[names[-1]] = 8
        order = data.draw(st.permutations(names + ["absent"]))
        result = greedy_average_bits(sizes, starts, order, low_bits, target)
        assert result == _flip_spec(sizes, starts, order, low_bits, target)
        assert result[names[0]] == result[names[-1]] == 8

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(
        target=st.floats(3.0, 8.5),
        high_bits=st.sampled_from([6, 8]),
        first_last_bits=st.sampled_from([4, 8]),
    )
    def test_hawq_never_flips_first_and_last(self, setup, target, high_bits, first_last_bits):
        model, _, calibration = setup
        result = hawq_layerwise_quantize(
            model, calibration[:32], target_average_bits=target,
            high_bits=high_bits, first_last_bits=first_last_bits,
        )
        layers = iter_quantized_layers(result.model)
        for name, layer in (layers[0], layers[-1]):
            assert layer.weight_bits == result.layer_bits[name] == first_last_bits

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        target=st.floats(3.0, 8.5),
        sensitivities=st.none() | st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    def test_ptmq_never_flips_first_and_last(self, ptmq_model, target, sensitivities):
        names = list(ptmq_model.layer_bits)
        if sensitivities is not None:
            sensitivities = dict(zip(names, sensitivities))
        assignment = ptmq_average_bit_assignment(ptmq_model, target, sensitivities)
        assert assignment[names[0]] == assignment[names[-1]] == 8

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(count=st.integers(0, 40), batch_size=st.integers(1, 16))
    def test_batcher_equals_the_slicing_comprehension(self, count, batch_size):
        data = np.arange(count * 2, dtype=np.float32).reshape(count, 2)
        expected = [data[start : start + batch_size] for start in range(0, count, batch_size)]
        batches = calibration_batches(data, batch_size)
        assert len(batches) == len(expected)
        for got, want in zip(batches, expected):
            np.testing.assert_array_equal(got, want)

    def test_batcher_short_last_batch_and_empty_input(self):
        data = np.zeros((10, 3), dtype=np.float32)
        assert [len(batch) for batch in calibration_batches(data, 4)] == [4, 4, 2]
        assert calibration_batches(data[:0], 4) == []
