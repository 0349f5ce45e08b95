"""Tests for channel scoring and the selection algorithms (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scoring import ChannelScore, estimate_channel_scores, score_layer
from repro.core.selection import (
    ChannelSelection,
    SelectionConfig,
    build_layer_groups,
    evolutionary_selection,
    greedy_selection,
    random_selection,
)


def make_scores(layer_channels, seed=0):
    """Synthetic per-layer channel scores."""
    rng = np.random.default_rng(seed)
    scores = {}
    for name, channels in layer_channels.items():
        values = rng.uniform(0.1, 10.0, size=channels)
        scores[name] = ChannelScore(
            layer_name=name, scores=values,
            weight_range=values, act_range=np.ones(channels),
        )
    return scores


LAYERS = {"layer_a": 16, "layer_b": 32, "layer_c": 8}


class TestChannelScore:
    def test_group_scores_sum(self):
        score = ChannelScore("x", np.arange(8, dtype=float), np.ones(8), np.ones(8))
        np.testing.assert_allclose(score.group_scores(4), [6.0, 22.0])

    def test_group_scores_indivisible_raises(self):
        score = ChannelScore("x", np.ones(6), np.ones(6), np.ones(6))
        with pytest.raises(ValueError):
            score.group_scores(4)

    def test_score_layer_uses_range_product(self, flexiq_runtime):
        name, layer = flexiq_runtime.flexiq_layers()[1]
        score = score_layer(name, layer)
        assert score.num_channels == layer.feature_channels
        expected = score.weight_range * score.act_range
        np.testing.assert_allclose(score.scores, expected)

    def test_estimate_channel_scores_requires_calibration(self):
        from repro.nn.layers import Linear
        from repro.nn.module import Sequential
        from repro.quant.qmodel import quantize_model

        model = Sequential(Linear(8, 8), Linear(8, 8), Linear(8, 4))
        quantized = quantize_model(model, 8)  # not calibrated
        with pytest.raises(RuntimeError):
            estimate_channel_scores(quantized)


class TestLayerGroups:
    def test_group_sizes_with_remainder(self):
        groups = build_layer_groups(make_scores({"x": 10}), group_size=4)
        np.testing.assert_array_equal(groups["x"].group_sizes, [4, 4, 2])
        assert groups["x"].num_groups == 3

    def test_group_scores_shape(self):
        groups = build_layer_groups(make_scores(LAYERS), group_size=4)
        assert groups["layer_b"].group_scores.shape == (8,)


class TestGreedyAndRandom:
    def test_greedy_hits_target_ratio(self):
        scores = make_scores(LAYERS)
        for ratio in (0.25, 0.5, 0.75, 1.0):
            selection = greedy_selection(scores, ratio, SelectionConfig(group_size=4))
            assert selection.achieved_ratio() == pytest.approx(ratio, abs=0.08)

    def test_greedy_prefers_low_scores(self):
        scores = make_scores({"only": 16}, seed=3)
        selection = greedy_selection(scores, 0.5, SelectionConfig(group_size=4))
        groups = selection.layers["only"]
        chosen = selection.group_masks["only"]
        chosen_scores = groups.group_scores[chosen]
        rejected_scores = groups.group_scores[~chosen]
        assert chosen_scores.max() <= rejected_scores.min() + 1e-9

    def test_random_hits_target_ratio(self):
        scores = make_scores(LAYERS)
        selection = random_selection(scores, 0.5, SelectionConfig(group_size=4), seed=1)
        assert selection.achieved_ratio() == pytest.approx(0.5, abs=0.08)

    def test_random_differs_across_seeds(self):
        scores = make_scores(LAYERS)
        a = random_selection(scores, 0.5, SelectionConfig(group_size=4), seed=1)
        b = random_selection(scores, 0.5, SelectionConfig(group_size=4), seed=2)
        assert any(
            not np.array_equal(a.group_masks[name], b.group_masks[name]) for name in LAYERS
        )

    def test_nested_base_respected(self):
        scores = make_scores(LAYERS)
        low = greedy_selection(scores, 0.25, SelectionConfig(group_size=4))
        high = greedy_selection(scores, 0.75, SelectionConfig(group_size=4), base=low)
        assert high.is_superset_of(low)
        assert not low.is_superset_of(high)

    def test_fixed_high_channels_never_selected(self):
        scores = make_scores({"only": 16}, seed=5)
        groups = build_layer_groups(scores, 4)
        fixed = {"only": np.array([True, False, False, False])}
        selection = greedy_selection(
            scores, 0.75, SelectionConfig(group_size=4), fixed_high=fixed
        )
        assert not selection.group_masks["only"][0]


class TestChannelSelectionStructure:
    def test_channel_mask_expansion(self):
        scores = make_scores({"x": 8})
        selection = greedy_selection(scores, 0.5, SelectionConfig(group_size=4))
        mask = selection.channel_mask("x")
        assert mask.shape == (8,)
        assert mask.sum() == 4

    def test_layer_ratio(self):
        scores = make_scores(LAYERS)
        selection = greedy_selection(scores, 1.0, SelectionConfig(group_size=4))
        for name in LAYERS:
            assert selection.layer_ratio(name) == pytest.approx(1.0)

    def test_copy_is_independent(self):
        scores = make_scores({"x": 8})
        selection = greedy_selection(scores, 0.5, SelectionConfig(group_size=4))
        clone = selection.copy()
        clone.group_masks["x"][:] = True
        assert selection.group_masks["x"].sum() < clone.group_masks["x"].sum()


class TestEvolutionary:
    @staticmethod
    def _oracle_fitness(target_mask_by_layer):
        """Fitness = Hamming distance to a hidden 'oracle' assignment."""

        def fitness(selection: ChannelSelection) -> float:
            distance = 0.0
            for name, target in target_mask_by_layer.items():
                distance += float(np.sum(selection.group_masks[name] != target))
            return distance

        return fitness

    def test_improves_over_generations_and_beats_random(self):
        scores = make_scores(LAYERS, seed=7)
        groups = build_layer_groups(scores, 4)
        rng = np.random.default_rng(0)
        # Oracle: half the groups of every layer, chosen arbitrarily.
        oracle = {
            name: rng.permutation(
                np.repeat([True, False], [layer.num_groups // 2,
                                          layer.num_groups - layer.num_groups // 2])
            )
            for name, layer in groups.items()
        }
        fitness = self._oracle_fitness(oracle)
        config = SelectionConfig(group_size=4, population_size=12, generations=10, seed=3)
        best, history = evolutionary_selection(
            scores, 0.5, fitness, config=config, return_history=True
        )
        random_sel = random_selection(scores, 0.5, config, seed=11)
        assert history[-1] <= history[0]
        assert fitness(best) <= fitness(random_sel)

    def test_result_hits_target_and_is_nested(self):
        scores = make_scores(LAYERS, seed=9)
        config = SelectionConfig(group_size=4, population_size=8, generations=4, seed=1)
        fitness = lambda s: float(sum(mask.sum() for mask in s.group_masks.values()))
        base = greedy_selection(scores, 0.25, config)
        best = evolutionary_selection(scores, 0.75, fitness, config=config, base=base)
        assert best.achieved_ratio() == pytest.approx(0.75, abs=0.08)
        assert best.is_superset_of(base)

    def test_respects_fixed_high(self):
        scores = make_scores({"only": 32}, seed=2)
        fixed = {"only": np.zeros(8, dtype=bool)}
        fixed["only"][:2] = True
        config = SelectionConfig(group_size=4, population_size=6, generations=3, seed=0)
        best = evolutionary_selection(
            scores, 0.5, lambda s: 0.0, config=config, fixed_high=fixed
        )
        assert not best.group_masks["only"][:2].any()


class TestSelectionProperties:
    @given(
        ratio=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_selection_ratio_and_bounds(self, ratio, seed):
        scores = make_scores(LAYERS, seed=seed)
        selection = random_selection(
            scores, ratio, SelectionConfig(group_size=4), seed=seed
        )
        achieved = selection.achieved_ratio()
        assert 0.0 <= achieved <= 1.0
        assert achieved == pytest.approx(ratio, abs=0.1)

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_nestedness_chain(self, seed):
        scores = make_scores(LAYERS, seed=seed)
        config = SelectionConfig(group_size=4)
        previous = None
        for ratio in (0.25, 0.5, 0.75, 1.0):
            current = greedy_selection(scores, ratio, config, base=previous)
            if previous is not None:
                assert current.is_superset_of(previous)
            previous = current
