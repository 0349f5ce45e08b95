"""Tests for the post-processing layout optimization (Section 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.layout import (
    ChannelLayout,
    LayoutPlan,
    build_channel_layout,
    build_layout_plan,
)
from repro.core.runtime import FlexiQConv2d
from repro.core.selection import ChannelSelection, SelectionConfig, greedy_selection
from repro.nn.layers import Conv2d
from repro.quant.qmodules import QuantLinear
from repro.tensor import Tensor
from tests.test_core_runtime import calibrated_flexiq_linear, plan_for
from tests.test_core_selection import LAYERS, make_scores


def nested_selections(ratios=(0.25, 0.5, 0.75, 1.0), seed=0):
    scores = make_scores(LAYERS, seed=seed)
    config = SelectionConfig(group_size=4)
    selections = {}
    base = None
    for ratio in ratios:
        base = greedy_selection(scores, ratio, config, base=base)
        selections[ratio] = base
    return selections


class TestChannelLayout:
    def test_order_is_permutation(self):
        selections = nested_selections()
        layout = build_channel_layout("layer_b", selections)
        assert sorted(layout.order.tolist()) == list(range(32))

    def test_boundaries_monotone_in_ratio(self):
        selections = nested_selections()
        layout = build_channel_layout("layer_a", selections)
        values = [layout.boundaries[r] for r in sorted(layout.boundaries)]
        assert all(b <= a for b, a in zip(values, values[1:]))
        assert values[-1] == 16  # 100% ratio covers every channel

    def test_prefix_matches_selection(self):
        """The first boundary(r) channels in layout order are exactly the
        channels selected at ratio r."""
        selections = nested_selections()
        layout = build_channel_layout("layer_c", selections)
        for ratio, selection in selections.items():
            mask = selection.channel_mask("layer_c")
            boundary = layout.boundaries[ratio]
            prefix_channels = set(layout.order[:boundary].tolist())
            assert prefix_channels == set(np.nonzero(mask)[0].tolist())

    def test_boundary_for_interpolates_down(self):
        layout = ChannelLayout("x", np.arange(8), {0.5: 4, 1.0: 8})
        assert layout.boundary_for(0.0) == 0
        assert layout.boundary_for(0.5) == 4
        assert layout.boundary_for(0.7) == 4
        assert layout.boundary_for(1.0) == 8


class TestLayoutPlan:
    def test_build_plan_covers_all_layers(self):
        selections = nested_selections()
        plan = build_layout_plan(selections)
        assert set(plan.layouts) == set(LAYERS)
        assert plan.ratios == [0.25, 0.5, 0.75, 1.0]

    def test_non_nested_selections_rejected(self):
        scores = make_scores(LAYERS, seed=1)
        config = SelectionConfig(group_size=4)
        # Independently built selections are generally not nested.
        a = greedy_selection(scores, 0.25, config)
        b = greedy_selection(make_scores(LAYERS, seed=99), 0.5, config)
        nested = b.is_superset_of(a)
        if not nested:
            with pytest.raises(ValueError):
                build_layout_plan({0.25: a, 0.5: b})

    def test_empty_selections_rejected(self):
        with pytest.raises(ValueError):
            build_layout_plan({})

    def test_ratios_are_sorted_whatever_the_mapping_order(self):
        selections = nested_selections()
        plan = build_layout_plan(dict(reversed(list(selections.items()))))
        assert plan.ratios == [0.25, 0.5, 0.75, 1.0]
        assert set(plan.layouts) == set(LAYERS)


class TestWeightReordering:
    """Step 1/2 of the paper's layout procedure: a configured layer permutes
    its input features and weight columns by the layout order together, so a
    permuted layout computes what the identity layout computes.  Checked on
    the prepared kernel (layout folded into its planes) and on the reference
    path, with every channel at 8 bits and with every channel at 4 bits."""

    @staticmethod
    def _assert_permutation_preserves_output(layer, x, atol):
        channels = layer.feature_channels
        plan = plan_for(layer)
        order = np.random.default_rng(3).permutation(channels)
        for use_prepared in (True, False):
            layer.use_prepared = use_prepared
            for boundary in (0, channels):
                outputs = []
                for layout_order in (np.arange(channels), order):
                    layout = ChannelLayout("layer", layout_order, {1.0: channels})
                    layer.configure(layout, plan, group_size=1)
                    layer.set_boundary(boundary)
                    outputs.append(layer(x).data.copy())
                np.testing.assert_allclose(outputs[1], outputs[0], atol=atol)

    def test_linear_permutation_preserves_output(self):
        source, layer, data = calibrated_flexiq_linear(seed=4)
        x = Tensor(data[:6])
        self._assert_permutation_preserves_output(layer, x, atol=1e-5)
        # With every channel at 8 bits, the permuted layer is the int8 layer.
        reference = QuantLinear(source)
        reference(Tensor(data))
        reference.freeze()
        layer.set_boundary(0)
        np.testing.assert_allclose(layer(x).data, reference(x).data, atol=1e-5)

    def test_conv_permutation_preserves_output(self):
        rng = np.random.default_rng(1)
        source = Conv2d(6, 4, 3, padding=1, rng=rng)
        scales = np.repeat([0.2, 1.0, 2.0], 2).astype(np.float32)
        source.weight.data = source.weight.data * scales[None, :, None, None]
        layer = FlexiQConv2d(source)
        data = (rng.normal(size=(8, 6, 5, 5)) * scales[None, :, None, None]).astype(np.float32)
        layer(Tensor(data))
        layer.freeze()
        self._assert_permutation_preserves_output(layer, Tensor(data[:2]), atol=1e-4)
