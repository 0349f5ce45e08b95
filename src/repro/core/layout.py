"""Post-processing layout optimization (Section 5).

After the selection algorithm has produced nested channel sets for the target
4-bit ratios, the channels of every layer are reordered so that

* channels selected at the lowest ratio come first,
* channels added by each higher ratio follow contiguously, and
* channels that always stay 8-bit come last.

With this order, running at ratio ``r`` means computing the first
``boundary(r)`` channels in 4-bit and the rest in 8-bit -- switching ratio is
a single per-layer pointer (``max_4bit_ch``) update.

In the paper this reordering is baked into the stored weights (steps 1 and 2)
and residual connections get an explicit runtime reorder operator (step 3).
In this reproduction the permutation is applied inside each FlexiQ layer's
kernel (functionally identical), and :class:`LayoutPlan` additionally records
which layers feed residual connections so the hardware latency model can
charge the paper's reorder overhead for them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.selection import ChannelSelection


@dataclass
class ChannelLayout:
    """Channel ordering and ratio boundaries for a single layer."""

    layer_name: str
    order: np.ndarray            # permutation: new position -> original channel
    boundaries: Dict[float, int]  # ratio -> number of leading 4-bit channels

    def __post_init__(self) -> None:
        self.order = np.asarray(self.order, dtype=np.int64)

    @property
    def num_channels(self) -> int:
        return int(self.order.shape[0])

    def boundary_for(self, ratio: float) -> int:
        """Largest configured boundary whose ratio does not exceed ``ratio``."""
        if not self.boundaries:
            return 0
        ratios, boundaries = zip(*sorted(self.boundaries.items()))  # per call: not a serving path
        position = bisect_right(ratios, ratio + 1e-9)
        return boundaries[position - 1] if position else 0


@dataclass
class LayoutPlan:
    """Layouts for every FlexiQ layer."""

    layouts: Dict[str, ChannelLayout]
    ratios: List[float]

    def layout_for(self, layer_name: str) -> ChannelLayout:
        return self.layouts[layer_name]


def _validate_nested(selections: Dict[float, ChannelSelection]) -> List[float]:
    ratios = sorted(selections)
    for lower, higher in zip(ratios, ratios[1:]):
        if not selections[higher].is_superset_of(selections[lower]):
            raise ValueError(
                f"selection at ratio {higher} does not include the channels "
                f"selected at ratio {lower}; layout requires nested selections"
            )
    return ratios


def build_channel_layout(
    layer_name: str,
    selections: Dict[float, ChannelSelection],
    ratios: Optional[Sequence[float]] = None,
) -> ChannelLayout:
    """Compute the channel order and boundaries for one layer."""
    ratios = list(ratios) if ratios is not None else sorted(selections)
    num_channels = selections[ratios[0]].layers[layer_name].num_channels

    # first_ratio[c] = smallest ratio at which channel c is selected
    # (np.inf when never selected).
    first_ratio = np.full(num_channels, np.inf)
    for ratio in sorted(ratios, reverse=True):
        mask = selections[ratio].channel_mask(layer_name)
        first_ratio[mask] = ratio

    order = np.argsort(first_ratio, kind="stable")
    boundaries = {
        ratio: int(np.count_nonzero(first_ratio <= ratio + 1e-9)) for ratio in ratios
    }
    return ChannelLayout(layer_name=layer_name, order=order, boundaries=boundaries)


def build_layout_plan(selections: Dict[float, ChannelSelection]) -> LayoutPlan:
    """Build layouts for all layers appearing in the (nested) selections.

    Parameters
    ----------
    selections:
        Mapping from target 4-bit ratio to the :class:`ChannelSelection`
        produced for that ratio.  Selections must be nested.
    """
    if not selections:
        raise ValueError("at least one selection is required")
    ratios = _validate_nested(selections)
    layer_names = list(selections[ratios[0]].layers.keys())
    layouts = {
        name: build_channel_layout(name, selections, ratios) for name in layer_names
    }
    return LayoutPlan(layouts=layouts, ratios=ratios)
