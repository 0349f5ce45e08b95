"""Low-bitwidth channel selection: random, greedy and evolutionary (Alg. 1).

A *selection* assigns each feature-channel group of each selectable layer to
either 4-bit or 8-bit computation.  Selection happens at the granularity of
hardware channel groups (32 channels on the paper's GPU, 64 on its NPU; the
scaled-down models here default to 4) and honours two structural constraints:

* **Nestedness** -- the channels chosen at a lower 4-bit ratio are a subset of
  those chosen at any higher ratio, which is what makes runtime ratio
  switching a single pointer update after layout optimization.
* **Fixed high-precision channels** -- channels the caller pins to 8-bit
  (used by the manual-selection experiment in Section 8.5) are never chosen.

The evolutionary algorithm follows Algorithm 1 of the paper: chromosomes are
per-group bit flags, crossover happens at layer boundaries, mutation flips
selected groups and re-balances within the layer with probability inversely
proportional to the error score, and an elitist strategy carries the best
chromosomes to the next generation.  Fitness is supplied by the caller (the
pipeline uses the L2 distance to the 8-bit model's soft labels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.scoring import ChannelScore


# ----------------------------------------------------------------------
# Data structures
# ----------------------------------------------------------------------
@dataclass
class LayerGroups:
    """Static description of one selectable layer's channel groups."""

    layer_name: str
    num_channels: int
    group_size: int
    group_sizes: np.ndarray  # channels per group (last group may be smaller)
    group_scores: np.ndarray

    @property
    def num_groups(self) -> int:
        return len(self.group_sizes)


@dataclass
class ChannelSelection:
    """A concrete assignment of channel groups to 4-bit computation."""

    group_masks: Dict[str, np.ndarray]
    layers: Dict[str, LayerGroups]
    target_ratio: float

    def __post_init__(self) -> None:
        self.group_masks = {
            name: np.asarray(mask, dtype=bool) for name, mask in self.group_masks.items()
        }

    # -- ratios ----------------------------------------------------------
    def selected_channels(self, layer_name: str) -> int:
        layer = self.layers[layer_name]
        return int(layer.group_sizes[self.group_masks[layer_name]].sum())

    def total_channels(self) -> int:
        return int(sum(layer.num_channels for layer in self.layers.values()))

    def total_selected(self) -> int:
        return int(sum(self.selected_channels(name) for name in self.layers))

    def achieved_ratio(self) -> float:
        """Fraction of feature channels assigned to 4-bit computation."""
        total = self.total_channels()
        return self.total_selected() / total if total else 0.0

    def layer_ratio(self, layer_name: str) -> float:
        layer = self.layers[layer_name]
        return self.selected_channels(layer_name) / max(layer.num_channels, 1)

    # -- per-channel view --------------------------------------------------
    def channel_mask(self, layer_name: str) -> np.ndarray:
        """Expand the group mask of a layer to a per-channel boolean mask."""
        layer = self.layers[layer_name]
        mask = self.group_masks[layer_name]
        return np.repeat(mask, layer.group_sizes)

    # -- structural checks --------------------------------------------------
    def is_superset_of(self, other: "ChannelSelection") -> bool:
        """True if every group selected in ``other`` is also selected here."""
        for name, other_mask in other.group_masks.items():
            mask = self.group_masks.get(name)
            if mask is None or np.any(other_mask & ~mask):
                return False
        return True

    def copy(self) -> "ChannelSelection":
        return ChannelSelection(
            group_masks={name: mask.copy() for name, mask in self.group_masks.items()},
            layers=self.layers,
            target_ratio=self.target_ratio,
        )


@dataclass
class SelectionConfig:
    """Hyper-parameters of the selection algorithms.

    Defaults are scaled-down versions of the paper's settings (population 50,
    50 generations, elite 2, 10 parents, 1% mutation) chosen so an end-to-end
    sweep finishes in seconds on a CPU; the paper-scale values can be passed
    explicitly.
    """

    group_size: int = 4
    population_size: int = 10
    generations: int = 8
    elite_size: int = 2
    parent_size: int = 4
    mutation_prob: float = 0.05
    seed: int = 0


FitnessFn = Callable[[ChannelSelection], float]


# ----------------------------------------------------------------------
# Group construction
# ----------------------------------------------------------------------
def build_layer_groups(
    scores: Dict[str, ChannelScore], group_size: int
) -> Dict[str, LayerGroups]:
    """Partition each scored layer's channels into hardware groups."""
    layers: Dict[str, LayerGroups] = {}
    for name, score in scores.items():
        channels = score.num_channels
        full_groups = channels // group_size
        remainder = channels - full_groups * group_size
        sizes = [group_size] * full_groups + ([remainder] if remainder else [])
        group_sizes = np.asarray(sizes, dtype=np.int64)
        boundaries = np.cumsum(np.concatenate([[0], group_sizes]))
        group_scores = np.asarray(
            [
                score.scores[boundaries[i] : boundaries[i + 1]].sum()
                for i in range(len(group_sizes))
            ]
        )
        layers[name] = LayerGroups(
            layer_name=name,
            num_channels=channels,
            group_size=group_size,
            group_sizes=group_sizes,
            group_scores=group_scores,
        )
    return layers


def _empty_masks(layers: Dict[str, LayerGroups]) -> Dict[str, np.ndarray]:
    return {name: np.zeros(layer.num_groups, dtype=bool) for name, layer in layers.items()}


def _target_channels(layers: Dict[str, LayerGroups], ratio: float) -> int:
    total = sum(layer.num_channels for layer in layers.values())
    return int(round(total * ratio))


# ----------------------------------------------------------------------
# Baseline selectors
# ----------------------------------------------------------------------
def random_selection(
    scores: Dict[str, ChannelScore],
    target_ratio: float,
    config: SelectionConfig = SelectionConfig(),
    base: Optional[ChannelSelection] = None,
    seed: Optional[int] = None,
) -> ChannelSelection:
    """Select channel groups uniformly at random until the target is met."""
    layers = base.layers if base is not None else build_layer_groups(scores, config.group_size)
    rng = np.random.default_rng(config.seed if seed is None else seed)
    selection = _seed_selection(layers, target_ratio, base)
    _fill_to_target(selection, rng, weighted=False, fixed_high=None)
    return selection


def greedy_selection(
    scores: Dict[str, ChannelScore],
    target_ratio: float,
    config: SelectionConfig = SelectionConfig(),
    base: Optional[ChannelSelection] = None,
    fixed_high: Optional[Dict[str, np.ndarray]] = None,
) -> ChannelSelection:
    """Select the globally lowest-score groups until the target is met."""
    layers = base.layers if base is not None else build_layer_groups(scores, config.group_size)
    selection = _seed_selection(layers, target_ratio, base)
    target = _target_channels(layers, target_ratio)

    candidates = []
    for name, layer in layers.items():
        for g in range(layer.num_groups):
            if selection.group_masks[name][g]:
                continue
            if fixed_high is not None and name in fixed_high and fixed_high[name][g]:
                continue
            candidates.append((layer.group_scores[g], name, g))
    candidates.sort(key=lambda item: item[0])

    for _, name, g in candidates:
        if selection.total_selected() >= target:
            break
        selection.group_masks[name][g] = True
    return selection


# ----------------------------------------------------------------------
# Evolutionary selection (Algorithm 1)
# ----------------------------------------------------------------------
def evolutionary_selection(
    scores: Dict[str, ChannelScore],
    target_ratio: float,
    fitness_fn: FitnessFn,
    config: SelectionConfig = SelectionConfig(),
    base: Optional[ChannelSelection] = None,
    fixed_high: Optional[Dict[str, np.ndarray]] = None,
    return_history: bool = False,
):
    """Run the genetic search of Algorithm 1 for one target ratio.

    ``fitness_fn`` must return a *loss* (lower is better); the pipeline uses
    the L2 distance between the candidate's logits and the 8-bit model's
    logits on calibration data.
    """
    layers = base.layers if base is not None else build_layer_groups(scores, config.group_size)
    rng = np.random.default_rng(config.seed)

    population: List[ChannelSelection] = []
    # One chromosome seeded with the greedy solution, the rest sampled with
    # probability inversely related to the group score.
    population.append(
        greedy_selection(scores, target_ratio, config, base=base, fixed_high=fixed_high)
    )
    while len(population) < config.population_size:
        candidate = _seed_selection(layers, target_ratio, base)
        _fill_to_target(candidate, rng, weighted=True, fixed_high=fixed_high)
        population.append(candidate)

    history: List[float] = []
    fitness = np.asarray([fitness_fn(individual) for individual in population])
    for _ in range(config.generations):
        order = np.argsort(fitness)
        history.append(float(fitness[order[0]]))
        elites = [population[i].copy() for i in order[: config.elite_size]]
        parents = [population[i] for i in order[: config.parent_size]]

        offspring: List[ChannelSelection] = []
        while len(offspring) < config.population_size - config.elite_size:
            mother, father = rng.choice(len(parents), size=2, replace=False)
            child_a, child_b = _crossover(parents[mother], parents[father], rng)
            for child in (child_a, child_b):
                _mutate(child, rng, config.mutation_prob, base, fixed_high)
                _repair(child, rng, base, fixed_high)
                offspring.append(child)
                if len(offspring) >= config.population_size - config.elite_size:
                    break

        population = elites + offspring
        fitness = np.concatenate(
            [
                fitness[order[: config.elite_size]],
                np.asarray([fitness_fn(individual) for individual in offspring]),
            ]
        )

    best_index = int(np.argmin(fitness))
    best = population[best_index]
    history.append(float(fitness[best_index]))
    if return_history:
        return best, history
    return best


# ----------------------------------------------------------------------
# GA internals
# ----------------------------------------------------------------------
def _seed_selection(
    layers: Dict[str, LayerGroups],
    target_ratio: float,
    base: Optional[ChannelSelection],
) -> ChannelSelection:
    """Start from the base selection (nested constraint) or an empty one."""
    masks = _empty_masks(layers)
    if base is not None:
        for name, mask in base.group_masks.items():
            masks[name] |= mask
    return ChannelSelection(group_masks=masks, layers=layers, target_ratio=target_ratio)


def _selectable_pairs(
    selection: ChannelSelection,
    fixed_high: Optional[Dict[str, np.ndarray]],
    selected: bool,
) -> List[Tuple[str, int]]:
    """Groups that are currently (un)selected and allowed to change."""
    pairs = []
    for name, layer in selection.layers.items():
        mask = selection.group_masks[name]
        for g in range(layer.num_groups):
            if mask[g] != selected:
                continue
            if fixed_high is not None and name in fixed_high and fixed_high[name][g]:
                continue
            pairs.append((name, g))
    return pairs


def _score_weights(selection: ChannelSelection, pairs: Sequence[Tuple[str, int]],
                   invert: bool) -> np.ndarray:
    """Sampling weights from group scores (inverted = prefer low scores)."""
    scores = np.asarray(
        [selection.layers[name].group_scores[g] for name, g in pairs], dtype=np.float64
    )
    if invert:
        weights = 1.0 / (scores + 1e-12)
    else:
        weights = scores + 1e-12
    total = weights.sum()
    if not np.isfinite(total) or total <= 0:
        return np.full(len(pairs), 1.0 / len(pairs))
    return weights / total


def _fill_to_target(
    selection: ChannelSelection,
    rng: np.random.Generator,
    weighted: bool,
    fixed_high: Optional[Dict[str, np.ndarray]],
) -> None:
    """Add groups until the selection reaches its target channel count."""
    target = _target_channels(selection.layers, selection.target_ratio)
    while selection.total_selected() < target:
        pairs = _selectable_pairs(selection, fixed_high, selected=False)
        if not pairs:
            break
        if weighted:
            weights = _score_weights(selection, pairs, invert=True)
            index = rng.choice(len(pairs), p=weights)
        else:
            index = rng.integers(len(pairs))
        name, g = pairs[index]
        selection.group_masks[name][g] = True


def _shrink_to_target(
    selection: ChannelSelection,
    rng: np.random.Generator,
    base: Optional[ChannelSelection],
    fixed_high: Optional[Dict[str, np.ndarray]],
) -> None:
    """Remove groups (never base ones) until the target count is respected."""
    target = _target_channels(selection.layers, selection.target_ratio)
    while selection.total_selected() > target:
        pairs = _selectable_pairs(selection, fixed_high, selected=True)
        if base is not None:
            pairs = [
                (name, g) for name, g in pairs if not base.group_masks[name][g]
            ]
        if not pairs:
            break
        weights = _score_weights(selection, pairs, invert=False)
        index = rng.choice(len(pairs), p=weights)
        name, g = pairs[index]
        selection.group_masks[name][g] = False


def _repair(
    selection: ChannelSelection,
    rng: np.random.Generator,
    base: Optional[ChannelSelection],
    fixed_high: Optional[Dict[str, np.ndarray]],
) -> None:
    """Restore the nested constraint and the target channel count."""
    if base is not None:
        for name, mask in base.group_masks.items():
            selection.group_masks[name] |= mask
    _fill_to_target(selection, rng, weighted=True, fixed_high=fixed_high)
    _shrink_to_target(selection, rng, base, fixed_high)


def _crossover(
    mother: ChannelSelection,
    father: ChannelSelection,
    rng: np.random.Generator,
) -> Tuple[ChannelSelection, ChannelSelection]:
    """Single-point crossover at a layer boundary."""
    names = list(mother.layers.keys())
    point = int(rng.integers(1, len(names))) if len(names) > 1 else 1
    child_a = mother.copy()
    child_b = father.copy()
    for name in names[point:]:
        child_a.group_masks[name] = father.group_masks[name].copy()
        child_b.group_masks[name] = mother.group_masks[name].copy()
    return child_a, child_b


def _mutate(
    selection: ChannelSelection,
    rng: np.random.Generator,
    mutation_prob: float,
    base: Optional[ChannelSelection],
    fixed_high: Optional[Dict[str, np.ndarray]],
) -> None:
    """Flip selected groups with small probability and re-balance per layer."""
    for name, layer in selection.layers.items():
        mask = selection.group_masks[name]
        base_mask = base.group_masks[name] if base is not None else np.zeros_like(mask)
        fixed_mask = (
            fixed_high[name]
            if fixed_high is not None and name in fixed_high
            else np.zeros_like(mask)
        )
        flips = 0
        for g in range(layer.num_groups):
            if mask[g] and not base_mask[g] and rng.random() < mutation_prob:
                mask[g] = False
                flips += 1
        if flips == 0:
            continue
        # Re-select an equal number of groups in the same layer, preferring
        # low-score groups (probability inversely proportional to the score).
        candidates = [
            g
            for g in range(layer.num_groups)
            if not mask[g] and not fixed_mask[g]
        ]
        if not candidates:
            continue
        scores = layer.group_scores[candidates] + 1e-12
        weights = (1.0 / scores) / (1.0 / scores).sum()
        chosen = rng.choice(
            candidates, size=min(flips, len(candidates)), replace=False, p=weights
        )
        mask[np.asarray(chosen, dtype=int)] = True
