"""End-to-end FlexiQ quantization pipeline.

:class:`FlexiQPipeline` reproduces the flow of Figure 2:

1. quantize the float model to 8-bit with FlexiQ-capable layers and calibrate
   activation ranges on sample data;
2. (optionally) finetune with the specialized dual-bitwidth loss and
   re-calibrate;
3. estimate per-channel error scores from the calibrated ranges;
4. for each target 4-bit ratio (ascending, nested) run the configured
   channel-selection algorithm, using the L2 distance to the 8-bit model's
   outputs on calibration data as the fitness signal;
5. build the memory-layout plan and attach extraction plans and layouts to
   every FlexiQ layer;
6. return a :class:`~repro.core.runtime.FlexiQModel` whose ratio can be
   switched at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.bit_extraction import BitExtractionPlan
from repro.core.finetune import FinetuneConfig, finetune_quantized_model, refresh_quantization
from repro.core.layout import ChannelLayout, build_layout_plan
from repro.core.runtime import FlexiQConv2d, FlexiQLinear, FlexiQModel
from repro.core.scoring import estimate_channel_scores
from repro.core.selection import (
    ChannelSelection,
    SelectionConfig,
    evolutionary_selection,
    greedy_selection,
    random_selection,
)
from repro.data.calibration import calibration_batches
from repro.data.synthetic import SyntheticImageDataset
from repro.nn.module import Module
from repro.quant.qmodel import ForwardFn, default_forward, quantize_model
from repro.quant.quantizers import quantize
from repro.tensor import no_grad


@dataclass
class FlexiQConfig:
    """Configuration of the FlexiQ pipeline.

    The defaults match the paper's setup scaled to the synthetic models:
    8-bit base precision, 4-bit low precision, nested ratios of 25/50/75/100%
    and evolutionary channel selection.
    """

    ratios: Sequence[float] = (0.25, 0.5, 0.75, 1.0)
    high_bits: int = 8
    low_bits: int = 4
    first_last_bits: int = 8
    group_size: int = 4
    selection: str = "evolutionary"  # "evolutionary" | "greedy" | "random"
    selection_config: SelectionConfig = field(default_factory=SelectionConfig)
    fitness_samples: int = 32
    dynamic_extraction: bool = False
    naive_lowering: bool = False  # disable bit extraction (ablation baseline)
    finetune: bool = False
    finetune_config: FinetuneConfig = field(default_factory=FinetuneConfig)
    fixed_high_fraction: float = 0.0  # manually pin this fraction of groups to 8-bit
    seed: int = 0


class FlexiQPipeline:
    """Quantize a model with FlexiQ and produce a ratio-switchable runtime."""

    def __init__(
        self,
        model: Module,
        calibration_data: np.ndarray,
        config: FlexiQConfig = FlexiQConfig(),
        forward_fn: Optional[ForwardFn] = None,
        finetune_dataset: Optional[SyntheticImageDataset] = None,
    ) -> None:
        self.source_model = model
        self.calibration_data = np.asarray(calibration_data)
        self.config = config
        self.forward_fn: ForwardFn = forward_fn or default_forward
        self.finetune_dataset = finetune_dataset
        # Populated by run().
        self.quantized_model: Optional[Module] = None
        self.selections: Dict[float, ChannelSelection] = {}
        self.scores = None
        self.selection_histories: Dict[float, List[float]] = {}

    # ------------------------------------------------------------------
    # Pipeline steps
    # ------------------------------------------------------------------
    def _selectable_layers(self, model: Module) -> List[str]:
        """FlexiQ layers eligible for 4-bit channels (first/last excluded).

        The first and last quantizable layers were instantiated with
        ``first_last_bits`` and are still FlexiQ layers; they are excluded
        from selection so they always run at the base precision, matching
        the paper's convention.  Grouped (depthwise) convolutions are left
        out too: they always run the uniform kernel, so their channels never
        compute in 4-bit.
        """
        flexiq = [
            (name, module)
            for name, module in model.named_modules()
            if isinstance(module, (FlexiQLinear, FlexiQConv2d))
        ]
        if len(flexiq) > 2:
            flexiq = flexiq[1:-1]
        return [name for name, module in flexiq if getattr(module, "groups", 1) == 1]

    def _extraction_plans(
        self, model: Module, layer_names: List[str]
    ) -> Dict[str, BitExtractionPlan]:
        """Per-layer static bit-extraction plans from calibration statistics."""
        plans: Dict[str, BitExtractionPlan] = {}
        for name in layer_names:
            layer = model.get_submodule(name)
            if self.config.naive_lowering:
                plans[name] = BitExtractionPlan.naive(
                    layer.feature_channels,
                    high_bits=self.config.high_bits,
                    low_bits=self.config.low_bits,
                )
                continue
            # Weight maxima per feature channel, in the integer domain.
            q_weight = quantize(layer._weight_reference().data, layer.weight_qparams)
            weight_matrix = np.abs(q_weight.reshape(q_weight.shape[0], layer.feature_channels, -1))
            weight_max_q = weight_matrix.max(axis=(0, 2))
            # Activation maxima per feature channel, in the integer domain.
            act_range = layer.input_channel_range()
            act_max_q = np.round(act_range.max_abs / layer.act_qparams.scale)
            act_max_q = np.clip(act_max_q, 0, layer.act_qparams.qmax)
            plans[name] = BitExtractionPlan.from_channel_maxima(
                weight_max_q,
                act_max_q,
                high_bits=self.config.high_bits,
                low_bits=self.config.low_bits,
            )
        return plans

    def _reference_outputs(self, model: Module, samples: np.ndarray) -> np.ndarray:
        with no_grad():
            return self.forward_fn(model, samples).data.copy()

    def _fitness_fn(
        self,
        model: Module,
        plans: Dict[str, BitExtractionPlan],
        samples: np.ndarray,
        reference: np.ndarray,
    ):
        """Loss = L2 distance between candidate outputs and 8-bit soft labels."""

        def fitness(selection: ChannelSelection) -> float:
            self._apply_selection(model, selection, plans)
            with no_grad():
                outputs = self.forward_fn(model, samples).data
            self._clear_selection(model)
            return float(np.linalg.norm(outputs - reference))

        return fitness

    def _apply_selection(
        self,
        model: Module,
        selection: ChannelSelection,
        plans: Dict[str, BitExtractionPlan],
    ) -> None:
        for name in selection.layers:
            layer = model.get_submodule(name)
            mask = selection.channel_mask(name)
            order = np.argsort(~mask, kind="stable")
            layout = ChannelLayout(layer_name=name, order=order, boundaries={})
            layer.configure(
                layout, plans[name],
                group_size=self.config.group_size, low_bits=self.config.low_bits,
            )
            layer.set_boundary(int(mask.sum()))
            layer.set_dynamic_extraction(self.config.dynamic_extraction)

    def _clear_selection(self, model: Module) -> None:
        for name, module in model.named_modules():
            if isinstance(module, (FlexiQLinear, FlexiQConv2d)) and module.layout is not None:
                module.set_boundary(0)

    def _fixed_high_masks(
        self, selection_layers: Dict[str, ChannelSelection], rng: np.random.Generator
    ):
        """Randomly pin a fraction of groups to 8-bit (Section 8.5 experiment)."""
        if self.config.fixed_high_fraction <= 0:
            return None
        fixed: Dict[str, np.ndarray] = {}
        for name, layer in selection_layers.items():
            mask = rng.random(layer.num_groups) < self.config.fixed_high_fraction
            fixed[name] = mask
        return fixed

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def run(self) -> FlexiQModel:
        """Execute the full pipeline and return the runtime model."""
        config = self.config
        batches = calibration_batches(self.calibration_data, 32)
        model = quantize_model(
            self.source_model,
            weight_bits=config.high_bits,
            act_bits=config.high_bits,
            calibration_batches=batches,
            first_last_bits=config.first_last_bits,
            layer_types=(FlexiQLinear, FlexiQConv2d),
            forward_fn=self.forward_fn,
        )

        if config.finetune:
            if self.finetune_dataset is None:
                raise ValueError("finetune=True requires a finetune_dataset")
            finetune_quantized_model(
                model, self.source_model, self.finetune_dataset, config.finetune_config
            )
            refresh_quantization(model, batches, forward_fn=self.forward_fn)

        selectable = self._selectable_layers(model)
        self.scores = estimate_channel_scores(model, layer_names=selectable)
        plans = self._extraction_plans(model, selectable)

        samples = self.calibration_data[: config.fitness_samples]
        reference = self._reference_outputs(model, samples)
        fitness = self._fitness_fn(model, plans, samples, reference)

        rng = np.random.default_rng(config.seed)
        selections: Dict[float, ChannelSelection] = {}
        base: Optional[ChannelSelection] = None
        fixed_high = None
        for ratio in sorted(config.ratios):
            selection_config = config.selection_config
            if config.selection == "evolutionary":
                if fixed_high is None:
                    from repro.core.selection import build_layer_groups

                    layer_groups = build_layer_groups(self.scores, selection_config.group_size)
                    fixed_high = self._fixed_high_masks(layer_groups, rng)
                result = evolutionary_selection(
                    self.scores, ratio, fitness,
                    config=selection_config, base=base, fixed_high=fixed_high,
                    return_history=True,
                )
                selection, history = result
                self.selection_histories[ratio] = history
            elif config.selection == "greedy":
                selection = greedy_selection(
                    self.scores, ratio, config=selection_config, base=base
                )
            elif config.selection == "random":
                selection = random_selection(
                    self.scores, ratio, config=selection_config, base=base,
                    seed=config.seed,
                )
            else:
                raise ValueError(f"unknown selection strategy {config.selection!r}")
            selections[ratio] = selection
            base = selection

        layout_plan = build_layout_plan(selections)
        for name in selectable:
            layer = model.get_submodule(name)
            layer.configure(
                layout_plan.layout_for(name), plans[name],
                group_size=config.group_size, low_bits=config.low_bits,
            )
            layer.set_dynamic_extraction(config.dynamic_extraction)

        self.quantized_model = model
        self.selections = selections
        runtime = FlexiQModel(
            model=model,
            layout_plan=layout_plan,
            selections=selections,
            group_size=config.group_size,
        )
        runtime.set_ratio(0.0)
        # All weight-side state (quantized weights, permuted planes, factor
        # tables) is prepared here, once; serving-time forwards and ratio
        # switches never recompute it.
        runtime.prepare()
        return runtime


def evaluate_ratio_sweep(
    runtime: FlexiQModel,
    dataset: SyntheticImageDataset,
) -> Dict[float, float]:
    """Accuracy (%) of a FlexiQ runtime at each available 4-bit ratio."""
    from repro.train.loop import evaluate_accuracy

    results: Dict[float, float] = {}
    for ratio in runtime.available_ratios:
        runtime.set_ratio(ratio)
        results[float(ratio)] = evaluate_accuracy(runtime.model, dataset)
    return results
