"""Model zoo mirroring the paper's Table 1.

Each entry maps a paper model (abbreviation in parentheses) to a scaled-down
member of the same architecture family, along with the dataset configuration
used to pre-train it on the synthetic data.  The registry is the single
source of truth for the evaluation scripts and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.nn.layers import Conv2d, Linear
from repro.nn.llm import tiny_lm
from repro.nn.mobilenet import mobilenet_v2
from repro.nn.module import Module
from repro.nn.resnet import resnet18, resnet20, resnet34, resnet50
from repro.nn.vit import swin, vit


def apply_pretrained_channel_statistics(
    model: Module, rng: np.random.Generator, sigma: float = 0.5
) -> Module:
    """Give weights the per-feature-channel magnitude diversity of real checkpoints.

    FlexiQ's premise (Section 2.3) is an empirical property of publicly
    available pre-trained vision models: the weight parameters connected to
    different *input* (feature) channels of a layer have widely varying value
    ranges, so many channels leave the top bits of an 8-bit representation
    unused.  That diversity emerges from long training on large datasets and
    does not develop in the few-epoch synthetic training used here, so it is
    injected explicitly: every Linear/Conv2d input channel is scaled by a
    log-normal factor at initialisation (before training).  Training then
    proceeds normally; the surrounding normalisation layers absorb the scale
    differences functionally while the heterogeneous channel statistics --
    the property FlexiQ exploits -- persist.  This substitution is recorded
    in DESIGN.md.
    """
    for _, module in model.named_modules():
        if isinstance(module, Linear):
            factors = rng.lognormal(mean=0.0, sigma=sigma, size=module.in_features)
            factors = np.clip(factors, 0.2, 3.0).astype(np.float32)
            module.weight.data = module.weight.data * factors[None, :]
        elif isinstance(module, Conv2d):
            in_per_group = module.in_channels // module.groups
            factors = rng.lognormal(mean=0.0, sigma=sigma, size=in_per_group)
            factors = np.clip(factors, 0.2, 3.0).astype(np.float32)
            module.weight.data = module.weight.data * factors[None, :, None, None]
    return model


@dataclass(frozen=True)
class ModelSpec:
    """Description of one evaluation model.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"resnet18"``.
    abbreviation:
        The short name used in the paper's tables, e.g. ``"RNet18"``.
    family:
        ``"cnn"``, ``"transformer"`` or ``"llm"``.
    dataset:
        Name of the synthetic dataset configuration in :mod:`repro.data`.
    builder:
        Callable producing a fresh, randomly initialised model.
    image_size, num_classes:
        Input geometry for vision models.
    finetune_epochs, learning_rate:
        Default finetuning hyper-parameters (scaled-down analogue of Table 1).
    calibration_size:
        Number of calibration samples used for range estimation.
    """

    name: str
    abbreviation: str
    family: str
    dataset: str
    builder: Callable[..., Module]
    image_size: int = 16
    num_classes: int = 10
    finetune_epochs: int = 2
    learning_rate: float = 1e-2
    calibration_size: int = 64
    # Optional log-normal sigma for init-time per-channel weight scaling.
    # The default pipeline instead uses the function-preserving rebalancing
    # in repro.nn.rebalance (applied after pre-training), so this stays 0.
    channel_heterogeneity: float = 0.0
    extra: Dict = field(default_factory=dict)

    def build(self, seed: int = 0) -> Module:
        """Instantiate the model with a deterministic initialisation.

        The initialisation includes the heterogeneous per-channel weight
        statistics of real pre-trained checkpoints (see
        :func:`apply_pretrained_channel_statistics`); set
        ``channel_heterogeneity`` to 0 to disable.
        """
        rng = np.random.default_rng(seed)
        model = self.builder(rng=rng, **self.extra)
        if self.channel_heterogeneity > 0:
            stats_rng = np.random.default_rng(seed + 101)
            apply_pretrained_channel_statistics(
                model, stats_rng, sigma=self.channel_heterogeneity
            )
        return model


def _cnn_spec(name: str, abbreviation: str, dataset: str, builder, **extra) -> ModelSpec:
    return ModelSpec(
        name=name,
        abbreviation=abbreviation,
        family="cnn",
        dataset=dataset,
        builder=builder,
        extra=extra,
    )


def _transformer_spec(name: str, abbreviation: str, builder, **extra) -> ModelSpec:
    return ModelSpec(
        name=name,
        abbreviation=abbreviation,
        family="transformer",
        dataset="synthetic-imagenet",
        builder=builder,
        calibration_size=64,
        extra=extra,
    )


MODEL_REGISTRY: Dict[str, ModelSpec] = {
    "resnet20": _cnn_spec("resnet20", "RNet20", "synthetic-cifar10", resnet20),
    "resnet18": _cnn_spec("resnet18", "RNet18", "synthetic-imagenet", resnet18),
    "resnet34": _cnn_spec("resnet34", "RNet34", "synthetic-imagenet", resnet34),
    "resnet50": _cnn_spec("resnet50", "RNet50", "synthetic-imagenet", resnet50),
    "mobilenet_v2": _cnn_spec(
        "mobilenet_v2", "MNetV2", "synthetic-imagenet", mobilenet_v2
    ),
    "vit_small": _transformer_spec("vit_small", "ViT-S", vit, variant="small"),
    "vit_base": _transformer_spec("vit_base", "ViT-B", vit, variant="base"),
    "deit_small": _transformer_spec("deit_small", "DeiT-S", vit, variant="small"),
    "deit_base": _transformer_spec("deit_base", "DeiT-B", vit, variant="base"),
    "swin_small": _transformer_spec("swin_small", "Swin-S", swin, variant="small"),
    "swin_base": _transformer_spec("swin_base", "Swin-B", swin, variant="base"),
    "tiny_lm": ModelSpec(
        name="tiny_lm",
        abbreviation="TinyLM",
        family="llm",
        dataset="synthetic-text",
        builder=tiny_lm,
        image_size=0,
        num_classes=0,
        finetune_epochs=2,
        learning_rate=1e-2,
        calibration_size=32,
    ),
}


def list_models(family: Optional[str] = None) -> List[str]:
    """Return registry keys, optionally filtered by family."""
    return [
        name
        for name, spec in MODEL_REGISTRY.items()
        if family is None or spec.family == family
    ]


def get_spec(name: str) -> ModelSpec:
    """Return the :class:`ModelSpec` for ``name`` or raise ``KeyError``."""
    if name not in MODEL_REGISTRY:
        raise KeyError(
            f"unknown model {name!r}; available: {', '.join(sorted(MODEL_REGISTRY))}"
        )
    return MODEL_REGISTRY[name]


def build_model(name: str, seed: int = 0) -> Module:
    """Build a registry model by name with deterministic initialisation."""
    return get_spec(name).build(seed=seed)
