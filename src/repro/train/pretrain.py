"""Pre-trained model cache.

The paper starts from publicly available pre-trained checkpoints; this module
plays that role by training each registry model once on its synthetic dataset
and caching the weights on disk.  All experiments then call
:func:`get_pretrained` so they share identical starting points -- exactly how
the paper's pipeline consumes TorchVision/HuggingFace checkpoints.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.data.synthetic import SyntheticImageDataset, build_dataset
from repro.data.text import build_text_corpus
from repro.nn.module import Module
from repro.nn.rebalance import rebalance_channel_scales
from repro.nn.registry import ModelSpec, get_spec
from repro.train.loop import TrainingConfig, train_classifier, train_language_model

# Log-normal sigma of the function-preserving channel-scale rebalancing that
# is applied to every pre-trained checkpoint (see repro.nn.rebalance).  It
# reproduces the per-feature-channel weight-range diversity of real
# pre-trained models without altering the float function.
REBALANCE_SIGMA = 0.6

_DEFAULT_CACHE = Path(
    os.environ.get("REPRO_PRETRAIN_CACHE", Path(__file__).resolve().parents[3] / ".cache" / "pretrained")
)

# In-process cache so repeated get_pretrained() calls inside one pytest run
# do not re-read (or worse, re-train) anything.
_MEMORY_CACHE: Dict[Tuple[str, int], Dict[str, np.ndarray]] = {}


def _cache_path(spec: ModelSpec, epochs: int, cache_dir: Path) -> Path:
    return cache_dir / f"{spec.name}_e{epochs}.npz"


def pretrain_model(
    name: str,
    epochs: Optional[int] = None,
    cache_dir: Optional[Path] = None,
    force: bool = False,
) -> Module:
    """Train (or load) the pre-trained version of a registry model.

    Weights are cached as ``.npz`` files keyed by model name and epoch count,
    so the expensive training happens at most once per environment.
    """
    spec = get_spec(name)
    epochs = epochs if epochs is not None else default_epochs(spec)
    cache_dir = Path(cache_dir) if cache_dir is not None else _DEFAULT_CACHE
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = _cache_path(spec, epochs, cache_dir)

    model = spec.build()
    memory_key = (spec.name, epochs)
    if not force and memory_key in _MEMORY_CACHE:
        model.load_state_dict(_MEMORY_CACHE[memory_key])
        model.eval()
        return model
    if not force and path.exists():
        state = {key: value for key, value in np.load(path).items()}
        try:
            model.load_state_dict(state)
        except (KeyError, ValueError):
            # Stale cache from an older architecture revision: retrain below.
            path.unlink(missing_ok=True)
        else:
            _MEMORY_CACHE[memory_key] = state
            model.eval()
            return model

    if spec.family == "llm":
        corpus = build_text_corpus()
        batches = corpus.train_batches(batch_size=16, rng=np.random.default_rng(0))
        train_language_model(model, batches, epochs=epochs)
    else:
        dataset = build_dataset(spec.dataset)
        config = TrainingConfig(epochs=epochs)
        train_classifier(model, dataset, config)

    # Give the checkpoint the per-channel weight-range diversity of real
    # pre-trained models (function-preserving, see repro.nn.rebalance).
    rebalance_channel_scales(model, sigma=REBALANCE_SIGMA, seed=977)

    state = model.state_dict()
    np.savez(path, **state)
    _MEMORY_CACHE[memory_key] = state
    model.eval()
    return model


def default_epochs(spec: ModelSpec) -> int:
    """Default pre-training budget per model family."""
    if spec.family == "llm":
        return 6
    if spec.family == "transformer":
        return 14
    return 8


def get_pretrained(name: str) -> Module:
    """Return the cached pre-trained model (training it on first use)."""
    return pretrain_model(name)


def get_dataset_for(name: str) -> SyntheticImageDataset:
    """Return the dataset a vision registry model was pre-trained on."""
    spec = get_spec(name)
    if spec.family == "llm":
        raise ValueError("tiny_lm uses the text corpus, not an image dataset")
    return build_dataset(spec.dataset)
