"""Shared fixtures for the benchmark harnesses.

Every benchmark regenerates one table or figure of the paper: it prints the
paper-style rows, writes them to ``benchmarks/results/`` (deterministic
tables, tracked) or ``benchmarks/out/`` (the one table carrying wall-clock
numbers, ``sec85_selection_cost.txt``; git-ignored, so a test run leaves the
tree clean) and uses pytest-benchmark to time the operation that the
experiment is really about (pipeline construction, a latency sweep, a
serving simulation, ...).  Those timings are printed, never asserted on: the
repo's perf record is ``bench/`` + ``BENCHMARK.json``.

Accuracy experiments run on a representative subset of the model zoo by
default so the full suite finishes in minutes on a CPU; set
``REPRO_FULL_EVAL=1`` to run every model of Table 1.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.core import FlexiQConfig, FlexiQPipeline
from repro.core.finetune import FinetuneConfig
from repro.core.runtime import FlexiQModel
from repro.core.selection import SelectionConfig
from repro.data import CalibrationSampler
from repro.train.pretrain import get_dataset_for, get_pretrained

RESULTS_DIR = Path(__file__).resolve().parent / "results"
TIMINGS_DIR = Path(__file__).resolve().parent / "out"

# Models exercised by the accuracy benchmarks when REPRO_FULL_EVAL is unset.
DEFAULT_ACCURACY_MODELS = ["resnet18", "resnet50", "vit_small", "swin_small"]

# Scaled-down GA settings used by the benchmarks (paper: population 50 / 50
# generations; see EXPERIMENTS.md for the scaling rationale).
BENCH_SELECTION = SelectionConfig(group_size=4, population_size=8, generations=5, seed=0)


def full_eval() -> bool:
    return os.environ.get("REPRO_FULL_EVAL", "0") not in ("", "0", "false")


def accuracy_models() -> List[str]:
    if full_eval():
        return [
            "resnet20", "resnet18", "resnet34", "resnet50", "mobilenet_v2",
            "vit_small", "vit_base", "deit_small", "deit_base",
            "swin_small", "swin_base",
        ]
    return list(DEFAULT_ACCURACY_MODELS)


def write_result(name: str, text: str, directory: Path = RESULTS_DIR) -> Path:
    """Persist a rendered table under ``directory`` and echo it."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.txt"
    path.write_text(text + "\n")
    print("\n" + text)
    return path


@pytest.fixture(scope="session")
def results_writer():
    return write_result


@pytest.fixture(scope="session")
def timings_writer():
    """Like ``results_writer`` for tables that contain measured host time."""
    return functools.partial(write_result, directory=TIMINGS_DIR)


class ModelBundle:
    """Pre-trained model + dataset + calibration sampler for one zoo entry."""

    def __init__(self, name: str):
        self.name = name
        self.model = get_pretrained(name)
        self.dataset = get_dataset_for(name)
        from repro.nn.registry import get_spec

        spec = get_spec(name)
        self.spec = spec
        self.calibration = CalibrationSampler(
            self.dataset.train_images, size=spec.calibration_size, batch_size=32, seed=0
        )


@pytest.fixture(scope="session")
def bundles() -> Dict[str, ModelBundle]:
    """Lazily constructed model bundles, shared across all benchmarks."""
    cache: Dict[str, ModelBundle] = {}

    class _Bundles(dict):
        def __missing__(self, name: str) -> ModelBundle:
            bundle = ModelBundle(name)
            self[name] = bundle
            return bundle

    return _Bundles(cache)


@pytest.fixture(scope="session")
def flexiq_runtimes(bundles) -> Dict[Tuple[str, str, bool], FlexiQModel]:
    """Cache of FlexiQ runtimes keyed by (model, selection strategy, finetuned)."""

    class _Runtimes(dict):
        def __missing__(self, key: Tuple[str, str, bool]) -> FlexiQModel:
            name, selection, finetuned = key
            bundle = bundles[name]
            config = FlexiQConfig(
                ratios=(0.25, 0.5, 0.75, 1.0),
                group_size=4,
                selection=selection,
                selection_config=BENCH_SELECTION,
                finetune=finetuned,
                finetune_config=FinetuneConfig(epochs=1, learning_rate=5e-3),
            )
            pipeline = FlexiQPipeline(
                bundle.model,
                bundle.calibration.all(),
                config,
                finetune_dataset=bundle.dataset if finetuned else None,
            )
            runtime = pipeline.run()
            runtime.pipeline = pipeline  # keep selections/scores reachable
            self[key] = runtime
            return runtime

    return _Runtimes()
