"""Section 8.5: cost of the evolutionary search and of runtime ratio switching.

The paper reports that (a) error-score estimation plus seeding takes seconds,
(b) the GA itself stays within typical PTQ processing time, and (c) switching
the deployed 4-bit ratio costs microseconds because it only updates one
variable per layer.  This bench measures all three on the reproduction and
additionally reports the modelled switch cost on the GPU and NPU.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis.reports import format_table
from repro.core.scoring import estimate_channel_scores
from repro.hardware.gpu import GpuLatencyModel
from repro.hardware.npu import NpuLatencyModel


def test_sec85_selection_and_switch_cost(
    benchmark, bundles, flexiq_runtimes, timings_writer
):
    model_name = "vit_small"
    runtime = flexiq_runtimes[(model_name, "evolutionary", False)]

    # (a) score estimation cost.
    start = time.perf_counter()
    estimate_channel_scores(
        runtime.model, layer_names=list(runtime.layout_plan.layouts)
    )
    scoring_seconds = time.perf_counter() - start

    # (c) ratio switching: benchmark the actual runtime operation.
    ratios = runtime.available_ratios

    def switch_all():
        for ratio in ratios:
            runtime.set_ratio(ratio)

    benchmark(switch_all)
    runtime.set_ratio(0.0)
    switch_seconds = benchmark.stats.stats.mean / len(ratios)

    pipeline = runtime.pipeline
    history = pipeline.selection_histories
    rows = [
        ["score estimation (s)", scoring_seconds],
        ["GA generations per ratio", len(next(iter(history.values()))) - 1],
        ["ratio switch, this runtime (us)", switch_seconds * 1e6],
        ["ratio switch, GPU model (us)", GpuLatencyModel("a6000").ratio_switch_latency() * 1e6],
        ["ratio switch, NPU model (us)", NpuLatencyModel().ratio_switch_latency() * 1e6],
    ]
    text = format_table(
        ["quantity", "value"], rows, precision=4,
        title="Section 8.5 -- selection cost and runtime ratio-switch overhead (ViT-S family)",
    )
    timings_writer("sec85_selection_cost", text)

    # The two measured host times above are reported, not gated: tier-1
    # holds no timing threshold (bench/ tracks the ratio switch as
    # core.runtime.set_ratio_p50_us and the pipeline as core.pipeline.run_s).
    # GA fitness improved (or at worst stayed flat) over the generations.
    for ratio, losses in history.items():
        assert losses[-1] <= losses[0] + 1e-6
    # The modelled hardware switch costs match the paper's bounds.
    assert GpuLatencyModel("a6000").ratio_switch_latency() < 10e-6
    assert NpuLatencyModel().ratio_switch_latency() <= 0.3e-6 + 1e-12
