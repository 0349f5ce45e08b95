"""Figure 9: median latency under fluctuating request traces with adaptation.

A fluctuating request trace (peak rate = 3x the minimum, following the Azure
trace statistics cited by the paper) drives a ViT-Base deployment.  FlexiQ
monitors the observed request rate and adjusts the 4-bit ratio whenever the
profiled latency exceeds a threshold; the resulting median latency is
compared against fixed INT8 and INT4 deployments, and the effective accuracy
is the time-average of the per-ratio accuracies (Table 2).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.reports import format_table
from repro.core.controller import AdaptiveRatioController, build_profile_from_latency_fn
from repro.data.traces import FluctuatingTrace, PoissonTrace
from repro.serving import (
    BatchingConfig,
    FixedRatioPolicy,
    ModeledExecutor,
    ServiceTimeModel,
    ServingEngine,
)
from repro.serving.adaptation import _effective_accuracy

# Accuracy of ViT-Base at each ratio, as reported in the paper's Table 2
# (finetuned row); used to compute the effective accuracy of adaptation.
PAPER_VIT_B_ACCURACY = {0.0: 84.72, 0.25: 84.63, 0.5: 84.67, 0.75: 84.42, 1.0: 83.81}


def test_fig9_adaptive_ratio_under_fluctuating_load(benchmark, results_writer):
    service = ServiceTimeModel("vit_base", gpu="a6000", anchor_batches=(1, 16, 64, 128))

    def serve(trace, policy, mode="flexiq", max_batch=128):
        # The profile and the fixed deployments batch up to 128; the adaptive
        # deployment runs at the engine's default cap.
        engine = ServingEngine(BatchingConfig(max_batch=max_batch))
        engine.register("vit_base", ModeledExecutor(service), policy=policy, mode=mode)
        return engine.run(trace)

    profile_rates = [200, 600, 1000, 1400, 1800, 2200, 2600, 3000]

    def profiled_latency(ratio, rate):
        trace = PoissonTrace(max(rate, 1), duration=2.0, seed=3).generate()
        return serve(trace, FixedRatioPolicy(ratio)).median_latency

    profile = build_profile_from_latency_fn(
        profile_rates, [0.0, 0.25, 0.5, 0.75, 1.0], profiled_latency
    )
    trace = FluctuatingTrace(min_rate=800, peak_ratio=3.0, duration=30.0, seed=9).generate()

    def run_adaptive():
        controller = AdaptiveRatioController(profile, latency_threshold=0.040)
        policy = controller.as_policy(control_window=1.0)
        return serve(trace, policy, max_batch=BatchingConfig().max_batch), policy

    adaptive_result, policy = benchmark.pedantic(run_adaptive, rounds=1, iterations=1)
    effective_accuracy = _effective_accuracy(policy.window_ratios, PAPER_VIT_B_ACCURACY)
    int8_result = serve(trace, FixedRatioPolicy(0.0), mode="int8")
    int4_result = serve(trace, FixedRatioPolicy(0.0), mode="int4")

    rows = [
        ["FlexiQ adaptive", adaptive_result.median_latency * 1e3, effective_accuracy],
        ["INT8 fixed", int8_result.median_latency * 1e3, PAPER_VIT_B_ACCURACY[0.0]],
        ["INT4 fixed", int4_result.median_latency * 1e3, PAPER_VIT_B_ACCURACY[1.0]],
    ]
    text = format_table(
        ["deployment", "median latency (ms)", "effective accuracy (%)"], rows, precision=2,
        title=(
            "Figure 9 -- fluctuating trace (min 800 rps, peak 3x), ViT-Base on A6000\n"
            f"average 4-bit ratio under adaptation: {policy.average_ratio:.2f}"
        ),
    )
    results_writer("fig9_adaptive_serving", text)

    # The controller actually adapted (used more than one ratio).
    assert len({entry["ratio"] for entry in policy.timeline}) > 1
    # Adaptive FlexiQ keeps latency well below the fixed INT8 deployment...
    assert adaptive_result.median_latency < 0.5 * int8_result.median_latency
    # ...while staying within reach of the INT4 deployment.
    assert adaptive_result.median_latency <= int4_result.median_latency * 3.0
    # Effective accuracy stays close to the INT8 accuracy (within ~0.5%).
    assert effective_accuracy >= PAPER_VIT_B_ACCURACY[1.0]
    assert effective_accuracy >= PAPER_VIT_B_ACCURACY[0.0] - 0.5
