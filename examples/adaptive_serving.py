"""Adaptive inference serving under a fluctuating request trace (Figure 9 scenario).

The script builds a latency profile for ViT-Base on the A6000 model (the
Figure 8 sweep), then replays a bursty request trace whose peak rate is three
times its minimum.  FlexiQ's controller watches the observed request rate and
raises the 4-bit channel ratio whenever the profiled latency exceeds the
target; the resulting latency and effective accuracy are compared against
fixed INT8 and INT4 deployments.

Everything below runs on the unified serving engine
(:mod:`repro.serving.engine`): fixed deployments are a ``ModeledExecutor``
with a ``FixedRatioPolicy``, the adaptive deployment wraps the controller in
an ``AdaptiveRatioPolicy`` (``controller.as_policy``) -- swap in a
``RuntimeExecutor`` to drive a prepared ``FlexiQModel`` with real measured
batch latencies under the same API.

Run with:  python examples/adaptive_serving.py
"""

from __future__ import annotations

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

# Per-ratio accuracy of ViT-Base from the paper's Table 2 (finetuned row);
# used to report the effective accuracy of the adaptive deployment.
VIT_B_ACCURACY = {0.0: 84.72, 0.25: 84.63, 0.5: 84.67, 0.75: 84.42, 1.0: 83.81}


def main() -> None:
    service = ServiceTimeModel("vit_base", gpu="a6000", anchor_batches=(1, 16, 64, 128))

    def serve(trace, policy, mode="flexiq", max_batch=128):
        # The profile and the fixed deployments batch up to 128; the adaptive
        # deployment runs at the engine's default cap.
        engine = ServingEngine(BatchingConfig(max_batch=max_batch))
        engine.register("vit_base", ModeledExecutor(service), policy=policy, mode=mode)
        return engine.run(trace)

    print("Profiling latency vs request rate for each 4-bit ratio (Figure 8 sweep)...")
    rates = [200, 600, 1000, 1400, 1800, 2200, 2600, 3000]

    def profiled_latency(ratio: float, rate: float) -> float:
        trace = PoissonTrace(max(rate, 1), duration=2.0, seed=3).generate()
        return serve(trace, FixedRatioPolicy(ratio)).median_latency

    profile = build_profile_from_latency_fn(rates, [0.0, 0.25, 0.5, 0.75, 1.0], profiled_latency)

    print("Replaying a fluctuating trace (min 800 req/s, peak 3x) with adaptation...")
    trace = FluctuatingTrace(min_rate=800, peak_ratio=3.0, duration=30.0, seed=9).generate()
    controller = AdaptiveRatioController(profile, latency_threshold=0.040)
    policy = controller.as_policy(control_window=1.0)
    adaptive_result = serve(trace, policy, max_batch=BatchingConfig().max_batch)

    int8 = serve(trace, FixedRatioPolicy(0.0), mode="int8")
    int4 = serve(trace, FixedRatioPolicy(0.0), mode="int4")

    rows = [
        ["FlexiQ adaptive", adaptive_result.median_latency * 1e3,
         adaptive_result.p90_latency * 1e3,
         _effective_accuracy(policy.window_ratios, VIT_B_ACCURACY)],
        ["INT8 fixed", int8.median_latency * 1e3, int8.p90_latency * 1e3,
         VIT_B_ACCURACY[0.0]],
        ["INT4 fixed", int4.median_latency * 1e3, int4.p90_latency * 1e3,
         VIT_B_ACCURACY[1.0]],
    ]
    print(format_table(
        ["deployment", "median (ms)", "p90 (ms)", "effective accuracy (%)"],
        rows, precision=2,
        title="\nFluctuating-load serving (ViT-Base, A6000 model)",
    ))

    print("\nRatio timeline (one line per control window):")
    for entry in policy.timeline[:12]:
        print(
            f"  t={entry['start']:5.1f}s  rate={entry['rate']:7.1f} req/s  "
            f"4-bit ratio={entry['ratio']:.2f}"
        )
    print(f"  ... average ratio over the trace: {policy.average_ratio:.2f}")


if __name__ == "__main__":
    main()
