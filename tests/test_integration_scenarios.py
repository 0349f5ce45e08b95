"""Cross-module integration scenarios.

These tests wire several subsystems together the way the examples and
benchmarks do: quantization pipeline -> hardware latency model -> serving
simulation -> adaptive control, exercising the interfaces between packages
rather than any single module.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.controller import AdaptiveRatioController, build_profile_from_latency_fn
from repro.data.traces import FluctuatingTrace, PoissonTrace
from repro.hardware.gpu import GpuLatencyModel
from repro.hardware.memory import flexiq_footprint, uniform_footprint
from repro.hardware.npu import NpuLatencyModel
from repro.hardware.workloads import model_ops
from repro.serving.adaptation import _effective_accuracy
from repro.serving.engine import BatchingConfig, ServingEngine
from repro.serving.executors import ModeledExecutor
from repro.serving.policies import FixedRatioPolicy
from repro.serving.simulator import ServiceTimeModel
from repro.tensor import Tensor, no_grad
from repro.train.loop import evaluate_accuracy


class TestPipelineToHardware:
    def test_selection_ratios_drive_per_layer_latency(self, flexiq_runtime):
        """The per-layer 4-bit fractions chosen by the pipeline can be replayed
        through the GPU latency model via per_layer_ratio overrides."""
        gpu = GpuLatencyModel("a6000")
        ops = model_ops("vit_base", 16)
        quantizable = [op.name for op in ops if op.quantizable and op.kind == "gemm"]

        flexiq_runtime.set_ratio(0.5)
        fractions = list(flexiq_runtime.per_layer_4bit_fraction().values())
        flexiq_runtime.set_ratio(0.0)
        # Broadcast the (small) model's fractions onto the paper-scale op list.
        per_layer = {
            name: fractions[i % len(fractions)] for i, name in enumerate(quantizable)
        }
        uniform_half = gpu.model_latency(ops, "flexiq", four_bit_ratio=0.5)
        replayed = gpu.model_latency(ops, "flexiq", per_layer_ratio=per_layer)
        int8 = gpu.model_latency(ops, "int8")
        int4 = gpu.model_latency(ops, "int4")
        assert int4 <= replayed <= int8
        assert replayed == pytest.approx(uniform_half, rel=0.25)

    def test_average_bits_consistent_with_memory_model(self, flexiq_runtime):
        """average_weight_bits at ratio r matches the footprint interpolation."""
        flexiq_runtime.set_ratio(1.0)
        bits_full = flexiq_runtime.average_weight_bits()
        flexiq_runtime.set_ratio(0.0)
        bits_zero = flexiq_runtime.average_weight_bits()
        assert bits_zero == pytest.approx(8.0)
        # First/last layers stay 8-bit, so the full-ratio average stays above 4.
        assert 4.0 < bits_full < 8.0
        ops = model_ops("vit_base", 1)
        flexi = flexiq_footprint(ops, 0.0, 1.0)
        int8 = uniform_footprint(ops, 8)
        assert flexi.weight_bytes == pytest.approx(int8.weight_bytes)

    def test_npu_and_gpu_agree_on_ordering(self):
        """Both hardware models agree that more 4-bit channels means less time."""
        ops = model_ops("resnet18", 1)
        gpu = GpuLatencyModel("rtx3090")
        npu = NpuLatencyModel()
        gpu_series = [gpu.model_latency(ops, "flexiq", r) for r in (0.0, 0.5, 1.0)]
        npu_series = [npu.model_latency(ops, four_bit_ratio=r) for r in (0.0, 0.5, 1.0)]
        assert gpu_series[0] > gpu_series[1] > gpu_series[2]
        assert npu_series[0] > npu_series[1] > npu_series[2]


class TestAccuracyLatencyTradeoff:
    def test_runtime_sweep_feeds_adaptive_serving(self, flexiq_runtime, mlp_dataset):
        """End to end: measure per-ratio accuracy of a real FlexiQ runtime, build
        a latency profile from the serving simulator, adapt under a bursty
        trace, and report an effective accuracy between the extremes."""
        from repro.core.pipeline import evaluate_ratio_sweep

        accuracy_by_ratio = evaluate_ratio_sweep(flexiq_runtime, mlp_dataset)

        service = ServiceTimeModel("vit_small", gpu="a6000", anchor_batches=(1, 16, 64))
        rates = [500, 1500, 3000, 4500]

        def serve(trace, policy):
            engine = ServingEngine(BatchingConfig(max_batch=64))
            engine.register(service.model_name, ModeledExecutor(service), policy=policy)
            return engine.run(trace)

        def latency_fn(ratio, rate):
            trace = PoissonTrace(rate, duration=1.5, seed=5).generate()
            return serve(trace, FixedRatioPolicy(ratio)).median_latency

        profile = build_profile_from_latency_fn(
            rates, sorted(accuracy_by_ratio), latency_fn
        )
        controller = AdaptiveRatioController(profile, latency_threshold=0.02)
        policy = controller.as_policy(control_window=1.0)
        trace = FluctuatingTrace(min_rate=1200, peak_ratio=3.0, duration=12.0, seed=7).generate()
        result = serve(trace, policy)
        effective_accuracy = _effective_accuracy(policy.window_ratios, accuracy_by_ratio)

        accuracies = list(accuracy_by_ratio.values())
        assert min(accuracies) - 1e-6 <= effective_accuracy <= max(accuracies) + 1e-6
        assert result.latencies.size == len(trace)

    def test_quantized_models_share_float_interface(self, flexiq_runtime, trained_mlp,
                                                     mlp_dataset):
        """Float, INT8-configured and 4-bit-configured models expose the same
        call interface and produce aligned predictions on easy samples."""
        x = Tensor(mlp_dataset.test_images[:8])
        with no_grad():
            float_pred = trained_mlp(x).data.argmax(axis=-1)
            flexiq_runtime.set_ratio(0.0)
            int8_pred = flexiq_runtime(x).data.argmax(axis=-1)
            flexiq_runtime.set_ratio(1.0)
            low_pred = flexiq_runtime(x).data.argmax(axis=-1)
            flexiq_runtime.set_ratio(0.0)
        assert (float_pred == int8_pred).mean() >= 0.75
        assert low_pred.shape == float_pred.shape

    def test_accuracy_latency_pareto(self, flexiq_conv_runtime, tiny_dataset):
        """Higher ratios are never slower (latency model) and the accuracy
        degradation stays bounded -- i.e. the trade-off curve is well formed."""
        from repro.core.pipeline import evaluate_ratio_sweep

        sweep = evaluate_ratio_sweep(flexiq_conv_runtime, tiny_dataset)
        gpu = GpuLatencyModel("a6000")
        ops = model_ops("resnet18", 1)
        points = []
        for ratio, accuracy in sorted(sweep.items()):
            latency = gpu.model_latency(ops, "flexiq", four_bit_ratio=ratio)
            points.append((latency, accuracy))
        latencies = [p[0] for p in points]
        assert all(b <= a + 1e-12 for a, b in zip(latencies, latencies[1:]))
        accuracies = [p[1] for p in points]
        assert max(accuracies) - min(accuracies) < 60.0
