"""Tests for the unified serving engine (executors, policies, registry).

Covers three layers:

* **Seed equivalence** — reference copies of the seed's two discrete-event
  loops (fixed-ratio/scheduled serving and the windowed adaptive run) live
  in this file, and a K=1 FIFO :class:`ServingEngine` must reproduce their
  latencies bit-for-bit on fixed traces.
* **Engine API** — request/response surface, multi-model registry,
  head-of-line batching, policies.
* **Real execution** — :class:`RuntimeExecutor` serving prepared FlexiQ
  runtimes end-to-end, with heterogeneous-ratio batches and no prepared-
  kernel rebuilds (the PR 1 single-variable-update claim).
"""

from __future__ import annotations

import bisect

import numpy as np
import pytest

from repro.core.controller import AdaptiveRatioController, build_profile_from_latency_fn
from repro.core.prepared import PreparedKernel
from repro.data.traces import FluctuatingTrace, PoissonTrace, RequestTrace
from repro.obs import BurnRateRule
from repro.serving.adaptation import _effective_accuracy
from repro.serving import resilience
from repro.serving.cluster import ClusterEngine, ServerSpec
from repro.serving.engine import (
    Batch,
    BatchingConfig,
    Request,
    ServingEngine,
    requests_from_trace,
)
from repro.serving.executors import ModeledExecutor, RuntimeExecutor
from repro.serving.placement import ModelAffinityPlacer
from repro.serving.policies import (
    AdaptiveRatioPolicy,
    DecodePressureRatioPolicy,
    FixedRatioPolicy,
    PerServerAdaptiveRatioPolicy,
    QueueDepthRatioPolicy,
    RatioSchedulePolicy,
    RoundRobinRatioPolicy,
)
from repro.serving.schedulers import EdfScheduler, FifoScheduler, PriorityScheduler
from repro.serving.simulator import ServiceTimeModel
from repro.serving.telemetry import TelemetryBus
from repro.tensor import Tensor


# ----------------------------------------------------------------------
# Reference implementations (verbatim seed algorithms)
# ----------------------------------------------------------------------
def seed_serving_run(service_model, batching, trace, mode, ratio=0.0, ratio_schedule=None):
    """The seed simulator's serving loop, kept as the equivalence oracle.

    The ``drop_after=None`` arithmetic is the seed algorithm verbatim.  The
    drop branch models the PR 3 corrected semantics: the seed computed the
    batch window *before* filtering expired requests, so drops consumed
    batch slots and batches ran under capacity exactly when the queue was
    backed up; the fix drops the expired prefix first (arrivals are sorted,
    so expired requests always form a prefix of the arrived window) and then
    fills the batch from what remains (backfill).
    """
    arrivals = np.sort(np.asarray(trace.arrival_times, dtype=np.float64))
    num_requests = len(arrivals)
    latencies = np.zeros(num_requests, dtype=np.float64)
    batch_sizes = []
    dropped = 0

    server_free_at = 0.0
    index = 0
    max_batch = batching.max_batch
    drop_after = batching.drop_after

    while index < num_requests:
        first_arrival = arrivals[index]
        start = max(server_free_at, first_arrival)
        end_index = bisect.bisect_right(arrivals, start, lo=index)

        if drop_after is not None:
            # The seed's exact per-element predicate; expired requests form
            # a prefix of the (sorted) arrived window.
            expired = (start - arrivals[index:end_index]) > drop_after
            fresh = index + int(expired.sum())
            if fresh > index:
                dropped += fresh - index
                latencies[index:fresh] = np.nan
                index = fresh
                if index >= end_index:
                    continue

        batch_end = min(end_index, index + max_batch)
        if batch_end == index:
            batch_end = index + 1

        batch_indices = np.arange(index, batch_end)
        batch_size = len(batch_indices)
        current_ratio = ratio_schedule(start) if ratio_schedule else ratio
        service_time = service_model.batch_latency(batch_size, mode, current_ratio)
        finish = start + service_time
        latencies[batch_indices] = finish - arrivals[batch_indices]
        batch_sizes.append(batch_size)
        server_free_at = finish
        index = batch_end

    return latencies[~np.isnan(latencies)], batch_sizes, dropped


def seed_adaptive_run(service_model, controller, batching, control_window, trace):
    """The seed adaptive simulator's window loop."""
    num_windows = int(np.ceil(trace.duration / control_window))
    window_ratios = np.zeros(num_windows, dtype=np.float64)
    timeline = []
    for window in range(num_windows):
        start = window * control_window
        end = min(start + control_window, trace.duration)
        observed_rate = trace.rate_in_window(start, end)
        ratio = controller.update(observed_rate)
        window_ratios[window] = ratio
        timeline.append({"start": start, "rate": observed_rate, "ratio": ratio})

    def ratio_schedule(time):
        window = min(int(time / control_window), num_windows - 1)
        return float(window_ratios[window])

    latencies, _, _ = seed_serving_run(
        service_model, batching, trace, "flexiq", ratio_schedule=ratio_schedule
    )
    return latencies, window_ratios, timeline


@pytest.fixture(scope="module")
def service_model():
    return ServiceTimeModel("vit_base", gpu="a6000", anchor_batches=(1, 16, 64, 128))


def serve(service_model, batching, trace, mode, ratio=0.0, policy=None):
    """The engine configured as the seed simulator was: K=1, FIFO, modeled."""
    engine = ServingEngine(batching)
    engine.register(
        service_model.model_name,
        ModeledExecutor(service_model),
        policy=policy or FixedRatioPolicy(ratio),
        mode=mode,
    )
    return engine.run(trace)


@pytest.fixture(scope="module")
def latency_profile(service_model):
    batching = BatchingConfig(max_batch=128)
    rates = [200, 600, 1000, 1600, 2200, 2800]

    def latency_fn(ratio, rate):
        trace = PoissonTrace(max(rate, 1), duration=2.0, seed=11).generate()
        return serve(service_model, batching, trace, "flexiq", ratio).median_latency

    return build_profile_from_latency_fn(rates, [0.0, 0.25, 0.5, 0.75, 1.0], latency_fn)


# ----------------------------------------------------------------------
# Equivalence with the seed implementations
# ----------------------------------------------------------------------
class TestWrapperEquivalence:
    @pytest.mark.parametrize(
        "mode,ratio", [("int8", 0.0), ("int4", 0.0), ("flexiq", 0.5), ("flexiq", 1.0)]
    )
    def test_fixed_ratio_bit_identical(self, service_model, mode, ratio):
        batching = BatchingConfig(max_batch=128)
        trace = PoissonTrace(1800, duration=4.0, seed=17).generate()
        expected, expected_batches, expected_dropped = seed_serving_run(
            service_model, batching, trace, mode, ratio=ratio
        )
        result = serve(service_model, batching, trace, mode, ratio=ratio)
        np.testing.assert_array_equal(result.latencies, expected)
        assert result.batch_sizes == expected_batches
        assert result.dropped == expected_dropped

    def test_small_batch_cap_bit_identical(self, service_model):
        batching = BatchingConfig(max_batch=16)
        trace = PoissonTrace(2000, duration=2.0, seed=3).generate()
        expected, expected_batches, _ = seed_serving_run(
            service_model, batching, trace, "int4"
        )
        result = serve(service_model, batching, trace, "int4")
        np.testing.assert_array_equal(result.latencies, expected)
        assert result.batch_sizes == expected_batches

    def test_drop_after_bit_identical(self, service_model):
        batching = BatchingConfig(max_batch=8, drop_after=0.05)
        trace = PoissonTrace(3000, duration=2.0, seed=4).generate()
        expected, expected_batches, expected_dropped = seed_serving_run(
            service_model, batching, trace, "int8"
        )
        result = serve(service_model, batching, trace, "int8")
        np.testing.assert_array_equal(result.latencies, expected)
        assert result.batch_sizes == expected_batches
        assert result.dropped == expected_dropped > 0

    def test_ratio_schedule_bit_identical(self, service_model):
        batching = BatchingConfig(max_batch=64)
        trace = PoissonTrace(1500, duration=3.0, seed=6).generate()
        schedule = lambda t: 1.0 if t > 1.5 else 0.25  # noqa: E731
        expected, _, _ = seed_serving_run(
            service_model, batching, trace, "flexiq", ratio_schedule=schedule
        )
        result = serve(
            service_model, batching, trace, "flexiq",
            policy=RatioSchedulePolicy(schedule),
        )
        np.testing.assert_array_equal(result.latencies, expected)

    def test_adaptive_bit_identical(self, service_model, latency_profile):
        batching = BatchingConfig(max_batch=128)
        trace = FluctuatingTrace(
            min_rate=800, peak_ratio=3.0, duration=20.0, seed=5
        ).generate()
        # Two fresh controllers: the controller is stateful, so the oracle and
        # the engine each need their own copy of the same starting state.
        seed_controller = AdaptiveRatioController(latency_profile, latency_threshold=0.05)
        new_controller = AdaptiveRatioController(latency_profile, latency_threshold=0.05)

        expected, window_ratios, timeline = seed_adaptive_run(
            service_model, seed_controller, batching, 1.0, trace
        )
        policy = new_controller.as_policy(control_window=1.0)
        result = serve(service_model, batching, trace, "flexiq", policy=policy)

        np.testing.assert_array_equal(result.latencies, expected)
        assert policy.timeline == timeline
        assert policy.average_ratio == pytest.approx(float(np.mean(window_ratios)))


class TestBatchingConfigDefaults:
    def test_engine_fresh_batching(self):
        assert ServingEngine().batching is not ServingEngine().batching


class TestEffectiveAccuracy:
    def _loop_reference(self, window_ratios, accuracy_by_ratio):
        ratios = np.asarray(sorted(accuracy_by_ratio))
        accuracies = np.asarray([accuracy_by_ratio[r] for r in ratios])
        values = []
        for ratio in window_ratios:
            index = int(np.argmin(np.abs(ratios - ratio)))
            values.append(accuracies[index])
        return float(np.mean(values)) if values else float("nan")

    def test_matches_loop_reference(self):
        table = {0.0: 84.7, 0.25: 84.6, 0.5: 84.5, 0.75: 84.4, 1.0: 83.8}
        rng = np.random.default_rng(0)
        ratios = rng.uniform(-0.2, 1.2, size=257)
        assert _effective_accuracy(ratios, table) == pytest.approx(
            self._loop_reference(ratios, table)
        )

    def test_tie_breaks_to_lower_ratio(self):
        # 0.25 is equidistant from 0.0 and 0.5: both must pick the lower one.
        table = {0.0: 90.0, 0.5: 80.0}
        ratios = np.asarray([0.25])
        assert _effective_accuracy(ratios, table) == self._loop_reference(ratios, table) == 90.0

    def test_empty_windows(self):
        assert np.isnan(_effective_accuracy(np.zeros(0), {0.0: 84.0}))


# ----------------------------------------------------------------------
# Engine API
# ----------------------------------------------------------------------
class TestServingEngineApi:
    def test_requires_exactly_one_input(self, service_model):
        engine = ServingEngine()
        engine.register("m", ModeledExecutor(service_model))
        trace = PoissonTrace(100, duration=0.5, seed=0).generate()
        with pytest.raises(ValueError):
            engine.run()
        with pytest.raises(ValueError):
            engine.run(trace=trace, requests=[Request(0.0, model="m")])

    def test_unregistered_model_rejected(self, service_model):
        engine = ServingEngine()
        engine.register("m", ModeledExecutor(service_model))
        with pytest.raises(KeyError):
            engine.run(requests=[Request(0.0, model="other")])

    def test_no_endpoints_rejected(self):
        trace = PoissonTrace(100, duration=0.5, seed=0).generate()
        with pytest.raises(RuntimeError):
            ServingEngine().run(trace=trace)

    def test_trace_needs_model_name_with_multiple_endpoints(self, service_model):
        engine = ServingEngine()
        engine.register("a", ModeledExecutor(service_model))
        engine.register("b", ModeledExecutor(service_model))
        trace = PoissonTrace(100, duration=0.5, seed=0).generate()
        with pytest.raises(ValueError):
            engine.run(trace=trace)
        assert engine.run(trace=trace, model="a").latencies.size == len(trace)

    def test_responses_recorded_for_requests(self, service_model):
        engine = ServingEngine(BatchingConfig(max_batch=4))
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        requests = [Request(arrival_time=0.001 * i, model="m", request_id=100 + i)
                    for i in range(10)]
        outcome = engine.run(requests=requests)
        assert outcome.responses is not None and len(outcome.responses) == 10
        for i, response in enumerate(outcome.responses):
            assert response.request_id == 100 + i
            assert response.model == "m"
            assert not response.dropped
            assert response.latency == pytest.approx(
                outcome.request_latencies[i]
            )
            assert response.finish_time >= response.start_time >= response.arrival_time

    def test_round_robin_policy_varies_ratio_per_batch(self, service_model):
        engine = ServingEngine(BatchingConfig(max_batch=8))
        engine.register(
            "m",
            ModeledExecutor(service_model),
            policy=RoundRobinRatioPolicy([0.0, 0.5, 1.0]),
        )
        trace = PoissonTrace(2000, duration=1.0, seed=1).generate()
        outcome = engine.run(trace=trace)
        assert len(outcome.batch_records) >= 3
        assert outcome.batch_ratios[:3] == [0.0, 0.5, 1.0]

    def test_multi_model_head_of_line_batching(self, service_model):
        fast = ServiceTimeModel("vit_base", gpu="a6000", anchor_batches=(1, 16, 64))
        engine = ServingEngine(BatchingConfig(max_batch=32))
        engine.register("a", ModeledExecutor(service_model), mode="int8")
        engine.register("b", ModeledExecutor(fast), mode="int4")
        requests = [
            Request(arrival_time=0.0005 * i, model=("a" if i % 3 else "b"))
            for i in range(300)
        ]
        outcome = engine.run(requests=requests)
        # Batches never mix models.
        for record in outcome.batch_records:
            assert record.model in ("a", "b")
        served_models = [r.model for r in outcome.responses]
        assert outcome.for_model("a").size == sum(m == "a" for m in served_models)
        assert outcome.for_model("b").size == sum(m == "b" for m in served_models)
        assert outcome.for_model("a").size + outcome.for_model("b").size == 300
        # Per-batch request counts add up too.
        assert sum(outcome.batch_sizes) == 300

    def test_model_arg_validated_on_requests_path(self, service_model):
        engine = ServingEngine()
        engine.register("a", ModeledExecutor(service_model))
        engine.register("b", ModeledExecutor(service_model))
        requests = [Request(0.0, model="a"), Request(0.001, model="b")]
        with pytest.raises(ValueError):
            engine.run(requests=requests, model="a")
        with pytest.raises(KeyError):
            engine.run(requests=[Request(0.0, model="a")], model="typo")
        assert engine.run(requests=[Request(0.0, model="a")], model="a").latencies.size == 1

    def test_requests_from_trace(self):
        trace = PoissonTrace(500, duration=1.0, seed=2).generate()
        payloads = [np.zeros((2,)), np.ones((2,))]
        requests = requests_from_trace(trace, model="m", payloads=payloads)
        assert len(requests) == len(trace)
        assert all(r.model == "m" for r in requests)
        arrivals = [r.arrival_time for r in requests]
        assert arrivals == sorted(arrivals)
        np.testing.assert_array_equal(requests[0].payload, payloads[0])
        np.testing.assert_array_equal(requests[1].payload, payloads[1])
        np.testing.assert_array_equal(requests[2].payload, payloads[0])


# ----------------------------------------------------------------------
# Real execution through RuntimeExecutor
# ----------------------------------------------------------------------
class TestRuntimeExecutor:
    def test_single_batch_outputs_match_direct_forward(self, flexiq_conv_runtime, tiny_dataset):
        images = tiny_dataset.test_images[:6]
        flexiq_conv_runtime.prepare(use_prepared=True)
        engine = ServingEngine(BatchingConfig(max_batch=8))
        engine.register(
            "conv",
            RuntimeExecutor(flexiq_conv_runtime),
            policy=FixedRatioPolicy(0.5),
        )
        requests = [
            Request(arrival_time=0.0, model="conv", payload=images[i])
            for i in range(len(images))
        ]
        outcome = engine.run(requests=requests)

        assert len(outcome.batch_records) == 1
        assert outcome.batch_records[0].size == len(images)
        assert outcome.batch_records[0].ratio == 0.5
        assert outcome.busy_time > 0.0

        flexiq_conv_runtime.set_ratio(0.5)
        expected = flexiq_conv_runtime(Tensor(images)).data
        for i, response in enumerate(outcome.responses):
            np.testing.assert_array_equal(response.output, expected[i])

    def test_heterogeneous_ratio_batches_no_kernel_rebuild(self, flexiq_conv_runtime, tiny_dataset):
        runtime = flexiq_conv_runtime
        runtime.prepare(use_prepared=True)
        ratios = runtime.available_ratios
        # Warm every ratio once so lazily built boundary planes exist before
        # the instrumented serving run.
        for ratio in ratios:
            runtime.forward_batch(tiny_dataset.test_images[:1], ratio=ratio)

        executor = RuntimeExecutor(runtime)
        engine = ServingEngine(BatchingConfig(max_batch=4))
        engine.register("conv", executor, policy=RoundRobinRatioPolicy(ratios))
        # Spread arrivals so the engine forms several small batches.
        trace = RequestTrace(arrival_times=np.linspace(0.0, 0.01, 12), duration=0.01)
        requests = requests_from_trace(
            trace, model="conv", payloads=tiny_dataset.test_images[:1]
        )

        builds_before = PreparedKernel.build_count
        planes_before = PreparedKernel.plane_build_count
        outcome = engine.run(requests=requests)

        assert PreparedKernel.build_count == builds_before, (
            "serving must not rebuild prepared kernels"
        )
        assert PreparedKernel.plane_build_count == planes_before, (
            "serving must not re-lower boundary planes"
        )
        assert executor.ratio_switches > 0
        assert len(set(outcome.batch_ratios)) > 1
        assert outcome.latencies.size == 12
        assert np.all(outcome.latencies > 0)

    def test_mode_overrides_ratio(self, flexiq_runtime, mlp_dataset):
        executor = RuntimeExecutor(flexiq_runtime)
        engine = ServingEngine(BatchingConfig(max_batch=4))
        engine.register("mlp", executor, policy=FixedRatioPolicy(0.5), mode="int4")
        trace = RequestTrace(arrival_times=np.zeros(4), duration=0.0)
        requests = requests_from_trace(trace, model="mlp", payloads=mlp_dataset.test_images[:1])
        outcome = engine.run(requests=requests)
        # "int4" pins the runtime to ratio 1.0 regardless of the policy, and
        # the batch records report the executed (pinned) ratio.
        assert flexiq_runtime.current_ratio == 1.0
        assert outcome.batch_ratios == [1.0]
        assert all(r.ratio == 1.0 for r in outcome.responses)
        # Simultaneous arrivals: the run spans the measured makespan, so
        # throughput is real requests/second rather than 0/0.
        assert outcome.duration > 0.0
        assert outcome.throughput > 0.0

    def test_forward_batch_resyncs_stale_layer_boundaries(self, flexiq_conv_runtime, tiny_dataset):
        runtime = flexiq_conv_runtime
        runtime.set_ratio(0.5)
        # Move one layer's boundary behind the model's back; current_ratio
        # still reads 0.5, but forward_batch must re-apply the ratio anyway.
        name, layer = next(
            (n, l) for n, l in runtime.flexiq_layers()
            if n in runtime.layout_plan.layouts
        )
        expected_boundary = layer.max_4bit_ch
        layer.set_boundary(layer.feature_channels)
        runtime.forward_batch(tiny_dataset.test_images[:1], ratio=0.5)
        assert layer.max_4bit_ch == expected_boundary

    def test_missing_payload_without_default_raises(self, flexiq_runtime):
        executor = RuntimeExecutor(flexiq_runtime)
        engine = ServingEngine()
        engine.register("mlp", executor)
        with pytest.raises(ValueError, match="position 0 has no payload"):
            engine.run(requests=[Request(0.0, model="mlp")])

    def test_mismatched_payload_shapes_name_the_position(self, flexiq_runtime, mlp_dataset):
        image = mlp_dataset.test_images[0]
        executor = RuntimeExecutor(flexiq_runtime)
        engine = ServingEngine(BatchingConfig(max_batch=4))
        engine.register("mlp", executor)
        requests = [
            Request(0.0, model="mlp", payload=image),
            Request(0.0, model="mlp", payload=image),
            Request(0.0, model="mlp", payload=image[:, :-1]),
        ]
        with pytest.raises(ValueError) as raised:
            engine.run(requests=requests)
        message = str(raised.value)
        assert "position 2" in message
        assert str(image.shape) in message and str(image[:, :-1].shape) in message

    def test_batch_is_stacked_and_cast_once(self, flexiq_runtime, mlp_dataset):
        image = mlp_dataset.test_images[0]
        executor = RuntimeExecutor(flexiq_runtime)
        requests = [
            Request(0.0, model="mlp", payload=image.astype(np.float64)),
            Request(0.0, model="mlp", payload=image.tolist()),
        ]
        x = executor._batch_input(
            Batch("mlp", 0.0, size=2, indices=np.arange(2), requests=requests)
        )
        assert x.dtype == np.float32 and x.shape == (2,) + image.shape
        assert np.array_equal(x[0], image) and np.array_equal(x[1], image)

    def test_multi_model_registry_real_execution(
        self, flexiq_runtime, flexiq_conv_runtime, mlp_dataset, tiny_dataset
    ):
        """Two prepared runtimes (own kernel caches) behind one engine."""
        engine = ServingEngine(BatchingConfig(max_batch=4))
        engine.register(
            "mlp",
            RuntimeExecutor(flexiq_runtime),
            policy=FixedRatioPolicy(0.25),
        )
        engine.register(
            "conv",
            RuntimeExecutor(flexiq_conv_runtime),
            policy=FixedRatioPolicy(1.0),
        )
        requests = [
            Request(
                arrival_time=0.001 * i,
                model=("mlp" if i % 2 else "conv"),
                payload=(mlp_dataset if i % 2 else tiny_dataset).test_images[0],
            )
            for i in range(16)
        ]
        outcome = engine.run(requests=requests)

        assert outcome.for_model("mlp").size == 8
        assert outcome.for_model("conv").size == 8
        for record in outcome.batch_records:
            expected_ratio = 0.25 if record.model == "mlp" else 1.0
            assert record.ratio == expected_ratio
        # Every response carries its model's classifier output.
        for response in outcome.responses:
            assert response.output.shape == (4,)

    def test_modeled_and_runtime_mixed_registry(self, service_model, flexiq_runtime, mlp_dataset):
        """Modeled and real executors are interchangeable under one engine."""
        engine = ServingEngine(BatchingConfig(max_batch=8))
        engine.register("modeled", ModeledExecutor(service_model), mode="int8")
        engine.register(
            "real",
            RuntimeExecutor(flexiq_runtime),
        )
        requests = [
            Request(
                arrival_time=0.002 * i,
                model=("modeled" if i % 2 else "real"),
                payload=mlp_dataset.test_images[0],
            )
            for i in range(12)
        ]
        outcome = engine.run(requests=requests)
        assert outcome.for_model("modeled").size == 6
        assert outcome.for_model("real").size == 6
        assert outcome.dropped == 0


# ----------------------------------------------------------------------
# Drop-path batching (PR 3 bugfix: drops must not consume batch slots)
# ----------------------------------------------------------------------
class TestDropBackfill:
    def test_batches_stay_full_while_queue_backed_up(self, service_model):
        """Under drop_after with a backlog, served batches run at capacity.

        The seed computed the batch window before the drop filter, so a
        batch that dropped k expired requests served only max_batch - k; the
        backlog then cleared slower, causing even more drops.
        """
        batching = BatchingConfig(max_batch=8, drop_after=0.05)
        trace = PoissonTrace(3000, duration=2.0, seed=4).generate()
        result = serve(service_model, batching, trace, "int8")
        assert result.dropped > 0
        assert len(result.latencies) + result.dropped == len(trace)
        # Whenever requests were dropped the queue was backed up, so every
        # batch formed while dropping must be full.
        sizes = np.asarray(result.batch_sizes)
        assert (sizes == 8).mean() > 0.9  # backlogged from early on
        # Backfill serves strictly more requests than the seed's slot-wasting
        # arithmetic did on this trace (1525 of 5969).
        assert len(result.latencies) > 1525

    def test_drop_after_none_unchanged(self, service_model):
        """No drops configured: arithmetic must stay the verbatim seed loop."""
        batching = BatchingConfig(max_batch=8)
        trace = PoissonTrace(3000, duration=1.0, seed=4).generate()
        expected, expected_batches, expected_dropped = seed_serving_run(
            service_model, batching, trace, "int8"
        )
        result = serve(service_model, batching, trace, "int8")
        np.testing.assert_array_equal(result.latencies, expected)
        assert result.batch_sizes == expected_batches
        assert expected_dropped == result.dropped == 0

    def test_dropped_responses_recorded_with_own_model(self, service_model):
        """Multi-model + drop_after + record_responses interaction."""
        fast = ServiceTimeModel("vit_base", gpu="a6000", anchor_batches=(1, 16, 64))
        engine = ServingEngine(BatchingConfig(max_batch=4, drop_after=0.01))
        engine.register("a", ModeledExecutor(service_model), mode="int8")
        engine.register("b", ModeledExecutor(fast), mode="int4")
        requests = [
            Request(arrival_time=0.0002 * i, model=("a" if i % 3 else "b"))
            for i in range(400)
        ]
        outcome = engine.run(requests=requests, record_responses=True)
        assert outcome.dropped > 0
        dropped_responses = [r for r in outcome.responses if r.dropped]
        assert len(dropped_responses) == outcome.dropped
        for i, response in enumerate(outcome.responses):
            assert response is not None
            assert response.model == requests[i].model
            if response.dropped:
                # Dropped responses carry their own model's mode and NaN
                # timing, and the latency slot is NaN too.
                assert response.mode == ("int8" if response.model == "a" else "int4")
                assert np.isnan(response.finish_time)
                assert np.isnan(outcome.request_latencies[i])
            else:
                assert response.finish_time >= response.start_time
        # for_model only reports served latencies; served + dropped covers
        # every admitted request.
        served = outcome.for_model("a").size + outcome.for_model("b").size
        assert served + outcome.dropped == len(requests)
        per_model_dropped = {
            m: sum(1 for r in dropped_responses if r.model == m) for m in ("a", "b")
        }
        assert outcome.for_model("a").size + per_model_dropped["a"] == sum(
            1 for r in requests if r.model == "a"
        )
        assert outcome.for_model("b").size + per_model_dropped["b"] == sum(
            1 for r in requests if r.model == "b"
        )


    @pytest.mark.parametrize("drop_after, reached", [(10.0, False), (0.05, True)])
    def test_expiry_check_costs_a_batch_that_drops_nothing_no_search(
        self, service_model, monkeypatch, drop_after, reached
    ):
        """A count, not a timing: ``np.searchsorted`` calls under the object loop.

        The head of the arrived window is the oldest request in it, so when
        it has not expired the expired prefix is empty and there is nothing
        to search for; the second case shows the counter can count.
        """
        trace = PoissonTrace(3000, duration=0.5, seed=4).generate()
        engine = ServingEngine(BatchingConfig(8, drop_after), columnar=False)
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        calls = []
        search = np.searchsorted
        monkeypatch.setattr(
            np, "searchsorted", lambda *args, **kw: calls.append(1) or search(*args, **kw)
        )
        result = engine.run(trace)
        assert (result.dropped > 0) == reached
        assert bool(calls) == reached


# ----------------------------------------------------------------------
# Multi-server dispatch (cluster scale-out)
# ----------------------------------------------------------------------
class TestMultiServer:
    def test_k4_near_linear_throughput_scaling(self, service_model):
        """Under sustained overload, K servers serve ~K times the K=1 rate.

        The arrival rate must saturate even the 4-server cluster (INT8
        capacity is ~1.7k req/s per server at batch 64), so every server
        always finds a full batch and the makespan scales with 1/K.  The
        schedule is simulated, so the efficiency is exact (0.999 at K=2,
        0.996 at K=4), not a timing.
        """
        trace = PoissonTrace(12000, duration=2.0, seed=21).generate()
        requests = requests_from_trace(trace, model="m")

        def makespan_throughput(num_servers):
            engine = ServingEngine(
                BatchingConfig(max_batch=64), num_servers=num_servers
            )
            engine.register("m", ModeledExecutor(service_model), mode="int8")
            outcome = engine.run(requests=requests, record_responses=False)
            assert outcome.latencies.size == len(requests)
            return outcome.throughput, outcome

        single, _ = makespan_throughput(1)
        double, _ = makespan_throughput(2)
        quad, outcome = makespan_throughput(4)
        assert quad > double > single
        assert double >= 0.9 * 2 * single  # near-linear scale-out
        assert quad >= 0.9 * 4 * single
        # All four servers did comparable work.
        assert outcome.num_servers == 4
        assert len(outcome.server_busy_times) == 4
        assert {record.server for record in outcome.batch_records} == {0, 1, 2, 3}
        busiest = max(outcome.server_busy_times)
        assert min(outcome.server_busy_times) > 0.5 * busiest

    def test_k1_matches_default_engine(self, service_model):
        trace = PoissonTrace(1800, duration=2.0, seed=17).generate()
        default = ServingEngine(BatchingConfig(max_batch=32))
        default.register("m", ModeledExecutor(service_model), mode="int8")
        explicit = ServingEngine(BatchingConfig(max_batch=32), num_servers=1)
        explicit.register("m", ModeledExecutor(service_model), mode="int8")
        a = default.run(trace=trace)
        b = explicit.run(trace=trace)
        np.testing.assert_array_equal(a.latencies, b.latencies)
        assert a.batch_sizes == b.batch_sizes

    def test_multi_server_reduces_latency_under_load(self, service_model):
        trace = PoissonTrace(2600, duration=2.0, seed=23).generate()
        results = {}
        for k in (1, 4):
            engine = ServingEngine(BatchingConfig(max_batch=64), num_servers=k)
            engine.register("m", ModeledExecutor(service_model), mode="int8")
            results[k] = engine.run(trace)
        assert results[4].median_latency < 0.5 * results[1].median_latency

    def test_per_server_executor_list(self, service_model):
        executors = [ModeledExecutor(service_model) for _ in range(3)]
        engine = ServingEngine(BatchingConfig(max_batch=8), num_servers=3)
        engine.register("m", executors, mode="int8")
        trace = PoissonTrace(2500, duration=1.0, seed=2).generate()
        outcome = engine.run(trace=trace)
        assert outcome.latencies.size == len(trace)
        assert {record.server for record in outcome.batch_records} == {0, 1, 2}

    def test_executor_count_must_match_servers(self, service_model):
        engine = ServingEngine(num_servers=2)
        with pytest.raises(ValueError):
            engine.register("m", [ModeledExecutor(service_model)])
        with pytest.raises(ValueError):
            ServingEngine(num_servers=0)

    def test_per_server_runtime_executors_real_execution(
        self, flexiq_runtime, mlp_dataset
    ):
        """K RuntimeExecutors behind one endpoint: both servers serve batches."""
        executors = [RuntimeExecutor(flexiq_runtime) for _ in range(2)]
        engine = ServingEngine(BatchingConfig(max_batch=2), num_servers=2)
        engine.register("mlp", executors, policy=FixedRatioPolicy(0.5))
        trace = RequestTrace(arrival_times=np.zeros(8), duration=0.0)
        requests = requests_from_trace(trace, model="mlp", payloads=mlp_dataset.test_images[:1])
        outcome = engine.run(requests=requests)
        assert outcome.latencies.size == 8
        assert {record.server for record in outcome.batch_records} == {0, 1}
        assert all(ex.batches_executed > 0 for ex in executors)
        assert sum(ex.requests_executed for ex in executors) == 8


# ----------------------------------------------------------------------
# Schedulers (priority / EDF)
# ----------------------------------------------------------------------
class TestSchedulers:
    def _serve_order(self, engine, requests):
        outcome = engine.run(requests=requests)
        order = sorted(
            (r for r in outcome.responses if not r.dropped),
            key=lambda r: (r.start_time, r.request_id),
        )
        return [r.request_id for r in order], outcome

    def test_priority_orders_queue(self, service_model):
        engine = ServingEngine(
            BatchingConfig(max_batch=1),
            scheduler=PriorityScheduler(),
        )
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        # All but the first request are queued when the server frees: they
        # must then serve by descending priority, FIFO within a class.
        requests = [
            Request(arrival_time=0.0, model="m", request_id=0, priority=0),
            Request(arrival_time=0.001, model="m", request_id=1, priority=1),
            Request(arrival_time=0.002, model="m", request_id=2, priority=5),
            Request(arrival_time=0.003, model="m", request_id=3, priority=1),
            Request(arrival_time=0.004, model="m", request_id=4, priority=5),
        ]
        order, _ = self._serve_order(engine, requests)
        assert order == [0, 2, 4, 1, 3]

    def test_edf_orders_queue_by_deadline(self, service_model):
        engine = ServingEngine(
            BatchingConfig(max_batch=1), scheduler=EdfScheduler()
        )
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        requests = [
            Request(arrival_time=0.0, model="m", request_id=0, deadline=9.0),
            Request(arrival_time=0.001, model="m", request_id=1, deadline=0.5),
            Request(arrival_time=0.002, model="m", request_id=2),  # no deadline
            Request(arrival_time=0.003, model="m", request_id=3, deadline=0.1),
        ]
        order, _ = self._serve_order(engine, requests)
        assert order == [0, 3, 1, 2]

    def test_fifo_scheduler_explicit_matches_default(self, service_model):
        trace = PoissonTrace(1500, duration=2.0, seed=9).generate()
        requests = requests_from_trace(trace, model="m")
        default = ServingEngine(BatchingConfig(max_batch=16))
        default.register("m", ModeledExecutor(service_model), mode="int8")
        explicit = ServingEngine(
            BatchingConfig(max_batch=16), scheduler=FifoScheduler()
        )
        explicit.register("m", ModeledExecutor(service_model), mode="int8")
        a = default.run(requests=requests, record_responses=False)
        b = explicit.run(requests=requests, record_responses=False)
        np.testing.assert_array_equal(a.request_latencies, b.request_latencies)
        assert a.batch_sizes == b.batch_sizes

    def test_non_fifo_requires_requests(self, service_model):
        engine = ServingEngine(scheduler=EdfScheduler())
        engine.register("m", ModeledExecutor(service_model))
        trace = PoissonTrace(100, duration=0.5, seed=0).generate()
        with pytest.raises(ValueError):
            engine.run(trace=trace)

    def test_edf_beats_fifo_on_deadline_attainment(self, service_model):
        """The SLO story: under overload EDF wins p99-under-deadline."""
        rng = np.random.default_rng(31)
        trace = PoissonTrace(2600, duration=2.0, seed=31).generate()
        arrivals = np.sort(np.asarray(trace.arrival_times))
        # Half the requests carry a tight-but-feasible SLO, half a lax one.
        deadlines = [
            float(a) + (0.08 if rng.random() < 0.5 else 0.8) for a in arrivals
        ]
        requests = [
            Request(arrival_time=float(a), model="m", request_id=i, deadline=deadlines[i])
            for i, a in enumerate(arrivals)
        ]

        def attainment(scheduler):
            engine = ServingEngine(
                BatchingConfig(max_batch=32), scheduler=scheduler
            )
            engine.register("m", ModeledExecutor(service_model), mode="int8")
            outcome = engine.run(requests=requests)
            lateness = np.asarray(
                [r.finish_time - r.deadline for r in outcome.responses if not r.dropped]
            )
            return outcome.deadline_attainment(), float(np.percentile(lateness, 99))

        fifo_attained, fifo_p99_late = attainment(None)
        edf_attained, edf_p99_late = attainment(EdfScheduler())
        assert edf_attained > fifo_attained
        assert edf_p99_late < fifo_p99_late

    def test_edf_with_drop_after_drops_expired(self, service_model):
        engine = ServingEngine(
            BatchingConfig(max_batch=8, drop_after=0.05), scheduler=EdfScheduler()
        )
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        trace = PoissonTrace(3000, duration=1.0, seed=4).generate()
        requests = requests_from_trace(trace, model="m", deadlines=[0.1, 0.4])
        outcome = engine.run(requests=requests)
        assert outcome.dropped > 0
        assert outcome.latencies.size + outcome.dropped == len(requests)
        dropped_responses = [r for r in outcome.responses if r.dropped]
        assert len(dropped_responses) == outcome.dropped

    def test_multi_model_batches_never_mix_under_edf(self, service_model):
        engine = ServingEngine(
            BatchingConfig(max_batch=16), scheduler=EdfScheduler()
        )
        engine.register("a", ModeledExecutor(service_model), mode="int8")
        engine.register("b", ModeledExecutor(service_model), mode="int4")
        rng = np.random.default_rng(7)
        requests = [
            Request(
                arrival_time=0.0005 * i,
                model=("a" if i % 2 else "b"),
                deadline=float(rng.uniform(0.05, 1.0)),
            )
            for i in range(300)
        ]
        outcome = engine.run(requests=requests)
        assert sum(outcome.batch_sizes) == 300
        for record in outcome.batch_records:
            assert record.model in ("a", "b")
        assert outcome.for_model("a").size == 150
        assert outcome.for_model("b").size == 150


# ----------------------------------------------------------------------
# Streaming admission (submit / step / finish)
# ----------------------------------------------------------------------
class TestStreamingAdmission:
    def test_streamed_chunks_match_batch_run(self, service_model):
        """Submitting ahead of the clock is equivalent to one big run()."""
        trace = PoissonTrace(1200, duration=2.0, seed=13).generate()
        requests = requests_from_trace(trace, model="m")

        def build():
            engine = ServingEngine(BatchingConfig(max_batch=16))
            engine.register("m", ModeledExecutor(service_model), mode="int8")
            return engine

        batch_outcome = build().run(requests=requests, record_responses=False)

        engine = build()
        engine.start(record_responses=False)
        third = len(requests) // 3
        engine.submit(requests[:third])
        for _ in range(5):
            assert engine.step() is not None
        engine.submit(requests[third:])
        streamed = engine.finish()

        np.testing.assert_array_equal(
            np.sort(streamed.request_latencies), np.sort(batch_outcome.request_latencies)
        )
        assert sorted(streamed.batch_sizes) == sorted(batch_outcome.batch_sizes)

    def test_step_returns_none_until_submission(self, service_model):
        engine = ServingEngine()
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        engine.start()
        assert engine.step() is None
        engine.submit(Request(arrival_time=0.0, model="m"))
        record = engine.step()
        assert record is not None and record.size == 1
        assert engine.step() is None
        result = engine.finish()
        assert result.latencies.size == 1
        assert result.responses[0].model == "m"

    def test_late_submission_served_at_next_opportunity(self, service_model):
        engine = ServingEngine()
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        engine.start()
        engine.submit(Request(arrival_time=1.0, model="m", request_id=0))
        assert engine.step() is not None
        # Arrival time in the engine's past: serves immediately after the
        # server frees, with queueing delay measured from its arrival time.
        engine.submit(Request(arrival_time=0.0, model="m", request_id=1))
        record = engine.step()
        assert record is not None
        result = engine.finish()
        assert result.latencies.size == 2
        late = result.responses[1]
        assert late.start_time >= 1.0
        assert late.latency == pytest.approx(late.finish_time - 0.0)

    def test_submissions_in_any_order_match_one_run(self, service_model):
        """Out-of-order chunks merge into the backlog where they belong.

        Chunks are submitted shuffled (and unsorted within), so they land
        before, inside and behind what is already queued; distinct arrivals
        make the served order unique.
        """
        trace = PoissonTrace(1500, duration=1.0, seed=3).generate()
        requests = requests_from_trace(trace, model="m")

        def build():
            engine = ServingEngine(BatchingConfig(max_batch=4), num_servers=2)
            engine.register("m", ModeledExecutor(service_model), mode="int8")
            return engine

        want = {r.request_id: r for r in build().run(requests=requests).responses}
        chunks = [requests[lo:lo + 50] for lo in range(0, len(requests), 50)]
        engine = build()
        engine.start()
        for index in np.random.default_rng(0).permutation(len(chunks)):
            engine.submit(chunks[index][::-1])
        got = {r.request_id: r for r in engine.finish().responses}
        assert got == want

    def test_in_order_submissions_never_resort_the_backlog(
        self, service_model, monkeypatch
    ):
        """A count, not a timing: a streamed ``submit`` is O(new requests)."""
        engine = ServingEngine(BatchingConfig(max_batch=4))
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        engine.start()
        engine.submit([Request(0.001 * i, model="m") for i in range(200)])
        sorts = []
        for name in ("argsort", "concatenate"):
            inner = getattr(np, name)
            monkeypatch.setattr(
                np, name,
                lambda *a, _inner=inner, _name=name, **kw: sorts.append(_name) or _inner(*a, **kw),
            )
        for i in range(200, 400):
            engine.submit(Request(0.001 * i, model="m"))
        assert sorts.count("argsort") == 0
        # Buffers double: a handful of reallocations for 200 submissions,
        # not one per submission.
        assert sorts.count("concatenate") <= 16
        monkeypatch.undo()
        assert engine.finish().latencies.size == 400

    def test_run_is_a_thin_driver_over_streaming(self, service_model):
        trace = PoissonTrace(1500, duration=1.0, seed=3).generate()
        requests = requests_from_trace(trace, model="m")

        def build():
            engine = ServingEngine(BatchingConfig(max_batch=8))
            engine.register("m", ModeledExecutor(service_model), mode="int8")
            return engine

        via_run = build().run(requests=requests)
        engine = build()
        engine.start(requests=requests)
        via_stream = engine.finish()
        np.testing.assert_array_equal(via_run.request_latencies, via_stream.request_latencies)
        assert via_run.batch_sizes == via_stream.batch_sizes

    def test_session_lifecycle_errors(self, service_model):
        engine = ServingEngine()
        engine.register("m", ModeledExecutor(service_model))
        with pytest.raises(RuntimeError):
            engine.step()
        with pytest.raises(RuntimeError):
            engine.submit(Request(0.0, model="m"))
        with pytest.raises(RuntimeError):
            engine.finish()
        engine.start()
        with pytest.raises(RuntimeError):
            engine.start()
        with pytest.raises(KeyError):
            engine.submit(Request(0.0, model="nope"))
        engine.finish()
        # Trace sessions are fixed at start time.
        trace = PoissonTrace(100, duration=0.2, seed=0).generate()
        engine.start(trace=trace)
        with pytest.raises(RuntimeError):
            engine.submit(Request(0.0, model="m"))
        assert engine.finish().latencies.size == len(trace)

    def test_streaming_with_edf_scheduler(self, service_model):
        engine = ServingEngine(
            BatchingConfig(max_batch=1), scheduler=EdfScheduler()
        )
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        engine.start()
        engine.submit(
            [
                Request(arrival_time=0.0, model="m", request_id=0, deadline=5.0),
                Request(arrival_time=0.001, model="m", request_id=1, deadline=0.2),
            ]
        )
        first = engine.step()
        assert first is not None
        engine.submit(Request(arrival_time=0.002, model="m", request_id=2, deadline=0.01))
        engine.finish()
        # After request 0 (head of line), the tightest pending deadline wins.

    @staticmethod
    def _five(**kwargs):
        return [
            Request(arrival_time=0.001 * index, model="m", request_id=index, **kwargs)
            for index in range(5)
        ]

    @pytest.mark.parametrize("columnar", [True, False])
    @pytest.mark.parametrize("hand_in", ["generator", "tuple", "single"])
    def test_submit_takes_any_iterable(self, service_model, columnar, hand_in):
        """Regression: ``submit(<generator>)`` died on ``len()``."""
        requests = self._five()
        engine = ServingEngine(BatchingConfig(max_batch=2), columnar=columnar)
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        want = engine.run(requests=list(requests))
        engine.start()
        engine.submit(iter(()))  # an empty iterable admits nobody
        if hand_in == "generator":
            engine.submit(request for request in requests)
        elif hand_in == "tuple":
            engine.submit(tuple(requests))
        else:
            for request in requests:
                engine.submit(request)
        got = engine.finish()
        assert np.array_equal(got.request_latencies, want.request_latencies)
        assert got.batch_sizes == want.batch_sizes
        assert [r.request_id for r in got.responses] == list(range(5))

    @pytest.mark.parametrize("drive", ["start", "run"])
    @pytest.mark.parametrize("hand_in", ["generator", "tuple"])
    def test_start_and_run_take_any_iterable(self, service_model, drive, hand_in):
        """Regression: ``run(requests=<generator>)`` consumed the generator
        in the arrival check and then failed on ``len()``."""
        requests = self._five(deadline=1.0)
        engine = ServingEngine(BatchingConfig(max_batch=2), scheduler=EdfScheduler())
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        want = engine.run(requests=list(requests))
        handed = (r for r in requests) if hand_in == "generator" else tuple(requests)
        if drive == "run":
            got = engine.run(requests=handed)
        else:
            engine.start(requests=handed)
            got = engine.finish()
        assert np.array_equal(got.request_latencies, want.request_latencies)
        assert got.batch_sizes == want.batch_sizes
        # The caller's own objects ride through, whatever held them.
        assert [r.request_id for r in got.responses] == list(range(5))
        assert got.deadline_attainment() == want.deadline_attainment()


# ----------------------------------------------------------------------
# Context-aware ratio policies
# ----------------------------------------------------------------------
class TestPolicyContext:
    def test_context_policy_gets_queue_depth_and_batch_size(self, service_model):
        seen = []

        class Spy:
            def on_run_start(self, trace):
                pass

            def select(self, context):
                seen.append((context.queue_depth, context.batch_size, context.model))
                return 0.0

        engine = ServingEngine(BatchingConfig(max_batch=4))
        engine.register("m", ModeledExecutor(service_model), policy=Spy(), mode="flexiq")
        trace = RequestTrace(arrival_times=np.zeros(10), duration=0.0)
        engine.run(trace=trace)
        # 10 simultaneous arrivals, max_batch 4: queue depths 10, 6, 2.
        assert [d for d, _, _ in seen] == [10, 6, 2]
        assert [b for _, b, _ in seen] == [4, 4, 2]
        assert all(m == "m" for _, _, m in seen)

    def test_queue_depth_policy_sheds_accuracy_under_backlog(self, service_model):
        policy = QueueDepthRatioPolicy({16: 0.5, 64: 1.0}, base_ratio=0.0)
        engine = ServingEngine(BatchingConfig(max_batch=8))
        engine.register("m", ModeledExecutor(service_model), policy=policy, mode="flexiq")
        # A burst of 100 simultaneous requests, then a trickle.
        burst = np.zeros(100)
        trickle = np.linspace(5.0, 6.0, 10)
        trace = RequestTrace(
            arrival_times=np.concatenate([burst, trickle]), duration=6.0
        )
        outcome = engine.run(trace=trace)
        ratios = outcome.batch_ratios
        assert ratios[0] == 1.0          # 100 queued -> full 4-bit
        assert 0.5 in ratios             # backlog draining through the mid tier
        assert ratios[-1] == 0.0         # trickle -> full precision
        # The policy reduces latency vs always-int8 on the same trace.
        fixed = ServingEngine(BatchingConfig(max_batch=8))
        fixed.register(
            "m", ModeledExecutor(service_model), policy=FixedRatioPolicy(0.0), mode="flexiq"
        )
        assert outcome.median_latency < fixed.run(trace=trace).median_latency

    def test_requests_from_trace_attaches_priorities_and_deadlines(self):
        trace = PoissonTrace(500, duration=1.0, seed=2).generate()
        requests = requests_from_trace(
            trace, model="m", priorities=[0, 3], deadlines=[0.5, None]
        )
        assert [r.priority for r in requests[:4]] == [0, 3, 0, 3]
        # Deadlines are relative SLOs, materialized as absolute times: an
        # absolute list would leave late arrivals born-expired.
        assert requests[0].deadline == pytest.approx(requests[0].arrival_time + 0.5)
        assert requests[1].deadline is None
        assert requests[2].deadline > requests[0].deadline

    def test_deadline_attainment_and_slo_metric(self, service_model):
        from repro.serving.metrics import slo_attainment

        engine = ServingEngine(BatchingConfig(max_batch=4))
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        requests = [
            Request(arrival_time=0.0, model="m", deadline=10.0),
            Request(arrival_time=0.0, model="m", deadline=1e-9),
            Request(arrival_time=0.0, model="m"),  # no deadline
        ]
        outcome = engine.run(requests=requests)
        assert outcome.deadline_attainment() == pytest.approx(0.5)
        finishes = [r.finish_time for r in outcome.responses]
        deadlines = [r.deadline for r in outcome.responses]
        assert slo_attainment(finishes, deadlines) == pytest.approx(0.5)
        assert np.isnan(slo_attainment([1.0], [None]))


# ----------------------------------------------------------------------
# Session robustness and result helpers
# ----------------------------------------------------------------------
class TestSessionRobustness:
    class _Exploding:
        def __init__(self, after=0):
            self.after = after
            self.calls = 0

        def execute(self, batch, mode, ratio):
            self.calls += 1
            if self.calls > self.after:
                raise RuntimeError("boom")
            from repro.serving.engine import BatchExecution

            return BatchExecution(service_time=0.001)

    def test_engine_reusable_after_executor_error(self, service_model):
        engine = ServingEngine()
        engine.register("m", self._Exploding())
        with pytest.raises(RuntimeError, match="boom"):
            engine.run(requests=[Request(0.0, model="m")])
        # The failed session was closed: the engine accepts a new run.
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        outcome = engine.run(requests=[Request(0.0, model="m")])
        assert outcome.latencies.size == 1

    def test_abort_discards_streaming_session(self, service_model):
        engine = ServingEngine()
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        engine.start()
        engine.submit(Request(0.0, model="m"))
        engine.abort()
        with pytest.raises(RuntimeError):
            engine.step()
        engine.start()  # fresh session opens fine
        assert engine.finish().latencies.size == 0
        engine.abort()  # no-op without a session

    def test_fifo_and_scheduled_drop_sets_agree(self, service_model):
        """The fast array path and the scheduled heap path share the seed's
        exact expiry predicate and drop the same requests.

        An explicit ``FifoScheduler`` still routes through the fast path,
        so the scheduled loop is exercised with a custom arrival-order
        scheduler (empty discipline key = the engine's FIFO tie-breakers).
        """

        class ArrivalOrderScheduler:
            def keys(self, store, slots):
                return [()] * len(slots)

        batching = BatchingConfig(max_batch=8, drop_after=0.05)
        trace = PoissonTrace(3000, duration=1.0, seed=4).generate()
        requests = requests_from_trace(trace, model="m")

        def run_with(scheduler):
            engine = ServingEngine(batching, scheduler=scheduler)
            engine.register("m", ModeledExecutor(service_model), mode="int8")
            return engine.run(requests=requests)

        fifo = run_with(None)
        scheduled = run_with(ArrivalOrderScheduler())
        fifo_dropped = {r.request_id for r in fifo.responses if r.dropped}
        scheduled_dropped = {r.request_id for r in scheduled.responses if r.dropped}
        assert fifo_dropped == scheduled_dropped
        assert len(fifo_dropped) > 0
        # Arrival-order scheduling through the heap path reproduces the
        # FIFO latencies too.
        np.testing.assert_allclose(
            fifo.request_latencies, scheduled.request_latencies
        )

    def test_priority_ties_break_by_arrival_not_submission_order(self, service_model):
        """FIFO-within-a-priority-class must follow arrival time even when
        streaming submissions arrive out of arrival order."""
        from repro.serving.engine import BatchExecution

        class Slow:
            def execute(self, batch, mode, ratio):
                return BatchExecution(service_time=10.0)

        engine = ServingEngine(
            BatchingConfig(max_batch=1), scheduler=PriorityScheduler()
        )
        engine.register("m", Slow())
        engine.start()
        engine.submit(Request(arrival_time=0.0, model="m", request_id=0, priority=1))
        assert engine.step() is not None  # server busy until t=10
        # Submitted A-then-B, but B *arrives* first: equal priorities must
        # serve B before A.
        engine.submit(Request(arrival_time=5.0, model="m", request_id=1, priority=1))
        engine.submit(Request(arrival_time=1.0, model="m", request_id=2, priority=1))
        result = engine.finish()
        order = sorted(
            (r for r in result.responses), key=lambda r: r.start_time
        )
        assert [r.request_id for r in order] == [0, 2, 1]

    def test_mean_executed_ratio(self, service_model):
        engine = ServingEngine(BatchingConfig(max_batch=4))
        engine.register(
            "m",
            ModeledExecutor(service_model),
            policy=RoundRobinRatioPolicy([0.0, 1.0]),
            mode="flexiq",
        )
        trace = RequestTrace(arrival_times=np.zeros(8), duration=0.0)
        outcome = engine.run(trace=trace)
        assert outcome.batch_ratios == [0.0, 1.0]
        assert outcome.mean_executed_ratio == pytest.approx(0.5)
        # No batches served -> nan.
        empty = engine.run(requests=[])
        assert np.isnan(empty.mean_executed_ratio)


# ----------------------------------------------------------------------
# Hostile input, refused at the boundary
# ----------------------------------------------------------------------
def _stepped_once(service_model):
    engine = ServingEngine(BatchingConfig(max_batch=4), num_servers=2)
    engine.register("m", ModeledExecutor(service_model), mode="int8")
    engine.start(requests=[Request(0.01 * i, model="m") for i in range(8)])
    engine.set_active_servers([0])
    engine.step()
    return engine


#: field named by the error -> a call handing it ``bad``.
NON_FINITE = {
    "preemption time (engine)": lambda model, bad: _stepped_once(
        model
    ).preempt_server(0, time=bad),
    "available_from": lambda model, bad: _stepped_once(model).set_active_servers(
        [0, 1], available_from=bad
    ),
    "fault time": lambda model, bad: resilience.FaultEvent(bad, server=0),
    "factor": lambda model, bad: resilience.FaultEvent(
        1.0, server=0, kind="slowdown", factor=bad
    ),
    "migration delay": lambda model, bad: resilience.RequeueAtHeadMigration(bad),
    "migration delay (drop-expired)": lambda model, bad: (
        resilience.DropExpiredMigration(bad)
    ),
    "stagger": lambda model, bad: resilience.RedistributeMigration(stagger=bad),
    "steps": lambda model, bad: resilience.StepCheckpoint(steps=bad),
    "promotion_latency": lambda model, bad: resilience.WarmSparePool(
        [1], promotion_latency=bad
    ),
}


def _autoscaled_to(service_model, target):
    """A two-server cluster whose autoscaler answers ``target`` every window."""

    class Fixed:
        def decide(self, stats, active):
            return target

    cluster = ClusterEngine(
        [ServerSpec(f"s{i}", 100.0, service_model=service_model) for i in range(2)],
        window=0.1, autoscaler=Fixed(),
    )
    cluster.register("m")
    return cluster.run(requests=[Request(0.05 * i, model="m") for i in range(8)])


def _generation(service_model, **settings):
    from repro.serving.generation import IterationScheduler, ModeledGenerationBackend

    return IterationScheduler(ModeledGenerationBackend(service_model), **settings)


#: field named by the error -> a call handing it 1.5, which ``int()`` made 1.
NON_INTEGER = {
    "num_servers": lambda model, bad: ServingEngine(num_servers=bad),
    "server": lambda model, bad: _stepped_once(model).set_active_servers([0, bad]),
    "max_batch": lambda model, bad: _generation(model, max_batch=bad),
    "max_new_tokens": lambda model, bad: _generation(model).start(
        [Request(0.0, "m", prefill_tokens=4, max_new_tokens=bad)]
    ),
    "max_new_tokens (engine)": lambda model, bad: _stepped_once(model).submit(
        Request(0.5, "m", max_new_tokens=bad)
    ),
    "priorities": lambda model, bad: requests_from_trace(
        RequestTrace(np.zeros(2), 1.0), priorities=[bad]
    ),
    # BurnRateRule(fast_windows=1.5) used to be accepted and to fail the
    # first window close with "slice indices must be integers".
    "fast_windows": lambda model, bad: BurnRateRule(1.0, fast_windows=bad, slow_windows=2),
    "num_servers (telemetry)": lambda model, bad: TelemetryBus(1.0, num_servers=bad),
    "spare server id": lambda model, bad: resilience.WarmSparePool([bad]),
    "affine server id": lambda model, bad: ModelAffinityPlacer({"m": [bad]}),
    "queue depth threshold": lambda model, bad: QueueDepthRatioPolicy({bad: 0.5}),
    "pressure_threshold": lambda model, bad: DecodePressureRatioPolicy(bad),
    "queue_depth_fallback": lambda model, bad: DecodePressureRatioPolicy(
        900, queue_depth_fallback=bad
    ),
    "autoscaler target": lambda model, bad: _autoscaled_to(model, bad),
}

#: field -> its least value, at the sites that used to call ``int()``; three
#: of them (affine server id, queue depth threshold, queue_depth_fallback)
#: accepted a negative.
MINIMUM = {
    "fast_windows": 1,
    "num_servers (telemetry)": 1,
    "spare server id": 0,
    "affine server id": 0,
    "queue depth threshold": 0,
    "pressure_threshold": 1,
    "queue_depth_fallback": 0,
}


class TestHostileInput:
    @pytest.mark.parametrize("field", NON_INTEGER)
    def test_a_non_integer_is_refused_not_truncated(self, service_model, field):
        name = field.partition(" (")[0]
        with pytest.raises(ValueError, match=rf"{name} must be .*integer.*1\.5"):
            NON_INTEGER[field](service_model, 1.5)

    @pytest.mark.parametrize("field", MINIMUM)
    def test_an_integer_below_the_minimum_is_refused(self, service_model, field):
        name, least = field.partition(" (")[0], MINIMUM[field]
        message = rf"{name} must be an integer >= {least} \(got {least - 1}\)"
        with pytest.raises(ValueError, match=message):
            NON_INTEGER[field](service_model, least - 1)
        NON_INTEGER[field](service_model, least)

    @pytest.mark.parametrize("bad", [float("nan"), 2.0, -0.1, float("inf")])
    def test_a_ratio_is_finite_and_in_the_unit_interval(self, service_model, bad):
        # FixedRatioPolicy(2.0) used to report batch_ratios == [2.0, 2.0].
        message = rf"ratio must be a finite number in \[0, 1\], got {bad!r}"
        with pytest.raises(ValueError, match=message):
            FixedRatioPolicy(bad)
        with pytest.raises(ValueError, match=message):
            RoundRobinRatioPolicy([0.5, bad])
        # The load-driven policies used to accept it and fail at the first
        # batch's latency lookup, in both loops.
        for build in (
            lambda: QueueDepthRatioPolicy({1: bad}),
            lambda: QueueDepthRatioPolicy({1: 0.5}, base_ratio=bad),
            lambda: DecodePressureRatioPolicy(5, high_ratio=bad),
            lambda: DecodePressureRatioPolicy(5, base_ratio=bad),
        ):
            with pytest.raises(ValueError, match=message):
                build()
        # A nan latency used to become every later clock.  Checked on a memo
        # miss, so nothing is memoised for it and a known key pays nothing.
        known = service_model.batch_latency(2, "flexiq", 0.5)
        memo = dict(service_model._latencies)
        with pytest.raises(ValueError, match=message):
            service_model.batch_latency(2, "flexiq", bad)
        assert service_model._latencies == memo
        assert service_model.batch_latency(2, "flexiq", 0.5) == known

    @pytest.mark.parametrize("window", [0.0, -1.0, float("nan"), float("inf")])
    def test_control_window_is_finite_and_positive(self, window):
        # PerServerAdaptiveRatioPolicy at -1.0 used to update its controller
        # once and run every batch at 0.0; AdaptiveRatioPolicy failed late, in
        # on_run_start (ZeroDivisionError at 0.0, a numpy error at -1.0).
        controller = AdaptiveRatioController(
            build_profile_from_latency_fn([100.0], [0.0, 1.0], lambda ratio, rate: 0.01),
            latency_threshold=0.05,
        )
        message = rf"control_window must be a finite number > 0 \(got {window!r}\)"
        with pytest.raises(ValueError, match=message):
            AdaptiveRatioPolicy(controller, control_window=window)
        with pytest.raises(ValueError, match=message):
            PerServerAdaptiveRatioPolicy(lambda: controller, control_window=window)

    @pytest.mark.parametrize("max_batch", [0, -3, 2.5, None])
    def test_max_batch_must_be_a_positive_integer(self, max_batch):
        # max_batch=0 used to spin the scheduled loop forever (empty batches)
        # and silently serve size-1 batches on the FIFO path.
        with pytest.raises(ValueError, match=rf"max_batch .*{max_batch!r}"):
            BatchingConfig(max_batch=max_batch)

    @pytest.mark.parametrize("drop_after", [-0.1, float("nan"), float("inf")])
    def test_drop_after_must_be_none_or_finite_and_non_negative(self, drop_after):
        with pytest.raises(ValueError, match=rf"drop_after .*{drop_after!r}"):
            BatchingConfig(drop_after=drop_after)
        assert BatchingConfig(drop_after=0.0).drop_after == 0.0
        assert BatchingConfig(max_batch=np.int64(4)).max_batch == 4

    def _engine(self, service_model, scheduler=None):
        engine = ServingEngine(BatchingConfig(max_batch=4), scheduler=scheduler)
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        return engine

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_arrival_in_a_trace(self, service_model, bad):
        # Used to return 2 served + 0 dropped for 3 admitted: one vanished.
        engine = self._engine(service_model)
        with pytest.raises(ValueError, match="non-finite arrival_time"):
            engine.run(RequestTrace(np.asarray([0.0, bad, 0.2]), 1.0))
        # Nothing was opened: the engine serves the next run.
        assert engine.run(RequestTrace(np.asarray([0.0, 0.2]), 1.0)).latencies.size == 2

    @pytest.mark.parametrize("scheduler", [None, EdfScheduler()])
    def test_non_finite_arrival_in_a_request_list(self, service_model, scheduler):
        engine = self._engine(service_model, scheduler)
        requests = [Request(0.2, model="m"), Request(float("nan"), model="m")]
        # Named by its place in the caller's list, not in arrival order.
        with pytest.raises(
            ValueError, match=r"request 1 has a non-finite arrival_time \(nan\)"
        ):
            engine.run(requests=requests)

    def test_non_finite_arrival_in_a_submission(self, service_model):
        engine = self._engine(service_model)
        engine.start()
        engine.submit([Request(0.0, model="m"), Request(0.1, model="m")])
        with pytest.raises(ValueError, match="non-finite arrival_time"):
            engine.submit([Request(0.2, model="m"), Request(float("inf"), model="m")])
        # The refused submission left the session as it was.
        result = engine.finish()
        assert (result.latencies.size, result.dropped) == (2, 0)

    def test_negative_arrival_is_refused_everywhere(self, service_model):
        # Used to be served "at 0.0": Request(-1.0) got start 0.0 and a
        # latency of 1.004 s, a second of which never happened.
        engine = self._engine(service_model)
        with pytest.raises(
            ValueError, match=r"request 1 has a negative arrival_time \(-1\.0\)"
        ):
            engine.run(requests=[Request(0.2, model="m"), Request(-1.0, model="m")])
        with pytest.raises(ValueError, match="request 0 has a negative arrival_time"):
            engine.run(RequestTrace(np.asarray([-0.5, 0.2]), 1.0))
        engine.start()
        with pytest.raises(ValueError, match="negative arrival_time"):
            engine.submit([Request(-0.0001, model="m")])
        engine.submit([Request(0.0, model="m"), Request(-0.0, model="m")])
        assert engine.finish().latencies.size == 2

    def test_a_deadline_earlier_than_its_arrival_is_legal_and_is_one_miss(
        self, service_model
    ):
        bus = TelemetryBus(window=1.0, num_servers=1)
        engine = ServingEngine(BatchingConfig(max_batch=4), telemetry=bus)
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        requests = [
            Request(0.5, model="m", deadline=0.4),   # born missed
            Request(0.5, model="m", deadline=0.5),   # a relative SLO of 0
            Request(0.5, model="m", deadline=9.0),
        ]
        result = engine.run(requests=requests)
        assert result.dropped == 0
        assert [r.deadline_met for r in result.responses] == [False, False, True]
        assert result.deadline_attainment() == 1 / 3
        window = bus.cluster_window(0)
        assert (window.deadline_total, window.deadline_met) == (3, 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", NON_FINITE)
    def test_non_finite_control_times_and_factors_are_refused(
        self, service_model, field, bad
    ):
        # Each used to be accepted: ignored (nan loses every max()), blowing
        # up mid-run (int(nan)), or silently changing who was served.
        name = field.partition(" (")[0]
        with pytest.raises(
            ValueError, match=rf"{name} must be a finite number .*got {bad!r}"
        ):
            NON_FINITE[field](service_model, bad)

    def test_unsorted_store_is_refused(self):
        from repro.serving.core import RequestStore

        with pytest.raises(ValueError, match="sorted ascending: request 2"):
            RequestStore(np.asarray([0.0, 0.3, 0.2]), ["m"])
