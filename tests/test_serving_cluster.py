"""Tests for the cluster control plane (placement, telemetry, autoscaling).

Covers the four pieces of :mod:`repro.serving.cluster` and their engine
hooks:

* **Server profiles** — GPU/NPU-derived :class:`ServerSpec`\\ s with measured
  speeds and heterogeneous executors behind one engine.
* **Placement** — the :class:`Placer` protocol replacing the hard-coded
  argmin dispatch; free-clock stays bit-identical to the seed, the
  speed-aware placers strictly beat it on a mixed-speed cluster.
* **Telemetry** — windowed per-server series (queue depth, utilization,
  executed ratio, SLO attainment, drops) published by the engine, consumed
  by context-aware policies (per-server adaptive ratio control).
* **Autoscaling** — hysteresis decisions, scale events, and the acceptance
  scenario: on a spike trace the autoscaled cluster meets a p99 SLO a
  static minimal cluster misses.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.controller import AdaptiveRatioController, build_profile_from_latency_fn
from repro.data.traces import PoissonTrace, RequestTrace, SpikeTrace, merge_traces
from repro.hardware.npu import NpuConfig, NpuLatencyModel, NpuServiceAdapter
from repro.serving import (
    BatchingConfig,
    ClusterEngine,
    FixedRatioPolicy,
    FreeClockPlacer,
    LeastOutstandingWorkPlacer,
    ModelAffinityPlacer,
    ModeledExecutor,
    PerServerAdaptiveRatioPolicy,
    PlacementContext,
    QueueDepthAutoscaler,
    Request,
    ServingEngine,
    SloLatencyAutoscaler,
    TelemetryBus,
    WeightedSpeedPlacer,
    gpu_server,
    npu_server,
    requests_from_trace,
)
from repro.serving.cluster import PredictiveFaultAutoscaler, ServerSpec
from repro.serving.simulator import ServiceTimeModel
from repro.serving.telemetry import CLUSTER, ScaleEvent
from test_serving_engine import seed_serving_run


NPU_BIG = NpuConfig(array_rows=64, array_cols=64, clock_mhz=800.0)


@pytest.fixture(scope="module")
def mixed_specs():
    """One fast GPU + two slow (but not useless) NPUs, all ViT-Base."""
    return [
        gpu_server("gpu0", "vit_base", gpu="l40s"),
        npu_server("npu0", "vit_base", config=NPU_BIG),
        npu_server("npu1", "vit_base", config=NPU_BIG),
    ]


@pytest.fixture(scope="module")
def service_model():
    return ServiceTimeModel("vit_base", gpu="a6000", anchor_batches=(1, 16, 64, 128))


# ----------------------------------------------------------------------
# Server profiles
# ----------------------------------------------------------------------
class TestServerSpec:
    def test_speeds_measured_from_hardware_models(self, mixed_specs):
        gpu, npu0, npu1 = mixed_specs
        assert gpu.speed > 5 * npu0.speed  # the cluster really is mixed-speed
        assert npu0.speed == npu1.speed
        # Speed is reference_batch / batch_latency(reference_batch).
        expected = 64 / gpu.service_model.batch_latency(64, "int8")
        assert gpu.speed == pytest.approx(expected)

    def test_gpu_ordering(self):
        l40s = gpu_server("a", "vit_base", gpu="l40s")
        a6000 = gpu_server("b", "vit_base", gpu="a6000")
        assert l40s.speed > a6000.speed

    def test_npu_adapter_mode_semantics(self):
        adapter = NpuServiceAdapter(NpuLatencyModel(NPU_BIG))
        service = ServiceTimeModel(
            "resnet18", anchor_batches=(1, 8, 32), latency_model=adapter
        )
        int8 = service.batch_latency(8, "int8")
        int4 = service.batch_latency(8, "int4")
        flexi = service.batch_latency(8, "flexiq", 0.5)
        assert int4 < flexi < int8
        # int8 mode is exactly ratio 0, int4 exactly ratio 1.
        assert int8 == service.batch_latency(8, "flexiq", 0.0)
        assert int4 == service.batch_latency(8, "flexiq", 1.0)
        with pytest.raises(ValueError):
            adapter.model_latency([], "fp16")

    def test_spec_validation(self, service_model):
        with pytest.raises(ValueError):
            ServerSpec(name="bad-speed", speed=-1.0, service_model=service_model)
        with pytest.raises(ValueError):
            ServerSpec(name="no-backend", speed=1.0)
        spec = ServerSpec(name="ok", speed=2.0, service_model=service_model)
        assert isinstance(spec.build_executor(), ModeledExecutor)
        # Without a service model, estimates fall back to the speed scalar.
        executor_spec = ServerSpec(
            name="real", speed=10.0, executor=ModeledExecutor(service_model)
        )
        assert executor_spec.estimate_batch_seconds(5) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
class TestPlacement:
    def test_free_clock_placer_bit_identical_to_default(self, service_model):
        trace = PoissonTrace(2600, duration=2.0, seed=23).generate()

        def run(placer):
            engine = ServingEngine(
                BatchingConfig(max_batch=64), num_servers=3, placer=placer
            )
            engine.register("m", ModeledExecutor(service_model), mode="int8")
            return engine.run(trace=trace)

        default = run(None)
        explicit = run(FreeClockPlacer())
        np.testing.assert_array_equal(default.latencies, explicit.latencies)
        assert default.batch_sizes == explicit.batch_sizes
        assert [r.server for r in default.batch_records] == [
            r.server for r in explicit.batch_records
        ]

    def test_single_server_cluster_bit_identical_to_seed(self, service_model):
        """A 1-GPU ClusterEngine (no placer/autoscaler) == seed simulator."""
        trace = PoissonTrace(1800, duration=2.0, seed=17).generate()
        spec = gpu_server("g", "vit_base", gpu="a6000", anchor_batches=(1, 16, 64, 128))
        cluster = ClusterEngine([spec], BatchingConfig(max_batch=128))
        cluster.register("m", mode="int8")
        outcome = cluster.run(trace=trace)
        seed_latencies, _, _ = seed_serving_run(
            ServiceTimeModel("vit_base", gpu="a6000", anchor_batches=(1, 16, 64, 128)),
            BatchingConfig(max_batch=128),
            trace,
            "int8",
        )
        np.testing.assert_array_equal(outcome.latencies, seed_latencies)

    def test_speed_aware_placers_beat_free_clock_on_mixed_cluster(self, mixed_specs):
        """The tentpole property: smarter-than-argmin placement wins on
        heterogeneous hardware (throughput by makespan AND tail latency)."""
        trace = PoissonTrace(3000, duration=2.0, seed=33).generate()
        requests = requests_from_trace(trace, model="m")

        def run(placer):
            cluster = ClusterEngine(
                mixed_specs, BatchingConfig(max_batch=64), placer=placer
            )
            cluster.register("m", mode="int8")
            return cluster.run(requests=requests, record_responses=False)

        free_clock = run(None)
        least_work = run("least_work")
        weighted = run("weighted")
        assert least_work.throughput > free_clock.throughput
        assert weighted.throughput > free_clock.throughput
        assert least_work.p99_latency < free_clock.p99_latency
        assert weighted.p99_latency < free_clock.p99_latency
        # Placement changes scheduling, never correctness: everyone serves
        # every request.
        for outcome in (free_clock, least_work, weighted):
            assert outcome.latencies.size == len(requests)

    def test_weighted_placer_prefers_fast_idle_server(self):
        context = PlacementContext(
            time=1.0,
            free_at=[0.0, 0.5, 0.9],
            active=[0, 1, 2],
            batch_hint=8,
        )
        # All idle by t=1.0: the fastest server must win despite having the
        # *latest* free clock (argmin-free-clock would pick server 0).
        placer = WeightedSpeedPlacer([10.0, 20.0, 200.0])
        assert placer.place(context) == 2
        assert FreeClockPlacer().place(context) == 0

    def test_least_work_charges_backlog(self):
        # Fast server backlogged 1s; slow idle server can finish 4 requests
        # in 0.4s < 1s + 4/100, so overflow goes to the slow one.
        context = PlacementContext(
            time=0.0, free_at=[1.0, 0.0], active=[0, 1], batch_hint=4
        )
        assert LeastOutstandingWorkPlacer([100.0, 10.0]).place(context) == 1
        # With a tiny backlog the fast server wins again.
        context = PlacementContext(
            time=0.0, free_at=[0.05, 0.0], active=[0, 1], batch_hint=4
        )
        assert LeastOutstandingWorkPlacer([100.0, 10.0]).place(context) == 0

    @pytest.mark.parametrize("placer_cls", [LeastOutstandingWorkPlacer, WeightedSpeedPlacer])
    def test_score_ties_prefer_the_faster_then_the_lower_server(self, placer_cls):
        # Equal scores everywhere (idle, speeds ignored by the estimators):
        # the (score, -speed, server) order decides.
        context = PlacementContext(
            time=1.0, free_at=[0.0] * 4, active=[0, 1, 2, 3], batch_hint=2
        )
        flat = [lambda batch: 0.5] * 4
        assert placer_cls([1.0, 3.0, 3.0, 2.0], estimators=flat).place(context) == 1
        assert placer_cls([2.0, 2.0, 2.0, 2.0], estimators=flat).place(context) == 0

    def test_named_placer_asks_the_latency_model_once_per_batch_size(self):
        """A count, not a timing: ``batch_latency`` calls from ``least_work``.

        Cluster-built estimators are tables, so a run asks each server's
        model once per distinct (batch size, mode) however many batches it
        places; the servers *execute* on another model so that only
        placement reaches the counting one.
        """

        class CountingModel(ServiceTimeModel):
            def __init__(self):
                super().__init__()
                self.asked = []

            def batch_latency(self, batch_size, mode, ratio=0.0):
                self.asked.append((batch_size, mode))
                return super().batch_latency(batch_size, mode, ratio)

        models = [CountingModel() for _ in range(3)]
        executing = ModeledExecutor(ServiceTimeModel())
        cluster = ClusterEngine(
            [
                ServerSpec(f"s{i}", speed=1.0, service_model=model, executor=executing)
                for i, model in enumerate(models)
            ],
            batching=BatchingConfig(max_batch=8),
            placer="least_work",
        )
        cluster.register("m", mode="int8")
        trace = PoissonTrace(2000, duration=1.0, seed=2).generate()
        result = cluster.run(trace)
        assert len(result.result.batch_records) > 100
        for model in models:
            assert len(set(model.asked)) > 1  # several sizes were scored ...
            assert len(model.asked) == len(set(model.asked))  # ... once each
            assert {mode for _, mode in model.asked} == {"int8"}
        first = [list(model.asked) for model in models]
        cluster.run(trace)
        assert [model.asked for model in models] == first  # and never again

    def test_user_estimators_are_asked_every_time(self):
        # A caller's estimator may be stateful: the placer must not cache it.
        asked = []

        def estimator(batch):
            asked.append(batch)
            return 0.001 * len(asked)

        placer = LeastOutstandingWorkPlacer([1.0, 1.0], estimators=[estimator] * 2)
        context = PlacementContext(time=0.0, free_at=[0.0, 0.0], active=[0, 1], batch_hint=4)
        assert [placer.place(context) for _ in range(3)] == [0, 0, 0]
        assert asked == [4] * 6

    def test_placers_respect_active_set(self):
        context = PlacementContext(
            time=0.0, free_at=[0.0, 5.0], active=[1], batch_hint=1
        )
        assert FreeClockPlacer().place(context) == 1
        assert WeightedSpeedPlacer([100.0, 1.0]).place(context) == 1

    def test_invalid_speeds_rejected(self):
        with pytest.raises(ValueError):
            WeightedSpeedPlacer([])
        with pytest.raises(ValueError):
            LeastOutstandingWorkPlacer([1.0, 0.0])

    def test_engine_validates_placer_output(self, service_model):
        class Rogue:
            def place(self, context):
                return 7  # out of range

        engine = ServingEngine(num_servers=2, placer=Rogue())
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        with pytest.raises(ValueError):
            engine.run(requests=[Request(0.0, model="m")])

    @pytest.mark.parametrize("choice", [0.5, 1.5])
    def test_engine_refuses_a_fractional_placement(self, service_model, choice):
        """``int(0.5)`` is server 0: truncating served every batch there."""

        class Fractional:
            def place(self, context):
                return choice

        engine = ServingEngine(num_servers=2, placer=Fractional())
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        with pytest.raises(ValueError, match=f"placer returned server {choice},"):
            engine.run(requests=[Request(0.0, model="m")])

    def test_model_affinity_partitions_servers(self, service_model):
        fast = ServiceTimeModel("vit_base", gpu="l40s", anchor_batches=(1, 16, 64))
        placer = ModelAffinityPlacer({"a": [0, 1], "b": [2]})
        engine = ServingEngine(
            BatchingConfig(max_batch=16), num_servers=3, placer=placer
        )
        engine.register("a", ModeledExecutor(service_model), mode="int8")
        engine.register("b", ModeledExecutor(fast), mode="int8")
        requests = [
            Request(arrival_time=0.0005 * i, model=("a" if i % 2 else "b"))
            for i in range(400)
        ]
        outcome = engine.run(requests=requests)
        servers_by_model = {"a": set(), "b": set()}
        for record in outcome.batch_records:
            servers_by_model[record.model].add(record.server)
        assert servers_by_model["a"] <= {0, 1}
        assert servers_by_model["b"] == {2}

    def test_affinity_holds_across_drop_boundary(self, service_model):
        """Regression: the placer used to be consulted before the drop_after
        filter, so a batch whose expired head belonged to another model
        could run outside its own model's partition."""
        from repro.serving import EdfScheduler

        placer = ModelAffinityPlacer({"a": [0], "b": [1]})
        engine = ServingEngine(
            BatchingConfig(max_batch=8, drop_after=0.02),
            num_servers=2,
            placer=placer,
            scheduler=EdfScheduler(),
        )
        engine.register("a", ModeledExecutor(service_model), mode="int8")
        engine.register("b", ModeledExecutor(service_model), mode="int8")
        rng = np.random.default_rng(11)
        requests = [
            Request(
                arrival_time=0.0004 * i,
                model=("a" if i % 2 else "b"),
                deadline=0.0004 * i + float(rng.uniform(0.01, 0.5)),
            )
            for i in range(600)
        ]
        outcome = engine.run(requests=requests)
        assert outcome.dropped > 0  # the drop path really exercised
        for record in outcome.batch_records:
            assert record.server == (0 if record.model == "a" else 1)

    def test_fifo_affinity_holds_across_drop_boundary(self, service_model):
        placer = ModelAffinityPlacer({"a": [0], "b": [1]})
        engine = ServingEngine(
            BatchingConfig(max_batch=8, drop_after=0.02),
            num_servers=2,
            placer=placer,
        )
        engine.register("a", ModeledExecutor(service_model), mode="int8")
        engine.register("b", ModeledExecutor(service_model), mode="int8")
        requests = [
            Request(arrival_time=0.0004 * i, model=("a" if i % 2 else "b"))
            for i in range(600)
        ]
        outcome = engine.run(requests=requests)
        assert outcome.dropped > 0
        for record in outcome.batch_records:
            assert record.server == (0 if record.model == "a" else 1)

    def test_scheduled_drop_after_checked_against_placed_start(self, service_model):
        """Regression: expiry ran only against the earliest-free clock; a
        placer picking a later-free server then served requests that had
        waited beyond drop_after.  Both paths must honour the contract."""
        from repro.serving import EdfScheduler

        class PinToOne:
            def place(self, context):
                return 1

        def run(scheduler):
            engine = ServingEngine(
                BatchingConfig(max_batch=4, drop_after=1.0),
                num_servers=2,
                placer=PinToOne(),
                scheduler=scheduler,
            )
            engine.register("m", ModeledExecutor(service_model), mode="int8")
            engine.start(
                requests=[Request(arrival_time=0.1, model="m", request_id=0)]
            )
            # Server 1 is busy until t=5; server 0 is free (earliest clock).
            engine.set_active_servers([0, 1])
            engine._session.free_at[1] = 5.0
            return engine.finish()

        fifo = run(None)
        edf = run(EdfScheduler())
        # The request waits 4.9s > drop_after on the pinned server: dropped
        # on both paths, never served with a silently blown SLO.
        assert fifo.dropped == 1
        assert edf.dropped == 1
        assert edf.latencies.size == 0

    def test_affinity_waived_when_partition_inactive(self):
        placer = ModelAffinityPlacer({"a": [2]})
        context = PlacementContext(
            time=0.0, free_at=[0.0, 0.0, 0.0], active=[0, 1], model="a"
        )
        # Server 2 is parked: the restriction must not stall the queue.
        assert placer.place(context) in (0, 1)

    def test_scheduled_path_supports_placement(self, mixed_specs):
        """Placer + non-FIFO scheduler compose (EDF on a mixed cluster)."""
        from repro.serving import EdfScheduler

        trace = PoissonTrace(3000, duration=1.0, seed=7).generate()
        requests = requests_from_trace(trace, model="m", deadlines=[0.2, 1.0])

        def run(placer):
            cluster = ClusterEngine(
                mixed_specs,
                BatchingConfig(max_batch=64),
                scheduler=EdfScheduler(),
                placer=placer,
            )
            cluster.register("m", mode="int8")
            return cluster.run(requests=requests)

        free_clock = run(None)
        weighted = run("weighted")
        assert weighted.result.deadline_attainment() >= free_clock.result.deadline_attainment()
        assert weighted.latencies.size == len(requests)

    def test_unknown_named_placer_rejected(self, mixed_specs):
        with pytest.raises(ValueError):
            ClusterEngine(mixed_specs, placer="round_robin")


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
class TestTelemetry:
    def test_engine_publishes_per_server_windows(self, service_model):
        telemetry = TelemetryBus(window=0.5, num_servers=2)
        engine = ServingEngine(
            BatchingConfig(max_batch=32), num_servers=2, telemetry=telemetry
        )
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        trace = PoissonTrace(3000, duration=2.0, seed=5).generate()
        outcome = engine.run(trace=trace)

        total = sum(
            stats.served
            for server in range(2)
            for stats in telemetry.server_series(server)
        )
        assert total == outcome.latencies.size
        # Both servers show utilization in the busy windows.
        for server in range(2):
            series = telemetry.server_series(server)
            assert any(stats.utilization > 0.5 for stats in series)
            assert sum(stats.busy_time for stats in series) == pytest.approx(
                outcome.server_busy_times[server]
            )

    def test_windowed_ratio_queue_depth_and_rate(self, service_model):
        from repro.serving import RoundRobinRatioPolicy

        telemetry = TelemetryBus(window=1.0, num_servers=1)
        engine = ServingEngine(
            BatchingConfig(max_batch=8), telemetry=telemetry
        )
        engine.register(
            "m",
            ModeledExecutor(service_model),
            policy=RoundRobinRatioPolicy([0.0, 1.0]),
            mode="flexiq",
        )
        trace = RequestTrace(arrival_times=np.zeros(16), duration=0.0)
        engine.run(trace=trace)
        stats = telemetry.server_window(0, 0)
        assert stats.served == 16
        assert stats.batches == 2
        assert stats.executed_ratio == pytest.approx(0.5)
        assert stats.mean_queue_depth == pytest.approx((16 + 8) / 2)
        assert stats.served_rate == pytest.approx(16.0)
        assert stats.latencies.size == 16
        # Quiet windows report zeros, not errors.
        idle = telemetry.server_window(0, 7)
        assert idle.served == 0 and idle.utilization == 0.0
        assert np.isnan(idle.executed_ratio)

    def test_slo_attainment_and_drops_per_window(self, service_model):
        telemetry = TelemetryBus(window=1.0, num_servers=1)
        engine = ServingEngine(
            BatchingConfig(max_batch=4, drop_after=0.05), telemetry=telemetry
        )
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        trace = PoissonTrace(3000, duration=1.0, seed=4).generate()
        requests = requests_from_trace(trace, model="m", deadlines=[0.05, 0.8])
        outcome = engine.run(requests=requests)
        assert outcome.dropped > 0
        series = telemetry.cluster_series()
        assert sum(stats.drops for stats in series) == outcome.dropped
        # Window attainment uses the engine's deadline bookkeeping: met /
        # total, drops (with deadlines) counted in the total as misses.
        first = telemetry.cluster_window(0)
        assert first.drops > 0
        assert 0.0 < first.slo_attainment < 1.0
        met = sum(
            1
            for response in outcome.responses
            if response.deadline is not None
            and not response.dropped
            and response.finish_time <= response.deadline
        )
        assert sum(stats.deadline_met for stats in series) == met

    def test_policy_context_carries_telemetry(self, service_model):
        seen = []

        class Spy:
            def on_run_start(self, trace):
                pass

            def select(self, context):
                seen.append((context.telemetry, context.num_active))
                return 0.0

        telemetry = TelemetryBus(window=1.0, num_servers=1)
        engine = ServingEngine(telemetry=telemetry)
        engine.register("m", ModeledExecutor(service_model), policy=Spy())
        engine.run(requests=[Request(0.0, model="m")])
        assert seen == [(telemetry, 1)]

    def test_scale_events_recorded(self):
        bus = TelemetryBus(window=1.0, num_servers=2)
        bus.record_scale_event(ScaleEvent(1.0, "add", 1, 2, "test"))
        assert bus.scale_events[0].action == "add"
        bus.reset()
        assert bus.scale_events == []
        assert bus.last_window == -1

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            TelemetryBus(window=0.0)

    def test_a_nan_deadline_is_no_deadline(self):
        # nan is the store's "no deadline": neither carried nor met, as None.
        def window_zero(deadline):
            bus = TelemetryBus(window=1.0)
            requests = [
                Request(0.0, "m", request_id=i, deadline=deadline,
                        prefill_tokens=8, max_new_tokens=3)
                for i in range(3)
            ]
            engine = ServingEngine(telemetry=bus)
            engine.register("m", ModeledExecutor(ServiceTimeModel()))
            engine.run(requests=requests)
            stats = bus.server_window(0, 0)
            return stats.deadline_total, stats.deadline_met, stats.slo_attainment

        with_nan, with_none = window_zero(float("nan")), window_zero(None)
        assert with_nan[:2] == with_none[:2] == (0, 0)
        assert np.isnan(with_nan[2]) and np.isnan(with_none[2])


# ----------------------------------------------------------------------
# Hostile numbers at the boundary
# ----------------------------------------------------------------------
NEVER_VALID = (float("nan"), float("inf"), float("-inf"), -1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        (field, value)
        for field in ("window", "cluster window", "speed", "startup_delay", "duration")
        for value in NEVER_VALID
    ]
    # Zero is a legal startup_delay and duration (an all-at-once trace).
    + [("window", 0.0), ("speed", 0.0)],
)
def test_non_finite_or_non_positive_numbers_rejected_where_they_enter(
    field, value, service_model
):
    """``nan <= 0`` is false: a NaN window used to be accepted and put every
    batch in telemetry window INT64_MIN; a NaN speed passed the sign check."""

    def spec(speed=1.0):
        return ServerSpec(name="s", speed=speed, service_model=service_model)

    cluster = ClusterEngine([spec()])
    cluster.register("m", mode="int8")
    trace = PoissonTrace(100, duration=0.1, seed=0).generate()
    attempt = {
        "window": lambda: TelemetryBus(window=value),
        "cluster window": lambda: ClusterEngine([spec()], window=value),
        "speed": lambda: spec(speed=value),
        "startup_delay": lambda: ClusterEngine([spec()], startup_delay=value),
        "duration": lambda: cluster.run(trace, duration=value),
    }[field]
    name = field.split()[-1]
    with pytest.raises(ValueError, match=f"{name}.*{re.escape(repr(value))}"):
        attempt()
    # A refused duration left no session open.
    assert cluster.run(trace).result.latencies.size == len(trace)


# ----------------------------------------------------------------------
# Per-server adaptive ratio control
# ----------------------------------------------------------------------
class TestPerServerAdaptation:
    def _profile(self, service_model):
        def latency_fn(ratio, rate):
            trace = PoissonTrace(max(rate, 1), duration=2.0, seed=11).generate()
            engine = ServingEngine(BatchingConfig(max_batch=128))
            engine.register(
                "m", ModeledExecutor(service_model), policy=FixedRatioPolicy(ratio)
            )
            return engine.run(trace).median_latency

        return build_profile_from_latency_fn(
            [200, 600, 1000, 1600, 2200, 2800], [0.0, 0.5, 1.0], latency_fn
        )

    def test_only_the_loaded_server_raises_its_ratio(self, service_model):
        """The ROADMAP item: per-server signals, not global window rates."""
        profile = self._profile(service_model)
        policy = PerServerAdaptiveRatioPolicy(
            lambda: AdaptiveRatioController(profile, latency_threshold=0.05),
            control_window=1.0,
        )
        # Pin the heavy model to server 0 and a trickle to server 1.
        placer = ModelAffinityPlacer({"hot": [0], "cold": [1]})
        telemetry = TelemetryBus(window=1.0, num_servers=2)
        engine = ServingEngine(
            BatchingConfig(max_batch=64),
            num_servers=2,
            placer=placer,
            telemetry=telemetry,
        )
        service2 = ServiceTimeModel(
            "vit_base", gpu="a6000", anchor_batches=(1, 16, 64, 128)
        )
        engine.register("hot", ModeledExecutor(service_model), policy=policy, mode="flexiq")
        engine.register("cold", ModeledExecutor(service2), policy=policy, mode="flexiq")
        hot = requests_from_trace(
            PoissonTrace(2600, duration=6.0, seed=2).generate(), model="hot"
        )
        cold = requests_from_trace(
            PoissonTrace(50, duration=6.0, seed=3).generate(), model="cold"
        )
        engine.run(requests=list(hot) + list(cold), record_responses=False)

        assert set(policy.controllers) == {0, 1}
        hot_ratios = [e["ratio"] for e in policy.timeline if e["server"] == 0]
        cold_ratios = [e["ratio"] for e in policy.timeline if e["server"] == 1]
        assert max(hot_ratios) > 0.0          # overloaded server sheds accuracy
        assert max(cold_ratios) == 0.0        # idle server stays full precision
        # The rates fed to the hot controller are per-server served rates.
        hot_rates = [e["rate"] for e in policy.timeline if e["server"] == 0]
        assert max(hot_rates) > 2000

    def test_fallback_without_telemetry_uses_queue_depth(self, service_model):
        profile = self._profile(service_model)
        policy = PerServerAdaptiveRatioPolicy(
            lambda: AdaptiveRatioController(profile, latency_threshold=0.05),
            control_window=1.0,
        )
        engine = ServingEngine(BatchingConfig(max_batch=64))
        engine.register("m", ModeledExecutor(service_model), policy=policy, mode="flexiq")
        trace = PoissonTrace(2600, duration=4.0, seed=9).generate()
        outcome = engine.run(trace=trace)
        assert outcome.latencies.size == len(trace)
        assert policy.timeline  # controller updated from queue-depth signal

    def test_state_reset_between_runs(self, service_model):
        profile = self._profile(service_model)
        policy = PerServerAdaptiveRatioPolicy(
            lambda: AdaptiveRatioController(profile, latency_threshold=0.05)
        )
        engine = ServingEngine(BatchingConfig(max_batch=64))
        engine.register("m", ModeledExecutor(service_model), policy=policy, mode="flexiq")
        trace = PoissonTrace(500, duration=1.0, seed=1).generate()
        engine.run(trace=trace)
        first = policy.controllers[0]
        engine.run(trace=trace)
        assert policy.controllers[0] is not first  # fresh controllers per run


# ----------------------------------------------------------------------
# Autoscaling
# ----------------------------------------------------------------------
def _stats(depth=0.0, latencies=(), window=0, drops=0):
    from repro.serving import ClusterWindowStats
    from repro.serving.telemetry import Samples

    # A window's reported values are computed from its counts: one batch
    # that formed at `depth`, one part holding the latency samples.
    return ClusterWindowStats(
        server=CLUSTER,
        window=window,
        span=1.0,
        batches=1,
        queue_depth_sum=depth,
        drops=drops,
        latency_parts=Samples([np.asarray(latencies, dtype=np.float64)]),
    )


class TestAutoscalerPolicies:
    def test_queue_depth_hysteresis(self):
        scaler = QueueDepthAutoscaler(
            scale_up_depth=64, scale_down_depth=8, patience=2
        )
        assert scaler.decide(_stats(depth=100), 1) == 2       # hot -> up
        assert scaler.decide(_stats(depth=30), 2) == 2        # in band -> hold
        assert scaler.decide(_stats(depth=2), 2) == 2         # calm 1/2 -> hold
        assert scaler.decide(_stats(depth=2), 2) == 1         # calm 2/2 -> down
        assert scaler.decide(_stats(depth=2), 1) == 1         # calm streak restarts
        # A hot or in-band window resets the calm streak.
        assert scaler.decide(_stats(depth=100), 1) == 2       # hot: calm -> 0
        assert scaler.decide(_stats(depth=2), 2) == 2         # calm 1/2
        assert scaler.decide(_stats(depth=30), 2) == 2        # in band: calm -> 0
        assert scaler.decide(_stats(depth=2), 2) == 2         # calm 1/2 again
        assert scaler.decide(_stats(depth=2), 2) == 1         # calm 2/2 -> down

    def test_slo_latency_hysteresis(self):
        scaler = SloLatencyAutoscaler(
            slo_seconds=0.5, percentile=99, headroom=0.5, patience=2
        )
        assert scaler.decide(_stats(latencies=[0.9] * 10), 1) == 2   # breach
        assert scaler.decide(_stats(latencies=[0.4] * 10), 2) == 2   # met, no margin
        assert scaler.decide(_stats(latencies=[0.1] * 10), 2) == 2   # calm 1/2
        assert scaler.decide(_stats(latencies=[0.1] * 10), 2) == 1   # calm 2/2
        assert scaler.decide(_stats(), 1) == 1                       # empty window

    def test_slo_autoscaler_treats_drops_as_breach(self):
        """Regression: a mass-dropping cluster shows healthy *served*
        percentiles (the queue is being culled); drops must scale up and
        veto scale-down, never look calm."""
        scaler = SloLatencyAutoscaler(
            slo_seconds=0.5, percentile=99, headroom=0.5, patience=2
        )
        # Served latencies look great, but the window dropped traffic.
        assert scaler.decide(_stats(latencies=[0.1] * 10, drops=50), 1) == 2
        # Drops also reset the calm streak mid-countdown.
        assert scaler.decide(_stats(latencies=[0.1] * 10), 2) == 2   # calm 1/2
        assert scaler.decide(_stats(latencies=[0.1] * 10, drops=1), 2) == 3
        assert scaler.decide(_stats(latencies=[0.1] * 10), 3) == 3   # calm 1/2 again
        # An empty window with drops still scales up.
        assert scaler.decide(_stats(drops=10), 3) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            QueueDepthAutoscaler(scale_up_depth=4, scale_down_depth=8)
        with pytest.raises(ValueError):
            SloLatencyAutoscaler(slo_seconds=0.0)
        with pytest.raises(ValueError):
            SloLatencyAutoscaler(slo_seconds=1.0, headroom=0.0)

    @pytest.mark.parametrize("scaler", [SloLatencyAutoscaler, PredictiveFaultAutoscaler])
    @pytest.mark.parametrize("slo", [float("nan"), float("inf"), 0.0, -1.0])
    def test_the_slo_must_be_finite_and_positive(self, scaler, slo):
        """``nan <= 0`` is false: a NaN SLO used to pass, and then no window's
        percentile ever exceeded it, so the cluster never scaled up."""
        with pytest.raises(ValueError, match="slo_seconds must be a finite number > 0"):
            scaler(slo_seconds=slo)

    @pytest.mark.parametrize("scaler", [SloLatencyAutoscaler, PredictiveFaultAutoscaler])
    @pytest.mark.parametrize("percentile", [-1.0, 101.0, float("nan")])
    def test_the_percentile_must_be_in_0_to_100(self, scaler, percentile):
        """Refused at construction, not at the first window close."""
        with pytest.raises(ValueError, match=r"percentile must be a finite number in \[0, 100\]"):
            scaler(slo_seconds=0.1, percentile=percentile)


    def test_queue_depth_thresholds_must_be_finite(self):
        """A nan threshold fails every comparison: the scaler used to
        construct and then never scale."""
        nan = float("nan")
        with pytest.raises(ValueError, match="must be finite"):
            QueueDepthAutoscaler(scale_up_depth=nan, scale_down_depth=nan)
        with pytest.raises(ValueError, match="must be finite"):
            QueueDepthAutoscaler(scale_up_depth=nan)

    @pytest.mark.parametrize(
        "build",
        [
            lambda **streak: QueueDepthAutoscaler(**streak),
            lambda **streak: SloLatencyAutoscaler(slo_seconds=0.1, **streak),
            lambda **streak: PredictiveFaultAutoscaler(slo_seconds=0.1, **streak),
        ],
        ids=["queue_depth", "slo_latency", "predictive_fault"],
    )
    @pytest.mark.parametrize(
        "streak",
        [dict(patience=2.5, step=1.5), dict(patience=2.5), dict(step=1.5)],
    )
    def test_patience_and_step_must_be_whole_numbers(self, build, streak):
        """``int(active + 1.5)`` would truncate a fractional step at scale time."""
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            build(**streak)


def _reference_streak(signals, patience, step, active):
    """The hysteresis in plain Python: ``"up"`` adds ``step`` and breaks the
    streak, ``patience`` consecutive ``"calm"`` windows remove ``step``,
    ``"hold"`` breaks the streak and ``"skip"`` leaves it as it is."""
    calm, sizes = 0, []
    for signal in signals:
        if signal == "up":
            calm, active = 0, active + step
        elif signal == "calm":
            calm += 1
            if calm == patience:
                calm, active = 0, active - step
        elif signal == "hold":
            calm = 0
        sizes.append(active)
    return sizes


_DEPTHS = [0.0, 4.0, 8.0, 30.0, 64.0, 100.0]
_LATENCIES = [0.01, 0.04, 0.05, 0.06, 0.2]


@st.composite
def _windows(draw):
    """Window stats with depths and latencies on and around the thresholds
    (up 64 / down 8; SLO 0.1 with headroom 0.5), some dropping, some empty."""
    count = draw(st.integers(1, 30))
    return [
        _stats(
            depth=draw(st.sampled_from(_DEPTHS)),
            latencies=draw(st.lists(st.sampled_from(_LATENCIES), max_size=4)),
            window=window,
            drops=draw(st.sampled_from([0, 0, 0, 3])),
        )
        for window in range(count)
    ]


def _decisions(scaler, windows, active=10):
    sizes = []
    for stats in windows:
        active = scaler.decide(stats, active)
        sizes.append(active)
    return sizes


class TestOneHysteresis:
    """Every autoscaler runs the one calm-window streak."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(windows=_windows(), patience=st.integers(1, 4), step=st.integers(1, 3))
    def test_predictive_without_signals_is_the_slo_scaler(self, windows, patience, step):
        slo = SloLatencyAutoscaler(slo_seconds=0.1, patience=patience, step=step)
        predictive = PredictiveFaultAutoscaler(
            slo_seconds=0.1, patience=patience, step=step
        )
        assert _decisions(predictive, windows) == _decisions(slo, windows)
        assert predictive.last_reason == ""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(windows=_windows(), patience=st.integers(1, 4), step=st.integers(1, 3))
    def test_every_scaler_is_the_plain_streak(self, windows, patience, step):
        def slo_signal(stats):
            latencies = list(stats.latencies)
            if stats.drops > 0:
                return "up"
            if not latencies:
                return "skip"
            worst = max(latencies)  # the 100th percentile
            return "up" if worst > 0.1 else "calm" if worst < 0.05 else "hold"

        def depth_signal(stats):
            depth = stats.mean_queue_depth
            return "up" if depth > 64.0 else "calm" if depth < 8.0 else "hold"

        scalers = [
            (QueueDepthAutoscaler(64.0, 8.0, patience=patience, step=step), depth_signal),
            (SloLatencyAutoscaler(0.1, 100.0, 0.5, patience, step), slo_signal),
            (
                PredictiveFaultAutoscaler(
                    slo_seconds=0.1, percentile=100.0, patience=patience, step=step
                ),
                slo_signal,
            ),
        ]
        for scaler, signal in scalers:
            expected = _reference_streak(
                [signal(stats) for stats in windows], patience, step, 10
            )
            assert _decisions(scaler, windows) == expected
            scaler.reset()
            assert _decisions(scaler, windows) == expected


class TestElasticCluster:
    SLO = 0.5

    def _spike_requests(self):
        trace = merge_traces(
            PoissonTrace(400, duration=20.0, seed=1).generate(),
            SpikeTrace(
                base_rate=1e-9, spike_rate=2400, spike_start=8.0,
                spike_duration=4.0, duration=20.0, seed=2,
            ).generate(),
        )
        return requests_from_trace(trace, model="m")

    def _cluster(self, k=4, autoscaler=None, **kwargs):
        specs = [gpu_server(f"g{i}", "vit_base", gpu="a6000") for i in range(k)]
        cluster = ClusterEngine(
            specs, BatchingConfig(max_batch=64), autoscaler=autoscaler, **kwargs
        )
        cluster.register("m", mode="int8")
        return cluster

    def test_autoscaled_meets_slo_static_minimal_misses(self):
        """The acceptance scenario (mirrors examples/autoscaling_cluster.py)."""
        requests = self._spike_requests()
        static = self._cluster(k=1).run(requests=requests, record_responses=False)
        auto = self._cluster(
            k=4,
            autoscaler=SloLatencyAutoscaler(
                slo_seconds=0.15, percentile=99, headroom=0.3, patience=3
            ),
            min_servers=1,
            window=0.5,
            startup_delay=0.25,
        ).run(requests=requests, record_responses=False)

        assert static.p99_latency > self.SLO          # the miss
        assert auto.p99_latency < self.SLO            # the save
        assert auto.slo_attainment(self.SLO) > 0.99
        assert static.slo_attainment(self.SLO) < 0.9
        # Elasticity really happened: grew through the spike, shrank after.
        actions = [event.action for event in auto.scale_events]
        assert "add" in actions and "remove" in actions
        assert auto.peak_active > 1
        assert auto.scale_events[-1].active_after < auto.peak_active
        # The active timeline tells the same story: starts at the minimal
        # size, peaks with the spike, in chronological order.
        timeline = auto.active_timeline()
        assert timeline[0] == {"time": 0.0, "active": 1.0}
        assert max(entry["active"] for entry in timeline) == auto.peak_active
        assert [entry["time"] for entry in timeline] == sorted(
            entry["time"] for entry in timeline
        )
        # And it cost far less than a peak-sized static fleet would idle at:
        # the autoscaled run bills busy servers only.
        static4 = self._cluster(k=4).run(requests=requests, record_responses=False)
        assert static4.p99_latency < self.SLO
        assert auto.server_seconds < 4 * 20.0 * 0.6   # << 80 server-seconds wall

    def test_scale_up_capacity_not_retroactive(self):
        """A server activated at t gets free_at >= t + startup_delay."""
        from repro.serving import BatchExecution

        class Slow:
            def execute(self, batch, mode, ratio):
                return BatchExecution(service_time=10.0)

        engine = ServingEngine(BatchingConfig(max_batch=1), num_servers=2)
        engine.register("m", Slow(), mode="int8")
        engine.start(
            requests=[Request(arrival_time=0.0, model="m", request_id=i) for i in range(4)]
        )
        engine.set_active_servers([0])
        assert engine.step().server == 0
        engine.set_active_servers([0, 1], available_from=5.0)
        records = []
        while True:
            record = engine.step()
            if record is None:
                break
            records.append(record)
        engine.finish()
        late = [r for r in records if r.server == 1]
        assert late  # the new server did serve
        assert all(r.start >= 5.0 for r in late)

    def test_active_server_validation(self, service_model):
        engine = ServingEngine(num_servers=2)
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        with pytest.raises(RuntimeError):
            engine.set_active_servers([0])  # no open session
        engine.start()
        with pytest.raises(ValueError):
            engine.set_active_servers([])
        with pytest.raises(ValueError):
            engine.set_active_servers([5])
        engine.set_active_servers([1])
        assert engine.active_servers == [1]
        engine.finish()

    def test_deactivated_server_receives_no_new_batches(self, service_model):
        trace = PoissonTrace(3000, duration=1.0, seed=6).generate()
        engine = ServingEngine(BatchingConfig(max_batch=32), num_servers=3)
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        engine.start(trace=trace)
        engine.set_active_servers([0, 2])
        while engine.step() is not None:
            pass
        outcome = engine.finish()
        assert {record.server for record in outcome.batch_records} == {0, 2}

    def test_cluster_engine_parameter_validation(self, mixed_specs):
        with pytest.raises(ValueError):
            ClusterEngine([])
        cluster = ClusterEngine(mixed_specs)
        cluster.register("m", mode="int8")
        with pytest.raises(ValueError):
            cluster.run()  # same contract as ServingEngine.run
        with pytest.raises(ValueError):
            ClusterEngine(mixed_specs, min_servers=0)
        with pytest.raises(ValueError):
            ClusterEngine(mixed_specs, min_servers=2, initial_servers=1)
        with pytest.raises(ValueError):
            ClusterEngine(mixed_specs, startup_delay=-1.0)

    @pytest.mark.parametrize(
        "name, value", [("min_servers", 1.5), ("initial_servers", 2.7), ("min_domains", 1.5)]
    )
    def test_fractional_counts_are_refused(self, mixed_specs, name, value):
        """``int()`` used to truncate each count (1.5 -> 1, 2.7 -> 2)."""
        with pytest.raises(ValueError, match=f"{name} must be an integer.*{value}"):
            ClusterEngine(mixed_specs, **{name: value})

    def test_repeated_runs_identical_with_stateful_autoscaler(self):
        """Regression: hysteresis state leaked across runs; a reused
        ClusterEngine must reproduce the same deterministic schedule."""
        requests = self._spike_requests()
        cluster = self._cluster(
            k=3,
            autoscaler=QueueDepthAutoscaler(
                scale_up_depth=64, scale_down_depth=8, patience=2
            ),
            min_servers=1,
            window=0.5,
        )
        first = cluster.run(requests=requests, record_responses=False)
        second = cluster.run(requests=requests, record_responses=False)
        assert [
            (event.time, event.action, event.server)
            for event in first.scale_events
        ] == [
            (event.time, event.action, event.server)
            for event in second.scale_events
        ]
        np.testing.assert_array_equal(first.latencies, second.latencies)

    def test_min_servers_floor_respected(self):
        requests = self._spike_requests()
        auto = self._cluster(
            k=3,
            autoscaler=QueueDepthAutoscaler(
                scale_up_depth=64, scale_down_depth=8, patience=1
            ),
            min_servers=2,
            window=0.5,
        ).run(requests=requests, record_responses=False)
        assert all(event.active_after >= 2 for event in auto.scale_events)

    def test_heterogeneous_scale_order_fastest_first(self, mixed_specs):
        """Scale-up wakes the fastest parked server (the GPU last parked)."""
        requests = self._spike_requests()
        cluster = ClusterEngine(
            mixed_specs,
            BatchingConfig(max_batch=64),
            placer="weighted",
            autoscaler=QueueDepthAutoscaler(
                scale_up_depth=32, scale_down_depth=4, patience=2
            ),
            min_servers=1,
            window=0.5,
        )
        cluster.register("m", mode="int8")
        outcome = cluster.run(requests=requests, record_responses=False)
        adds = [event for event in outcome.scale_events if event.action == "add"]
        removes = [event for event in outcome.scale_events if event.action == "remove"]
        assert adds, "the spike must trigger scale-up"
        # Server 0 is the fast GPU and starts active (fastest-first initial
        # set); the first added servers are the NPUs, slowest removed first
        # on the way down.
        if removes:
            slowest = min(
                range(len(mixed_specs)), key=lambda s: mixed_specs[s].speed
            )
            assert removes[0].server in (1, 2) and slowest in (1, 2)


@pytest.mark.parametrize("placer", ["least_work", "weighted", "predictive", "spread"])
def test_a_finished_cluster_is_freed_without_the_garbage_collector(placer):
    """A named placer's estimators hold no reference back to the cluster:
    a finished run's cluster, engine and tracer go when the last reference
    does, not at the next full collection."""
    import gc
    import weakref

    from repro.obs import Tracer

    specs = [gpu_server(f"g{i}", "vit_base", gpu="a6000") for i in range(2)]
    cluster = ClusterEngine(
        specs, BatchingConfig(max_batch=8), placer=placer, tracer=Tracer()
    )
    cluster.register("m", mode="int8")
    trace = PoissonTrace(50, 1.0, seed=3).generate()
    cluster.run(requests=requests_from_trace(trace, model="m"))
    gone = weakref.ref(cluster)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del cluster
        assert gone() is None
    finally:
        if enabled:
            gc.enable()
