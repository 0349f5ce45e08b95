"""Tests for the failure-domain layer (ISSUE 6).

Covers the pieces the zone-outage tentpole is built from:

* **Topology** — zone/rack identity on `ServerSpec`, the `ClusterTopology`
  domain map, domain-scoped `FaultEvent`s and `FaultSchedule.expand`.
* **Schedule validation** — duplicate / same-instant / recover-never-failed
  scripts fail loudly instead of silently mis-applying.
* **Spread placement** — `SpreadPlacer` steers batches toward the
  least-backlogged domain and honours `max_domain_share`.
* **Warm spares** — `WarmSparePool` promotion on crash (no provisioning
  lag), demotion on recovery, reserve protected from ordinary scale-up.
* **Domain-aware autoscaling** — `min_domains` floors on scale-down,
  under-represented domains preferred on scale-up.
* **Predictive fault-aware autoscaling** — `PredictiveFaultAutoscaler`
  scales on a served-per-busy-second collapse before the SLO breaks.
* **Checkpointing** — `StepCheckpoint` fractions, migrants resuming with
  residual demand, fresh riders paying the full batch.
* **Timeline edge cases** — deterministic merged ordering of scale and
  fault events, trailing faults in the final window,
  `summarize_migrations` on empty/None inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    BatchExecution,
    BatchingConfig,
    ClusterEngine,
    ClusterTopology,
    FaultEvent,
    FaultSchedule,
    FreeClockPlacer,
    PlacementContext,
    PredictiveFaultAutoscaler,
    QueueDepthAutoscaler,
    Request,
    RequeueAtHeadMigration,
    ScaleEvent,
    ServerSpec,
    ServingEngine,
    SloLatencyAutoscaler,
    SpreadPlacer,
    StepCheckpoint,
    TelemetryBus,
    WarmSparePool,
    gpu_server,
    requests_from_trace,
    summarize_migrations,
)
from repro.data.traces import PoissonTrace


class FixedExecutor:
    """Deterministic executor: every batch takes exactly ``seconds``."""

    def __init__(self, seconds: float) -> None:
        self.seconds = float(seconds)

    def execute(self, batch, mode, ratio):
        return BatchExecution(service_time=self.seconds)


def fixed_spec(name, speed=1000.0, seconds=0.01, zone="", rack=""):
    return ServerSpec(
        name=name,
        speed=speed,
        executor=FixedExecutor(seconds),
        zone=zone,
        rack=rack,
    )


def conserve(result, admitted: int) -> None:
    served = result.latencies.size
    assert served + result.dropped == admitted
    assert sum(record.size for record in result.batch_records) == served
    if result.responses is not None:
        assert len(result.responses) == admitted
        assert all(response is not None for response in result.responses)


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------
class TestClusterTopology:
    def test_from_specs_and_domain_precedence(self):
        specs = [
            fixed_spec("a0", zone="A", rack="r1"),
            fixed_spec("a1", zone="A", rack="r2"),
            fixed_spec("b0", rack="r3"),
            fixed_spec("c0"),
        ]
        topology = ClusterTopology.from_specs(specs)
        assert topology.num_servers == 4
        # Zone dominates rack dominates the server-is-its-own-island default.
        assert topology.domain_of(0) == "zone:A"
        assert topology.domain_of(2) == "rack:r3"
        assert topology.domain_of(3) == "server:3"
        assert topology.zones == {"A": [0, 1]}
        assert topology.racks == {"r1": [0], "r2": [1], "r3": [2]}
        assert topology.domains == {
            "zone:A": [0, 1],
            "rack:r3": [2],
            "server:3": [3],
        }
        assert topology.num_domains == 3
        assert topology.servers_in_zone("A") == [0, 1]
        assert topology.servers_in_rack("r3") == [2]
        assert topology.servers_in_zone("nope") == []

    def test_mismatched_maps_rejected(self):
        with pytest.raises(ValueError):
            ClusterTopology(zone_by_server=("a",), rack_by_server=())

    def test_gpu_server_carries_domain_identity(self):
        spec = gpu_server("g", "vit_base", gpu="a6000", zone="eu-1", rack="r7")
        assert (spec.zone, spec.rack) == ("eu-1", "r7")


# ----------------------------------------------------------------------
# Domain-scoped fault events + schedule validation (satellite)
# ----------------------------------------------------------------------
class TestDomainFaultEvents:
    def test_domain_event_validation(self):
        event = FaultEvent(time=1.0, kind="zone_outage", zone="A")
        assert event.server == -1
        with pytest.raises(ValueError):  # domain kind needs its domain name
            FaultEvent(time=1.0, kind="zone_outage")
        with pytest.raises(ValueError):  # wrong scope named
            FaultEvent(time=1.0, kind="zone_outage", rack="r1")
        with pytest.raises(ValueError):  # domain kinds never name a server
            FaultEvent(time=1.0, server=0, kind="zone_outage", zone="A")
        with pytest.raises(ValueError):  # server kinds never name a domain
            FaultEvent(time=1.0, server=0, kind="crash", zone="A")
        with pytest.raises(ValueError):  # slowdown factor applies to domains too
            FaultEvent(time=1.0, kind="rack_slowdown", rack="r1", factor=0.5)

    def test_expand_resolves_domains_and_tags(self):
        topology = ClusterTopology(
            zone_by_server=("A", "A", "B"), rack_by_server=("", "", "")
        )
        schedule = FaultSchedule.zone_outage("A", at=2.0, recover_at=4.0)
        assert schedule.has_domain_events
        assert schedule.servers == []
        expanded = schedule.expand(topology)
        assert not expanded.has_domain_events
        assert [(e.time, e.server, e.kind, e.domain) for e in expanded] == [
            (2.0, 0, "crash", "zone:A"),
            (2.0, 1, "crash", "zone:A"),
            (4.0, 0, "recover", "zone:A"),
            (4.0, 1, "recover", "zone:A"),
        ]

    def test_expand_rejects_unknown_domain(self):
        topology = ClusterTopology(
            zone_by_server=("A",), rack_by_server=("",)
        )
        with pytest.raises(ValueError, match="no server"):
            FaultSchedule.zone_outage("Z", at=1.0).expand(topology)

    def test_expand_recheck_catches_recover_without_outage(self):
        """The recover check is deferred for domain scripts — and enforced
        once expansion makes the per-server script explicit."""
        topology = ClusterTopology(
            zone_by_server=("A",), rack_by_server=("",)
        )
        schedule = FaultSchedule([FaultEvent(time=1.0, kind="zone_recover", zone="A")])
        with pytest.raises(ValueError, match="recover"):
            schedule.expand(topology)

    def test_an_outage_may_sweep_up_a_server_already_down(self):
        """A second *server-scoped* crash of a down server is a typo and is
        refused; a zone outage that finds one of its members already down is
        a scenario, and its expansion stays valid."""
        topology = ClusterTopology(zone_by_server=("A", "A"), rack_by_server=("", ""))
        schedule = FaultSchedule(
            [
                FaultEvent(time=1.0, server=0, kind="crash"),
                FaultEvent(time=2.0, kind="zone_outage", zone="A"),
            ]
        )
        expanded = schedule.expand(topology)
        assert [(e.time, e.server, e.kind) for e in expanded] == [
            (1.0, 0, "crash"), (2.0, 0, "crash"), (2.0, 1, "crash"),
        ]

    def test_rack_slowdown_classmethod(self):
        schedule = FaultSchedule.rack_slowdown("r1", at=1.0, factor=4.0, recover_at=2.0)
        assert [e.kind for e in schedule] == ["rack_slowdown", "rack_recover"]
        with pytest.raises(ValueError):
            FaultSchedule.rack_slowdown("r1", at=2.0, factor=4.0, recover_at=1.0)


class TestScheduleValidation:
    def test_duplicate_events_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultSchedule(
                [
                    FaultEvent(time=1.0, server=0, kind="crash"),
                    FaultEvent(time=1.0, server=0, kind="crash"),
                ]
            )

    def test_same_instant_events_on_one_server_rejected(self):
        with pytest.raises(ValueError, match="same-instant"):
            FaultSchedule(
                [
                    FaultEvent(time=1.0, server=0, kind="crash"),
                    FaultEvent(time=1.0, server=0, kind="recover"),
                ]
            )

    def test_recover_for_healthy_server_rejected(self):
        with pytest.raises(ValueError, match="typo"):
            FaultSchedule([FaultEvent(time=1.0, server=3, kind="recover")])
        # A recover after a slowdown (not just a crash) is legitimate.
        FaultSchedule(
            [
                FaultEvent(time=1.0, server=0, kind="slowdown", factor=2.0),
                FaultEvent(time=2.0, server=0, kind="recover"),
            ]
        )

    def test_unsorted_input_is_sorted_deterministically(self):
        schedule = FaultSchedule(
            [
                # (not a second crash: server 1 is still down from its first)
                FaultEvent(time=2.0, server=1, kind="slowdown", factor=2.0),
                FaultEvent(time=1.0, server=1, kind="crash"),
                FaultEvent(time=1.0, server=0, kind="crash"),
                FaultEvent(time=3.0, server=0, kind="recover"),
                FaultEvent(time=3.0, server=1, kind="recover"),
            ]
        )
        assert [(e.time, e.server) for e in schedule] == [
            (1.0, 0),
            (1.0, 1),
            (2.0, 1),
            (3.0, 0),
            (3.0, 1),
        ]


# ----------------------------------------------------------------------
# Spread placement
# ----------------------------------------------------------------------
class TestSpreadPlacer:
    topology = ClusterTopology(
        zone_by_server=("A", "A", "B", "B"), rack_by_server=("", "", "", "")
    )

    def test_picks_least_backlogged_domain(self):
        placer = SpreadPlacer(self.topology)
        # Zone A backlogged 1.0s/server, zone B 0.1s/server.
        context = PlacementContext(
            time=0.0, free_at=[1.0, 1.0, 0.1, 0.2], active=[0, 1, 2, 3]
        )
        assert placer.place(context) == 2
        # Flip the pressure and the choice follows.
        context = PlacementContext(
            time=0.0, free_at=[0.0, 0.1, 2.0, 2.0], active=[0, 1, 2, 3]
        )
        assert placer.place(context) == 0

    def test_single_domain_delegates_to_within(self):
        placer = SpreadPlacer(self.topology, within=FreeClockPlacer())
        context = PlacementContext(time=0.0, free_at=[0.5, 0.2, 9.0, 9.0], active=[0, 1])
        assert placer.place(context) == 1

    def test_max_domain_share_excludes_concentrated_domain(self):
        placer = SpreadPlacer(self.topology, max_domain_share=0.6)
        # Zone B holds ~89% of total backlog; even though a B server is the
        # earliest-free (server 3 at 0.05), the bound forces zone A.
        context = PlacementContext(
            time=0.0, free_at=[0.5, 0.6, 8.0, 0.05], active=[0, 1, 2, 3]
        )
        assert placer.place(context) == 0
        # The bound is waived rather than stalling when nothing qualifies.
        tight = SpreadPlacer(self.topology, max_domain_share=0.05)
        assert tight.place(context) in (0, 1, 2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpreadPlacer(self.topology, max_domain_share=0.0)
        with pytest.raises(ValueError):
            SpreadPlacer(self.topology, max_domain_share=1.5)

    def test_named_spread_placer_resolves(self):
        specs = [fixed_spec(f"s{i}", zone="AB"[i % 2]) for i in range(4)]
        cluster = ClusterEngine(specs, placer="spread")
        assert isinstance(cluster.engine.placer, SpreadPlacer)
        helper = cluster.spread_placer(within="least_work", max_domain_share=0.9)
        assert isinstance(helper, SpreadPlacer)
        assert helper.max_domain_share == 0.9

    def test_spread_keeps_zones_balanced(self):
        """Under spread placement neither zone swallows the whole stream."""
        specs = [fixed_spec(f"s{i}", zone="AB"[i // 2]) for i in range(4)]
        cluster = ClusterEngine(specs, BatchingConfig(max_batch=8), placer="spread")
        cluster.register("m", mode="int8")
        trace = PoissonTrace(2000, duration=1.0, seed=3).generate()
        result = cluster.run(trace=trace)
        by_zone = {"A": 0, "B": 0}
        for record in result.result.batch_records:
            by_zone["AB"[record.server // 2]] += record.size
        total = sum(by_zone.values())
        assert total == result.latencies.size
        assert min(by_zone.values()) > 0.3 * total


# ----------------------------------------------------------------------
# Warm spares
# ----------------------------------------------------------------------
class TestWarmSpares:
    def test_pool_validation(self):
        with pytest.raises(ValueError):
            WarmSparePool([])
        with pytest.raises(ValueError):
            WarmSparePool([1, 1])
        with pytest.raises(ValueError):
            WarmSparePool([-1])
        with pytest.raises(ValueError):
            WarmSparePool([1], promotion_latency=-0.1)
        assert WarmSparePool([3, 1]).spares == (1, 3)

    def test_cluster_rejects_bad_pools(self):
        specs = [fixed_spec("a"), fixed_spec("b")]
        with pytest.raises(ValueError, match="names server"):
            ClusterEngine(specs, warm_spares=WarmSparePool([5]))
        with pytest.raises(ValueError, match="every server"):
            ClusterEngine(specs, warm_spares=WarmSparePool([0, 1]))

    def _run(self, promotion_latency=0.05, recover_at=None):
        specs = [
            fixed_spec("g0", zone="A"),
            fixed_spec("g1", zone="B"),
            fixed_spec("s2", zone="C"),
        ]
        schedule = FaultSchedule.single_crash(0, at=0.5, recover_at=recover_at)
        cluster = ClusterEngine(
            specs,
            BatchingConfig(max_batch=8),
            warm_spares=WarmSparePool([2], promotion_latency=promotion_latency),
            fault_schedule=schedule,
            migration=RequeueAtHeadMigration(delay=0.001),
            window=0.25,
        )
        cluster.register("m", mode="int8")
        trace = PoissonTrace(1200, duration=2.0, seed=9).generate()
        return cluster.run(trace=trace)

    def test_crash_promotes_spare_without_provisioning_lag(self):
        outcome = self._run(promotion_latency=0.05)
        promotions = outcome.promotions
        assert len(promotions) == 1
        event = promotions[0]
        assert event.server == 2
        assert event.action == "promote"
        assert "zone:A" in event.reason
        # Promotion happens at the same boundary the crash is applied at:
        # the spare is serviceable promotion_latency later, not
        # startup_delay later.
        boundary = 0.75  # crash at 0.5, window 0.25
        assert event.time == pytest.approx(boundary)
        served_on_spare = [
            r for r in outcome.result.batch_records if r.server == 2
        ]
        assert served_on_spare
        assert min(r.start for r in served_on_spare) >= boundary + 0.05
        assert min(r.start for r in served_on_spare) < boundary + 0.25
        conserve(outcome.result, outcome.result.request_latencies.size)

    def test_recovery_demotes_the_spare(self):
        outcome = self._run(recover_at=1.0)
        actions = [e.action for e in outcome.scale_events]
        assert actions.count("promote") == 1
        assert actions.count("demote") == 1
        demote = [e for e in outcome.scale_events if e.action == "demote"][0]
        assert demote.server == 2
        conserve(outcome.result, outcome.result.request_latencies.size)

    def test_spares_start_parked_and_reserved_from_autoscaling(self):
        """Ordinary scale-up never eats the crash budget."""
        specs = [fixed_spec(f"g{i}", zone="AB"[i % 2]) for i in range(2)] + [
            fixed_spec("s2", zone="C")
        ]
        cluster = ClusterEngine(
            specs,
            BatchingConfig(max_batch=4),
            autoscaler=QueueDepthAutoscaler(scale_up_depth=1.0, scale_down_depth=0.0),
            min_servers=1,
            initial_servers=1,
            warm_spares=WarmSparePool([2]),
            window=0.1,
        )
        cluster.register("m", mode="int8")
        trace = PoissonTrace(3000, duration=1.0, seed=4).generate()
        outcome = cluster.run(trace=trace)
        added = [e.server for e in outcome.scale_events if e.action == "add"]
        assert added  # the overload really scaled the cluster up
        assert 2 not in added
        assert outcome.initial_active == 1

    def test_without_autoscaler_primaries_active_spares_parked(self):
        specs = [fixed_spec("g0"), fixed_spec("s1")]
        cluster = ClusterEngine(
            specs,
            BatchingConfig(max_batch=8),
            warm_spares=WarmSparePool([1]),
        )
        cluster.register("m", mode="int8")
        trace = PoissonTrace(500, duration=0.5, seed=2).generate()
        outcome = cluster.run(trace=trace)
        assert outcome.initial_active == 1
        assert all(r.server == 0 for r in outcome.result.batch_records)


# ----------------------------------------------------------------------
# Domain-aware autoscaling
# ----------------------------------------------------------------------
class TestDomainAwareAutoscaling:
    def _cluster(self, min_domains, specs, **kwargs):
        return ClusterEngine(
            specs,
            BatchingConfig(max_batch=4),
            autoscaler=kwargs.pop(
                "autoscaler",
                QueueDepthAutoscaler(scale_up_depth=1.0, scale_down_depth=0.0),
            ),
            min_domains=min_domains,
            window=0.1,
            **kwargs,
        )

    def test_min_domains_validation(self):
        with pytest.raises(ValueError):
            ClusterEngine([fixed_spec("a")], min_domains=0)

    def test_scale_up_prefers_under_represented_domain(self):
        # Parked: s1 (zone A, fast) and s2 (zone B, slow).  Speed order
        # says s1; domain diversity says s2.
        specs = [
            fixed_spec("a0", speed=100.0, zone="A"),
            fixed_spec("a1", speed=90.0, zone="A"),
            fixed_spec("b0", speed=10.0, zone="B"),
        ]
        trace = PoissonTrace(3000, duration=0.6, seed=4).generate()

        def first_added(min_domains):
            cluster = self._cluster(
                min_domains, specs, min_servers=1, initial_servers=1
            )
            cluster.register("m", mode="int8")
            outcome = cluster.run(trace=trace)
            added = [e.server for e in outcome.scale_events if e.action == "add"]
            assert added
            return added[0]

        assert first_added(None) == 1       # fastest-first, the old rule
        assert first_added(2) == 2          # diversity-first

    def test_scale_down_keeps_min_domains(self):
        # Idle load drives the autoscaler all the way down; min_domains=2
        # must stop it from concentrating into one zone.
        specs = [
            fixed_spec("a0", speed=100.0, zone="A"),
            fixed_spec("a1", speed=90.0, zone="A"),
            fixed_spec("b0", speed=10.0, zone="B"),
        ]
        cluster = self._cluster(
            2,
            specs,
            min_servers=1,
            initial_servers=3,
            autoscaler=QueueDepthAutoscaler(
                scale_up_depth=1e9, scale_down_depth=1e9, patience=1
            ),
        )
        cluster.register("m", mode="int8")
        trace = PoissonTrace(200, duration=1.0, seed=1).generate()
        outcome = cluster.run(trace=trace)
        active = set(range(3))
        for event in outcome.scale_events:
            if event.action == "remove":
                active.discard(event.server)
            elif event.action in ("add", "promote"):
                active.add(event.server)
            domains = {cluster.topology.domain_of(s) for s in active}
            assert len(domains) >= 2
        assert len(active) == 2  # it still scaled down as far as allowed


# ----------------------------------------------------------------------
# Predictive fault-aware autoscaling
# ----------------------------------------------------------------------
class TestPredictiveFaultAutoscaler:
    def test_validation(self):
        with pytest.raises(ValueError):
            PredictiveFaultAutoscaler(slo_seconds=0.0)
        with pytest.raises(ValueError):
            PredictiveFaultAutoscaler(slo_seconds=1.0, collapse_ratio=1.0)
        with pytest.raises(ValueError):
            PredictiveFaultAutoscaler(slo_seconds=1.0, alpha=0.0)
        with pytest.raises(ValueError):
            PredictiveFaultAutoscaler(slo_seconds=1.0, patience=0)

    def test_without_telemetry_behaves_reactively(self):
        scaler = PredictiveFaultAutoscaler(slo_seconds=1.0)
        bus = TelemetryBus(window=1.0, num_servers=1)
        stats = bus.cluster_window(0)
        assert scaler.decide(stats, 2) == 2  # no latencies, no drops: hold

    def test_scales_up_before_the_slo_breaks(self):
        """The tentpole property: a slowdown fault triggers the predictive
        scale-up at least one window before the reactive SLO autoscaler
        moves (served-per-busy-second collapses immediately; the p99 only
        breaches once the backlog has already built)."""
        specs = [fixed_spec(f"g{i}", seconds=0.004) for i in range(3)]
        trace = PoissonTrace(1500, duration=4.0, seed=11).generate()
        requests = requests_from_trace(trace, model="m", deadlines=[0.8])
        faults = FaultSchedule(
            [FaultEvent(time=1.0, server=0, kind="slowdown", factor=40.0)]
        )

        def first_add(autoscaler):
            cluster = ClusterEngine(
                [fixed_spec(f"g{i}", seconds=0.004, zone="Z") for i in range(3)]
                + [fixed_spec("spare", seconds=0.004)],
                BatchingConfig(max_batch=8),
                autoscaler=autoscaler,
                min_servers=3,
                initial_servers=3,
                fault_schedule=faults,
                window=0.25,
            )
            cluster.register("m", mode="int8")
            outcome = cluster.run(requests=requests)
            adds = [e for e in outcome.scale_events if e.action == "add"]
            return adds[0] if adds else None

        predictive = first_add(PredictiveFaultAutoscaler(slo_seconds=0.8))
        reactive = first_add(SloLatencyAutoscaler(slo_seconds=0.8))
        assert predictive is not None
        assert "predicted degradation" in predictive.reason
        if reactive is not None:
            assert predictive.time < reactive.time
        del specs  # noqa: F841 - documents the shared shape

    def test_reset_clears_forecasts(self):
        scaler = PredictiveFaultAutoscaler(slo_seconds=1.0)
        scaler._ewma[0] = 100.0
        scaler.last_reason = "x"
        scaler.reset()
        assert scaler._ewma == {}
        assert scaler.last_reason == ""


# ----------------------------------------------------------------------
# Partial-batch checkpointing
# ----------------------------------------------------------------------
class TestCheckpointing:
    def test_step_checkpoint_fractions(self):
        policy = StepCheckpoint(steps=4)

        class R:
            start, finish = 0.0, 1.0

        assert policy.completed_fraction(R, 0.1) == 0.0     # before first step
        assert policy.completed_fraction(R, 0.6) == 0.5     # crossed 2 of 4
        assert policy.completed_fraction(R, 5.0) == 0.75    # capped below 1
        assert policy.completed_fraction(R, -1.0) == 0.0
        assert StepCheckpoint(steps=1).completed_fraction(R, 0.9) == 0.0
        with pytest.raises(ValueError):
            StepCheckpoint(steps=0)

    def _preempt(self, checkpoint, kill_at=0.5):
        engine = ServingEngine(BatchingConfig(max_batch=4), num_servers=2)
        engine.register("m", FixedExecutor(1.0), mode="int8")
        engine.start(
            requests=[
                Request(arrival_time=0.0, model="m", request_id=i)
                for i in range(4)
            ]
        )
        engine.step()
        engine.preempt_server(
            0,
            kill_at,
            policy=RequeueAtHeadMigration(),
            kill_running=True,
            checkpoint=checkpoint,
        )
        engine.set_active_servers([1])
        return engine.finish()

    def test_migrants_resume_with_residual_demand(self):
        # Killed at 0.5 of a 1.0s batch with 4 steps: 2 checkpoints crossed,
        # the cohort resumes with 0.5 residual -> a 0.5s re-execution.
        fresh = self._preempt(None)
        resumed = self._preempt(StepCheckpoint(steps=4))
        conserve(fresh, 4)
        conserve(resumed, 4)
        assert fresh.latencies.max() == pytest.approx(1.5)   # 0.5 + full 1.0
        assert resumed.latencies.max() == pytest.approx(1.0)  # 0.5 + residual 0.5
        assert resumed.migrated == fresh.migrated == 4

    def test_checkpoint_before_any_step_changes_nothing(self):
        # Killed before the first checkpoint boundary: nothing survives.
        early = self._preempt(StepCheckpoint(steps=4), kill_at=0.2)
        plain = self._preempt(None, kill_at=0.2)
        np.testing.assert_allclose(early.latencies, plain.latencies)

    def test_fresh_rider_pays_the_full_batch(self):
        """A cohort's residual is its *largest* member demand: batching a
        checkpointed migrant with a fresh request costs the full batch."""
        engine = ServingEngine(BatchingConfig(max_batch=4), num_servers=2)
        engine.register("m", FixedExecutor(1.0), mode="int8")
        engine.register("n", FixedExecutor(1.0), mode="int8")
        # Server 1 is pinned busy with model "n" so the fresh "m" request
        # queues; the requeued migrant lands at the head right before it
        # and the two form one cohort when server 1 frees at t=1.0.
        engine.start(
            requests=[
                Request(arrival_time=0.0, model="m", request_id=0),
                Request(arrival_time=0.0, model="n", request_id=1),
                Request(arrival_time=0.3, model="m", request_id=2),
            ]
        )
        engine.step()  # "m" alone on server 0, "n" alone on server 1
        engine.step()
        engine.preempt_server(
            0,
            0.5,
            policy=RequeueAtHeadMigration(),
            kill_running=True,
            checkpoint=StepCheckpoint(steps=4),
        )
        engine.set_active_servers([1])
        result = engine.finish()
        conserve(result, 3)
        # The rejoined batch holds the 0.5-residual migrant plus the fresh
        # rider: it pays the rider's full 1.0s, not the residual.
        rejoined = [
            r for r in result.batch_records if r.server == 1 and r.size == 2
        ]
        assert len(rejoined) == 1
        assert rejoined[0].finish - rejoined[0].start == pytest.approx(1.0)

    def test_dropped_migrant_checkpoint_state_is_discarded(self):
        class DropAll:
            def plan(self, migrants, time):
                return [None] * len(migrants)

        engine = ServingEngine(BatchingConfig(max_batch=4), num_servers=2)
        engine.register("m", FixedExecutor(1.0), mode="int8")
        engine.start(
            requests=[
                Request(arrival_time=0.0, model="m", request_id=i)
                for i in range(4)
            ]
        )
        engine.step()
        engine.preempt_server(
            0, 0.5, policy=DropAll(), kill_running=True,
            checkpoint=StepCheckpoint(steps=4),
        )
        assert engine._session.checkpoints == {}
        engine.set_active_servers([1])
        result = engine.finish()
        conserve(result, 4)
        assert result.dropped == 4

    def test_bad_checkpoint_fraction_rejected(self):
        class Overfull:
            def completed_fraction(self, record, time):
                return 1.0

        engine = ServingEngine(BatchingConfig(max_batch=4), num_servers=2)
        engine.register("m", FixedExecutor(1.0), mode="int8")
        engine.start(
            requests=[Request(arrival_time=0.0, model="m", request_id=0)]
        )
        engine.step()
        with pytest.raises(ValueError, match="completed_fraction"):
            engine.preempt_server(
                0, 0.5, policy=RequeueAtHeadMigration(),
                kill_running=True, checkpoint=Overfull(),
            )

    def test_estimator_residual_scaling(self):
        spec = gpu_server("g", "vit_base", gpu="a6000")
        full = spec.estimate_batch_seconds(32)
        assert spec.estimate_batch_seconds(32, residual=0.5) == pytest.approx(
            0.5 * full
        )
        with pytest.raises(ValueError):
            spec.estimate_batch_seconds(32, residual=0.0)
        with pytest.raises(ValueError):
            spec.estimate_batch_seconds(32, residual=1.5)


# ----------------------------------------------------------------------
# Timeline edge cases (satellite)
# ----------------------------------------------------------------------
class TestTimelineEdgeCases:
    def test_summarize_migrations_handles_empty_and_none(self):
        zeros = {
            "migrated_requests": 0.0,
            "moves": 0.0,
            "max_moves": 0.0,
            "served_after_migration": 0.0,
            "dropped_after_migration": 0.0,
        }
        assert summarize_migrations([]) == zeros
        assert summarize_migrations(None) == zeros
        assert summarize_migrations([None, None]) == zeros

    def test_timeline_merges_scale_and_fault_events_in_time_order(self):
        bus = TelemetryBus(window=1.0, num_servers=2)
        # Recorded out of time order, as the control plane does: the fault's
        # strike time (1.7) precedes the boundary (2.0) it was applied at.
        bus.record_scale_event(
            ScaleEvent(time=2.0, action="add", server=1, active_after=2)
        )
        bus.record_fault_event(FaultEvent(time=1.7, server=0, kind="crash"))
        bus.record_fault_event(FaultEvent(time=2.0, server=0, kind="recover"))
        timeline = bus.timeline()
        assert [type(e).__name__ for e in timeline] == [
            "FaultEvent",
            "ScaleEvent",
            "FaultEvent",
        ]
        assert [e.time for e in timeline] == [1.7, 2.0, 2.0]
        # Same-instant events keep application order -> deterministic.
        assert timeline[1].action == "add"
        bus.reset()
        assert bus.timeline() == []

    def test_crash_in_final_window_still_lands(self):
        """A fault striking after the last batch starts is still applied:
        its event is on the timeline and its migrants are re-served."""
        specs = [fixed_spec("g0"), fixed_spec("g1")]
        # All arrivals in [0, 0.2]; service drains quickly; the crash at
        # t=5.0 lands long after the engine would otherwise have finished.
        cluster = ClusterEngine(
            specs,
            BatchingConfig(max_batch=8),
            fault_schedule=FaultSchedule.single_crash(0, at=5.0),
            migration=RequeueAtHeadMigration(),
            window=0.25,
        )
        cluster.register("m", mode="int8")
        trace = PoissonTrace(400, duration=0.2, seed=8).generate()
        outcome = cluster.run(trace=trace)
        assert [e.kind for e in outcome.fault_events] == ["crash"]
        assert cluster.specs[0].health == "failed"
        conserve(outcome.result, outcome.result.request_latencies.size)

    def test_crash_mid_drain_requeues_and_serves_migrants(self):
        """The trailing fault hits while the victim still has queued work:
        the step loop re-enters and the migrants finish on the survivor."""
        specs = [fixed_spec("g0", seconds=1.0), fixed_spec("g1", seconds=1.0)]
        cluster = ClusterEngine(
            specs,
            BatchingConfig(max_batch=2),
            fault_schedule=FaultSchedule.single_crash(0, at=0.5),
            migration=RequeueAtHeadMigration(),
            window=0.25,
        )
        cluster.register("m", mode="int8")
        requests = [
            Request(arrival_time=0.0, model="m", request_id=i) for i in range(4)
        ]
        outcome = cluster.run(requests=requests)
        conserve(outcome.result, 4)
        assert outcome.migrated > 0
        assert all(
            r.server == 1
            for r in outcome.result.responses
            if r.migrations > 0
        )

    def test_trailing_fault_leaves_the_open_window_alone(self):
        """A trailing fault lands at its own window's end without moving
        the window the step loop has open: window 0 still closes at 0.25
        when the migrants' first batch starts, not at the fault's window."""
        specs = [fixed_spec(f"g{i}", seconds=1.0) for i in range(3)]
        cluster = ClusterEngine(
            specs,
            BatchingConfig(max_batch=2),
            fault_schedule=FaultSchedule.single_crash(0, at=0.5),
            migration=RequeueAtHeadMigration(),
            autoscaler=QueueDepthAutoscaler(
                scale_up_depth=0.0, scale_down_depth=0.0, patience=1
            ),
            initial_servers=2,
            startup_delay=0.1,
            window=0.25,
        )
        cluster.register("m", mode="int8")
        requests = [
            Request(arrival_time=0.0, model="m", request_id=i) for i in range(4)
        ]
        outcome = cluster.run(requests=requests)
        conserve(outcome.result, 4)
        assert [
            (e.time, e.action, e.reason.split(":")[0])
            for e in outcome.scale_events
        ] == [(0.25, "add", "window 0")]
        times = [e.time for e in outcome.timeline()]
        assert times == sorted(times) == [0.25, 0.5]

    def test_cluster_result_timeline_delegates(self):
        specs = [fixed_spec("g0"), fixed_spec("g1")]
        cluster = ClusterEngine(
            specs,
            BatchingConfig(max_batch=8),
            fault_schedule=FaultSchedule.single_crash(0, at=0.1, recover_at=0.6),
            migration=RequeueAtHeadMigration(),
            window=0.25,
        )
        cluster.register("m", mode="int8")
        trace = PoissonTrace(800, duration=1.0, seed=5).generate()
        outcome = cluster.run(trace=trace)
        timeline = outcome.timeline()
        assert len(timeline) == len(outcome.fault_events) + len(outcome.scale_events)
        times = [e.time for e in timeline]
        assert times == sorted(times)


# ----------------------------------------------------------------------
# Topology-aware warm-spare promotion (PR 7 satellite)
# ----------------------------------------------------------------------
class TestTopologyAwarePromotion:
    def _promote(self, spare_specs, crash_server=0):
        specs = [
            fixed_spec("g0", zone="A"),
            fixed_spec("g1", zone="B"),
        ] + spare_specs
        cluster = ClusterEngine(
            specs,
            BatchingConfig(max_batch=8),
            warm_spares=WarmSparePool([2, 3], promotion_latency=0.01),
            fault_schedule=FaultSchedule.single_crash(crash_server, at=0.3),
            migration=RequeueAtHeadMigration(delay=0.001),
            window=0.1,
        )
        cluster.register("m", mode="int8")
        trace = PoissonTrace(800, duration=1.0, seed=11).generate()
        outcome = cluster.run(trace=trace)
        assert len(outcome.promotions) == 1
        return outcome.promotions[0]

    def test_prefers_out_of_domain_spare_over_faster_in_domain(self):
        # The regression: the only *fast* spare shares the failed zone.
        # Promoting it would leave the cluster one zone event from losing
        # the replacement too — the slower out-of-domain spare must win.
        event = self._promote(
            [
                fixed_spec("s2", speed=2000.0, zone="A"),  # fast, failed zone
                fixed_spec("s3", speed=500.0, zone="C"),   # slow, safe zone
            ]
        )
        assert event.server == 3
        assert "[zone:A]" in event.reason

    def test_speed_breaks_ties_among_out_of_domain_spares(self):
        event = self._promote(
            [
                fixed_spec("s2", speed=500.0, zone="C"),
                fixed_spec("s3", speed=2000.0, zone="C"),
            ]
        )
        assert event.server == 3  # both safe: the faster spare wins

    def test_id_breaks_full_ties(self):
        event = self._promote(
            [
                fixed_spec("s2", speed=1000.0, zone="C"),
                fixed_spec("s3", speed=1000.0, zone="C"),
            ]
        )
        assert event.server == 2

    def test_undeclared_spares_count_as_out_of_domain(self):
        # Spares without zone/rack identity are their own single-server
        # islands; they must still beat a spare inside the failed zone.
        event = self._promote(
            [
                fixed_spec("s2", speed=2000.0, zone="A"),
                fixed_spec("s3", speed=100.0),  # no topology declared
            ]
        )
        assert event.server == 3


# ----------------------------------------------------------------------
# Checkpoint transfer pricing (PR 7 satellite)
# ----------------------------------------------------------------------
class TestCheckpointTransferCost:
    def test_restore_seconds_arithmetic(self):
        policy = StepCheckpoint(steps=4, transfer_cost=0.1, transfer_per_step=0.05)
        assert policy.restore_seconds(0.0) == 0.0
        assert policy.restore_seconds(-1.0) == 0.0
        assert policy.restore_seconds(0.5) == pytest.approx(0.1 + 2 * 0.05)
        assert policy.restore_seconds(0.75) == pytest.approx(0.1 + 3 * 0.05)
        # A free checkpoint (the default) prices every restore at zero.
        assert StepCheckpoint(steps=4).restore_seconds(0.5) == 0.0
        with pytest.raises(ValueError):
            StepCheckpoint(steps=4, transfer_cost=-0.1)
        with pytest.raises(ValueError):
            StepCheckpoint(steps=4, transfer_per_step=-0.1)

    def _preempt(self, checkpoint, kill_at=0.5):
        engine = ServingEngine(BatchingConfig(max_batch=4), num_servers=2)
        engine.register("m", FixedExecutor(1.0), mode="int8")
        engine.start(
            requests=[
                Request(arrival_time=0.0, model="m", request_id=i)
                for i in range(4)
            ]
        )
        engine.step()
        engine.preempt_server(
            0,
            kill_at,
            policy=RequeueAtHeadMigration(),
            kill_running=True,
            checkpoint=checkpoint,
        )
        engine.set_active_servers([1])
        return engine.finish()

    def test_migrant_cohort_pays_transfer_on_resume(self):
        # Killed at 0.5 of a 1.0s batch with 4 steps: 0.5 residual plus the
        # cohort's restore cost (parallel restore: one transfer for the
        # whole cohort, like the largest-residual convention).
        priced = self._preempt(StepCheckpoint(steps=4, transfer_cost=0.2))
        free = self._preempt(StepCheckpoint(steps=4))
        conserve(priced, 4)
        assert free.latencies.max() == pytest.approx(1.0)    # 0.5 + 0.5
        assert priced.latencies.max() == pytest.approx(1.2)  # ... + 0.2
        assert priced.migrated == free.migrated == 4

    def test_full_reexecution_pays_no_transfer(self):
        # Killed before any checkpoint step: nothing restores, so nothing
        # transfers — the run matches the checkpoint-free baseline exactly.
        priced = self._preempt(
            StepCheckpoint(steps=4, transfer_cost=0.2), kill_at=0.2
        )
        plain = self._preempt(None, kill_at=0.2)
        np.testing.assert_allclose(priced.latencies, plain.latencies)

    def test_estimate_batch_seconds_includes_transfer(self):
        spec = fixed_spec("a", speed=1000.0)
        base = spec.estimate_batch_seconds(8, residual=0.5)
        assert spec.estimate_batch_seconds(
            8, residual=0.5, transfer=0.2
        ) == pytest.approx(base + 0.2)
        with pytest.raises(ValueError):
            spec.estimate_batch_seconds(8, transfer=-0.1)

    def test_custom_checkpoint_without_pricing_still_works(self):
        # Duck-typed composition: a CheckpointPolicy that never heard of
        # restore_seconds keeps its seed behaviour (free restores).
        class HalfCheckpoint:
            def completed_fraction(self, record, time):
                return 0.5

        result = self._preempt(HalfCheckpoint())
        conserve(result, 4)
        assert result.latencies.max() == pytest.approx(1.0)
