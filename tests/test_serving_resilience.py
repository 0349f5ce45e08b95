"""Tests for the resilience subsystem (faults, preemption & migration).

Covers the three pieces of :mod:`repro.serving.resilience` and their engine
and control-plane hooks:

* **Fault plane** — `FaultEvent`/`FaultSchedule` validation, slowdown
  throttling through `ServingEngine.slow_server`, the `failed` flag of
  `ServerSpec`, fault events on the telemetry timeline.
* **Preemption & migration** — `ServingEngine.preempt_server` rewinds
  unfinished batches exactly (records, latencies, responses, busy time,
  telemetry); migration policies requeue/drop the victims; the invariants:
  no request served twice, none silently lost, deadline-expired migrants
  counted as drops, migration latency charged explicitly.
* **Predictive placement** — telemetry-EWMA placement routes around a
  degraded server the nominal-speed placers keep trusting; batch-size-aware
  service estimators replace the scalar reference-batch speed.
* **Acceptance** — the `examples/resilient_cluster.py` scenario: a mid-run
  crash where the migrating cluster meets the p99 deadline-attainment SLO
  the non-migrating baseline misses; K=1 FIFO stays bit-identical to the
  seed with every resilience feature off.
* **Correlated failures** — two servers lost in the same window, a second
  crash landing while the first crash's migrants are still paying their
  migration delay, and a zone outage taking out every affine server of a
  model; the conservation invariants hold throughout.
* **Zone-outage acceptance** — the `examples/zone_outage.py` scenario:
  spread placement + warm spares meet the deadline-attainment SLO the flat
  single-domain cluster misses, and beat cold standby on p99.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.traces import PoissonTrace
from repro.serving import (
    BatchExecution,
    BatchingConfig,
    ClusterEngine,
    DropExpiredMigration,
    EdfScheduler,
    FaultEvent,
    FaultSchedule,
    LeastOutstandingWorkPlacer,
    Migrant,
    ModeledExecutor,
    PlacementContext,
    PredictivePlacer,
    RedistributeMigration,
    Request,
    RequeueAtHeadMigration,
    ServerSpec,
    ServingEngine,
    WeightedSpeedPlacer,
    gpu_server,
    requests_from_trace,
    summarize_migrations,
)
from repro.serving.simulator import ServiceTimeModel
from test_examples import load_example
from test_serving_engine import seed_serving_run


@pytest.fixture(scope="module")
def service_model():
    return ServiceTimeModel("vit_base", gpu="a6000", anchor_batches=(1, 16, 64, 128))


class HoldSize:
    """An autoscaler that never changes the cluster's size."""

    def decide(self, stats, active):
        return active


class AlwaysGrow:
    """An autoscaler that asks for one more server at every window."""

    def decide(self, stats, active):
        return active + 1


class FixedExecutor:
    """Deterministic executor: every batch takes exactly ``seconds``."""

    def __init__(self, seconds: float) -> None:
        self.seconds = float(seconds)

    def execute(self, batch, mode, ratio):
        return BatchExecution(service_time=self.seconds)


def conserve(result, admitted: int) -> None:
    """The migration invariants: one terminal outcome per request.

    Served + dropped == admitted (none lost), batch records cover exactly
    the served requests (none served twice — a double-served request would
    appear in two records), and recorded responses agree slot by slot.
    """
    served = result.latencies.size
    assert served + result.dropped == admitted
    assert sum(record.size for record in result.batch_records) == served
    if result.responses is not None:
        assert len(result.responses) == admitted
        assert all(response is not None for response in result.responses)
        assert sum(1 for r in result.responses if not r.dropped) == served
        assert sum(1 for r in result.responses if r.dropped) == result.dropped


# ----------------------------------------------------------------------
# Fault plane primitives
# ----------------------------------------------------------------------
class TestFaultPlane:
    def test_fault_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(time=1.0, server=0, kind="explode")
        with pytest.raises(ValueError):
            FaultEvent(time=-1.0, server=0, kind="crash")
        with pytest.raises(ValueError):
            FaultEvent(time=1.0, server=-1, kind="crash")
        with pytest.raises(ValueError):
            FaultEvent(time=1.0, server=0, kind="slowdown", factor=0.5)

    def test_schedule_sorted_and_single_crash(self):
        schedule = FaultSchedule(
            [
                FaultEvent(time=5.0, server=1, kind="recover"),
                FaultEvent(time=2.0, server=1, kind="crash"),
            ]
        )
        assert [event.time for event in schedule] == [2.0, 5.0]
        assert schedule.servers == [1]
        crash = FaultSchedule.single_crash(0, at=1.0, recover_at=3.0)
        assert [event.kind for event in crash] == ["crash", "recover"]
        with pytest.raises(ValueError):
            FaultSchedule.single_crash(0, at=2.0, recover_at=1.0)

    def test_schedule_rejects_a_second_crash_of_a_server_still_down(self):
        crash = lambda time: FaultEvent(time=time, server=2, kind="crash")
        # Used to be accepted: the schedule's own state machine already held
        # server 2 as "failed", and the second crash silently did nothing.
        with pytest.raises(
            ValueError, match=r"server 2 at t=3, .* crash at t=1 with no recover"
        ):
            FaultSchedule([crash(1.0), crash(3.0)])
        # A zone slowdown that sweeps it up in between does not resurrect
        # it; a recover does.
        swept = FaultEvent(2.0, 2, "slowdown", factor=2.0, domain="zone:z")
        with pytest.raises(ValueError, match="server 2 at t=3"):
            FaultSchedule([crash(1.0), swept, crash(3.0)])
        again = FaultSchedule([crash(1.0), FaultEvent(2.0, 2, "recover"), crash(3.0)])
        assert [event.kind for event in again] == ["crash", "recover", "crash"]

    def test_schedule_rejects_a_slowdown_of_a_server_still_down(self):
        """A slowdown aimed at a crashed server would never apply (the
        control plane skips a failed server's slowdown): a typo'd id or
        time, refused like a second crash.  One a zone slowdown expands to
        sweeps the down server up legally."""
        crash = FaultEvent(time=1.0, server=2, kind="crash")
        with pytest.raises(
            ValueError,
            match=r"slowdown for server 2 at t=2, .* crash at t=1 with no recover",
        ):
            FaultSchedule([crash, FaultEvent(2.0, 2, "slowdown", factor=2.0)])
        swept = FaultEvent(2.0, 2, "slowdown", factor=2.0, domain="zone:z")
        assert [event.kind for event in FaultSchedule([crash, swept])] == [
            "crash", "slowdown",
        ]
        after = FaultSchedule(
            [crash, FaultEvent(2.0, 2, "recover"), FaultEvent(3.0, 2, "slowdown", factor=2.0)]
        )
        assert [event.kind for event in after] == ["crash", "recover", "slowdown"]

    def test_schedule_rejects_unknown_server(self, service_model):
        spec = gpu_server("g", "vit_base", gpu="a6000")
        with pytest.raises(ValueError):
            ClusterEngine(
                [spec], fault_schedule=FaultSchedule.single_crash(3, at=1.0)
            )

    def test_slow_server_stretches_service_time(self):
        engine = ServingEngine(BatchingConfig(max_batch=1))
        engine.register("m", FixedExecutor(0.5), mode="int8")
        engine.start(
            requests=[Request(arrival_time=0.0, model="m") for _ in range(3)]
        )
        durations = []
        for factor in (1.0, 4.0, 1.0):
            engine.slow_server(0, factor)
            record = engine.step()
            durations.append(record.finish - record.start)
        assert durations == [0.5, 2.0, 0.5]
        with pytest.raises(ValueError, match="factor"):
            engine.slow_server(0, 0.5)
        engine.abort()

    def test_server_spec_failed_state(self):
        """A crash marks its server's spec failed; a slowdown leaves the spec
        as it was (its factor is the session's), and ``run()`` starts every
        spec and factor afresh, so a second run repeats the first."""
        specs = [gpu_server(f"g{i}", "vit_base", gpu="a6000") for i in range(2)]
        schedule = FaultSchedule(
            [
                FaultEvent(time=0.5, server=1, kind="slowdown", factor=3.0),
                FaultEvent(time=1.0, server=0, kind="crash"),
            ]
        )
        cluster = ClusterEngine(
            specs, BatchingConfig(max_batch=64), window=0.25,
            fault_schedule=schedule, migration=RequeueAtHeadMigration(),
        )
        cluster.register("m", mode="int8")
        assert [spec.failed for spec in specs] == [False, False]
        trace = PoissonTrace(1500, duration=2.0, seed=11).generate()
        rows = [
            [(r.start, r.finish, r.size, r.server) for r in
             cluster.run(trace=trace).result.batch_records]
            for _ in range(2)
        ]
        assert [spec.failed for spec in specs] == [True, False]
        assert rows[0] == rows[1]
        with pytest.raises(ValueError):
            FaultEvent(time=1.0, server=0, kind="slowdown", factor=1.0)


# ----------------------------------------------------------------------
# Engine-level preemption
# ----------------------------------------------------------------------
class TestPreemption:
    def _start(self, num_requests=8, num_servers=2, seconds=1.0, max_batch=4):
        engine = ServingEngine(
            BatchingConfig(max_batch=max_batch), num_servers=num_servers
        )
        engine.register("m", FixedExecutor(seconds), mode="int8")
        engine.start(
            requests=[
                Request(arrival_time=0.0, model="m", request_id=i)
                for i in range(num_requests)
            ]
        )
        return engine

    def test_crash_rewinds_running_and_future_batches(self):
        engine = self._start()
        # Batches (4 requests each): server 0 [0,1), server 1 [0,1).
        first = engine.step()
        second = engine.step()
        assert (first.server, second.server) == (0, 1)
        report = engine.preempt_server(
            0, 0.5, policy=RequeueAtHeadMigration(), kill_running=True
        )
        assert (report.batches, report.migrated, report.dropped) == (1, 4, 0)
        # The crashed server's clock rewound to the kill point; its wasted
        # busy time (0.5s of a 1s batch) stays billed.
        session = engine._session
        assert session.free_at[0] == 0.5
        assert session.busy[0] == 0.5
        engine.set_active_servers([1])
        result = engine.finish()
        conserve(result, 8)
        assert result.migrated == 4
        # Migrants re-served on the surviving server, not before the crash.
        migrated = [r for r in result.responses if r.migrations == 1]
        assert len(migrated) == 4
        assert all(r.server == 1 and r.start_time >= 0.5 for r in migrated)

    def test_graceful_preemption_spares_the_running_batch(self):
        engine = self._start(num_requests=12, num_servers=1)
        first = engine.step()   # [0, 1)
        second = engine.step()  # [1, 2)
        third = engine.step()   # [2, 3)
        assert (first.start, second.start, third.start) == (0.0, 1.0, 2.0)
        report = engine.preempt_server(
            0, 1.5, policy=RequeueAtHeadMigration(), kill_running=False
        )
        # Only the not-yet-started batch ([2,3)) is rewound; the running
        # batch ([1,2)) drains normally and the clock stays at its finish.
        assert (report.batches, report.migrated) == (1, 4)
        assert engine._session.free_at[0] == 2.0
        result = engine.finish()
        conserve(result, 12)
        assert result.migrated == 4

    def test_preempt_without_victims_is_a_no_op(self):
        engine = self._start()
        record = engine.step()
        report = engine.preempt_server(1, 0.5, kill_running=True)
        assert (report.batches, report.migrated, report.dropped) == (0, 0, 0)
        before = list(engine._session.free_at)
        result = engine.finish()
        conserve(result, 8)
        assert record in result.batch_records
        assert before[0] == record.finish

    def test_preemption_without_policy_drops_the_work(self):
        engine = self._start()
        engine.step()
        report = engine.preempt_server(0, 0.5, policy=None, kill_running=True)
        assert (report.migrated, report.dropped) == (0, 4)
        engine.set_active_servers([1])
        result = engine.finish()
        conserve(result, 8)
        assert result.dropped == 4
        dropped = [r for r in result.responses if r.dropped]
        assert all(r.migrations == 0 for r in dropped)

    def test_migration_latency_charged_explicitly(self):
        engine = self._start(num_requests=4, num_servers=2)
        engine.step()
        engine.preempt_server(
            0, 0.5, policy=RequeueAtHeadMigration(delay=0.25), kill_running=True
        )
        engine.set_active_servers([1])
        result = engine.finish()
        conserve(result, 4)
        # Re-service cannot begin before crash time + migration delay, and
        # latency is still charged from the original arrival.
        for response in result.responses:
            assert response.start_time >= 0.75
            assert response.latency == response.finish_time - 0.0

    def test_migration_keys_clamped_to_preemption_time(self):
        class TimeTravel:
            def plan(self, migrants, time):
                return [time - 5.0] * len(migrants)

        engine = self._start(num_requests=4, num_servers=2)
        engine.step()
        engine.preempt_server(0, 0.5, policy=TimeTravel(), kill_running=True)
        engine.set_active_servers([1])
        result = engine.finish()
        conserve(result, 4)
        assert all(r.start_time >= 0.5 for r in result.responses)

    def test_short_migration_plan_rejected(self):
        class Short:
            def plan(self, migrants, time):
                return []

        engine = self._start()
        engine.step()
        with pytest.raises(ValueError):
            engine.preempt_server(0, 0.5, policy=Short(), kill_running=True)

    def test_preempt_validation(self):
        engine = ServingEngine(num_servers=2)
        engine.register("m", FixedExecutor(1.0), mode="int8")
        with pytest.raises(RuntimeError):
            engine.preempt_server(0, 1.0)
        engine.start()
        with pytest.raises(ValueError):
            engine.preempt_server(7, 1.0)
        engine.finish()

    @pytest.mark.parametrize("server", [0.9, 1.5])
    def test_a_fractional_server_is_refused(self, server):
        """``int()`` used to truncate the id: ``preempt_server(0.9, t)`` rewound
        server 0's batches, ``1.5`` server 1's."""
        engine = self._start()
        engine.step()
        engine.step()
        with pytest.raises(ValueError, match=f"server must be an integer.*{server}"):
            engine.preempt_server(server, 0.5, policy=RequeueAtHeadMigration())
        # Nothing was rewound: both first batches still finish at 1.0.
        assert (engine.finish().latencies == 1.0).all()

    def test_scheduled_path_migrates_through_the_scheduler(self):
        """Migrants re-enter EDF ordering by their (unchanged) deadlines."""
        engine = ServingEngine(
            BatchingConfig(max_batch=4), num_servers=2, scheduler=EdfScheduler()
        )
        engine.register("m", FixedExecutor(1.0), mode="int8")
        engine.start(
            requests=[
                Request(arrival_time=0.0, model="m", request_id=i, deadline=10.0 + i)
                for i in range(8)
            ]
        )
        engine.step()
        engine.step()
        engine.preempt_server(
            0, 0.5, policy=RequeueAtHeadMigration(), kill_running=True
        )
        engine.set_active_servers([1])
        result = engine.finish()
        conserve(result, 8)
        assert result.migrated == 4
        # EDF re-serves the migrated cohort earliest-deadline-first.
        migrated = sorted(
            (r for r in result.responses if r.migrations == 1),
            key=lambda r: r.start_time,
        )
        deadlines = [r.deadline for r in migrated]
        assert deadlines == sorted(deadlines)

    def test_drop_after_measures_migrant_waiting_from_migration(self):
        """Regression: the scheduled path admitted migrants with their
        *original* arrival as the drop_after reference, expiring requests
        the migration policy chose to requeue — while the FIFO path
        measured from the migration-ready key.  Both paths must restart the
        wait at the migration."""

        def run(scheduler):
            engine = ServingEngine(
                BatchingConfig(max_batch=4, drop_after=1.0),
                num_servers=2,
                scheduler=scheduler,
            )
            engine.register("m", FixedExecutor(1.0), mode="int8")
            engine.start(
                requests=[
                    Request(arrival_time=0.0, model="m", request_id=i, deadline=99.0)
                    for i in range(4)
                ]
            )
            engine.step()
            # Preempt long after drop_after would have expired the original
            # arrivals; the migrants' wait restarts at the migration.
            engine.preempt_server(
                0, 0.1, policy=RequeueAtHeadMigration(delay=2.5), kill_running=True
            )
            engine.set_active_servers([1])
            result = engine.finish()
            conserve(result, 4)
            return result

        fifo = run(None)
        edf = run(EdfScheduler())
        assert fifo.dropped == 0 and fifo.migrated == 4
        assert edf.dropped == 0 and edf.migrated == 4
        np.testing.assert_array_equal(
            np.sort(fifo.latencies), np.sort(edf.latencies)
        )

    def test_telemetry_rewound_exactly(self, service_model):
        """After preemption the windowed series match the final result."""
        trace = PoissonTrace(2500, duration=2.0, seed=3).generate()
        requests = requests_from_trace(trace, model="m")
        cluster = ClusterEngine(
            [gpu_server(f"g{i}", "vit_base", gpu="a6000") for i in range(2)],
            BatchingConfig(max_batch=64),
            fault_schedule=FaultSchedule.single_crash(0, at=0.8),
            migration=RequeueAtHeadMigration(delay=0.01),
            window=0.2,
        )
        cluster.register("m", mode="int8")
        outcome = cluster.run(requests=requests)
        conserve(outcome.result, len(requests))
        telemetry = outcome.telemetry
        for server in range(2):
            series = telemetry.server_series(server)
            assert sum(stats.busy_time for stats in series) == pytest.approx(
                outcome.result.server_busy_times[server]
            )
        total = sum(
            stats.served for s in range(2) for stats in telemetry.server_series(s)
        )
        assert total == outcome.result.latencies.size


# ----------------------------------------------------------------------
# Migration policies
# ----------------------------------------------------------------------
class TestMigrationPolicies:
    def _migrants(self, deadlines):
        return [
            Migrant(slot=i, deadline=deadline)
            for i, deadline in enumerate(deadlines)
        ]

    def test_requeue_at_head_plan(self):
        policy = RequeueAtHeadMigration(delay=0.5)
        assert policy.plan(self._migrants([None, None]), 2.0) == [2.5, 2.5]
        with pytest.raises(ValueError):
            RequeueAtHeadMigration(delay=-1.0)

    def test_redistribute_staggers_chunks(self):
        policy = RedistributeMigration(delay=0.1, chunk=2, stagger=0.5)
        keys = policy.plan(self._migrants([None] * 5), 1.0)
        assert keys == [1.1, 1.1, 1.6, 1.6, 2.1]
        with pytest.raises(ValueError):
            RedistributeMigration(chunk=0)

    def test_redistribute_chunk_must_be_a_whole_number(self):
        with pytest.raises(ValueError, match="chunk must be an integer >= 1"):
            RedistributeMigration(chunk=2.5)

    def test_drop_expired_plan(self):
        policy = DropExpiredMigration(delay=0.5)
        keys = policy.plan(
            self._migrants([None, 1.0, 3.0]), 2.0
        )  # ready time is 2.5
        assert keys == [2.5, None, 2.5]

    def test_deadline_expired_migrants_counted_as_drops(self):
        engine = ServingEngine(BatchingConfig(max_batch=4), num_servers=2)
        engine.register("m", FixedExecutor(1.0), mode="int8")
        # Two migrants already past their deadline at the crash, two not.
        deadlines = [0.2, 0.3, 9.0, 9.0]
        engine.start(
            requests=[
                Request(arrival_time=0.0, model="m", request_id=i, deadline=d)
                for i, d in enumerate(deadlines)
            ]
        )
        engine.step()
        report = engine.preempt_server(
            0, 0.5, policy=DropExpiredMigration(), kill_running=True
        )
        assert (report.migrated, report.dropped) == (2, 2)
        engine.set_active_servers([1])
        result = engine.finish()
        conserve(result, 4)
        assert result.dropped == 2
        dropped = {r.request_id for r in result.responses if r.dropped}
        assert dropped == {0, 1}
        # Dropped-with-deadline means missed; the served migrants can win.
        assert result.deadline_attainment() == pytest.approx(0.5)

    def test_redistribute_spreads_cohort_across_servers(self, service_model):
        """At-head re-forms one batch on one server; redistribute fans out."""
        executor = ModeledExecutor(service_model)

        def run(policy):
            engine = ServingEngine(BatchingConfig(max_batch=64), num_servers=3)
            engine.register("m", executor, mode="int8")
            engine.start(
                requests=[
                    Request(arrival_time=0.0, model="m", request_id=i)
                    for i in range(192)
                ]
            )
            engine.step(), engine.step(), engine.step()
            engine.preempt_server(0, 0.01, policy=policy, kill_running=True)
            engine.set_active_servers([1, 2])
            result = engine.finish()
            conserve(result, 192)
            return {
                r.server for r in result.responses if r.migrations == 1
            }

        at_head = run(RequeueAtHeadMigration(delay=0.001))
        spread = run(RedistributeMigration(delay=0.001, chunk=16, stagger=0.05))
        assert len(at_head) == 1
        assert len(spread) >= 2


# ----------------------------------------------------------------------
# Control-plane fault application
# ----------------------------------------------------------------------
class TestClusterFaults:
    def _requests(self, rate=2500, duration=3.0, seed=11, **kwargs):
        trace = PoissonTrace(rate, duration=duration, seed=seed).generate()
        return requests_from_trace(trace, model="m", **kwargs)

    def _cluster(self, k=3, **kwargs):
        specs = [gpu_server(f"g{i}", "vit_base", gpu="a6000") for i in range(k)]
        cluster = ClusterEngine(
            specs, BatchingConfig(max_batch=64), window=0.25, **kwargs
        )
        cluster.register("m", mode="int8")
        return cluster

    def test_crash_removes_server_and_recovery_restores_it(self):
        cluster = self._cluster(
            fault_schedule=FaultSchedule.single_crash(0, at=1.0, recover_at=2.0),
            migration=RequeueAtHeadMigration(delay=0.01),
        )
        outcome = cluster.run(requests=self._requests())
        conserve(outcome.result, outcome.result.request_latencies.size)
        assert [event.kind for event in outcome.fault_events] == ["crash", "recover"]
        # No batch starts on the dead server inside the outage, and the
        # server serves again after recovery.
        outage = [
            record
            for record in outcome.result.batch_records
            if record.server == 0 and 1.25 <= record.start < 2.0
        ]
        assert outage == []
        assert any(
            record.server == 0 and record.start >= 2.0
            for record in outcome.result.batch_records
        )
        assert outcome.migrated > 0

    def test_crash_without_migration_loses_the_inflight_work(self):
        requests = self._requests(deadlines=[0.8])
        lost = self._cluster(
            fault_schedule=FaultSchedule.single_crash(0, at=1.0)
        ).run(requests=requests)
        saved = self._cluster(
            fault_schedule=FaultSchedule.single_crash(0, at=1.0),
            migration=RequeueAtHeadMigration(delay=0.01),
        ).run(requests=requests)
        assert lost.result.dropped > 0
        assert saved.result.dropped == 0
        assert saved.migrated == lost.result.dropped
        conserve(lost.result, len(requests))
        conserve(saved.result, len(requests))
        assert saved.deadline_attainment() > lost.deadline_attainment()

    def test_slowdown_inflates_service_and_health(self):
        """Server 0 runs at exactly 6x its price while the slowdown is
        applied and at exactly its price otherwise.  The slowdown lands when
        window 1.0-1.25 closes, after the first batch dispatched with a start
        of 1.25 or later, and lifts the same way at 2.25: those two rows
        mark the slowed stretch of the ledger."""
        schedule = FaultSchedule(
            [
                FaultEvent(time=1.0, server=0, kind="slowdown", factor=6.0),
                FaultEvent(time=2.0, server=0, kind="recover"),
            ]
        )
        cluster = self._cluster(k=2, fault_schedule=schedule)
        outcome = cluster.run(requests=self._requests(rate=1500))
        records = list(outcome.result.batch_records)
        lands, lifts = (
            next(i for i, r in enumerate(records) if r.start >= boundary)
            for boundary in (1.25, 2.25)
        )
        slowed = 0
        for i, r in enumerate(records):
            table = cluster.specs[r.server].service_model.table(
                r.mode, r.ratio, (r.size,)
            )
            if r.server == 0 and lands < i <= lifts:
                slowed += 1
                assert r.finish == r.start + table[r.size] * 6.0
            else:
                assert r.finish == r.start + table[r.size]
        assert slowed > 10 and len(records) - slowed > 10
        assert not cluster.specs[0].failed
        assert [event.kind for event in outcome.fault_events] == [
            "slowdown",
            "recover",
        ]

    def test_a_slowdown_only_fifo_cluster_fails_no_executor_clause(self):
        """The engine prices a slowdown itself, so a FIFO modeled cluster
        whose only faults are slowdowns keeps its plain modeled executors:
        what keeps it off the sweep is the bus it steps under."""
        schedule = FaultSchedule(
            [
                FaultEvent(time=0.3, server=0, kind="slowdown", factor=3.0),
                FaultEvent(time=0.7, server=0, kind="recover"),
            ]
        )
        cluster = ClusterEngine(
            [ServerSpec(f"s{i}", 100.0, service_model=ServiceTimeModel()) for i in range(3)],
            BatchingConfig(max_batch=8), window=0.1, fault_schedule=schedule,
        )
        cluster.register("m", mode="int8")
        outcome = cluster.run(trace=PoissonTrace(600, duration=1.0, seed=8).generate())
        assert (outcome.result.kernel, outcome.result.kernel_reason) == (
            "object", "telemetry"
        )

    def test_crash_of_sole_active_server_wakes_a_parked_spare(self):
        """A survivable fault: the fastest healthy parked server replaces a
        crashed sole-active server instead of aborting the run."""
        requests = self._requests(rate=1500, duration=3.0)
        cluster = self._cluster(
            k=2,
            fault_schedule=FaultSchedule.single_crash(0, at=1.0),
            migration=RequeueAtHeadMigration(delay=0.01),
            autoscaler=HoldSize(),
            min_servers=1,
            initial_servers=1,
        )
        outcome = cluster.run(requests=requests)
        conserve(outcome.result, len(requests))
        emergency = [
            e for e in outcome.scale_events if "emergency replacement" in e.reason
        ]
        assert emergency and emergency[0].server == 1
        assert any(r.server == 1 for r in outcome.result.batch_records)
        assert all(
            r.server != 0 or r.start < 1.25 for r in outcome.result.batch_records
        )

    def test_slowdown_cannot_resurrect_a_crashed_server(self):
        """Regression: a slowdown of a failed spec used to mark it degraded,
        which let the autoscaler wake a dead server.  A schedule may no
        longer aim a slowdown at a down server, but a zone slowdown still
        sweeps one up."""
        schedule = FaultSchedule(
            [
                FaultEvent(time=0.5, server=2, kind="crash"),
                FaultEvent(time=1.0, kind="zone_slowdown", factor=8.0, zone="z"),
            ]
        )
        specs = [
            gpu_server(f"g{i}", "vit_base", gpu="a6000", zone="z" if i == 2 else "")
            for i in range(3)
        ]
        cluster = ClusterEngine(
            specs,
            BatchingConfig(max_batch=64),
            window=0.25,
            fault_schedule=schedule,
            migration=RequeueAtHeadMigration(delay=0.01),
            autoscaler=AlwaysGrow(),
            min_servers=1,
            initial_servers=2,
        )
        cluster.register("m", mode="int8")
        outcome = cluster.run(requests=self._requests(rate=4000, duration=3.0))
        assert cluster.specs[2].failed
        # The always-scale-up autoscaler may wake server 2 *before* the
        # crash lands (boundary 0.75); after it, the slowdown must not make
        # the dead server look wakeable again.
        assert not [
            e
            for e in outcome.scale_events
            if e.action == "add" and e.server == 2 and e.time > 0.75
        ]
        assert all(
            record.server != 2 or record.start < 0.75
            for record in outcome.result.batch_records
        )

    def test_crashing_the_last_active_server_raises(self):
        cluster = self._cluster(
            k=1, fault_schedule=FaultSchedule.single_crash(0, at=0.5)
        )
        with pytest.raises(RuntimeError):
            cluster.run(requests=self._requests(rate=1000, duration=2.0))
        # The failed run must not wedge the engine: the session is aborted
        # and the same cluster can (fail to) run again, deterministically.
        with pytest.raises(RuntimeError):
            cluster.run(requests=self._requests(rate=1000, duration=2.0))

    def test_repeated_fault_runs_identical(self):
        requests = self._requests()
        cluster = self._cluster(
            fault_schedule=FaultSchedule.single_crash(0, at=1.0, recover_at=2.0),
            migration=RequeueAtHeadMigration(delay=0.01),
        )
        first = cluster.run(requests=requests)
        second = cluster.run(requests=requests)
        np.testing.assert_array_equal(first.latencies, second.latencies)
        assert [e.kind for e in first.fault_events] == [
            e.kind for e in second.fault_events
        ]
        assert first.migrated == second.migrated

    def test_autoscaler_never_wakes_a_failed_server(self):
        requests = self._requests(rate=4000, duration=3.0)
        cluster = self._cluster(
            k=3,
            fault_schedule=FaultSchedule.single_crash(2, at=0.2),
            migration=RequeueAtHeadMigration(delay=0.01),
            autoscaler=AlwaysGrow(),
            min_servers=1,
            initial_servers=2,
        )
        outcome = cluster.run(requests=requests)
        added = [e.server for e in outcome.scale_events if e.action == "add"]
        assert 2 not in added
        assert all(
            record.server != 2 or record.start < 0.25
            for record in outcome.result.batch_records
        )

    def test_scale_down_with_migration_restarts_pinned_batches(self):
        """An autoscaler-parked server's not-yet-started work migrates."""
        engine = ServingEngine(BatchingConfig(max_batch=4), num_servers=2)
        engine.register("m", FixedExecutor(1.0), mode="int8")
        engine.start(
            requests=[
                Request(arrival_time=0.0, model="m", request_id=i) for i in range(24)
            ]
        )
        for _ in range(6):
            engine.step()
        # Server 0 now has a batch pinned at [2, 3) that has not started by
        # t=1.5; park it then, the way ClusterEngine does on scale-down with
        # a migration policy: the pinned batch restarts elsewhere, the
        # running one ([1, 2)) drains.
        engine.set_active_servers([1])
        report = engine.preempt_server(
            0, 1.5, policy=RequeueAtHeadMigration(), kill_running=False
        )
        assert report.migrated == 4
        result = engine.finish()
        conserve(result, 24)
        late = [r for r in result.responses if r.migrations == 1]
        assert {r.server for r in late} == {1}


# ----------------------------------------------------------------------
# Batch-size-aware placement estimates + predictive placement
# ----------------------------------------------------------------------
class TestPlacementEstimates:
    def test_estimators_change_the_decision_scalar_speed_gets_wrong(self):
        # Server 0: high per-batch overhead, cheap per request at size;
        # server 1: no overhead, slower per request.  At the reference
        # batch (8) their scalar speeds order 0 < 1, so scalar scoring
        # picks server 1 even for large batches — where server 0's
        # amortized overhead makes it strictly faster.
        def est0(batch):
            return 0.08 + 0.001 * batch

        def est1(batch):
            return 0.009 * batch

        speeds = [8 / est0(8), 8 / est1(8)]
        context = PlacementContext(
            time=0.0, free_at=[0.0, 0.0], active=[0, 1], batch_hint=64
        )
        scalar = WeightedSpeedPlacer(speeds)
        aware = WeightedSpeedPlacer(speeds, estimators=[est0, est1])
        assert scalar.place(context) == 1
        assert aware.place(context) == 0
        least = LeastOutstandingWorkPlacer(speeds, estimators=[est0, est1])
        assert least.place(context) == 0
        with pytest.raises(ValueError):
            WeightedSpeedPlacer(speeds, estimators=[est0])

    def test_cluster_estimators_match_spec_latency(self):
        spec = gpu_server("g", "vit_base", gpu="a6000")
        cluster = ClusterEngine([spec])
        estimator = cluster.batch_estimators()[0]
        assert estimator(32) == pytest.approx(
            spec.service_model.batch_latency(32, "int8")
        )
        placer = cluster.resolve_placer("weighted")
        assert placer.estimators is not None

    def test_cluster_estimators_follow_registered_mode(self):
        """The estimators score the precision that actually runs, even
        though named placers are resolved before register()."""
        spec = gpu_server("g", "vit_base", gpu="a6000")
        cluster = ClusterEngine([spec], placer="weighted")
        estimators = cluster.engine.placer.estimators
        cluster.register("m", mode="int4")
        assert estimators[0](32) == pytest.approx(
            spec.service_model.batch_latency(32, "int4")
        )
        # A second endpoint in a different mode falls back to the int8
        # reference (the convention the spec speeds are measured at).
        cluster.register("n", mode="fp16")
        assert estimators[0](32) == pytest.approx(
            spec.service_model.batch_latency(32, "int8")
        )

    def test_predictive_without_telemetry_is_weighted_speed(self, service_model):
        # Without telemetry the placer scores exactly like weighted-speed.
        context = PlacementContext(
            time=1.0, free_at=[0.0, 0.5, 0.9], active=[0, 1, 2], batch_hint=8
        )
        speeds = [10.0, 20.0, 200.0]
        assert PredictivePlacer(speeds).place(context) == WeightedSpeedPlacer(
            speeds
        ).place(context)

    def test_predictive_routes_around_degraded_server(self):
        """The tentpole property: telemetry trends beat stale nominal speeds
        (asserted on the exact scenario examples/resilient_cluster.py shows,
        so the demo and the gate cannot drift apart)."""
        example = load_example("resilient_cluster")
        outcomes = example.slowdown_scenario()
        weighted, predictive = outcomes["weighted"], outcomes["predictive"]
        assert predictive.latencies.size == weighted.latencies.size > 0
        assert predictive.p99_latency < 0.5 * weighted.p99_latency
        assert predictive.throughput > 0.95 * weighted.throughput


# ----------------------------------------------------------------------
# Acceptance: the example scenario + seed equivalence
# ----------------------------------------------------------------------
class TestAcceptance:
    def test_migrating_cluster_meets_slo_baseline_misses(self):
        """ISSUE 5 acceptance: mid-run crash; migration saves the p99
        deadline-attainment SLO the non-migrating baseline misses."""
        example = load_example("resilient_cluster")
        outcomes = example.crash_scenario()
        target = example.ATTAINMENT_TARGET
        baseline = outcomes["crash, no migration"]
        assert baseline.deadline_attainment() < target         # the miss
        assert baseline.result.dropped > 0                     # lost work
        conserve(baseline.result, baseline.result.request_latencies.size)
        for label in (
            "crash + requeue-at-head",
            "crash + redistribute",
            "crash + drop-expired",
        ):
            saved = outcomes[label]
            assert saved.deadline_attainment() >= target       # the save
            assert saved.result.dropped == 0
            assert saved.migrated == baseline.result.dropped
            conserve(saved.result, saved.result.request_latencies.size)
        assert outcomes["no fault"].deadline_attainment() == 1.0

    def test_k1_fifo_bit_identical_with_resilience_off(self, service_model):
        """A fault-free engine run is still bit-for-bit the seed simulator."""
        trace = PoissonTrace(1800, duration=2.0, seed=17).generate()
        engine = ServingEngine(BatchingConfig(max_batch=64))
        engine.register("m", ModeledExecutor(service_model), mode="int8")
        result = engine.run(trace=trace)
        seed_latencies, _, _ = seed_serving_run(
            service_model, BatchingConfig(max_batch=64), trace, "int8"
        )
        np.testing.assert_array_equal(result.latencies, seed_latencies)
        assert result.migrated == 0


# ----------------------------------------------------------------------
# Correlated failures (satellite)
# ----------------------------------------------------------------------
def _fixed_spec(name):
    return ServerSpec(name=name, speed=1000.0, service_model=ServiceTimeModel())


def _register_fixed(cluster, seconds=1.0):
    """Register model ``m`` at int8, every server taking ``seconds`` a batch."""
    executors = [FixedExecutor(seconds) for _ in cluster.specs]
    cluster.register("m", mode="int8", executors=executors)


class TestCorrelatedFailures:
    def test_two_servers_crash_in_the_same_window(self):
        """Both batches in flight die at one boundary; every victim is
        re-served exactly once on the survivors."""
        specs = [_fixed_spec(f"g{i}") for i in range(4)]
        schedule = FaultSchedule(
            [
                FaultEvent(time=0.3, server=0, kind="crash"),
                FaultEvent(time=0.3, server=1, kind="crash"),
            ]
        )
        cluster = ClusterEngine(
            specs,
            BatchingConfig(max_batch=4),
            fault_schedule=schedule,
            migration=RequeueAtHeadMigration(delay=0.1),
            window=0.25,
        )
        _register_fixed(cluster)
        requests = [
            Request(arrival_time=0.0, model="m", request_id=i) for i in range(8)
        ]
        outcome = cluster.run(requests=requests)
        assert [(e.time, e.server) for e in outcome.fault_events] == [
            (0.3, 0),
            (0.3, 1),
        ]
        conserve(outcome.result, 8)
        assert outcome.result.dropped == 0
        assert outcome.migrated == 8
        assert all(
            r.server in (2, 3)
            for r in outcome.result.responses
            if r.migrations > 0
        )

    def test_crash_during_migration_delay_migrates_twice(self):
        """A second crash lands on the server that picked up the first
        crash's migrants — they move again, and nothing is lost or
        double-served."""
        specs = [_fixed_spec(f"g{i}") for i in range(4)]
        schedule = FaultSchedule(
            [
                FaultEvent(time=0.3, server=0, kind="crash"),
                FaultEvent(time=1.2, server=2, kind="crash"),
            ]
        )
        cluster = ClusterEngine(
            specs,
            BatchingConfig(max_batch=4),
            fault_schedule=schedule,
            migration=RequeueAtHeadMigration(delay=0.6),
            window=0.25,
        )
        _register_fixed(cluster)
        requests = [
            Request(arrival_time=0.0, model="m", request_id=i) for i in range(8)
        ]
        outcome = cluster.run(requests=requests)
        # Batches land on servers 0 and 1 at [0, 1).  Server 0's crash is
        # applied at the 0.5 boundary; its migrants wait out the 0.6s delay
        # and restart on idle server 2 at t=0.9 — where the second crash
        # (applied at 1.25) kills them mid-batch and they move again.
        conserve(outcome.result, 8)
        stats = summarize_migrations(outcome.result.responses)
        assert stats["migrated_requests"] == 4.0
        assert stats["max_moves"] == 2.0
        assert stats["moves"] == 8.0
        assert stats["dropped_after_migration"] == 0.0
        twice = [r for r in outcome.result.responses if r.migrations == 2]
        assert {r.server for r in twice} == {3}

# ----------------------------------------------------------------------
# Zone-outage acceptance: the failure-domain example scenario
# ----------------------------------------------------------------------
class TestZoneOutageAcceptance:
    def test_warm_spares_meet_slo_flat_cluster_misses(self):
        """ISSUE 6 acceptance: a zone outage on the spread-placed,
        warm-spared cluster meets the deadline-attainment SLO the PR 5
        single-domain cluster misses — and beats cold standby on p99
        (promotion latency vs provisioning lag)."""
        example = load_example("zone_outage")
        outcomes = example.outage_scenario()
        target = example.ATTAINMENT_TARGET
        flat = outcomes["flat (single-domain)"]
        cold = outcomes["cold standby"]
        warm = outcomes["spread + warm spares"]
        assert outcomes["no fault"].deadline_attainment() == 1.0
        assert flat.deadline_attainment() < target            # the miss
        assert warm.deadline_attainment() >= target           # the save
        assert cold.deadline_attainment() >= target
        # Warm promotion (no provisioning lag) strictly beats cold scale-up.
        assert warm.p99_latency < cold.p99_latency
        # Both zone-A servers were covered by promoted spares, and the
        # spares were demoted once the zone recovered.
        def promotions(outcome):
            return [e.server for e in outcome.scale_events if e.action == "promote"]

        assert promotions(warm) == [4, 5]
        demotes = [e for e in warm.scale_events if e.action == "demote"]
        assert [e.server for e in demotes] == [4, 5]
        assert all(e.time > example.RECOVER_AT for e in demotes)
        assert promotions(cold) == []   # cold standby provisions, never promotes
        assert warm.migrated > 0
        # Nothing lost, nothing served twice, in any deployment.
        for outcome in outcomes.values():
            conserve(outcome.result, outcome.result.request_latencies.size)
            assert outcome.result.dropped == 0
