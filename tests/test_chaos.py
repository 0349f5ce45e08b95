"""Seeded chaos smoke test (its own CI matrix entry).

A randomized-but-reproducible fault plane: for a handful of fixed seeds, a
random :class:`~repro.serving.resilience.FaultSchedule` (crashes, slowdowns
and recoveries at random window-aligned-ish instants, never sinking more
than ``num_servers - 2`` servers at once) is injected into a cluster
serving a diurnal trace.  The test asserts **invariants only** — it makes
no claim about latency or SLOs, which are covered by the deterministic
suites:

* conservation: every admitted request ends served or dropped, exactly
  once, with batch records covering exactly the served population;
* determinism: re-running the identical scenario reproduces the latency
  vector bit for bit;
* the merged telemetry timeline is time-ordered.

Each test runs twice: FIFO over the trace, and EDF over the same arrivals as
requests with deadlines, so the faults also land on the scheduled loop
(crashes mid-segment, checkpointed requeues through the EDF queue, slowed
servers priced by it).

The generator lives here (not in the library): it maintains per-server
health so it only emits legal schedules (no recover-for-healthy-server,
no same-instant conflicts), exercising `FaultSchedule` validation with
every draw.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.traces import DiurnalTrace
from repro.serving import (
    BatchExecution,
    BatchingConfig,
    ClusterEngine,
    EdfScheduler,
    FaultEvent,
    FaultSchedule,
    RequeueAtHeadMigration,
    ServerSpec,
    ServiceTimeModel,
    StepCheckpoint,
    requests_from_trace,
)

NUM_SERVERS = 4
DURATION = 4.0
WINDOW = 0.25
SEEDS = (0, 1, 2, 3, 4)
#: The queue disciplines every test runs under.
SCHEDULERS = ("fifo", "edf")
SERVICE_MODEL = ServiceTimeModel()


class FixedExecutor:
    """Deterministic executor: every batch takes exactly ``seconds``."""

    def __init__(self, seconds: float) -> None:
        self.seconds = float(seconds)

    def execute(self, batch, mode, ratio):
        return BatchExecution(service_time=self.seconds)


def random_schedule(seed: int) -> FaultSchedule:
    """A legal random fault script: tracked health, bounded blast radius.

    At most ``NUM_SERVERS - 2`` servers are ever failed/degraded at once
    (the cluster always keeps two healthy servers), event instants are
    unique per server, and recoveries only target servers with an
    outstanding fault.
    """
    rng = np.random.default_rng(seed)
    healthy = set(range(NUM_SERVERS))
    faulted: set = set()
    used_instants: set = set()
    events = []
    time = 0.0
    while True:
        time += float(rng.uniform(0.2, 0.8))
        if time >= DURATION:
            break
        time = round(time, 3)
        if time in used_instants:
            continue
        used_instants.add(time)
        recover_ok = bool(faulted)
        sink_ok = len(faulted) < NUM_SERVERS - 2
        roll = rng.random()
        if recover_ok and (roll < 0.4 or not sink_ok):
            server = int(rng.choice(sorted(faulted)))
            events.append(FaultEvent(time=time, server=server, kind="recover"))
            faulted.discard(server)
            healthy.add(server)
        elif sink_ok:
            server = int(rng.choice(sorted(healthy)))
            if rng.random() < 0.5:
                events.append(FaultEvent(time=time, server=server, kind="crash"))
            else:
                events.append(
                    FaultEvent(
                        time=time,
                        server=server,
                        kind="slowdown",
                        factor=float(rng.uniform(2.0, 8.0)),
                    )
                )
            healthy.discard(server)
            faulted.add(server)
    return FaultSchedule(events)


def run_chaos(seed: int, tracer=None, scheduler: str = "fifo"):
    specs = [
        ServerSpec(
            name=f"g{i}",
            speed=1000.0,
            service_model=SERVICE_MODEL,
            zone="AB"[i % 2],
        )
        for i in range(NUM_SERVERS)
    ]
    cluster = ClusterEngine(
        specs,
        BatchingConfig(max_batch=16),
        scheduler=EdfScheduler() if scheduler == "edf" else None,
        placer="spread",
        fault_schedule=random_schedule(seed),
        migration=RequeueAtHeadMigration(delay=0.01),
        checkpoint=StepCheckpoint(steps=4),
        window=WINDOW,
        tracer=tracer,
    )
    # The spread placer estimates with the specs' model; batches run fixed.
    executors = [FixedExecutor(0.02) for _ in specs]
    cluster.register("m", mode="int8", executors=executors)
    trace = DiurnalTrace(
        night_rate=200.0,
        peak_rate=800.0,
        duration=DURATION,
        period=DURATION,
        num_phases=16,
        seed=seed,
    ).generate()
    if scheduler == "edf":
        # EDF reads deadlines, so the arrivals go in as requests.
        requests = requests_from_trace(trace, model="m", deadlines=[0.05, 0.2])
        return cluster.run(requests=requests, record_responses=True), trace
    return cluster.run(trace=trace, record_responses=True), trace


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_invariants(seed, scheduler):
    outcome, trace = run_chaos(seed, scheduler=scheduler)
    result = outcome.result
    admitted = len(trace.arrival_times)
    served = result.latencies.size
    # No request lost, none served twice.
    assert served + result.dropped == admitted
    assert sum(record.size for record in result.batch_records) == served
    assert len(result.responses) == admitted
    assert all(response is not None for response in result.responses)
    assert sum(1 for r in result.responses if not r.dropped) == served
    assert sum(1 for r in result.responses if r.dropped) == result.dropped
    # The fault script really ran.
    assert outcome.fault_events
    # The merged timeline is deterministic and time-ordered.
    times = [event.time for event in outcome.timeline()]
    assert times == sorted(times)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_chaos_is_reproducible(seed, scheduler):
    first, _ = run_chaos(seed, scheduler=scheduler)
    second, _ = run_chaos(seed, scheduler=scheduler)
    np.testing.assert_array_equal(first.result.latencies, second.result.latencies)
    assert first.result.dropped == second.result.dropped
    assert [
        (e.time, e.server, e.kind) for e in first.fault_events
    ] == [(e.time, e.server, e.kind) for e in second.fault_events]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_traces_conserve_requests(seed, scheduler):
    """Sampled traces conserve requests under randomized fault schedules.

    Every traced request must end in exactly one live terminal span
    (served or dropped) even across preemptions, migrations and
    checkpointed re-execution — preemption retracts the optimistic
    terminal and the re-serve (or drop) writes the replacement.  The
    traced run must also be byte-identical in outcome to the untraced
    one: tracing observes, it never perturbs.
    """
    from repro.obs import Tracer

    tracer = Tracer(sample_rate=0.25)
    outcome, trace = run_chaos(seed, tracer=tracer, scheduler=scheduler)
    untraced, _ = run_chaos(seed, scheduler=scheduler)
    np.testing.assert_array_equal(
        outcome.result.request_latencies, untraced.result.request_latencies
    )

    terminals = tracer.terminal_requests()
    assert terminals, "sampling at 25% must trace someone"
    assert all(count == 1 for count in terminals.values())
    # Terminal kinds agree with the engine's verdict per request.
    columns = tracer.spans()
    responses = outcome.result.responses
    from repro.obs import SPAN_DROPPED, SPAN_SERVED

    for kind, slot in zip(columns["kind"], columns["request"]):
        if kind == SPAN_SERVED:
            assert not responses[int(slot)].dropped
        elif kind == SPAN_DROPPED:
            assert responses[int(slot)].dropped
    # Migration hops in the trace match the engine's migration count:
    # every successful requeue leaves exactly one migrate/retry instant.
    counts = tracer.span_counts()
    assert counts["migrate"] + counts["retry"] == outcome.result.migrated


def test_generator_respects_blast_radius():
    for seed in SEEDS:
        schedule = random_schedule(seed)
        down: set = set()
        for event in schedule:
            if event.kind == "recover":
                down.discard(event.server)
            else:
                down.add(event.server)
            assert len(down) <= NUM_SERVERS - 2
