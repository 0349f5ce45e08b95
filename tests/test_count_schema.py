"""One count schema: totals agree across every representation of a run.

A window's counts are declared once (``repro.serving.telemetry``); the run
report (``EngineResult.to_json``), the registry (``repro.obs.registry``) and
the tracer's terminal spans are different readings of the same events.  This
file pins that three ways:

* **goldens** — one seeded control-plane day and ``examples/
  observability_demo.py``, captured at the commit before the schema was
  unified (``tests/goldens/count_schema.json``): exports, run reports and
  every window-stat field bit-identical;
* **generated** — ``ClusterEngine`` configurations where result totals ==
  telemetry totals == registry samples == live terminal spans, the
  columnar sweep fills the same cells as the object loop, and the bus's
  catch-up from the ledger fills every cell exactly as adding each batch as
  it ran did (a test-local eager oracle on the tracer hooks);
* **named regressions** — a registry built from a fast-path result touches no
  per-batch object; a rewound batch removes its own samples.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from priority_scheduler import PriorityScheduler
from test_examples import load_example

from repro.data.traces import DiurnalTrace, PoissonTrace
from repro.obs import (
    BurnRateRule,
    SloMonitor,
    SloObjective,
    Tracer,
    prometheus_exposition,
    registry_from_cluster,
    registry_from_engine,
    to_chrome_trace,
)
from repro.serving import (
    BatchingConfig,
    ClusterEngine,
    EdfScheduler,
    FaultSchedule,
    FixedRatioPolicy,
    ModeledExecutor,
    Request,
    RequeueAtHeadMigration,
    ServerSpec,
    ServiceTimeModel,
    ServingEngine,
    SloLatencyAutoscaler,
    StepCheckpoint,
    TelemetryBus,
    requests_from_trace,
)
from repro.serving.cluster import _PLACERS
from repro.serving.core import BatchLedger, RequestStore
from repro.serving.telemetry import CLUSTER

# A numpy RuntimeWarning (invalid value, overflow, divide) is a failure.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

GOLDENS = Path(__file__).resolve().parent / "goldens" / "count_schema.json"

#: Every window-stat name the schema promises (ISSUE 17 acceptance list).
SCALAR_FIELDS = (
    "server", "window", "start", "end", "served", "batches", "busy_time",
    "utilization", "mean_queue_depth", "executed_ratio", "drops",
    "deadline_total", "deadline_met", "served_rate", "slo_attainment",
)
SAMPLE_FIELDS = ("latencies",)


# ----------------------------------------------------------------------
# Lossless, JSON-ready views (floats as hex so nan and -0.0 compare)
# ----------------------------------------------------------------------
def _exact(value):
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (int, np.integer)):
        return int(value)
    raise TypeError(type(value))


def _digest(values: np.ndarray) -> dict:
    values = np.ascontiguousarray(values, dtype=np.float64)
    return {
        "size": int(values.size),
        "sha256": hashlib.sha256(values.tobytes()).hexdigest(),
    }


def window_view(stats, cluster: bool = False) -> dict:
    """Every field of one window-stats record, losslessly."""
    view = {name: _exact(getattr(stats, name)) for name in SCALAR_FIELDS}
    if cluster:
        view["active_servers"] = int(stats.active_servers)
    for name in SAMPLE_FIELDS:
        view[name] = _digest(getattr(stats, name))
    view["latency_p99"] = _exact(stats.latency_percentile(99))
    view["summary"] = {key: _exact(v) for key, v in stats.summary().items()}
    return view


def json_snapshot(registry) -> dict:
    """A registry as a plain JSON-ready dict: every metric's type, help,
    label names and samples (a histogram's cells as counts, sum, count)."""
    out = {}
    for metric in registry.metrics():
        entry = {
            "type": metric.kind,
            "help": metric.help,
            "labelnames": list(metric.labelnames),
        }
        if metric.kind == "histogram":
            entry["buckets"] = list(metric.buckets)
            entry["samples"] = [
                {
                    "labels": dict(zip(metric.labelnames, key)),
                    "counts": cells[: len(metric.buckets) + 1],
                    "sum": cells[-1],
                    "count": float(sum(cells[: len(metric.buckets) + 1])),
                }
                for key, cells in metric.samples()
            ]
        else:
            entry["samples"] = [
                {"labels": dict(zip(metric.labelnames, key)), "value": value}
                for key, value in metric.samples()
            ]
        out[metric.name] = entry
    return out


def run_view(outcome, tracer, per_server: bool = True) -> dict:
    """Every export and report of one cluster run, JSON-ready."""
    registry = registry_from_cluster(outcome)
    bus = outcome.telemetry
    trace = to_chrome_trace(
        tracer,
        timeline=outcome.timeline(),
        server_names=[spec.name for spec in outcome.specs],
    )
    return {
        "prometheus": prometheus_exposition(registry),
        "json_snapshot": json_snapshot(registry),
        "cluster_json": outcome.to_json(),
        "timeline": [repr(event) for event in outcome.timeline()],
        "cluster_series": [
            window_view(stats, cluster=True) for stats in bus.cluster_series()
        ],
        "server_series": [
            [window_view(stats) for stats in bus.server_series(server)]
            for server in range(bus.num_servers if per_server else 0)
        ],
        "span_counts": tracer.span_counts(),
        "chrome_trace_sha256": hashlib.sha256(
            json.dumps(trace, sort_keys=True).encode()
        ).hexdigest(),
    }


# ----------------------------------------------------------------------
# The two golden runs
# ----------------------------------------------------------------------
def control_day():
    """bench/day.py's ``day_control`` recipe, seed 8, six simulated seconds.

    Twice the length of its ``tiny`` sizes, so the autoscaler removes, adds
    and removes again around the crash and both ticket alerts fire.
    """
    trace = DiurnalTrace(
        night_rate=300, peak_rate=1500, duration=6.0, period=6.0, num_phases=6,
        seed=8,
    ).generate()
    requests = requests_from_trace(
        trace, model="m", deadlines=[0.1, 0.2], priorities=[0, 1], lazy=True
    )
    tracer = Tracer(sample_rate=0.01)
    monitor = SloMonitor(
        objectives=[
            SloObjective("deadline_attainment", target=0.99),
            SloObjective(
                "latency_50ms", target=0.99, kind="latency",
                latency_slo_seconds=0.05,
            ),
        ],
        rules=[
            BurnRateRule(threshold=14.4, fast_windows=1, slow_windows=4,
                         severity="page"),
            BurnRateRule(threshold=3.0, fast_windows=6, slow_windows=12,
                         severity="ticket"),
        ],
    )
    specs = [
        ServerSpec(name=f"s{i}", speed=1.0, service_model=ServiceTimeModel())
        for i in range(8)
    ]
    cluster = ClusterEngine(
        specs,
        BatchingConfig(max_batch=16, drop_after=0.1),
        window=1.0,
        scheduler=EdfScheduler(),
        autoscaler=SloLatencyAutoscaler(slo_seconds=0.1, patience=2),
        min_servers=2,
        initial_servers=4,
        migration=RequeueAtHeadMigration(delay=0.01),
        tracer=tracer,
        slo_monitor=monitor,
        fault_schedule=FaultSchedule.single_crash(1, at=2.0, recover_at=4.0),
        placer="least_work",
    )
    cluster.register("m", policy=FixedRatioPolicy(0.5))
    return cluster.run(requests=requests), tracer


def observability_demo():
    """The zone-outage run of ``examples/observability_demo.py``."""
    demo = load_example("observability_demo")
    tracer = Tracer(sample_rate=demo.SAMPLE_RATE)
    monitor = SloMonitor(
        objectives=[
            SloObjective("deadline_attainment", target=demo.zo.ATTAINMENT_TARGET),
            SloObjective(
                "latency_150ms", target=0.99, kind="latency",
                latency_slo_seconds=demo.LATENCY_OBJECTIVE_SECONDS,
            ),
        ],
        rules=[
            BurnRateRule(threshold=14.4, fast_windows=1, slow_windows=4,
                         severity="page"),
            BurnRateRule(threshold=3.0, fast_windows=6, slow_windows=12,
                         severity="ticket"),
        ],
    )
    cluster = demo.build_observed_cluster(tracer, monitor)
    return cluster.run(requests=demo.zo.build_requests()), tracer


def golden_views() -> dict:
    """What the goldens file holds, recomputed on this checkout."""
    views = {
        "control_day": run_view(*control_day()),
        # The demo's 6 servers x 25 windows would triple the file; its
        # exports, reports and cluster series are what the issue pins.
        "observability_demo": run_view(*observability_demo(), per_server=False),
    }
    return json.loads(json.dumps(views))


class TestGoldens:
    def test_exports_reports_and_window_stats_are_bit_identical(self):
        golden = json.loads(GOLDENS.read_text())
        views = golden_views()
        assert sorted(views) == sorted(golden)
        for run, view in views.items():
            for key, value in view.items():
                assert value == golden[run][key], (run, key)


# ----------------------------------------------------------------------
# Generated: one run, four representations of its counts
# ----------------------------------------------------------------------
WINDOW = 0.02


@st.composite
def cluster_cases(draw):
    count = draw(st.integers(0, 60))
    ticks = sorted(draw(st.lists(st.integers(0, 80), min_size=count, max_size=count)))
    slos = draw(st.sampled_from([None, (0.004, 0.02), (0.05,)]))
    num_servers = draw(st.integers(1, 4))
    crash = None
    if num_servers > 1 and draw(st.booleans()):
        crash = (draw(st.integers(0, num_servers - 1)), draw(st.integers(1, 70)) * 1e-3)
    return dict(
        arrivals=[tick * 1e-3 for tick in ticks],
        slos=slos,
        num_servers=num_servers,
        edf=draw(st.booleans()),
        max_batch=draw(st.integers(1, 5)),
        drop_after=draw(st.sampled_from([None, 0.01])),
        crash=crash,
    )


def _requests(case):
    slos = case["slos"]
    return [
        Request(
            arrival, "m", request_id=number,
            deadline=None if slos is None else arrival + slos[number % len(slos)],
        )
        for number, arrival in enumerate(case["arrivals"])
    ]


def _run(case, columnar=True, record_responses=None):
    tracer = Tracer(sample_rate=1.0)
    crash = case["crash"]
    cluster = ClusterEngine(
        [
            ServerSpec(name=f"s{i}", speed=1.0, service_model=ServiceTimeModel())
            for i in range(case["num_servers"])
        ],
        BatchingConfig(case["max_batch"], case["drop_after"]),
        scheduler=EdfScheduler() if case["edf"] else None,
        window=WINDOW,
        fault_schedule=(
            None if crash is None else FaultSchedule.single_crash(crash[0], at=crash[1])
        ),
        migration=None if crash is None else RequeueAtHeadMigration(delay=0.001),
        tracer=tracer,
        columnar=columnar,
    )
    cluster.register("m", policy=FixedRatioPolicy(0.5))
    outcome = cluster.run(
        requests=_requests(case), record_responses=record_responses
    )
    return outcome, tracer


def _samples(snapshot, name):
    """``{label values: value}`` of one counter/gauge in a ``json_snapshot``."""
    labelnames = snapshot[name]["labelnames"]
    return {
        tuple(sample["labels"][label] for label in labelnames): sample["value"]
        for sample in snapshot[name]["samples"]
    }


class TestCountsAgreeAcrossRepresentations:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(cluster_cases())
    def test_result_telemetry_registry_and_spans_agree(self, case):
        outcome, tracer = _run(case)
        result, bus = outcome.result, outcome.telemetry
        report = result.to_json()
        submitted = len(case["arrivals"])
        assert report["served"] + report["dropped"] == submitted

        # ... == the per-request reading of the same records and columns,
        responses = list(result.responses)
        assert len(responses) == submitted
        assert sum(not r.dropped for r in responses) == report["served"]
        for response, latency in zip(responses, result.request_latencies):
            assert response.dropped == bool(np.isnan(latency))
            assert response.dropped or response.latency == latency
        carrying = [r for r in responses if r.deadline is not None]
        attainment = result.deadline_attainment()
        if carrying:
            assert attainment == sum(
                1 for r in carrying if r.deadline_met
            ) / len(carrying)
        else:
            assert np.isnan(attainment) and report["deadline_attainment"] is None

        # ... == the sum of all telemetry cells,
        windows = bus.cluster_series()
        assert sum(w.served for w in windows) == report["served"]
        assert sum(w.drops for w in windows) == report["dropped"]
        assert sum(w.batches for w in windows) == report["batches"]
        assert sum(w.latencies.size for w in windows) == report["served"]
        assert sum(w.deadline_met for w in windows) == sum(
            1 for r in carrying if r.deadline_met
        )
        assert sum(w.deadline_total for w in windows) == len(carrying)
        per_server_batches = [0] * case["num_servers"]
        for record in result.batch_records:
            per_server_batches[record.server] += 1
        for server in range(case["num_servers"]):
            series = bus.server_series(server)
            assert sum(w.batches for w in series) == per_server_batches[server]
            # Per-window partial sums round differently from the run's one
            # running sum; the same seconds either way.
            assert math.isclose(
                sum(w.busy_time for w in series),
                report["server_busy_times"][server],
                rel_tol=1e-9, abs_tol=1e-12,
            )

        # ... == the registry's sample values,
        snapshot = json_snapshot(registry_from_cluster(outcome))
        assert _samples(snapshot, "repro_requests_served_total") == {
            (): report["served"]
        }
        assert _samples(snapshot, "repro_requests_dropped_total") == {
            (): report["dropped"]
        }
        assert _samples(snapshot, "repro_requests_migrated_total") == {
            (): report["migrated"]
        }
        assert _samples(snapshot, "repro_batches_total") == {
            (str(server),): batches
            for server, batches in enumerate(per_server_batches)
            if batches
        }
        assert _samples(snapshot, "repro_server_busy_seconds") == {
            (str(server),): seconds
            for server, seconds in enumerate(report["server_busy_times"])
        }
        histogram = snapshot["repro_request_latency_seconds"]["samples"][0]
        assert histogram["count"] == report["served"]
        assert _samples(snapshot, "repro_fault_events_total") == (
            {} if case["crash"] is None else {("crash",): 1}
        )

        # ... == the tracer's live terminals, one per request.
        assert all(count == 1 for count in tracer.terminal_requests().values())
        assert len(tracer.terminal_requests()) == submitted
        spans = tracer.span_counts()
        assert (spans["served"], spans["dropped"]) == (
            report["served"], report["dropped"]
        )

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(cluster_cases())
    def test_columnar_sweep_fills_the_same_cells_as_the_object_loop(self, case):
        if case["edf"] or case["crash"] is not None or not case["arrivals"]:
            return  # not fast-eligible: there is one path, nothing to compare
        fast, _ = _run(case, columnar=True, record_responses=False)
        slow, _ = _run(case, columnar=False, record_responses=False)
        assert (fast.result.kernel, slow.result.kernel) == ("sweep", "object")
        bus_a, bus_b = fast.telemetry, slow.telemetry
        assert bus_a.last_window == bus_b.last_window
        series = [(True, bus_a.cluster_series(), bus_b.cluster_series())] + [
            (False, bus_a.server_series(server), bus_b.server_series(server))
            for server in range(case["num_servers"])
        ]
        for cluster, series_a, series_b in series:
            for a, b in zip(series_a, series_b):
                # Hex spelling: == on floats, with nan equal to itself.
                assert window_view(a, cluster) == window_view(b, cluster)
                for name in SAMPLE_FIELDS:
                    assert np.array_equal(getattr(a, name), getattr(b, name))


# ----------------------------------------------------------------------
# Generated: the bus's catch-up == adding each batch as it ran
# ----------------------------------------------------------------------
COUNT_FIELDS = (
    "served", "batches", "busy_time", "ratio_weight", "queue_depth_sum",
    "drops", "deadline_total", "deadline_met",
)


class EagerTelemetry:
    """The oracle: telemetry added a batch at a time as each one runs, is
    rewound or drops, in plain per-event arithmetic.  It rides on the
    engine's tracer hooks, which see exactly those events in exactly that
    order."""

    wants_deadlines = True

    def __init__(self, window):
        self.window = window
        # Each slot's deadline (``nan`` = none), or None when no request has
        # one: a drop hook is handed slots only.
        self.deadlines = None
        self.reset()

    def reset(self):
        self.cells, self.counts, self.last_window = {}, {}, -1

    def _cell(self, server, start):
        window = int(start / self.window)
        self.last_window = max(self.last_window, window)
        if (server, window) not in self.cells:
            self.cells[server, window] = {
                **dict.fromkeys(COUNT_FIELDS, 0), "busy_time": 0.0,
                "ratio_weight": 0.0, "parts": [],
            }
        return self.cells[server, window]

    def _batch(self, sign, record, busy_from, latencies, deadline_total, deadline_met):
        cell = self._cell(record.server, record.start)
        cell["served"] += sign * record.size
        cell["batches"] += sign
        cell["busy_time"] += sign * (record.finish - busy_from)
        cell["ratio_weight"] += sign * (record.ratio * record.size)
        cell["queue_depth_sum"] += sign * int(record.queue_depth)
        cell["deadline_total"] += sign * int(deadline_total)
        cell["deadline_met"] += sign * int(deadline_met)
        parts = cell["parts"]
        if sign > 0:
            parts.append((record.row, latencies))
        else:
            index = max(i for i, (row, _) in enumerate(parts) if row == record.row)
            del parts[index]

    def on_batch(self, record, slots, arrivals, deadlines=None):
        total = met = 0
        for deadline in [] if deadlines is None else deadlines.tolist():
            if deadline == deadline:  # false only for nan, "no deadline"
                total += 1
                if record.finish <= deadline:
                    met += 1
        self.counts[record.row] = total, met
        self._batch(1, record, record.start, record.finish - arrivals, total, met)

    def on_batches(self, ledger, row, rows, slots, arrivals, due):
        at = 0
        for index in range(row, rows):
            record = ledger[index]
            cut = slice(at, at + record.size)
            at += record.size
            self.on_batch(record, slots[cut], arrivals[cut], None if due is None else due[cut])

    def on_preempt(self, record, slots, time):
        total, met = self.counts.pop(record.row)
        self._batch(-1, record, max(record.start, time), None, total, met)

    def on_drop(self, slots, arrivals, time):
        cell = self._cell(CLUSTER, time)
        cell["drops"] += len(slots)
        if self.deadlines is not None:
            dropped = self.deadlines[np.asarray(slots)]
            cell["deadline_total"] += int(np.count_nonzero(~np.isnan(dropped)))

    def on_requeue(self, slots, priors, time, server):
        pass

    def settle(self):
        pass


def assert_bus_equals_oracle(bus, oracle):
    """Every cell, field by field (floats by ``float.hex``), samples in order."""
    assert bus.last_window == oracle.last_window  # a peek: no catch-up yet
    bus.server_window(0, 0)  # a read: the bus catches up
    assert bus.last_window == oracle.last_window
    assert sorted(bus._cells) == sorted(oracle.cells)
    for key, cell in bus._cells.items():
        want = oracle.cells[key]
        assert [_exact(getattr(cell, name)) for name in COUNT_FIELDS] == [
            _exact(want[name]) for name in COUNT_FIELDS
        ], key
        samples = [part for _, part in want["parts"]]
        want_latencies = np.concatenate(samples) if samples else np.zeros(0)
        assert [x.hex() for x in cell.latencies.tolist()] == [
            x.hex() for x in want_latencies.tolist()
        ], key


class ReadsTheBus:
    """A ratio policy that reads ``context.telemetry`` at every batch, and
    checks it against the oracle there (which has seen every earlier batch)."""

    def __init__(self, oracle):
        self.oracle, self.reads = oracle, 0

    def on_run_start(self, trace):
        pass

    def select(self, context):
        assert_bus_equals_oracle(context.telemetry, self.oracle)
        self.reads += 1
        return 0.25 * (context.server % 3)


@st.composite
def catch_up_cases(draw):
    case = draw(cluster_cases())
    servers = case["num_servers"]
    return dict(
        case,
        scheduler=draw(st.sampled_from(["fifo", "priority", "edf"])),
        placer=draw(st.sampled_from([None, *_PLACERS])),
        speeds=draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=servers,
                             max_size=servers)),
        checkpoint=draw(st.booleans()),
        autoscaler=servers > 1 and draw(st.booleans()),
        reader=draw(st.booleans()),
        # Without responses to record, an eligible run is a whole sweep.
        record_responses=draw(st.booleans()),
        read_every=draw(st.integers(1, 5)),
        # A longer window holds more rows per cell, spread over more reads.
        window=draw(st.sampled_from([WINDOW, 0.05])),
    )


def _catch_up_cluster(case, oracle):
    crash = case["crash"]
    scheduler = {"fifo": None, "priority": PriorityScheduler(), "edf": EdfScheduler()}
    cluster = ClusterEngine(
        [
            ServerSpec(name=f"s{i}", speed=speed, service_model=ServiceTimeModel())
            for i, speed in enumerate(case["speeds"])
        ],
        BatchingConfig(case["max_batch"], case["drop_after"]),
        scheduler=scheduler[case["scheduler"]],
        placer=case["placer"],
        window=case["window"],
        fault_schedule=(
            None if crash is None else FaultSchedule.single_crash(crash[0], at=crash[1])
        ),
        migration=None if crash is None else RequeueAtHeadMigration(delay=0.001),
        checkpoint=StepCheckpoint(steps=4) if case["checkpoint"] else None,
        autoscaler=(
            SloLatencyAutoscaler(slo_seconds=0.01, patience=1)
            if case["autoscaler"] else None
        ),
        min_servers=1,
        tracer=oracle,
    )
    policy = ReadsTheBus(oracle) if case["reader"] else FixedRatioPolicy(0.5)
    cluster.register("m", policy=policy)
    slos = case["slos"]
    requests = [
        Request(
            arrival, "m", request_id=number, priority=number % 3,
            deadline=None if slos is None else arrival + slos[number % len(slos)],
        )
        for number, arrival in enumerate(case["arrivals"])
    ]
    oracle.deadlines = RequestStore.from_requests(requests).deadlines
    return cluster, policy, requests


class TestTheCatchUpEqualsAddingEachBatch:
    """The bus reads the ledger in bulk when read; every cell must equal the
    per-batch arithmetic it replaced, bit for bit, however the rows fall
    between catch-ups and whatever was rewound."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(catch_up_cases())
    def test_a_cluster_run(self, case):
        oracle = EagerTelemetry(case["window"])
        cluster, policy, requests = _catch_up_cluster(case, oracle)
        outcome = cluster.run(
            requests=requests, record_responses=case["record_responses"]
        )
        assert_bus_equals_oracle(outcome.telemetry, oracle)
        if case["reader"]:  # rewound batches were read for too
            assert policy.reads >= len(outcome.result.batch_records)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(catch_up_cases())
    def test_a_read_after_every_step(self, case):
        """The cluster's engine stepped by hand: a read after every batch (or
        every second or third, so a cell takes rows over several catch-ups),
        and with a crash a rewind with migration, unread rows and all, once
        the clock passes it."""
        oracle = EagerTelemetry(case["window"])
        cluster, _, requests = _catch_up_cluster(case, oracle)
        engine, bus, crash = cluster.engine, cluster.telemetry, case["crash"]
        engine.start(requests=requests)
        steps = 0
        while (record := engine.step()) is not None:
            steps += 1
            if crash is not None and record.start >= crash[1]:
                engine.preempt_server(
                    crash[0], crash[1], policy=RequeueAtHeadMigration(delay=0.001),
                    checkpoint=StepCheckpoint(steps=4) if case["checkpoint"] else None,
                )
                crash = None
            if steps % case["read_every"] == 0:
                assert_bus_equals_oracle(bus, oracle)
        engine.finish()
        assert_bus_equals_oracle(bus, oracle)


# ----------------------------------------------------------------------
# Named regressions
# ----------------------------------------------------------------------
class TestAReusedEngineCountsEachSessionOnce:
    """Each session starts its engine's bus and tracer empty: the second
    run's telemetry and spans are its own, not added to the first's."""

    @pytest.mark.parametrize("columnar", [True, False])
    def test_two_sessions_on_one_engine(self, columnar):
        requests = requests_from_trace(PoissonTrace(200, 1.0, seed=1).generate(), model="m")
        bus, tracer = TelemetryBus(window=0.25, num_servers=2), Tracer()
        engine = ServingEngine(
            BatchingConfig(8), num_servers=2, telemetry=bus, tracer=tracer,
            columnar=columnar,
        )
        engine.register("m", ModeledExecutor(ServiceTimeModel()))
        for _ in range(2):
            result = engine.run(requests=requests)
            assert result.to_json()["served"] == 191
            assert sum(stats.served for stats in bus.cluster_series()) == 191
            assert sum(stats.batches for stats in bus.cluster_series()) == len(
                result.batch_records
            )
            terminals = tracer.terminal_requests()
            assert sorted(terminals) == list(range(len(requests)))
            assert set(terminals.values()) == {1}

    @pytest.mark.parametrize("columnar", [True, False])
    def test_two_runs_on_one_cluster(self, columnar):
        """The cluster resets nothing of its own: its engine's session start
        empties the bus (windows and scale events) and the tracer."""
        requests = requests_from_trace(PoissonTrace(2000, 1.0, seed=1).generate(), model="m")
        tracer, model = Tracer(), ServiceTimeModel()
        cluster = ClusterEngine(
            [ServerSpec(f"s{i}", 100.0, service_model=model) for i in range(3)],
            BatchingConfig(8), window=0.25, initial_servers=1,
            autoscaler=SloLatencyAutoscaler(slo_seconds=0.001, patience=1),
            tracer=tracer, columnar=columnar,
        )
        cluster.register("m")
        for _ in range(2):
            result = cluster.run(requests=requests)
            served = result.result.to_json()["served"]
            assert served == 2021
            bus = cluster.telemetry
            assert sum(stats.served for stats in bus.cluster_series()) == served
            assert len(result.scale_events) == len(bus.scale_events) == 2
            terminals = tracer.terminal_requests()
            assert sorted(terminals) == list(range(len(requests)))
            assert set(terminals.values()) == {1}


def _fifo_engine(columnar):
    engine = ServingEngine(
        BatchingConfig(max_batch=8, drop_after=0.02), num_servers=3,
        columnar=columnar,
    )
    engine.register(
        "m", ModeledExecutor(ServiceTimeModel()), policy=FixedRatioPolicy(0.5)
    )
    return engine


class TestRecordingResponsesChangesNoOutcome:
    def test_a_sweepable_session_serves_the_same_batches_when_it_records(self):
        """FIFO, modeled, fixed ratio, untouched: everything the sweep needs.
        ``record_responses`` adds the view and moves no batch.  Which loop
        serves the recording session is not asserted: today it is the object
        loop, held only by bench/'s ``overhead_ratio`` denominators, and the
        clause goes when ROADMAP 5(a) redefines them."""
        trace = PoissonTrace(9000, duration=0.3, seed=5).generate()
        swept = _fifo_engine(True).run(trace, model="m")
        recorded = _fifo_engine(True).run(trace, model="m", record_responses=True)
        assert swept.kernel == "sweep" and swept.dropped > 0
        assert swept.responses is None and np.isnan(swept.deadline_attainment())
        assert list(swept.batch_records) == list(recorded.batch_records)
        assert swept.to_json()["served"] == recorded.to_json()["served"]
        responses = recorded.responses
        assert len(responses) == len(trace)
        assert sum(r.dropped for r in responses) == swept.dropped
        latencies = [r.latency for r in responses if not r.dropped]
        assert latencies == swept.latencies.tolist()


class TestRegistryReadsColumns:
    def test_fast_path_result_touches_no_per_batch_object(self, monkeypatch):
        trace = PoissonTrace(9000, duration=1.0, seed=3).generate()
        fast = _fifo_engine(True).run(trace, model="m")
        slow = _fifo_engine(False).run(trace, model="m")
        assert fast.kernel == "sweep" and fast.dropped > 0

        def materialised(self, *args):
            raise AssertionError("a BatchRecord was materialised from the ledger")

        monkeypatch.setattr(BatchLedger, "__getitem__", materialised)
        monkeypatch.setattr(BatchLedger, "__iter__", materialised)
        assert json_snapshot(registry_from_engine(fast)) == json_snapshot(
            registry_from_engine(slow)
        )
        assert fast.to_json() == slow.to_json()


def session(arrivals, deadlines=None):
    """An empty ledger and a store of requests at ``arrivals`` (sorted)."""
    return BatchLedger(), RequestStore.from_requests([
        Request(
            arrival, "m", request_id=number,
            deadline=None if deadlines is None else deadlines[number],
        )
        for number, arrival in enumerate(arrivals)
    ])


def bound_bus(arrivals, deadlines=None, window=1.0, num_servers=1):
    """A bus bound to a fresh :func:`session`, as the engine binds one at
    ``start()``; returns it and the ledger."""
    ledger, store = session(arrivals, deadlines)
    bus = TelemetryBus(window=window, num_servers=num_servers)
    bus.bind(ledger, store)
    return bus, ledger


def append(ledger, start, slots, server=0, finish=None):
    """One batch of ``slots``, from ``start`` to ``finish`` (or 10 ms on)."""
    finish = start + 0.01 if finish is None else finish
    ledger.append(
        "m", start, finish, len(slots), 0.5, "flexiq", server, 0,
        np.asarray(slots, dtype=np.intp),
    )


def rewind(bus, ledger, index, kill_time=None):
    """Cut ledger row ``index`` and subtract it, as ``preempt_server`` does:
    the bus catches up before the row leaves the ledger."""
    bus.catch_up()
    [(record, slots)] = ledger.remove([index])
    bus.unrecord_batch(record, slots, kill_time=kill_time)


class TestRewindRemovesItsOwnSamples:
    # Dyadic times, so every latency is exact: 0.75 - 0.5 is 0.25.
    ARRIVALS = [0.25, 0.25, 0.5, 0.5, 0.625]

    def test_equal_latencies_in_one_cell(self):
        bus, ledger = bound_bus(self.ARRIVALS)
        append(ledger, 0.7, [2, 0], finish=0.75)
        append(ledger, 0.7, [4], finish=0.75)
        append(ledger, 0.7, [3, 1], finish=0.75)
        # Bit-equal to the first batch's samples; only the third's own go.
        rewind(bus, ledger, 2)
        stats = bus.server_window(0, 0)
        assert stats.latencies.tolist() == [0.25, 0.5, 0.125]
        assert (stats.served, stats.batches) == (3, 2)
        rewind(bus, ledger, 0)
        assert bus.server_window(0, 0).latencies.tolist() == [0.125]

    def test_of_two_field_equal_records_the_one_with_the_row_id_goes(self):
        """Two batches with every field equal but the row id (two servers'
        worth of identical work filed under one server, say): the bus finds a
        batch by its row id, not by what it looks like or which object it is."""
        bus, ledger = bound_bus(self.ARRIVALS)
        append(ledger, 0.7, [2, 0], finish=0.75)
        append(ledger, 0.7, [4, 2], finish=0.75)
        assert ledger[0] != ledger[1]
        assert replace(ledger[0], row=1) == ledger[1]
        rewind(bus, ledger, 0)
        assert bus.server_window(0, 0).latencies.tolist() == [0.125, 0.25]

    def test_a_bus_attached_mid_run_never_saw_the_record(self):
        ledger, store = session(self.ARRIVALS)
        append(ledger, 0.7, [2, 0], finish=0.75)
        bus = TelemetryBus(window=1.0)
        bus.bind(ledger, store)  # reads from the next row on
        append(ledger, 0.7, [3, 1], finish=0.75)
        # The one tolerated miss: bit-equal samples of another batch stay.
        rewind(bus, ledger, 0)
        assert bus.server_window(0, 0).latencies.tolist() == [0.25, 0.5]

    def test_a_returned_snapshot_does_not_follow_the_bus(self):
        deadlines = [None, None, None, 0.5, None]
        bus, ledger = bound_bus(self.ARRIVALS, deadlines, num_servers=2)
        append(ledger, 0.1, [0, 1])
        server, cluster = bus.server_window(0, 0), bus.cluster_window(0)
        before = (window_view(server), window_view(cluster, cluster=True))
        append(ledger, 0.4, [2])
        bus.record_drops(0.5, np.array([3, 4]))
        assert (bus.cluster_window(0).drops, bus.cluster_window(0).deadline_total) == (2, 1)
        assert (window_view(server), window_view(cluster, cluster=True)) == before
        assert bus.cluster_window(0).served == 3


if __name__ == "__main__":  # run at the parent commit to (re)capture
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(golden_views(), sort_keys=True, indent=0) + "\n")
