"""Tests for repro.obs: tracing, exporters, metrics registry, SLO burn rates.

Also hosts the PR 9 satellite regressions: the telemetry timeline
dirty-flag audit (rewind paths must not stale the sorted cache) and the
``summarize_latencies``/``latency_percentile`` empty-input
canonicalization.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.traces import PoissonTrace
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    KIND_NAMES,
    SPAN_CANCELLED,
    SPAN_DROPPED,
    SPAN_EXECUTE,
    SPAN_MIGRATE,
    SPAN_PREEMPTED,
    SPAN_QUEUED,
    SPAN_RETRY,
    SPAN_SERVED,
    BurnRateRule,
    MetricsRegistry,
    SloMonitor,
    SloObjective,
    SpanStore,
    Tracer,
    prometheus_exposition,
    registry_from_cluster,
    registry_from_engine,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.serving.cluster import ClusterEngine, ServerSpec
from repro.serving.engine import (
    BatchingConfig,
    BatchRecord,
    Request,
    ServingEngine,
    requests_from_trace,
)
from repro.serving.executors import ModeledExecutor
from repro.serving.metrics import latency_percentile, summarize_latencies
from repro.serving.policies import FixedRatioPolicy
from repro.serving.resilience import (
    FaultEvent,
    FaultSchedule,
    RequeueAtHeadMigration,
)
from repro.serving.simulator import ServiceTimeModel
from repro.serving.telemetry import ScaleEvent, TelemetryBus
from test_cluster_day import FULL_SCALE, _engine as day_engine, diurnal_day
from test_count_schema import EagerTracer, append, bound_bus, rewind, session
from test_serving_engine import seed_serving_run

# A numpy RuntimeWarning (invalid value, overflow, divide) is a failure.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _engine(tracer=None, columnar=True, num_servers=2, drop_after=None):
    engine = ServingEngine(
        BatchingConfig(max_batch=8, drop_after=drop_after),
        num_servers=num_servers,
        columnar=columnar,
        tracer=tracer,
    )
    engine.register(
        "m", ModeledExecutor(ServiceTimeModel()), policy=FixedRatioPolicy(0.5)
    )
    return engine


def _trace(rate=400, duration=2.0, seed=3):
    return PoissonTrace(rate, duration, seed=seed).generate()


# ----------------------------------------------------------------------
# Tracer: span recording, parity, sampling
# ----------------------------------------------------------------------
class TestTracer:
    def test_object_and_columnar_paths_emit_identical_spans(self):
        trace = _trace()
        t_obj, t_col = Tracer(), Tracer()
        r_obj = _engine(t_obj, columnar=False).run(trace, model="m")
        r_col = _engine(t_col, columnar=True).run(trace, model="m")
        np.testing.assert_array_equal(
            r_obj.request_latencies, r_col.request_latencies
        )
        assert t_obj.span_counts() == t_col.span_counts()
        obj, col = t_obj.spans(), t_col.spans()
        for key in obj:
            np.testing.assert_array_equal(obj[key], col[key], err_msg=key)

    def test_drop_spans_cover_every_drop(self):
        trace = _trace(rate=3000, duration=1.0, seed=5)
        tracer = Tracer(sample_rate=0.05)  # drops force-sampled regardless
        result = _engine(
            tracer, num_servers=1, drop_after=0.05
        ).run(trace, model="m")
        assert result.dropped > 0
        counts = tracer.span_counts()
        assert counts["dropped"] == result.dropped
        terminals = tracer.terminal_requests()
        assert all(count == 1 for count in terminals.values())

    @pytest.mark.parametrize("columnar", [True, False])
    def test_a_dropped_request_with_a_deadline_missed_it(self, columnar):
        """Unsampled: every drop is traced (it carried a deadline it missed),
        and no served request missed its deadline, so none is."""
        trace = PoissonTrace(5000, 0.3, seed=5).generate()
        tracer = Tracer(sample_rate=0.0)
        engine = ServingEngine(
            BatchingConfig(max_batch=4, drop_after=0.01), columnar=columnar,
            tracer=tracer,
        )
        engine.register(
            "m", ModeledExecutor(ServiceTimeModel()), policy=FixedRatioPolicy(0.5)
        )
        result = engine.run(
            requests=requests_from_trace(trace, model="m", deadlines=[0.02])
        )
        assert result.dropped == 1291
        counts = tracer.span_counts()
        assert counts["dropped"] == counts["queued"] == 1291
        assert counts["served"] == 0
        spans = tracer.spans()
        dropped = spans["request"][spans["kind"] == SPAN_DROPPED]
        assert np.array_equal(
            np.sort(dropped), np.flatnonzero(np.isnan(result.request_latencies))
        )

    def test_sampling_is_deterministic_and_path_independent(self):
        trace = _trace()
        first, second = Tracer(sample_rate=0.1), Tracer(sample_rate=0.1)
        _engine(first, columnar=True).run(trace, model="m")
        _engine(second, columnar=False).run(trace, model="m")
        assert first.span_counts() == second.span_counts()
        served_first = first.spans()["request"][
            first.spans()["kind"] == SPAN_SERVED
        ]
        served_second = second.spans()["request"][
            second.spans()["kind"] == SPAN_SERVED
        ]
        np.testing.assert_array_equal(
            np.sort(served_first), np.sort(served_second)
        )

    def test_sample_rate_zero_keeps_batch_spans_only(self):
        tracer = Tracer(sample_rate=0.0)
        _engine(tracer).run(_trace(), model="m")
        counts = tracer.span_counts()
        assert counts["execute"] > 0
        assert counts["queued"] == counts["served"] == counts["dropped"] == 0

    def test_sample_rate_validation(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)

    def test_traced_run_matches_untraced_run(self):
        trace = _trace()
        plain = _engine(None).run(trace, model="m")
        traced = _engine(Tracer()).run(trace, model="m")
        np.testing.assert_array_equal(
            plain.request_latencies, traced.request_latencies
        )

    def test_engine_off_path_matches_seed_simulator(self):
        # K=1 FIFO with observability off stays bit-identical to the seed.
        trace = _trace()
        seed_latencies, _, _ = seed_serving_run(
            ServiceTimeModel(), BatchingConfig(max_batch=8), trace, "flexiq", ratio=0.5
        )
        engine_result = _engine(None, num_servers=1).run(trace, model="m")
        np.testing.assert_array_equal(seed_latencies, engine_result.latencies)

    def test_preemption_rewrites_spans_and_retracts_terminals(self):
        tracer = Tracer()
        engine = _engine(tracer, columnar=False, num_servers=2)
        engine.start(trace=_trace(rate=300, duration=1.0), model="m")
        while True:
            record = engine.step()
            if record is None or record.start > 0.3:
                break
        report = engine.preempt_server(
            0, 0.3, policy=RequeueAtHeadMigration(delay=0.01)
        )
        engine.finish()
        counts = tracer.span_counts()
        if report.batches:
            assert counts["preempted"] == report.batches
            assert counts["migrate"] == report.migrated
            assert counts["cancelled"] > 0
        terminals = tracer.terminal_requests()
        assert all(count == 1 for count in terminals.values())

    def test_reset_clears_spans(self):
        tracer = Tracer()
        _engine(tracer).run(_trace(), model="m")
        assert len(tracer.store) > 0
        tracer.reset()
        assert len(tracer.store) == 0
        assert tracer.terminal_requests() == {}


@st.composite
def _traced_drives(draw):
    """A FIFO session and how to drive it: whole, or stepped with
    submissions in arrival order or shuffled and maybe one crash (requeued)
    of the last batch's server between two steps; on a coarse arrival grid
    (ties common), with or without deadlines and drops."""
    count = draw(st.integers(1, 40))
    ticks = sorted(draw(st.lists(st.integers(0, 30), min_size=count, max_size=count)))
    slos = (
        [draw(st.sampled_from([None, 0.002, 0.006])) for _ in ticks]
        if draw(st.booleans()) else [None] * count
    )
    return dict(
        requests=[
            Request(0.001 * tick, model="m", request_id=n,
                    deadline=None if slo is None else 0.001 * tick + slo)
            for n, (tick, slo) in enumerate(zip(ticks, slos))
        ],
        num_servers=draw(st.sampled_from([1, 3])),
        max_batch=draw(st.integers(1, 5)),
        drop_after=draw(st.sampled_from([None, 0.004])),
        sample_rate=draw(st.sampled_from([1.0, 0.2])),
        drive=draw(st.sampled_from(["whole", "responses", "in order", "shuffled"])),
        order=draw(st.permutations(range(count))),
        chunks=draw(st.lists(st.integers(1, 8), min_size=1, max_size=8)),
        steps=draw(st.lists(st.integers(0, 4), min_size=1, max_size=8)),
        # (after which chunk, milliseconds into the last batch) its server
        # crashes.
        crash=draw(st.none() | st.tuples(st.integers(0, 3), st.integers(0, 3))),
    )


class TestTheSweepWritesTheObjectLoopsSpans:
    """The sweep and ``columnar=False`` write the same span rows, in the same
    order (no sort), whole or stepped, after every step and through a crash
    that takes the session off the sweep."""

    @staticmethod
    def _engines(case):
        pairs = []
        for columnar in (True, False):
            tracer = Tracer(sample_rate=case["sample_rate"])
            engine = ServingEngine(
                BatchingConfig(max_batch=case["max_batch"], drop_after=case["drop_after"]),
                num_servers=case["num_servers"], columnar=columnar, tracer=tracer,
            )
            engine.register(
                "m", ModeledExecutor(ServiceTimeModel()), policy=FixedRatioPolicy(0.5)
            )
            pairs.append((engine, tracer))
        return pairs

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_traced_drives())
    def test_row_for_row(self, case):
        (swept, swept_tracer), (stepped, stepped_tracer) = pairs = self._engines(case)
        requests = case["requests"]
        if case["drive"] in ("whole", "responses"):
            recording = case["drive"] == "responses"
            results = [
                engine.run(requests=requests, record_responses=recording)
                for engine, _ in pairs
            ]
        else:
            if case["drive"] == "shuffled":
                requests = [requests[n] for n in case["order"]]
            for engine, _ in pairs:
                engine.start()
            handed, last = 0, None
            for index, (chunk, steps) in enumerate(zip(case["chunks"], case["steps"])):
                for engine, _ in pairs:
                    engine.submit(requests[handed:handed + chunk])
                handed += chunk
                for _ in range(steps):
                    records = [engine.step() for engine, _ in pairs]
                    assert records[0] == records[1]
                    last = records[0] or last
                    assert swept_tracer.span_counts() == stepped_tracer.span_counts()
                if last is not None and case["crash"] and case["crash"][0] == index:
                    for engine, _ in pairs:
                        engine.preempt_server(
                            last.server, last.start + case["crash"][1] * 1e-3,
                            policy=RequeueAtHeadMigration(delay=0.001),
                        )
                    assert swept_tracer.span_counts() == stepped_tracer.span_counts()
            for engine, _ in pairs:
                engine.submit(requests[handed:])
            results = [engine.finish() for engine, _ in pairs]
        assert results[0].kernel in ("sweep", "sweep+object")
        assert results[0].dropped == results[1].dropped
        want, got = stepped_tracer.spans(), swept_tracer.spans()
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)
        assert swept_tracer.terminal_requests() == stepped_tracer.terminal_requests()


@st.composite
def _hook_scripts(draw):
    """Tracer settings plus a script of hook calls over a small world.

    Ops are plain integers, interpreted against the world's state by
    :meth:`TestParkedBatchesAgainstEagerHook._play`, so every script is
    consistent (a request is served, dropped or requeued only while that
    can happen to it) and shrinks well.
    """
    return dict(
        sample_rate=draw(st.sampled_from([0.0, 0.3, 1.0])),
        requests=draw(st.integers(1, 40)),
        ops=draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["batch", "batch", "batch", "drop", "preempt"]),
                    st.integers(0, 7), st.integers(0, 7), st.booleans(),
                ),
                max_size=30,
            )
        ),
        read_between=draw(st.booleans()),
        deadlines=draw(st.booleans()),
    )


class TestParkedBatchesAgainstEagerHook:
    """Reading batches from the ledger is invisible: the same rows and the
    same bookkeeping as writing each batch's spans as it runs."""

    @staticmethod
    def _play(tracer, case, read_between):
        """Drive ``tracer`` through the script; every request ends terminal.
        An :class:`EagerTracer` is handed each batch as it runs; any other
        tracer reads the batches from the session's ledger."""
        count = case["requests"]
        arrivals = np.arange(count) * 0.001
        deadlines = np.where(np.arange(count) % 3 == 0, np.nan, arrivals + 0.004)
        ledger, store = session(
            arrivals, [None if d != d else d for d in deadlines]
            if case["deadlines"] else None,
        )
        eager = isinstance(tracer, EagerTracer)
        if not eager:
            tracer.bind(ledger, store)
        pending = list(range(count))
        served = []  # (record, slots) still standing
        records = []  # every record; bookkeeping is keyed by its row id
        moves = {}
        clock = 0.0

        def batch(size, server):
            nonlocal clock
            slots = np.asarray([pending.pop(0) for _ in range(size)], dtype=np.intp)
            clock += 0.002
            append(ledger, clock, slots, server, finish=clock + 0.003)
            record = ledger[-1]
            records.append(record)
            served.append((record, slots))
            if eager:
                tracer.add_batch(
                    record, slots, arrivals[slots],
                    deadlines[slots] if case["deadlines"] else None,
                )

        for kind, a, b, flag in case["ops"]:
            if kind == "batch" and pending:
                batch(min(1 + a % 4, len(pending)), b % 3)
            elif kind == "drop" and pending:
                slots = np.asarray(
                    [pending.pop(0) for _ in range(min(1 + a % 3, len(pending)))]
                )
                tracer.on_drop(slots, arrivals[slots], clock + 0.001)
            elif kind == "preempt" and served:
                record, slots = served.pop(a % len(served))
                tracer.settle()  # as preempt_server: traced before the row goes
                ledger.remove([ledger.first_at(record.row)])
                tracer.on_preempt(record, slots, record.start + 0.001)
                requeued = slots.tolist()[: 1 + b % len(slots)] if flag else []
                lost = np.asarray(
                    [s for s in slots.tolist() if s not in requeued], dtype=np.intp
                )
                if requeued:
                    tracer.on_requeue(
                        requeued, [moves.get(s, 0) for s in requeued],
                        record.start + 0.001, record.server,
                    )
                    for slot in requeued:
                        moves[slot] = moves.get(slot, 0) + 1
                    pending[:0] = requeued
                if len(lost):
                    tracer.on_drop(lost, arrivals[lost], record.start + 0.001)
            if read_between:
                tracer.spans()
        while pending:
            batch(min(4, len(pending)), 0)
        return records

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_hook_scripts())
    def test_same_spans_and_bookkeeping(self, case):
        rate = case["sample_rate"]
        eager, parked = EagerTracer(rate), Tracer(rate)
        eager_records = self._play(eager, case, read_between=False)
        parked_records = self._play(parked, case, read_between=case["read_between"])
        want, got = eager.spans(), parked.spans()
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)
        # Execute rows are keyed by the record's row id, its place in play
        # order (a preempted record's entry is gone).
        assert len(parked_records) == len(eager_records)
        assert parked._record_row == eager._record_row
        assert parked._terminal_row == eager._terminal_row
        terminals = parked.terminal_requests()
        assert terminals == eager.terminal_requests()
        assert all(live == 1 for live in terminals.values())


class TestAPreemptedBatchIsFoundByItsRowId:
    def test_of_two_field_equal_records_the_right_span_is_rewritten(self):
        ledger, store = session([0.1, 0.1])
        tracer = Tracer()
        tracer.bind(ledger, store)
        for slot in (0, 1):  # every field equal but the row id
            append(ledger, 0.5, [slot], finish=0.7)
        tracer.settle()  # as preempt_server: traced before the row goes
        ledger.remove([1])
        # A view of row 1 built anew, as ``ledger[i]`` builds them.
        tracer.on_preempt(
            BatchRecord("m", 0.5, 0.7, 1, 0.5, "flexiq", 0, 0, 1), [1], 0.6
        )
        spans = tracer.spans()
        batches = np.isin(spans["kind"], (SPAN_EXECUTE, SPAN_PREEMPTED))
        assert spans["kind"][batches].tolist() == [SPAN_EXECUTE, SPAN_PREEMPTED]
        assert spans["end"][batches].tolist() == [0.7, 0.6]
        assert tracer.terminal_requests() == {0: 1}


class TestSpanStore:
    def test_point_and_bulk_appends_unify(self):
        """One table: one-row and many-row appends share the row numbering, a
        rewrite lands in place, and ``columns()`` reads every row with its
        type."""
        store = SpanStore()
        assert store.append_rows((SPAN_EXECUTE, -1, 0, 0.0, 1.0, 4.0)) == 0
        first = store.append_rows((
            [SPAN_SERVED, SPAN_SERVED], np.asarray([1, 2]), 0,
            np.asarray([1.0, 1.0]), 1.0, [0.5, 0.6],
        ))
        assert first == 1 and len(store) == 3
        assert store.append_rows((SPAN_QUEUED, 3, 1, 0.0, 2.0, 2.0)) == 3
        store.rewrite(1, SPAN_CANCELLED)
        store.rewrite(3, SPAN_QUEUED, end=1.5)
        columns = store.columns()
        assert columns["kind"].tolist() == [
            SPAN_EXECUTE, SPAN_CANCELLED, SPAN_SERVED, SPAN_QUEUED
        ]
        assert columns["request"].tolist() == [-1, 1, 2, 3]
        assert columns["server"].tolist() == [0, 0, 0, 1]
        assert columns["end"].tolist() == [1.0, 1.0, 1.0, 1.5]
        assert columns["value"].tolist() == [4.0, 0.5, 0.6, 2.0]
        assert [columns[name].dtype for name in ("kind", "request", "server")] == [
            np.int64
        ] * 3
        assert columns["start"].dtype == columns["value"].dtype == np.float64
        # A copy: the table does not move under a reader.
        columns["kind"][0] = SPAN_CANCELLED
        assert store.columns()["kind"][0] == SPAN_EXECUTE


def _events(change):
    """A one-span trace behind a metadata event, ``change`` applied to the
    span (a ``None`` value deletes the key)."""
    span = {"name": "batch", "ph": "X", "pid": 0, "tid": 0, "ts": 1.0, "dur": 2.0}
    span.update(change)
    span = {key: value for key, value in span.items() if value is not None}
    meta = {"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "m"}}
    return {"traceEvents": [meta, span]}


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
#: span kind -> (exported name, lane, Chrome phase), written out by hand.
EXPORTED_AS = {
    SPAN_QUEUED: ("queued", "request", "X"),
    SPAN_EXECUTE: ("execute", "server", "X"),
    SPAN_PREEMPTED: ("preempted", "server", "X"),
    SPAN_SERVED: ("served", "request", "i"),
    SPAN_DROPPED: ("dropped", "request", "i"),
    SPAN_MIGRATE: ("migrate", "request", "i"),
    SPAN_RETRY: ("retry", "request", "i"),
}


class TestChromeTraceExport:
    @pytest.mark.parametrize(
        "kind", sorted(EXPORTED_AS), ids=[KIND_NAMES[k] for k in sorted(EXPORTED_AS)]
    )
    def test_each_kind_renders_on_its_lane(self, kind):
        # The lane set names its kinds by constant: a literal code list
        # went stale when a kind was removed and the later codes shifted.
        assert set(EXPORTED_AS) | {SPAN_CANCELLED} == set(range(len(KIND_NAMES)))
        store = SpanStore()
        store.append_rows((kind, 5, 1, 1.0, 3.0, 2.0))
        trace = to_chrome_trace(store)
        validate_chrome_trace(trace)
        (event,) = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        name, lane, phase = EXPORTED_AS[kind]
        assert (event["name"], event["ph"], event["ts"]) == (name, phase, 1e6)
        assert (event["pid"], event["tid"]) == ((0, 1) if lane == "server" else (1, 5))
        assert event.get("dur") == (2e6 if phase == "X" else None)

    def test_export_is_valid_and_json_serializable(self):
        tracer = Tracer()
        _engine(tracer).run(_trace(), model="m")
        trace = to_chrome_trace(tracer, server_names=["alpha", "beta"])
        validate_chrome_trace(trace)
        parsed = json.loads(json.dumps(trace))
        assert parsed["traceEvents"]
        names = {e["name"] for e in parsed["traceEvents"] if e["ph"] == "M"}
        assert {"process_name", "thread_name"} <= names
        labels = [
            e["args"]["name"]
            for e in parsed["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert "alpha" in labels and "beta" in labels

    def test_duration_events_live_on_server_lanes(self):
        tracer = Tracer()
        _engine(tracer).run(_trace(), model="m")
        trace = to_chrome_trace(tracer)
        executes = [
            e for e in trace["traceEvents"]
            if e["name"] == "execute" and e["ph"] == "X"
        ]
        assert executes
        assert all(e["pid"] == 0 for e in executes)
        queued = [
            e for e in trace["traceEvents"]
            if e["name"] == "queued" and e["ph"] == "X"
        ]
        assert queued
        assert all(e["pid"] == 1 for e in queued)

    def test_timeline_markers_render(self):
        tracer = Tracer()
        _engine(tracer).run(_trace(), model="m")
        timeline = [
            FaultEvent(time=0.5, server=0, kind="crash"),
            ScaleEvent(time=0.6, action="add", server=1, active_after=2),
        ]
        trace = to_chrome_trace(tracer, timeline=timeline)
        validate_chrome_trace(trace)
        names = {e["name"] for e in trace["traceEvents"]}
        assert "fault:crash" in names and "scale:add" in names

    def test_cancelled_spans_are_not_exported(self):
        store = SpanStore()
        store.append_rows((SPAN_SERVED, 0, 0, 1.0, 1.0, 1.0))
        store.rewrite(0, SPAN_CANCELLED)
        trace = to_chrome_trace(store)
        assert not [
            e for e in trace["traceEvents"] if e["name"] == "cancelled"
        ]

    def test_validator_rejects_malformed_traces(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": "nope"})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [
                    {"name": "x", "ph": "X", "pid": 0, "tid": 0,
                     "ts": float("nan"), "dur": 1.0},
                ]}
            )
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [
                    {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 1.0},
                ]}
            )

    @pytest.mark.parametrize("trace, message", [
        ([], "trace must be a dict"),
        ({"traceEvents": "nope"}, "trace.traceEvents must be a list"),
        ({"traceEvents": [[]]}, r"traceEvents\[0\] is not an object"),
        ({"traceEvents": [{"ph": "X", "pid": 0}]}, r"traceEvents\[0\] missing 'name'"),
        ({"traceEvents": [{"name": "x", "pid": 0}]}, r"traceEvents\[0\] missing 'ph'"),
        ({"traceEvents": [{"name": "x", "ph": "X"}]}, r"traceEvents\[0\] missing 'pid'"),
        (_events({"ph": "Q"}), r"traceEvents\[1\] has unsupported phase 'Q'"),
        (_events({"ts": -1.0}), r"traceEvents\[1\] has invalid ts -1\.0"),
        (_events({"ts": "0"}), r"traceEvents\[1\] has invalid ts '0'"),
        (_events({"tid": None}), r"traceEvents\[1\] missing 'tid'"),
        (_events({"dur": float("inf")}), r"traceEvents\[1\] has invalid dur inf"),
        (_events({"ph": "i", "s": "x"}), r"traceEvents\[1\] instant missing scope"),
        (_events({"args": {"ratio": np.float32(0.5)}}), "not JSON-serializable"),
        (_events({"args": {"ratio": float("nan")}}), "not JSON-serializable"),
    ], ids=[
        "not a dict", "events not a list", "event not an object", "no name",
        "no ph", "no pid", "phase", "negative ts", "string ts", "no tid",
        "infinite dur", "instant scope", "numpy scalar", "nan arg",
    ])
    def test_the_validator_names_each_violation(self, trace, message):
        """Each rule of the format subset the exporter writes, on an event
        after a valid metadata event (which needs no ``ts``)."""
        validate_chrome_trace(_events({}))
        with pytest.raises(ValueError, match=message):
            validate_chrome_trace(trace)


# ----------------------------------------------------------------------
# Metrics registry + exporters
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram_semantics(self):
        registry = MetricsRegistry()
        counter = registry.counter("reqs_total", "Requests.", ("model",))
        counter.labels(model="a").inc()
        counter.labels(model="a").inc(2)
        counter.labels(model="b").inc()
        assert dict(counter.samples()) == {("a",): 3.0, ("b",): 1.0}
        with pytest.raises(ValueError):
            counter.labels(model="a").inc(-1)
        gauge = registry.gauge("active", "Active servers.", ())
        gauge.set(4)
        gauge.set(2)
        assert dict(gauge.samples()) == {(): 2.0}
        hist = registry.histogram("lat", "Latency.", ())
        assert hist.buckets == DEFAULT_LATENCY_BUCKETS
        for value in (0.05, 0.5, 50.0):
            hist.observe(value)
        cells = dict(hist.samples())[()]
        # A value on a bound counts in that bucket; 50 s overflows.
        assert [index for index, count in enumerate(cells[:-1]) if count] == [3, 6, 11]
        assert cells[:-1].count(1.0) == 3  # per-bucket + overflow
        assert cells[-1] == pytest.approx(50.55)

    def test_get_or_create_checks_type_and_labels(self):
        registry = MetricsRegistry()
        registry.counter("x", "a counter", ("k",))
        assert registry.counter("x", "", ("k",)) is not None
        with pytest.raises(ValueError):
            registry.gauge("x", "", ())
        with pytest.raises(ValueError):
            registry.counter("x", "", ("other",))
        with pytest.raises(ValueError):
            registry.counter("x", "", ()).inc()  # labels required

    def test_prometheus_exposition_parses(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "Help with spaces.", ("l",)).labels(
            l='with"quote'
        ).inc(3)
        registry.histogram("h", "Hist.", ()).observe(0.5)
        text = prometheus_exposition(registry)
        assert text.endswith("\n")
        metrics = _parse_exposition(text)
        assert metrics[("a_total", ('l="with\\"quote"',))] == 3.0
        # Histogram buckets are cumulative and capped by +Inf == count.
        assert metrics[("h_bucket", ('le="0.25"',))] == 0.0
        assert metrics[("h_bucket", ('le="0.5"',))] == 1.0
        assert metrics[("h_bucket", ('le="1"',))] == 1.0
        assert metrics[("h_bucket", ('le="+Inf"',))] == 1.0
        assert metrics[("h_count", ())] == 1.0
        assert metrics[("h_sum", ())] == pytest.approx(0.5)

    def test_registry_from_engine_and_result_to_json(self):
        result = _engine(None).run(_trace(), model="m")
        registry = registry_from_engine(result)
        text = prometheus_exposition(registry)
        metrics = _parse_exposition(text)
        assert metrics[("repro_requests_served_total", ())] == float(
            len(result.latencies)
        )
        assert metrics[
            ("repro_request_latency_seconds_count", ())
        ] == float(len(result.latencies))
        report = json.loads(json.dumps(result.to_json()))
        assert report["served"] == len(result.latencies)
        assert report["latency"]["count"] == float(len(result.latencies))

        # A dropped request is not a served one, and has no latency.
        trace = _trace(rate=4000, duration=1.0)
        result = _engine(None, num_servers=1, drop_after=0.05).run(trace, model="m")
        assert result.dropped > len(result.latencies) > 0
        metrics = _parse_exposition(prometheus_exposition(registry_from_engine(result)))
        served_total = metrics[("repro_requests_served_total", ())]
        assert served_total == len(result.latencies)
        assert served_total + metrics[("repro_requests_dropped_total", ())] == len(trace)
        assert metrics[("repro_request_latency_seconds_count", ())] == served_total
        assert np.isfinite(metrics[("repro_request_latency_seconds_sum", ())])


def _parse_exposition(text: str):
    """Minimal Prometheus text-format parser (asserts syntactic shape)."""
    metrics = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            if line.startswith("#"):
                assert line.startswith("# HELP ") or line.startswith("# TYPE ")
            continue
        name_part, value = line.rsplit(" ", 1)
        if "{" in name_part:
            name, rest = name_part.split("{", 1)
            assert rest.endswith("}")
            labels = tuple(rest[:-1].split(","))
        else:
            name, labels = name_part, ()
        metrics[(name, labels)] = float(value)
    return metrics


class TestTracedDayExports:
    def test_sampled_full_day_exports_are_well_formed(self):
        """Both exporters at the scale they are for: the >= 1M-request day
        (``tests/test_cluster_day.py``) traced at a 1% head sample."""
        tracer = Tracer(sample_rate=0.01)
        result = day_engine(tracer=tracer).run(diurnal_day(FULL_SCALE), model="m")
        counts = tracer.span_counts()
        assert counts["execute"] == len(result.batch_records)
        assert counts["served"] + counts["dropped"] > 0    # sampled requests
        chrome = to_chrome_trace(tracer)
        validate_chrome_trace(chrome)
        assert len(chrome["traceEvents"]) >= len(tracer.store) > 0
        text = prometheus_exposition(registry_from_engine(result))
        assert text.endswith("\n")
        metrics = _parse_exposition(text)   # every line HELP/TYPE or `name value`
        assert metrics[("repro_requests_served_total", ())] == len(result.latencies)
        assert metrics[("repro_requests_dropped_total", ())] == result.dropped


# ----------------------------------------------------------------------
# SLO burn-rate monitoring
# ----------------------------------------------------------------------
def _bus_with_window(window, *, served, met, drops=0, latencies=()):
    """Record one synthetic window of traffic onto a fresh-enough bus."""
    return _record_window(TelemetryBus(window=1.0), window, served=served,
                          met=met, drops=drops, latencies=latencies)


def _record_window(bus, window, *, served, met, drops=0, latencies=()):
    """One batch of ``served`` deadline-carrying requests, the first ``met``
    of them in time, and ``drops`` more that expired at its start, read by
    ``bus`` from a session of its own."""
    start = window * bus.window + 0.6
    finish = start + 0.1
    latencies = np.asarray(latencies if len(latencies) else [0.01] * served)
    arrivals = np.concatenate([finish - latencies, np.full(drops, start - 0.05)])
    deadlines = np.concatenate([
        np.where(np.arange(served) < met, finish, start), np.full(drops, start),
    ])
    # The store sorts by arrival; each request's slot is its rank.
    order = np.argsort(arrivals, kind="stable")
    slots = np.argsort(order)
    ledger, store = session(arrivals[order], deadlines[order])
    bus.bind(ledger, store)
    ledger.append("m", start, finish, served, 0.5, "flexiq", 0, 0, slots[:served])
    if drops:
        bus.record_drops(start, slots[served:])
    return bus


class TestSloMonitor:
    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SloObjective("bad", target=1.0)
        with pytest.raises(ValueError):
            SloObjective("bad", target=0.99, kind="latency")
        with pytest.raises(ValueError):
            BurnRateRule(threshold=2.0, fast_windows=5, slow_windows=2)
        with pytest.raises(ValueError):
            SloMonitor(objectives=[])

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0, -1.0])
    def test_a_threshold_no_burn_can_reach_is_refused(self, threshold):
        # BurnRateRule(nan) used to be accepted, and ``burn >= nan`` is
        # false: the rule never fired.
        with pytest.raises(ValueError, match="threshold must be a finite number > 0"):
            BurnRateRule(threshold=threshold)

    def test_a_monitor_needs_a_rule(self):
        with pytest.raises(ValueError, match="need at least one burn-rate rule"):
            SloMonitor(objectives=[SloObjective("att", target=0.99)], rules=())

    def test_attainment_burn_fires_and_is_edge_triggered(self):
        monitor = SloMonitor(
            objectives=[SloObjective("att", target=0.99)],
            rules=[BurnRateRule(threshold=5.0, fast_windows=1, slow_windows=2,
                                severity="page")],
        )
        bus = _bus_with_window(0, served=100, met=100)
        assert monitor.evaluate(bus, 0, [0]) == []
        # 20% misses = burn 20x >= 5 on fast AND slow panes.
        _record_window(bus, 1, served=100, met=80)
        fired = monitor.evaluate(bus, 1, [0])
        assert len(fired) == 1
        alert = fired[0]
        assert alert.objective == "att" and alert.severity == "page"
        assert alert.burn_fast == pytest.approx(20.0)
        assert alert.time == pytest.approx(2.0)  # window 1 boundary
        # Still burning: no re-fire while the alert is active.
        _record_window(bus, 2, served=100, met=80)
        assert monitor.evaluate(bus, 2, [0]) == []
        # Recovery clears the firing state...
        _record_window(bus, 3, served=100, met=100)
        assert monitor.evaluate(bus, 3, [0]) == []
        # ...so a fresh incident pages again.
        _record_window(bus, 4, served=100, met=70)
        assert len(monitor.evaluate(bus, 4, [0])) == 1
        assert len(monitor.alerts) == 2

    def test_latency_objective_counts_drops_as_violations(self):
        monitor = SloMonitor(
            objectives=[
                SloObjective("lat", target=0.9, kind="latency",
                             latency_slo_seconds=0.1),
            ],
            rules=[BurnRateRule(threshold=2.0, fast_windows=1, slow_windows=1,
                                severity="page")],
        )
        # 50 fast + 30 slow + 20 drops: error = 50/100 = 5x the 10% budget.
        bus = TelemetryBus(window=1.0)
        _record_window(
            bus, 0, served=80, met=80,
            latencies=[0.01] * 50 + [0.5] * 30, drops=20,
        )
        fired = monitor.evaluate(bus, 0, [0])
        assert len(fired) == 1
        assert fired[0].burn_fast == pytest.approx(5.0)

    def test_slow_pane_gates_single_window_spikes(self):
        monitor = SloMonitor(
            objectives=[SloObjective("att", target=0.99)],
            rules=[BurnRateRule(threshold=5.0, fast_windows=1, slow_windows=4,
                                severity="page")],
        )
        bus = TelemetryBus(window=1.0)
        # Three clean windows, then one bad one: fast pane burns 20x but
        # the slow pane dilutes to 5x-epsilon... make it clearly below.
        for window in range(3):
            _record_window(bus, window, served=100, met=100)
            monitor.evaluate(bus, window, [0])
        _record_window(bus, 3, served=100, met=99)  # 1% miss: burn 1x slow
        assert monitor.evaluate(bus, 3, [0]) == []

    def test_idle_windows_do_not_alert(self):
        monitor = SloMonitor(objectives=[SloObjective("att", target=0.99)])
        bus = TelemetryBus(window=1.0)
        assert monitor.evaluate(bus, 0, [0]) == []

    def test_cluster_run_places_alerts_on_timeline(self):
        specs = [
            ServerSpec(name=f"g{i}", speed=1000.0, service_model=ServiceTimeModel())
            for i in range(2)
        ]
        monitor = SloMonitor(
            objectives=[SloObjective("att", target=0.99)],
            rules=[BurnRateRule(threshold=2.0, fast_windows=1, slow_windows=2,
                                severity="page")],
        )
        cluster = ClusterEngine(
            specs,
            BatchingConfig(max_batch=8),
            fault_schedule=FaultSchedule(
                [FaultEvent(time=0.8, server=0, kind="crash")]
            ),
            window=0.5,
            slo_monitor=monitor,
        )
        cluster.register("m", mode="int8")
        trace = _trace(rate=800, duration=3.0, seed=11)
        requests = requests_from_trace(trace, model="m", deadlines=[0.05])
        outcome = cluster.run(requests=requests)
        assert outcome.alert_events, "the crash must torch the 0.05s budget"
        timeline_alerts = [
            event for event in outcome.timeline()
            if hasattr(event, "objective")
        ]
        assert timeline_alerts == outcome.alert_events
        times = [event.time for event in outcome.timeline()]
        assert times == sorted(times)
        report = json.loads(json.dumps(outcome.to_json()))
        assert report["alert_events"]
        registry = registry_from_cluster(outcome)
        metrics = _parse_exposition(prometheus_exposition(registry))
        assert metrics[(
            "repro_slo_alerts_total",
            ('objective="att"', 'severity="page"'),
        )] >= 1.0


# ----------------------------------------------------------------------
# Satellite: telemetry timeline cache vs rewind paths
# ----------------------------------------------------------------------
class TestTimelineCacheInvalidation:
    def test_rewinds_never_stale_the_cached_timeline(self):
        bus, ledger = bound_bus([0.4] * 4, num_servers=2)
        ledger.append("m", 0.5, 0.7, 4, 0.5, "flexiq", 0, 3, np.arange(4))
        bus.record_scale_event(
            ScaleEvent(time=1.0, action="add", server=1, active_after=2)
        )
        bus.record_fault_event(FaultEvent(time=0.4, server=0, kind="crash"))
        first = bus.timeline()  # build + cache the sorted view
        assert [e.time for e in first] == [0.4, 1.0]
        # Rewinds (the preemption paths) touch cells only; the cached
        # timeline must remain correct — and identical — afterwards.
        rewind(bus, ledger, 0)
        assert bus.timeline() == first
        stats = bus.server_window(0, 0)
        assert stats.served == 0 and stats.latencies.size == 0

    def test_every_event_kind_invalidates_the_cache(self):
        from repro.obs import AlertEvent

        bus = TelemetryBus(window=1.0)
        bus.record_scale_event(
            ScaleEvent(time=2.0, action="add", server=0, active_after=1)
        )
        assert [e.time for e in bus.timeline()] == [2.0]
        # Each appender must drop the cache: earlier-timed events landing
        # after a cached sort must still come back first.
        bus.record_fault_event(FaultEvent(time=1.0, server=0, kind="crash"))
        assert [e.time for e in bus.timeline()] == [1.0, 2.0]
        bus.record_alert_event(
            AlertEvent(time=0.5, objective="att", severity="page",
                       burn_fast=10.0, burn_slow=10.0, threshold=2.0,
                       window=0)
        )
        assert [e.time for e in bus.timeline()] == [0.5, 1.0, 2.0]
        assert len(bus.alert_events) == 1
        bus.reset()
        assert bus.timeline() == [] and bus.alert_events == []

    def test_timeline_correct_after_engine_preemption(self):
        # End-to-end regression: preempt mid-run (rewinds fire), then
        # record another event; the merged timeline stays sorted and
        # complete.
        bus = TelemetryBus(window=0.25, num_servers=2)
        engine = ServingEngine(
            BatchingConfig(max_batch=8), num_servers=2, telemetry=bus,
            columnar=False,
        )
        engine.register(
            "m", ModeledExecutor(ServiceTimeModel()),
            policy=FixedRatioPolicy(0.5),
        )
        engine.start(trace=_trace(rate=300, duration=1.0), model="m")
        bus.record_fault_event(FaultEvent(time=0.3, server=0, kind="crash"))
        cached = bus.timeline()
        while True:
            record = engine.step()
            if record is None or record.start > 0.3:
                break
        engine.preempt_server(
            0, 0.3, policy=RequeueAtHeadMigration(delay=0.01)
        )
        assert bus.timeline() == cached
        bus.record_fault_event(FaultEvent(time=0.5, server=0, kind="recover"))
        engine.finish()
        times = [event.time for event in bus.timeline()]
        assert times == [0.3, 0.5]


# ----------------------------------------------------------------------
# Satellite: summarize_latencies / latency_percentile canonical edges
# ----------------------------------------------------------------------
class TestMetricsEdgeCases:
    def test_empty_inputs_agree_across_representations(self):
        # Array and list: nan percentiles, count 0.
        for empty in ([], np.zeros(0)):
            assert np.isnan(latency_percentile(empty, 99))
            summary = summarize_latencies(empty)
            assert summary["count"] == 0.0
            for key in ("median", "p90", "p99", "mean", "max"):
                assert np.isnan(summary[key])
