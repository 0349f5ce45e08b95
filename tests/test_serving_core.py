"""Parity and unit tests for the columnar event-driven serving core (PR 8).

The contract under test: every result the columnar fast path produces —
``EngineResult`` fields, batch records, telemetry windows — is
**bit-identical** to the object loop it replaces (``columnar=False``), and
the K=1 FIFO run stays bit-identical to the seed simulator.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.traces import DiurnalTrace, PoissonTrace, RequestTrace
from repro.serving.cluster import ClusterEngine, ServerSpec
from repro.obs import Tracer
from repro.serving.core import (
    BatchLedger,
    DROPPED,
    SERVED,
    FifoSweep,
    LazyRequests,
    RequestStore,
)
from repro.serving.engine import (
    BatchingConfig,
    Request,
    ServingEngine,
    requests_from_trace,
)
from repro.serving.executors import ModeledExecutor
from repro.serving.placement import FreeClockPlacer
from repro.serving.policies import FixedRatioPolicy, RoundRobinRatioPolicy
from repro.serving.resilience import (
    DropExpiredMigration,
    FaultSchedule,
    RequeueAtHeadMigration,
)
from repro.serving.schedulers import EdfScheduler, FifoScheduler, PriorityScheduler
from repro.serving.simulator import ServiceTimeModel
from repro.serving.telemetry import TelemetryBus
from test_serving_engine import seed_serving_run


SERVICE_MODEL = ServiceTimeModel()


def _trace(rate=400.0, duration=5.0, seed=3):
    return PoissonTrace(rate, duration, seed=seed).generate()


def _engine(columnar, num_servers=1, max_batch=8, drop_after=None, scheduler=None):
    engine = ServingEngine(
        batching=BatchingConfig(max_batch=max_batch, drop_after=drop_after),
        num_servers=num_servers,
        scheduler=scheduler,
        columnar=columnar,
    )
    engine.register(
        "m", ModeledExecutor(SERVICE_MODEL), policy=FixedRatioPolicy(0.5)
    )
    return engine


def _assert_results_identical(fast, slow):
    assert np.array_equal(fast.latencies, slow.latencies)
    assert np.array_equal(
        fast.request_latencies, slow.request_latencies, equal_nan=True
    )
    assert fast.dropped == slow.dropped
    assert fast.duration == slow.duration
    assert fast.busy_time == slow.busy_time
    assert fast.server_busy_times == slow.server_busy_times
    assert fast.migrated == slow.migrated
    assert list(fast.batch_sizes) == list(slow.batch_sizes)
    assert list(fast.batch_ratios) == list(slow.batch_ratios)
    assert len(fast.batch_records) == len(slow.batch_records)
    for a, b in zip(fast.batch_records, slow.batch_records):
        assert a == b


def _run_dry(arrivals, *clocks):
    """A sweep of ``arrivals``, run dry in one ``advance(*clocks)``, closed."""
    sweep = FifoSweep(arrivals)
    sweep.advance(*clocks)
    return sweep.close()


def _assert_results_identical_but_duration(got, want):
    """A trace session's duration is the trace's; everything else agrees."""
    _assert_results_identical(dataclasses.replace(got, duration=want.duration), want)


class TestRequestStore:
    def test_lazy_view_matches_eager_requests(self):
        trace = _trace(duration=1.0)
        lazy = requests_from_trace(
            trace, model="m", priorities=[0, 2], deadlines=[0.1, 0.3, None]
        )
        assert isinstance(lazy, list)
        view = requests_from_trace(
            trace,
            model="m",
            priorities=[0, 2],
            deadlines=[0.1, 0.3, None],
            lazy=True,
        )
        assert isinstance(view, LazyRequests)
        assert len(view) == len(lazy) == len(trace)
        for eager, materialized in zip(lazy, view):
            assert eager == materialized
        # Negative indexing and slicing behave like a list.
        assert view[-1] == lazy[-1]
        assert list(view[2:5]) == lazy[2:5]

    def test_from_requests_round_trip(self):
        requests = [
            Request(arrival_time=0.1, model="a", priority=1, deadline=0.5),
            Request(arrival_time=0.2, model="b"),
            Request(arrival_time=0.3, model="a", request_id=7),
        ]
        store = RequestStore.from_requests(requests)
        assert store.single_model is None
        assert store.model_name_list() == ["a", "b", "a"]
        assert list(store.model_mask("a")) == [True, False, True]
        for index, original in enumerate(requests):
            rebuilt = store.request(index)
            assert rebuilt.model == original.model
            assert rebuilt.arrival_time == original.arrival_time
            assert rebuilt.priority == original.priority
            assert rebuilt.deadline == original.deadline

    def test_deadline_column_is_absolute(self):
        trace = _trace(duration=1.0)
        store = RequestStore.from_trace(trace, model="m", deadlines=[0.25])
        arrivals = store.arrivals
        # Vectorized arrival + slo must equal the per-request float sum.
        for index in (0, len(arrivals) // 2, len(arrivals) - 1):
            assert store.deadlines[index] == float(arrivals[index]) + 0.25

    def test_status_column_tracks_run(self):
        trace = _trace(rate=2000.0, duration=1.0)
        view = requests_from_trace(trace, model="m", lazy=True)
        engine = _engine(True, max_batch=4, drop_after=0.01)
        result = engine.run(requests=view)
        store = view.store
        assert int(np.count_nonzero(store.status == DROPPED)) == result.dropped
        assert (
            int(np.count_nonzero(store.status == SERVED))
            == len(trace) - result.dropped
        )


class TestColumnarParity:
    @pytest.mark.parametrize("num_servers", [1, 4])
    @pytest.mark.parametrize("drop_after", [None, 0.05])
    def test_trace_fifo(self, num_servers, drop_after):
        trace = _trace()
        fast = _engine(True, num_servers, drop_after=drop_after).run(
            trace, model="m"
        )
        slow = _engine(False, num_servers, drop_after=drop_after).run(
            trace, model="m"
        )
        _assert_results_identical(fast, slow)

    def test_k1_fifo_matches_seed_simulator(self):
        """The unbreakable invariant: columnar K=1 FIFO == seed simulator."""
        trace = _trace()
        latencies, batch_sizes, dropped = seed_serving_run(
            SERVICE_MODEL, BatchingConfig(max_batch=8), trace, "flexiq", ratio=0.5
        )
        fast = _engine(True).run(trace, model="m")
        assert np.array_equal(latencies, fast.latencies)
        assert batch_sizes == fast.batch_sizes
        assert dropped == fast.dropped

    def test_lazy_requests_fifo(self):
        trace = _trace()
        view = requests_from_trace(trace, model="m", deadlines=[0.1, 0.4], lazy=True)
        eager = requests_from_trace(trace, model="m", deadlines=[0.1, 0.4])
        fast = _engine(True, num_servers=2).run(requests=view)
        slow = _engine(False, num_servers=2).run(requests=eager)
        _assert_results_identical(fast, slow)
        assert fast.request_models == slow.request_models
        assert len(fast.responses) == len(slow.responses)
        for a, b in zip(fast.responses, slow.responses):
            assert a == b

    @pytest.mark.parametrize(
        "scheduler_cls", [EdfScheduler, PriorityScheduler]
    )
    def test_scheduled_disciplines(self, scheduler_cls):
        trace = _trace()
        kwargs = dict(priorities=[0, 1, 2], deadlines=[0.1, 0.3, None])
        view = requests_from_trace(trace, model="m", lazy=True, **kwargs)
        eager = requests_from_trace(trace, model="m", **kwargs)
        fast = _engine(True, 2, scheduler=scheduler_cls()).run(requests=view)
        slow = _engine(False, 2, scheduler=scheduler_cls()).run(requests=eager)
        _assert_results_identical(fast, slow)
        for a, b in zip(fast.responses, slow.responses):
            assert a == b

    def test_streaming_submit_rejected_for_store_sessions(self):
        view = requests_from_trace(_trace(duration=0.5), model="m", lazy=True)
        engine = _engine(True)
        engine.start(requests=view)
        with pytest.raises(RuntimeError, match="store-backed"):
            engine.submit(Request(arrival_time=9.0, model="m"))
        engine.finish()


@st.composite
def _sessions(draw):
    """One generated serving scenario: requests, engine shape, one fault."""
    count = draw(st.integers(0, 36))
    # A coarse grid makes equal arrivals (the tie-break cases) common.
    arrivals = sorted(
        draw(st.lists(st.integers(0, 60), min_size=count, max_size=count))
    )
    pool = st.lists  # the round-robin pools requests_from_trace takes
    return dict(
        arrivals=[tick * 1e-3 for tick in arrivals],
        models=draw(pool(st.sampled_from(["m", "n"]), min_size=1, max_size=3)),
        priorities=draw(pool(st.integers(0, 2), min_size=1, max_size=3)),
        deadlines=draw(
            pool(st.sampled_from([None, 0.004, 0.02, 0.05]), min_size=1, max_size=3)
        ),
        scheduler=draw(
            st.sampled_from([FifoScheduler, PriorityScheduler, EdfScheduler])
        ),
        num_servers=draw(st.integers(1, 3)),
        max_batch=draw(st.integers(1, 4)),
        drop_after=draw(st.sampled_from([None, 0.01])),
        telemetry=draw(st.booleans()),
        record_responses=draw(st.booleans()),
        chunk=draw(st.integers(1, 9)),
        # The fault: after `steps` batches, kill the server of one of them
        # part-way through it and hand its requests to `migration`.
        steps=draw(st.integers(0, 6)),
        victim=draw(st.integers(0, 5)),
        fraction=draw(st.sampled_from([0.0, 0.5])),
        migration=draw(
            st.sampled_from(
                [None, RequeueAtHeadMigration(delay=0.001), DropExpiredMigration()]
            )
        ),
    )


class TestOneRequestRepresentation:
    """The same requests give the same result however they were handed in."""

    @staticmethod
    def _requests(case):
        return [
            Request(
                arrival_time=arrival,
                model=case["models"][index % len(case["models"])],
                request_id=index,
                priority=case["priorities"][index % len(case["priorities"])],
                deadline=(
                    None
                    if case["deadlines"][index % len(case["deadlines"])] is None
                    else arrival + case["deadlines"][index % len(case["deadlines"])]
                ),
            )
            for index, arrival in enumerate(case["arrivals"])
        ]

    @staticmethod
    def _serve(case, open_session):
        engine = ServingEngine(
            batching=BatchingConfig(case["max_batch"], case["drop_after"]),
            num_servers=case["num_servers"],
            scheduler=case["scheduler"](),
            telemetry=(
                TelemetryBus(window=0.02, num_servers=case["num_servers"])
                if case["telemetry"]
                else None
            ),
        )
        for name in ("m", "n"):
            engine.register(
                name, ModeledExecutor(SERVICE_MODEL), policy=FixedRatioPolicy(0.5)
            )
        open_session(engine)
        stepped = []
        for _ in range(case["steps"]):
            record = engine.step()
            if record is None:
                break
            stepped.append(record)
        if stepped:
            victim = stepped[case["victim"] % len(stepped)]
            engine.preempt_server(
                victim.server,
                victim.start + case["fraction"] * (victim.finish - victim.start),
                policy=case["migration"],
            )
        store = engine._session.store
        result = engine.finish()
        status = (
            int(np.count_nonzero(store.status == SERVED)),
            int(np.count_nonzero(store.status == DROPPED)),
        )
        return result, status

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(_sessions())
    def test_every_way_in_gives_the_same_result(self, case):
        requests = self._requests(case)
        recording = dict(record_responses=case["record_responses"])

        def as_list(engine):
            engine.start(requests=list(requests), **recording)

        def as_view(engine):
            view = LazyRequests(RequestStore.from_requests(requests))
            engine.start(requests=view, **recording)

        def as_submissions(engine):
            engine.start(**recording)
            for lo in range(0, len(requests), case["chunk"]):
                engine.submit(requests[lo:lo + case["chunk"]])

        forms = {"list": as_list, "submit": as_submissions}
        if requests:
            forms["view"] = as_view
        if len(set(case["models"])) == 1:
            trace = RequestTrace(np.asarray(case["arrivals"]), duration=0.1)
            kwargs = dict(
                model=case["models"][0],
                priorities=case["priorities"],
                deadlines=case["deadlines"],
            )
            if requests:
                forms["from_trace"] = lambda engine: engine.start(
                    requests=requests_from_trace(trace, **kwargs), **recording
                )
                forms["from_trace_lazy"] = lambda engine: engine.start(
                    requests=requests_from_trace(trace, lazy=True, **kwargs),
                    **recording,
                )
            if case["scheduler"] is FifoScheduler:
                # A trace carries arrivals only, which is all FIFO reads.
                forms["trace"] = lambda engine: engine.start(
                    trace=trace, model=case["models"][0], duration=None, **recording
                )

        reference, _ = self._serve(case, as_list)
        conserved = len(reference.latencies) + reference.dropped
        assert conserved == len(requests)
        for name, open_session in forms.items():
            result, status = self._serve(case, open_session)
            _assert_results_identical_but_duration(result, reference)
            assert status == (len(reference.latencies), reference.dropped), name
            if not case["record_responses"]:
                assert result.responses is None
                continue
            for got, want in zip(result.responses, reference.responses):
                if name == "trace" and want is not None:
                    # The one thing a trace does not carry.
                    want = dataclasses.replace(want, priority=0, deadline=None)
                # repr: exact on floats, and a dropped response's nan
                # fields compare equal.
                assert repr(got) == repr(want), name


class TestClusterParity:
    def _cluster(self, columnar, **kwargs):
        specs = [
            ServerSpec(name=f"s{index}", speed=1.0, service_model=SERVICE_MODEL)
            for index in range(4)
        ]
        engine = ClusterEngine(
            specs,
            batching=BatchingConfig(max_batch=8, drop_after=0.05),
            columnar=columnar,
            **kwargs,
        )
        engine.register("m", policy=FixedRatioPolicy(0.5))
        return engine

    def _assert_cluster_identical(self, fast, slow, windows=6):
        _assert_results_identical(fast.result, slow.result)
        for window in range(windows):
            a = fast.telemetry.cluster_window(window)
            b = slow.telemetry.cluster_window(window)
            assert (a.served, a.batches, a.drops) == (b.served, b.batches, b.drops)
            assert a.busy_time == b.busy_time
            assert np.array_equal(
                a.latency_percentile(95), b.latency_percentile(95), equal_nan=True
            )
            assert (a.deadline_total, a.deadline_met) == (
                b.deadline_total,
                b.deadline_met,
            )

    def test_plain_cluster(self):
        trace = _trace()
        fast = self._cluster(True).run(trace, model="m")
        slow = self._cluster(False).run(trace, model="m")
        self._assert_cluster_identical(fast, slow)

    def test_faulted_cluster_still_identical(self):
        # A fault schedule forces the stepped control loop on both sides;
        # both must replay the schedule's fault ordering exactly.
        trace = _trace()
        schedule = FaultSchedule.single_crash(at=1.0, server=1, recover_at=3.0)
        fast = self._cluster(True, fault_schedule=schedule).run(trace, model="m")
        slow = self._cluster(False, fault_schedule=schedule).run(trace, model="m")
        self._assert_cluster_identical(fast, slow)
        assert [
            (event.time, event.server, event.kind)
            for event in fast.fault_events
        ] == [
            (event.time, event.server, event.kind)
            for event in slow.fault_events
        ]


class TestColumnarFifoCore:
    def test_segments_reconstruct_latencies(self):
        arrivals = np.sort(
            np.random.default_rng(0).uniform(0.0, 2.0, size=200)
        )
        tables = {
            0: [0.0]
            + [
                float(SERVICE_MODEL.batch_latency(size, "flexiq", 0.5))
                for size in range(1, 9)
            ]
        }
        run = _run_dry(arrivals, [0.0], [0.0], [0], tables, 8, 0.02)
        ledger = run.ledger
        served_by = ledger.served_by(len(arrivals))
        assert np.array_equal(served_by >= 0, run.survived)
        # Batch -1 (dropped) reads the nan behind the last finish.
        latencies = np.append(ledger.finishes, np.nan)[served_by] - arrivals
        assert len(latencies) == len(arrivals)
        assert int(np.count_nonzero(np.isnan(latencies))) == run.dropped
        # Every arrival rode in exactly one batch or one drop cohort.
        drops = int(np.subtract(run.drop_his, run.drop_los).sum())
        assert int(ledger.sizes.sum()) + drops == len(arrivals)
        assert np.array_equal(np.bincount(served_by[served_by >= 0]), ledger.sizes)
        assert len(ledger.starts) == len(ledger.finishes) == len(ledger.sizes)

    @pytest.mark.parametrize(
        "limit, active", [(0, [0]), (-1, [0]), (-2, [0]), (None, []), (1, [])]
    )
    def test_a_limit_below_one_or_no_active_server_is_refused(self, limit, active):
        """Not read as "no limit" (``limit or -1`` never counts 0 or a
        negative down to zero): refused, with nothing dispatched."""
        sweep = FifoSweep(np.arange(10) * 1e-3)
        with pytest.raises(ValueError, match="an active server and a limit >= 1"):
            sweep.advance([0.0], [0.0], active, {0: [0.0, 0.002, 0.003]}, 2, None, limit)
        assert sweep.pos == 0 and len(sweep.ledger) == 0

    @staticmethod
    def _one_batch_of_two():
        """Four pending arrivals, the first two served by one batch: pos 2."""
        sweep = FifoSweep(np.array([0.0, 0.0, 0.002, 0.003]))
        sweep.advance([0.0], [0.0], [0], {0: [0.0, 0.01, 0.015]}, 2, None, 1)
        assert sweep.pos == 2 and len(sweep.arr) == 4
        return sweep

    @pytest.mark.parametrize("where", ["pos - 1", "0", "end + 1"])
    def test_pending_from_refuses_a_position_behind_the_cursor_or_past_the_end(
        self, where
    ):
        """Behind ``pos`` it would rewrite an arrival already consumed (a
        later batch serves the new one at that position, the one it replaced
        is never served, yet ``close()`` marks both served); past the end it
        would leave a gap and put the arrivals at the wrong positions."""
        sweep = self._one_batch_of_two()
        at = {"pos - 1": sweep.pos - 1, "0": 0, "end + 1": 5}[where]
        with pytest.raises(ValueError, match="pending_from needs pos <= at <= 4"):
            sweep.pending_from(at, np.array([0.5, 0.6]))
        assert list(sweep.arr) == [0.0, 0.0, 0.002, 0.003] and sweep.pos == 2

    @pytest.mark.parametrize("at, want", [
        (2, [0.0, 0.0, 0.5, 0.6]), (4, [0.0, 0.0, 0.002, 0.003, 0.5, 0.6])
    ])
    def test_pending_from_takes_the_cursor_and_the_end(self, at, want):
        sweep = self._one_batch_of_two()
        sweep.pending_from(at, np.array([0.5, 0.6]))
        assert list(sweep.arr) == want

    def test_the_pending_arrivals_hold_no_boxed_float(self):
        """8 bytes per pending arrival, not a list slot plus a float object
        (32): built over 10^5 arrivals and handed 10^5 more, the sweep holds
        at most 10 bytes per arrival and peaks at no more than 16."""
        first = np.arange(100_000) * 1e-3
        more = first + 100.0
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sweep = FifoSweep(first)
            sweep.pending_from(len(first), more)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        count = len(first) + len(more)
        assert len(sweep.arr) == count
        assert (held - before) / count <= 10
        assert (peak - before) / count <= 16


@st.composite
def _sweeps(draw):
    """Sorted arrivals on a coarse grid (ties common), a K-server cluster
    with per-server tables, and how to cut the sweep into segments."""
    count = draw(st.integers(0, 60))
    ticks = draw(st.lists(st.integers(0, 40), min_size=count, max_size=count))
    num_servers = draw(st.integers(1, 4))
    max_batch = draw(st.integers(1, 6))
    speeds = draw(
        st.lists(st.sampled_from([1.0, 1.5]), min_size=num_servers, max_size=num_servers)
    )
    return dict(
        arrivals=np.sort(np.asarray(ticks, dtype=np.float64)) * 1e-3,
        num_servers=num_servers,
        max_batch=max_batch,
        drop_after=draw(st.sampled_from([None, 0.01])),
        tables={
            server: [0.0] + [
                speed * float(SERVICE_MODEL.batch_latency(size, "flexiq", 0.5))
                for size in range(1, max_batch + 1)
            ]
            for server, speed in enumerate(speeds)
        },
        # Batches per segment; the last one runs the sweep dry.
        segments=draw(st.lists(st.integers(1, 5), max_size=8)),
        # Extra arrivals handed over beyond what a segment needs.
        slack=draw(st.integers(0, 6)),
        write=(draw(st.integers(0, 3)) % num_servers, draw(st.integers(0, 50)) * 1e-3),
    )


def _assert_runs_equal(got, want):
    """Two closed sweeps: the same rows, riders, survivors and drop cohorts."""
    assert list(got.ledger) == list(want.ledger)
    count = len(want.survived)
    assert np.array_equal(got.ledger.served_by(count), want.ledger.served_by(count))
    for name in ("survived", "drop_times", "drop_los", "drop_his", "dropped", "pos"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestSweepSegmentsCompose:
    """``FifoSweep`` carried across calls == one ``advance`` run dry."""

    @staticmethod
    def _whole(case, arrivals, free_at=None):
        free_at = [0.0] * case["num_servers"] if free_at is None else list(free_at)
        busy = [0.0] * case["num_servers"]
        run = _run_dry(
            arrivals, free_at, busy, range(case["num_servers"]), case["tables"],
            case["max_batch"], case["drop_after"],
        )
        return run, free_at, busy

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_sweeps())
    def test_segments_with_the_pending_list_extended_in_between(self, case):
        arrivals = case["arrivals"]
        whole, want_free, want_busy = self._whole(case, arrivals)
        free_at, busy = [0.0] * case["num_servers"], [0.0] * case["num_servers"]
        clocks = (
            free_at, busy, list(range(case["num_servers"])), case["tables"],
            case["max_batch"], case["drop_after"],
        )
        sweep = FifoSweep(arrivals[:0])
        handed = dispatched = 0
        for length in case["segments"]:
            # No look-ahead, so hand over what the segment's batches can
            # depend on: whoever arrives by the start of its last one.
            last = dispatched + length - 1
            upto = len(arrivals)
            if last < len(whole.ledger):
                upto = int(
                    np.searchsorted(arrivals, whole.ledger.starts[last], side="right")
                )
            upto = min(len(arrivals), max(upto, handed) + case["slack"])
            sweep.pending_from(handed, arrivals[handed:upto])
            handed = upto
            dispatched += sweep.advance(*clocks, length)
            assert dispatched == len(sweep.ledger) == min(last + 1, len(whole.ledger))
            assert sweep.pos <= handed
        sweep.pending_from(handed, arrivals[handed:])
        sweep.advance(*clocks)
        assert sweep.pos == len(arrivals) and len(sweep.arr) == 0
        _assert_runs_equal(sweep.close(), whole)
        assert (free_at, busy) == (want_free, want_busy)

    @pytest.mark.parametrize("servers", [range, lambda k: list(range(k))],
                             ids=["range", "list"])
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_sweeps())
    def test_a_written_clock_and_a_late_hand_over_are_honoured(self, servers, case):
        """Between two segments a clock is written (what
        ``tests/test_serving_cluster.py`` does to ``engine._session.free_at[1]``)
        and arrivals earlier than the queued tail are handed over: the clocks
        and the unserved suffix are the caller's, so the rest of the sweep is
        the sweep of the rest from the written clocks — whether the active
        set is a range or the same list on every call."""
        early, late = case["arrivals"][::2], case["arrivals"][1::2]
        free_at, busy = [0.0] * case["num_servers"], [0.0] * case["num_servers"]
        clocks = (
            free_at, busy, servers(case["num_servers"]), case["tables"],
            case["max_batch"], case["drop_after"],
        )
        sweep = FifoSweep(early)
        first = sweep.advance(*clocks, (case["segments"] or [1])[0])
        consumed, drops = sweep.pos, len(sweep.drop_times)
        server, time = case["write"]
        free_at[server] = time
        pending = early[consumed:]
        if len(late):
            at = int(np.searchsorted(pending, late[0], side="right"))
            pending = np.concatenate([pending[:at], np.sort(np.concatenate([pending[at:], late]))])
            sweep.pending_from(consumed + at, pending[at:])
        rest, rest_free, _ = self._whole(case, pending, free_at)
        for length in case["segments"][1:]:
            sweep.advance(*clocks, length)
        sweep.advance(*clocks)
        run = sweep.close()
        for name in ("starts", "finishes", "sizes", "servers", "queue_depths"):
            assert np.array_equal(
                getattr(run.ledger, name)[first:], getattr(rest.ledger, name)
            ), name
        assert run.drop_times[drops:] == rest.drop_times
        assert run.drop_los[drops:] == [lo + consumed for lo in rest.drop_los]
        assert run.drop_his[drops:] == [hi + consumed for hi in rest.drop_his]
        later = run.ledger.served_by(len(run.survived))[consumed:]
        assert np.array_equal(
            np.where(later < 0, -1, later - first),
            rest.ledger.served_by(len(rest.survived)),
        )
        assert free_at == rest_free


class TestKernelAccounting:
    """``EngineResult.kernel``/``kernel_reason``: which kernel dispatched a
    session's batches and the first clause that kept or took it off the sweep."""

    class _Wrapped(ModeledExecutor):
        """Modeled service times from something that is not a ``ModeledExecutor``."""

    @staticmethod
    def _requests(count=12, model="m"):
        return [Request(0.001 * n, model=model, request_id=n) for n in range(count)]

    def _stepped(self, engine, steps=2, **start):
        engine.start(requests=self._requests(), **start)
        for _ in range(steps):
            assert engine.step() is not None
        return engine.finish()

    def test_a_stepped_fifo_session_rides_the_sweep(self):
        result = self._stepped(_engine(True, num_servers=2, max_batch=2))
        assert (result.kernel, result.kernel_reason) == ("sweep", None)
        assert len(result.responses) == 12

    def test_a_stepped_traced_session_rides_the_sweep(self):
        """A tracer is no clause: the sweep hands it its rows after each step,
        and they are the spans the object loop writes."""
        tracers = [Tracer(sample_rate=1.0), Tracer(sample_rate=1.0)]
        results = []
        for columnar, tracer in zip((True, False), tracers):
            engine = ServingEngine(
                BatchingConfig(max_batch=2), columnar=columnar, tracer=tracer
            )
            engine.register("m", ModeledExecutor(SERVICE_MODEL))
            results.append(self._stepped(engine))
        assert (results[0].kernel, results[0].kernel_reason) == ("sweep", None)
        for name, column in tracers[1].spans().items():
            assert np.array_equal(tracers[0].spans()[name], column), name

    @pytest.mark.parametrize(
        "reason, build",
        [
            ("columnar=False", lambda: _engine(False)),
            ("scheduler", lambda: _engine(True, scheduler=EdfScheduler())),
            ("placer", lambda: ServingEngine(placer=FreeClockPlacer())),
            ("telemetry", lambda: ServingEngine(telemetry=TelemetryBus(0.01, 1))),
        ],
    )
    def test_the_first_failing_clause_is_the_reason(self, reason, build):
        engine = build()
        engine.register("m", ModeledExecutor(SERVICE_MODEL), policy=FixedRatioPolicy(0.5))
        result = self._stepped(engine)
        assert (result.kernel, result.kernel_reason) == ("object", reason)

    def test_policy_and_executor_clauses(self):
        engine = ServingEngine()
        engine.register("m", ModeledExecutor(SERVICE_MODEL), policy=RoundRobinRatioPolicy([0.0, 1.0]))
        assert self._stepped(engine).kernel_reason == "policy"
        engine = ServingEngine()
        engine.register("m", self._Wrapped(SERVICE_MODEL))
        assert self._stepped(engine).kernel_reason == "executor"

    def test_two_models_and_nobody(self):
        engine = _engine(True)
        engine.register("n", ModeledExecutor(SERVICE_MODEL))
        mixed = self._requests(4) + self._requests(4, model="n")
        result = engine.run(requests=mixed)
        assert (result.kernel, result.kernel_reason) == ("object", "multi-model")
        result = engine.run(requests=[])
        assert (result.kernel, result.kernel_reason) == ("object", "empty")

    def test_a_bus_or_a_tracer_only_keeps_a_stepped_session_off_the_sweep(self):
        """A whole-session sweep hands the bus its columns in bulk and the
        tracer its rows."""
        trace = _trace(duration=0.5)
        for extra in (
            dict(telemetry=TelemetryBus(0.01, 1)), dict(tracer=Tracer(sample_rate=1.0))
        ):
            engine = ServingEngine(BatchingConfig(max_batch=8), **extra)
            engine.register("m", ModeledExecutor(SERVICE_MODEL))
            result = engine.run(trace, model="m")
            assert (result.kernel, result.kernel_reason) == ("sweep", None)

    def test_activating_a_server_that_is_not_modeled_leaves_the_sweep(self):
        def serve(columnar):
            engine = ServingEngine(
                BatchingConfig(max_batch=2), num_servers=2, columnar=columnar
            )
            engine.register(
                "m", [ModeledExecutor(SERVICE_MODEL), self._Wrapped(SERVICE_MODEL)]
            )
            engine.start(requests=self._requests())
            engine.set_active_servers([0])
            first = [engine.step(), engine.step()]
            engine.set_active_servers([0, 1], available_from=0.004)
            return first, engine.finish()

        (first, swept), (_, stepped) = serve(True), serve(False)
        assert (swept.kernel, swept.kernel_reason) == ("sweep+object", "executor")
        # What the sweep dispatched is in the record, as the objects it returned.
        assert swept.batch_records[:2] == first
        _assert_results_identical(swept, stepped)
        assert set(swept.batch_servers.tolist()) == {0, 1}
        for got, want in zip(swept.responses, stepped.responses):
            assert repr(got) == repr(want)

    def test_a_reordered_queue_under_a_tracer_or_a_bus(self):
        """Submitted late half first, never stepped: the sweep hands the
        tracer each position's slot, and the bus only counts, reading arrivals
        and deadlines by position; both keep the session on the sweep."""
        requests = [
            Request(0.001 * n, model="m", request_id=n, deadline=0.001 * n + 0.004 * (n % 3))
            for n in range(24)
        ]

        def serve(columnar, **extra):
            engine = ServingEngine(
                BatchingConfig(max_batch=2, drop_after=0.01), columnar=columnar, **extra
            )
            engine.register("m", ModeledExecutor(SERVICE_MODEL))
            engine.start(record_responses=False)
            engine.submit(requests[12:])
            engine.submit(requests[:12])
            return engine.finish()

        tracers = [Tracer(sample_rate=1.0), Tracer(sample_rate=1.0)]
        swept, stepped = serve(True, tracer=tracers[0]), serve(False, tracer=tracers[1])
        assert (swept.kernel, swept.kernel_reason) == ("sweep", None)
        for name, column in tracers[1].spans().items():
            assert np.array_equal(tracers[0].spans()[name], column, equal_nan=True), name

        buses = [TelemetryBus(0.01, 1), TelemetryBus(0.01, 1)]
        swept, stepped = serve(True, telemetry=buses[0]), serve(False, telemetry=buses[1])
        assert (swept.kernel, swept.kernel_reason) == ("sweep", None)
        assert swept.dropped == stepped.dropped > 0
        _assert_results_identical(swept, stepped)
        for window in range(buses[1].last_window + 1):
            a, b = buses[0].cluster_window(window), buses[1].cluster_window(window)
            assert (a.served, a.batches, a.drops, a.busy_time) == (
                b.served, b.batches, b.drops, b.busy_time
            )
            assert (a.deadline_total, a.deadline_met) == (b.deadline_total, b.deadline_met)
            assert np.array_equal(np.sort(a.latencies), np.sort(b.latencies))

    def test_the_kernel_is_in_no_report(self):
        result = self._stepped(_engine(True))
        for report in (result.to_json(), result.totals(), result.summary()):
            assert not {"kernel", "kernel_reason"} & set(report)
            assert "sweep" not in str(report)


def _assert_ledgers_equal(got, want, count):
    """Every column, every ``ledger[i]`` (ids included) and ``served_by``."""
    for name in ("starts", "finishes", "sizes", "servers", "queue_depths"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.ratios == want.ratios and list(got) == list(want)
    assert [slots.tolist() for slots in got.row_slots()] == [
        slots.tolist() for slots in want.row_slots()
    ]
    assert np.array_equal(got.served_by(count), want.served_by(count))


@st.composite
def _ledger_rows(draw):
    """Rows to append, which of them a rewind then removes, rows appended after."""
    row = st.tuples(
        st.sampled_from(["a", "b"]), st.sampled_from([0.0, 0.5, 1.0]),
        st.integers(1, 3), st.integers(0, 2), st.booleans(),
    )
    return (
        draw(st.lists(st.tuples(row, st.booleans()), max_size=12)),
        draw(st.lists(row, max_size=4)),
    )


class TestOneBatchLedger:
    """One table, whoever writes it: the sweep's column lists, the object
    loops' ``append``, a rewind's ``remove``."""

    class _Wrapped(ModeledExecutor):
        """Modeled service times from something that is not a ``ModeledExecutor``."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        _sweeps(),
        st.integers(1, 6),
        # (before step, bit mask of modeled servers, available_from in ms or None)
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(1, 15), st.none() | st.integers(0, 60)),
            max_size=6,
        ),
    )
    def test_every_loop_writes_the_same_ledger(self, case, leave_after, schedule):
        """The whole sweep, the stepped sweep, ``columnar=False`` and a session
        that leaves the sweep part-way (a server that is not modeled joins and
        goes, between two steps: nothing it could serve) — one ledger.  And
        with the active set changed between steps (modeled servers only, with
        and without ``available_from``: the session stays on the sweep), the
        stepped sweep returns, and writes, what ``columnar=False`` does."""
        servers = case["num_servers"]
        requests = [
            Request(arrival, model="m", request_id=number)
            for number, arrival in enumerate(case["arrivals"].tolist())
        ]

        def serve(columnar, steps=0, leave=False, schedule=()):
            engine = ServingEngine(
                BatchingConfig(case["max_batch"], case["drop_after"]),
                num_servers=servers + 1, columnar=columnar,
            )
            engine.register(
                "m",
                [ModeledExecutor(SERVICE_MODEL)] * servers + [self._Wrapped(SERVICE_MODEL)],
                policy=FixedRatioPolicy(0.5),
            )
            engine.start(requests=requests)
            engine.set_active_servers(range(servers))
            records = []
            for step in range(steps):
                for at, mask, millisecond in schedule:
                    if at == step:
                        active = [s for s in range(servers) if mask >> s & 1]
                        engine.set_active_servers(
                            active or [mask % servers],
                            None if millisecond is None else millisecond * 1e-3,
                        )
                records.append(engine.step())
            if leave:
                engine.set_active_servers(range(servers + 1))
                engine.set_active_servers(range(servers))
            return engine.finish(), records

        (whole, _), (stepped, _) = serve(True), serve(True, steps=len(requests))
        (slow, _), (left, _) = serve(False), serve(True, steps=leave_after, leave=True)
        kernels = [result.kernel for result in (whole, stepped, slow, left)]
        assert kernels == (
            ["sweep", "sweep", "object", "sweep+object"] if requests else ["object"] * 4
        )
        for result in (stepped, slow, left):
            _assert_ledgers_equal(result.batch_records, whole.batch_records, len(requests))
            _assert_results_identical(result, whole)

        (swept, got), (want_result, want) = (
            serve(columnar, steps=len(requests), schedule=schedule)
            for columnar in (True, False)
        )
        assert swept.kernel == ("sweep" if requests else "object")
        assert got == want
        _assert_ledgers_equal(swept.batch_records, want_result.batch_records, len(requests))
        _assert_results_identical(swept, want_result)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_ledger_rows())
    def test_fields_round_trip_and_a_rewind_keeps_every_other_row(self, case):
        """Mixed ratios, two models and some outputs through the
        value-or-column fields, against a plain list of rows; ids only grow."""
        first, later = case
        ledger, rows, slot = BatchLedger(), [], 0

        def append(model, ratio, size, server, has_outputs):
            nonlocal slot
            slots = np.arange(slot, slot + size)
            outputs = [f"out{n}" for n in slots] if has_outputs else None
            start = 0.001 * slot
            record = ledger.append(
                model, start, start + 0.01, size, ratio, "flexiq", server, size,
                slots, outputs,
            )
            assert record == ledger[-1]
            rows.append((record, slots.tolist(), outputs))
            slot += size

        def check(rewound):
            assert list(ledger) == [record for record, _, _ in rows]
            assert [s.tolist() for s in ledger.row_slots()] == [s for _, s, _ in rows]
            outputs = [outputs for _, _, outputs in rows]
            assert (ledger.outputs or [None] * len(rows)) == outputs
            assert ledger.ratios == [record.ratio for record, _, _ in rows]
            # One value while every row agrees, a column from the first row
            # that differs (and still one after a rewind took that row).
            cohorts = {(record.model, record.mode, record.ratio) for record, _, _ in rows}
            if not isinstance(ledger.cohort, list):
                assert len(cohorts) <= 1
            if not rewound:
                assert isinstance(ledger.cohort, list) == (len(cohorts) > 1)
                assert isinstance(ledger.outputs, list) == any(outputs)
            served_by = np.full(slot, -1)
            for index, (_, slots, _) in enumerate(rows):
                served_by[slots] = index
            assert np.array_equal(ledger.served_by(slot), served_by)

        for row, _ in first:
            append(*row)
        check(rewound=False)
        assert [record.row for record, _, _ in rows] == list(range(len(rows)))
        gone = [index for index, (_, remove) in enumerate(first) if remove]
        victims = ledger.remove(gone)
        assert [(record, slots.tolist()) for record, slots in victims] == [
            rows[index][:2] for index in gone
        ]
        rows[:] = [row for index, row in enumerate(rows) if index not in gone]
        for row in later:
            append(*row)
        check(rewound=True)
        ids = [record.row for record, _, _ in rows]
        assert ids == sorted(set(ids)) and all(row < len(first) + len(later) for row in ids)

    def test_round_robin_ratios_and_two_models_through_the_engine(self):
        engine = _engine(False, max_batch=2)
        engine.register(
            "n", ModeledExecutor(SERVICE_MODEL), policy=RoundRobinRatioPolicy([0.0, 1.0])
        )
        requests = [
            Request(0.001 * n, model="mn"[n // 4 % 2], request_id=n) for n in range(16)
        ]
        result = engine.run(requests=requests)
        ledger = result.batch_records
        models, ratios = [record.model for record in ledger], ledger.ratios
        assert set(models) == {"m", "n"} and isinstance(ledger.cohort, list)
        assert result.batch_ratios == ratios == [record.ratio for record in ledger]
        assert {ratio for model, ratio in zip(models, ratios) if model == "m"} == {0.5}
        cycle = [ratio for model, ratio in zip(models, ratios) if model == "n"]
        assert cycle == [0.0, 1.0] * (len(cycle) // 2) + [0.0] * (len(cycle) % 2)
        assert len(result.for_model("n")) == 8


class TestTelemetryIncremental:
    def test_timeline_cache_invalidation(self):
        from repro.serving.telemetry import ScaleEvent

        bus = TelemetryBus(window=1.0, num_servers=1)
        bus.record_scale_event(
            ScaleEvent(time=2.0, action="add", server=1, active_after=2)
        )
        first = bus.timeline()
        bus.record_scale_event(
            ScaleEvent(time=1.0, action="remove", server=1, active_after=1)
        )
        second = bus.timeline()
        assert [event.time for event in second] == [1.0, 2.0]
        assert len(first) == 1
        # Returned lists are copies: mutating one must not poison the cache.
        second.clear()
        assert len(bus.timeline()) == 2


class TestTraceSortCache:
    def test_sorted_arrivals_cached_per_binding(self):
        trace = RequestTrace(
            np.asarray([3.0, 1.0, 2.0]), duration=3.0
        )
        first = trace.sorted_arrivals()
        assert list(first) == [1.0, 2.0, 3.0]
        assert trace.sorted_arrivals() is first
        assert not first.flags.writeable
        trace.arrival_times = np.asarray([5.0, 4.0])
        rebound = trace.sorted_arrivals()
        assert list(rebound) == [4.0, 5.0]
        assert rebound is not first

    def test_diurnal_day_uses_cache(self):
        trace = DiurnalTrace(
            night_rate=50, peak_rate=100, duration=4, period=4, num_phases=4
        ).generate()
        assert trace.sorted_arrivals() is trace.sorted_arrivals()
