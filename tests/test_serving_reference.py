"""``ServingEngine`` against its specification (``tests/reference_sim.py``).

Generated configurations — K servers x 1-2 models x discipline x
``drop_after`` on/off — served three ways: by the plain-Python reference, by
``ServingEngine.run(requests=...)``, and by the streamed ``submit``/``step``
drive.  All three must agree exactly on every request's latency, every drop
and its time, every batch's server, start, size and riders, and — request by
request — all 14 fields of ``result.responses[number]``; where the columnar
sweep applies, its per-request latencies equal the object loop's.  A second
generated test crashes one server between two ``step()`` calls and requeues its
riders (the reference's rules 6-8), under every discipline.
"""

import dataclasses
import random

import numpy as np
from hypothesis import example, given, settings, strategies as st

from priority_scheduler import PriorityScheduler
from reference_sim import SpecCrash, SpecRequest, reference_run
from repro.data.traces import PoissonTrace, RequestTrace
from repro.obs import BurnRateRule, SloMonitor, SloObjective, Tracer
from repro.serving.cluster import ClusterEngine, ServerSpec, SloLatencyAutoscaler
from repro.serving.core import PENDING, SERVED
from repro.serving.engine import (
    BatchExecution,
    BatchingConfig,
    Request,
    ServingEngine,
    requests_from_trace,
)
from repro.serving.executors import ModeledExecutor
from repro.serving.placement import earliest_free
from repro.serving.policies import FixedRatioPolicy, QueueDepthRatioPolicy
from repro.serving.resilience import (
    FaultEvent,
    FaultSchedule,
    RequeueAtHeadMigration,
    StepCheckpoint,
)
from repro.serving.schedulers import EdfScheduler, FifoScheduler
from repro.serving.simulator import ServiceTimeModel
from repro.serving.telemetry import Samples

SERVICE_MODEL = ServiceTimeModel()
#: Each model runs at its own ratio, so a batch billed to the wrong model shows.
RATIOS = {"m": 0.5, "n": 1.0}
SCHEDULERS = {"fifo": FifoScheduler, "priority": PriorityScheduler, "edf": EdfScheduler}


def service_seconds(model: str, size: int) -> float:
    return SERVICE_MODEL.batch_latency(size, "flexiq", RATIOS[model])


@st.composite
def scenarios(draw):
    count = draw(st.integers(0, 40))
    # A coarse grid makes equal arrivals (the tie-break cases) common; the
    # handed-in order is deliberately not the arrival order.
    ticks = draw(st.lists(st.integers(0, 60), min_size=count, max_size=count))
    models = draw(st.lists(st.sampled_from(["m", "n"]), min_size=1, max_size=3))
    priorities = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    slos = draw(
        st.lists(st.sampled_from([None, 0.004, 0.02, 0.05]), min_size=1, max_size=3)
    )
    requests = []
    for index, tick in enumerate(ticks):
        arrival, slo = tick * 1e-3, slos[index % len(slos)]
        requests.append(
            SpecRequest(
                arrival,
                models[index % len(models)],
                priorities[index % len(priorities)],
                None if slo is None else arrival + slo,
            )
        )
    return dict(
        requests=requests,
        num_servers=draw(st.integers(1, 4)),
        scheduler=draw(st.sampled_from(sorted(SCHEDULERS))),
        max_batch=draw(st.integers(1, 5)),
        drop_after=draw(st.sampled_from([None, 0.01])),
    )


@st.composite
def crash_scenarios(draw):
    case = draw(scenarios())
    case["num_servers"] = draw(st.integers(1, 3))
    case["crash"] = SpecCrash(
        after_batches=draw(st.integers(0, 8)),
        server=draw(st.integers(0, case["num_servers"] - 1)),
        time=draw(st.integers(0, 50)) * 1e-3,
        delay=draw(st.sampled_from([0.0, 0.003, 0.02])),
    )
    return case


def _engine(case, columnar: bool = False) -> ServingEngine:
    engine = ServingEngine(
        BatchingConfig(case["max_batch"], case["drop_after"]),
        num_servers=case["num_servers"],
        scheduler=SCHEDULERS[case["scheduler"]](),
        # The object loops are what the specification pins; the columnar
        # sweep is pinned to them here and by tests/test_serving_core.py.
        columnar=columnar,
    )
    for name, ratio in RATIOS.items():
        engine.register(
            name, ModeledExecutor(SERVICE_MODEL), policy=FixedRatioPolicy(ratio)
        )
    return engine


def _request(number: int, spec: SpecRequest) -> Request:
    """The engine's request for a spec request; its id is its number."""
    return Request(
        spec.arrival, spec.model, request_id=number, priority=spec.priority,
        deadline=spec.deadline,
    )


def _assert_meets_spec(result, spec, ordered):
    """``result`` (slots are request numbers) is exactly ``spec``, the
    outcome of the spec requests ``ordered`` (by number)."""
    count = len(ordered)
    assert len(result.request_latencies) == count
    for number, want in enumerate(spec.latencies):
        got = result.request_latencies[number]
        assert (np.isnan(got) and want is None) or got == want, number
    # The per-request map, read the other ways a result offers it.
    served = ~np.isnan(result.request_latencies)
    assert np.array_equal(result.latencies, result.request_latencies[served])
    assert result.dropped == len(spec.drops) == count - np.count_nonzero(served)
    assert len(result.batch_records) == len(spec.batches)
    for index, (record, batch) in enumerate(zip(result.batch_records, spec.batches)):
        riders = np.flatnonzero(result.responses.batch == index).tolist()
        assert (record.server, record.start, record.finish, riders) == (
            batch.server, batch.start, batch.finish, sorted(batch.riders)
        )
        assert (record.size, record.model, record.queue_depth) == (
            len(batch.riders), batch.model, batch.queue_depth
        )

    # Request by request, every field of its Response.
    assert len(result.responses) == count
    drop_times = dict(spec.drops)
    served_by = {number: batch for batch in spec.batches for number in batch.riders}
    assert len(drop_times) + len(served_by) == count
    for number, request in enumerate(ordered):
        response = result.responses[number]
        # What the request brought with it, and what no run here changes.
        assert (
            response.request_id, response.model, response.arrival_time,
            response.priority, response.deadline, response.mode, response.output,
            response.migrations,
        ) == (
            number, request.model, request.arrival, request.priority,
            request.deadline, "flexiq", None, spec.migrations[number],
        ), number
        got, want = response.latency, spec.latencies[number]
        assert (np.isnan(got) and want is None) or got == want, number
        if number in drop_times:
            assert response.dropped and response.start_time == drop_times[number]
            assert np.isnan(response.finish_time) and np.isnan(response.ratio)
            assert (response.batch_size, response.server) == (0, 0), number
            continue
        batch = served_by[number]
        assert (
            response.dropped, response.start_time, response.finish_time,
            response.batch_size, response.ratio, response.server,
        ) == (
            False, batch.start, batch.finish, len(batch.riders),
            RATIOS[batch.model], batch.server,
        ), number


class TestEngineMeetsItsSpecification:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(scenarios())
    def test_run_and_streamed_drive_equal_the_reference(self, case):
        spec = reference_run(
            case["requests"], case["num_servers"], service_seconds,
            case["scheduler"], case["max_batch"], case["drop_after"],
        )
        count = len(case["requests"])
        by_arrival = sorted(range(count), key=lambda i: case["requests"][i].arrival)
        ordered = [case["requests"][index] for index in by_arrival]

        # Handed in as given (not arrival-sorted): run() orders them itself.
        as_given = [None] * count
        for number, index in enumerate(by_arrival):
            as_given[index] = _request(number, ordered[number])
        result = _engine(case).run(requests=as_given)
        _assert_meets_spec(result, spec, ordered)
        if case["scheduler"] == "fifo" and len({r.model for r in ordered}) == 1:
            # What the sweep takes: it must give everybody the same latency.
            swept = _engine(case, columnar=True).run(
                requests=as_given, record_responses=False
            )
            assert swept.kernel == "sweep"
            assert np.array_equal(
                swept.request_latencies, result.request_latencies, equal_nan=True
            )

        # Streamed, causally: before each batch, submit whoever arrives by
        # its start — all the batch can depend on — then step exactly once.
        engine = _engine(case)
        engine.start(record_responses=True)
        requests = [_request(number, r) for number, r in enumerate(ordered)]
        submitted = 0
        for batch in spec.batches:
            upto = submitted
            while upto < count and ordered[upto].arrival <= batch.start:
                upto += 1
            if upto > submitted:
                engine.submit(requests[submitted:upto])
                submitted = upto
            record = engine.step()
            assert record is not None and record.start == batch.start
        if submitted < count:  # whoever is left is dropped, never served
            engine.submit(requests[submitted:])
        _assert_meets_spec(engine.finish(), spec, ordered)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(crash_scenarios())
    # An EDF queue admitted against the second batch's start, then a rewind
    # to before it: whoever had not arrived by the rewound clock must wait.
    @example(
        dict(
            requests=[SpecRequest(0.0), SpecRequest(0.0), SpecRequest(0.001)],
            num_servers=1, scheduler="edf", max_batch=1, drop_after=None,
            crash=SpecCrash(after_batches=2, server=0, time=0.0, delay=0.0),
        )
    )
    @example(
        dict(
            requests=[SpecRequest(0.0)] * 3 + [SpecRequest(0.001)],
            num_servers=1, scheduler="edf", max_batch=1, drop_after=None,
            crash=SpecCrash(after_batches=2, server=0, time=0.0, delay=0.0),
        )
    )
    def test_a_crash_between_steps_requeues_as_the_reference_does(self, case):
        crash = case["crash"]
        spec = reference_run(
            case["requests"], case["num_servers"], service_seconds,
            case["scheduler"], case["max_batch"], case["drop_after"], crash,
        )
        ordered = sorted(case["requests"], key=lambda request: request.arrival)
        engine = _engine(case)
        engine.start(requests=[_request(n, r) for n, r in enumerate(ordered)])
        for _ in range(crash.after_batches):
            if engine.step() is None:
                break
        engine.preempt_server(
            crash.server, crash.time, policy=RequeueAtHeadMigration(crash.delay)
        )
        result = engine.finish()
        assert result.migrated == sum(spec.migrations)
        _assert_meets_spec(result, spec, ordered)


class TestARewindTruncatesTheLedger:
    """``preempt_server(server, t)`` cuts rows out of the batch ledger and
    writes no other: ROADMAP item 4's engine half."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(crash_scenarios(), st.booleans(), st.booleans())
    def test_settled_rows_are_the_rows_they_were_and_everybody_is_conserved(
        self, case, columnar, kill_running
    ):
        crash = case["crash"]
        ordered = sorted(case["requests"], key=lambda request: request.arrival)
        engine = _engine(case, columnar=columnar)
        engine.start(requests=[_request(n, r) for n, r in enumerate(ordered)])
        for _ in range(crash.after_batches):
            engine.step()
        ledger = engine._session.ledger
        before = list(ledger)
        report = engine.preempt_server(
            crash.server, crash.time, policy=RequeueAtHeadMigration(crash.delay),
            kill_running=kill_running,
        )
        after = list(ledger)
        # Field for field, row ids included: nothing settled was rewritten,
        # nothing on another server was touched, only victims went.
        settled = [record for record in before if record.finish <= crash.time]
        assert [record for record in after if record.finish <= crash.time] == settled
        assert [record for record in after if record.server != crash.server] == [
            record for record in before if record.server != crash.server
        ]
        assert len(before) - len(after) == report.batches
        assert all(record in before for record in after)

        result = engine.finish()
        served = int(np.count_nonzero(~np.isnan(result.request_latencies)))
        assert served + result.dropped == len(ordered)
        assert result.migrated == report.migrated
        # Re-served victims ride in new rows: ids only grow, none is reused.
        ids = [record.row for record in result.batch_records]
        assert ids == sorted(set(ids))
        assert list(result.batch_records)[: len(after)] == after
        assert all(row >= len(before) for row in ids[len(after):])


# ----------------------------------------------------------------------
# The columnar sweep, stepped: the same drives on a ``columnar=True`` engine
# ----------------------------------------------------------------------
@st.composite
def drives(draw):
    """How a streamed drive hands its requests in."""
    return dict(
        # One submit of everything / what each batch needs / one request a call.
        chunking=draw(st.sampled_from(["all", "batch", "single"])),
        # The later arrivals of a hand-over first, the earlier ones after them.
        out_of_order=draw(st.booleans()),
        # Shrink and restore the active set between steps (no clock moves).
        touch_active=draw(st.booleans()),
        record_responses=draw(st.booleans()),
        # Mostly what the sweep takes (FIFO, one model); else the case as drawn.
        sweepable=draw(st.sampled_from([True, True, True, False])),
    )


def _hand_over(chunk, drive):
    """``chunk`` (numbers, ascending) as the submit calls that hand it in."""
    parts = [chunk]
    if drive["out_of_order"]:
        # Split where the arrival strictly rises, so no tie straddles the
        # halves (a later submit queues behind equal arrivals already there).
        cuts = [k for k in range(1, len(chunk)) if chunk[k - 1][1] < chunk[k][1]]
        if cuts:
            cut = cuts[len(cuts) // 2]
            parts = [chunk[cut:], chunk[:cut]]
    if drive["chunking"] == "single":
        parts = [[entry] for part in parts for entry in part]
    return [part for part in parts if part]


def _expected_kernel(case, first_models):
    """(kernel, reason) of a drive whose first dispatch saw ``first_models``."""
    models = {request.model for request in case["requests"]}
    if not models:
        return "object", "empty"
    if case["scheduler"] != "fifo":
        return "object", "scheduler"
    if len(first_models) > 1:
        return "object", "multi-model"
    if len(models) > 1:  # rode the sweep until the other model was submitted
        return "sweep+object", "multi-model"
    return "sweep", None


class TestTheSteppedSweepMeetsTheSpecification:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(scenarios(), drives())
    # A backlog that sheds, handed in late half first: drop cohorts and
    # batches of a reordered queue, read back request by request.
    @example(
        dict(
            requests=[SpecRequest(0.001 * (n // 20)) for n in range(60)],
            num_servers=1, scheduler="fifo", max_batch=2, drop_after=0.01,
        ),
        dict(chunking="all", out_of_order=True, touch_active=True,
             record_responses=True, sweepable=True),
    )
    def test_streamed_drives_on_the_sweep_engine_equal_the_reference(self, case, drive):
        if drive["sweepable"]:
            requests = [request._replace(model="m") for request in case["requests"]]
            case = dict(case, scheduler="fifo", requests=requests)
        spec = reference_run(
            case["requests"], case["num_servers"], service_seconds,
            case["scheduler"], case["max_batch"], case["drop_after"],
        )
        ordered = sorted(case["requests"], key=lambda request: request.arrival)
        count = len(ordered)
        engine = _engine(case, columnar=True)
        engine.start(record_responses=drive["record_responses"])
        everybody = list(range(count))
        # number -> slot: a request's slot is its place in the hand-over order.
        slot_of, submitted, first_models = {}, 0, None

        def submit(upto):
            chunk = [(number, ordered[number].arrival) for number in range(submitted, upto)]
            for part in _hand_over(chunk, drive):
                for number, _ in part:
                    slot_of[number] = len(slot_of)
                engine.submit(
                    [_request(slot_of[number], ordered[number]) for number, _ in part]
                )
            return upto

        for batch in spec.batches:
            upto = count if drive["chunking"] == "all" else submitted
            while upto < count and ordered[upto].arrival <= batch.start:
                upto += 1
            submitted = submit(upto)
            if first_models is None:
                first_models = {ordered[n].model for n in range(submitted)}
            record = engine.step()
            assert record is not None and record.start == batch.start
            if drive["touch_active"]:
                engine.set_active_servers([0])
                engine.set_active_servers(range(case["num_servers"]))
        submit(count)  # whoever is left is dropped, never served
        result = engine.finish()
        if first_models is None:
            first_models = {request.model for request in ordered}
        assert (result.kernel, result.kernel_reason) == _expected_kernel(
            case, first_models
        )

        # The specification, renumbered from arrival order to slots.
        slots = [slot_of[number] for number in everybody]
        by_slot = sorted(everybody, key=slots.__getitem__)
        renumbered = type(spec)(
            [spec.latencies[number] for number in by_slot],
            [spec.migrations[number] for number in by_slot],
            [
                type(batch)(
                    batch.server, batch.start, batch.finish, batch.model,
                    [slots[number] for number in batch.riders], batch.queue_depth,
                )
                for batch in spec.batches
            ],
            [(slots[number], time) for number, time in spec.drops],
        )
        if drive["record_responses"]:
            _assert_meets_spec(result, renumbered, [ordered[n] for n in by_slot])
            return
        assert result.responses is None
        assert result.dropped == len(renumbered.drops)
        for slot, want in enumerate(renumbered.latencies):
            got = result.request_latencies[slot]
            assert (np.isnan(got) and want is None) or got == want, slot
        assert len(result.batch_records) == len(renumbered.batches)
        for record, batch in zip(result.batch_records, renumbered.batches):
            assert (
                record.server, record.start, record.finish, record.size,
                record.model, record.queue_depth,
            ) == (
                batch.server, batch.start, batch.finish, len(batch.riders),
                batch.model, batch.queue_depth,
            )

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(crash_scenarios())
    def test_a_crash_takes_the_session_off_the_sweep_as_the_reference_requeues(
        self, case
    ):
        crash = case["crash"]
        spec = reference_run(
            case["requests"], case["num_servers"], service_seconds,
            case["scheduler"], case["max_batch"], case["drop_after"], crash,
        )
        ordered = sorted(case["requests"], key=lambda request: request.arrival)
        engine = _engine(case, columnar=True)
        engine.start(requests=[_request(n, r) for n, r in enumerate(ordered)])
        for _ in range(crash.after_batches):
            if engine.step() is None:
                break
        engine.preempt_server(
            crash.server, crash.time, policy=RequeueAtHeadMigration(crash.delay)
        )
        result = engine.finish()
        assert result.migrated == sum(spec.migrations)
        _assert_meets_spec(result, spec, ordered)
        models = {request.model for request in ordered}
        want = _expected_kernel(case, models)
        if want == ("sweep", None) and result.migrated:
            want = ("sweep+object", "migrated")  # a rewind needs records and slots
        assert (result.kernel, result.kernel_reason) == want

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        scenarios(),
        st.lists(
            st.one_of(
                st.tuples(st.just("submit"), st.integers(1, 16)),
                st.tuples(st.just("step"), st.integers(1, 6)),
                st.tuples(
                    st.just("resize"),
                    st.lists(st.integers(0, 3), min_size=1, max_size=4),
                    st.sampled_from([None, 0.0, 0.01, 0.03]),
                ),
                st.tuples(st.just("crash"), st.integers(0, 3), st.integers(0, 25)),
            ),
            max_size=16,
        ),
        st.randoms(use_true_random=False),
        st.booleans(),
    )
    # A shedding backlog handed in shuffled, then a crash with victims: the
    # session leaves the sweep with drop cohorts and a reordered queue.
    @example(
        dict(
            requests=[SpecRequest(0.001 * (n // 3)) for n in range(60)],
            num_servers=2, scheduler="fifo", max_batch=2, drop_after=0.01,
        ),
        [("submit", 16), ("submit", 16), ("submit", 8)] + [("step", 6)] * 2
        + [("submit", 16), ("crash", 0, 12), ("step", 3), ("resize", [1], 0.03)],
        random.Random(8),
        True,
    )
    def test_any_interleaving_is_the_object_loops_interleaving(
        self, case, ops, shuffler, record_responses
    ):
        """Outside the reference's rules — submissions that arrive in the
        engine's past, servers that leave and join with a provisioning lag,
        crashes anywhere: whatever is called between two steps, the sweep
        engine and ``columnar=False`` serve everybody identically, and the
        store's ``status`` is exact once the session is finished."""
        requests = [request._replace(model="m") for request in case["requests"]]
        case = dict(case, scheduler="fifo", requests=requests)
        order = list(range(len(requests)))
        shuffler.shuffle(order)
        servers = case["num_servers"]

        def serve(columnar):
            engine = _engine(case, columnar=columnar)
            engine.start(record_responses=record_responses)
            store, handed = engine._session.store, 0
            for op in ops:
                if op[0] == "submit":
                    chunk = order[handed:handed + op[1]]
                    engine.submit(_request(n, requests[n]) for n in chunk)
                    handed += len(chunk)
                elif op[0] == "step":
                    for _ in range(op[1]):
                        engine.step()
                elif op[0] == "resize":
                    engine.set_active_servers([s % servers for s in op[1]], op[2])
                else:
                    engine.preempt_server(
                        op[1] % servers, op[2] * 1e-3, policy=RequeueAtHeadMigration()
                    )
            engine.submit(_request(n, requests[n]) for n in order[handed:])
            return engine.finish(), store.status.copy()

        (swept, swept_status), (stepped, stepped_status) = serve(True), serve(False)
        assert swept.kernel in (
            ("object",) if not requests else ("sweep", "sweep+object")
        ), swept.kernel_reason
        assert (swept.kernel == "sweep+object") == (swept.kernel_reason == "migrated")
        assert stepped.kernel_reason == ("columnar=False" if requests else "empty")
        assert np.array_equal(
            swept.request_latencies, stepped.request_latencies, equal_nan=True
        )
        assert list(swept.batch_records) == list(stepped.batch_records)
        assert swept.server_busy_times == stepped.server_busy_times
        assert (swept.dropped, swept.duration, swept.migrated) == (
            stepped.dropped, stepped.duration, stepped.migrated
        )
        assert np.array_equal(swept_status, stepped_status)
        assert np.array_equal(
            swept_status == SERVED, ~np.isnan(swept.request_latencies)
        ) and not (swept_status == PENDING).any()
        if not record_responses:
            assert swept.responses is None and stepped.responses is None
            return
        for got, want in zip(swept.responses, stepped.responses):
            assert repr(got) == repr(want)


# ----------------------------------------------------------------------
# A segment is its steps: ``advance_until`` against ``step()``
# ----------------------------------------------------------------------
class SlowestIdlePlacer:
    """A custom placer: the highest-numbered server idle at the batch's
    time, else the earliest-free one (what no shipped placer does)."""

    def place(self, context) -> int:
        idle = [s for s in context.active if context.free_at[s] <= context.time]
        return idle[-1] if idle else earliest_free(context.free_at, context.active)


class LinearExecutor:
    """A custom executor: 1 ms plus 0.5 ms a request, run one notch above
    the policy's ratio, one output per rider."""

    def execute(self, batch, mode, ratio):
        return BatchExecution(
            service_time=0.001 + 0.0005 * batch.size,
            outputs=[int(slot) for slot in batch.indices],
            ratio=min(1.0, ratio + 0.25),
        )


class CalledFixedRatioPolicy(FixedRatioPolicy):
    """A fixed ratio the loop must ask for: a subclass is no declared type."""


class CalledModeledExecutor(ModeledExecutor):
    """Modeled prices the loop must call ``execute`` for, likewise."""


@st.composite
def cluster_sessions(draw):
    """A cluster session across every axis an object loop reads once per
    segment or calls per batch, under either discipline's loop, served under
    a control plane (an SLO monitor at least) so that ``ClusterEngine.run``
    advances it.  The axes are drawn uniformly (hypothesis' own draws favour
    the first choice)."""
    rng = draw(st.randoms(use_true_random=True))
    crash_at = rng.randint(5, 40) * 1e-2
    return dict(
        seed=rng.randrange(2**16),
        scheduler=rng.choice(["fifo", "edf", "priority"]),
        placer=rng.choice([None, "least_work", "weighted", "predictive", "custom"]),
        policy=rng.choice(["fixed", "queue_depth"]),
        executor=rng.choice(["modeled", "custom"]),
        faults=rng.choice(["none", "crash", "slowdown"]),
        server=rng.randrange(3),
        crash_at=crash_at,
        recover_at=crash_at + rng.choice([0.05, 0.2, 1.0]),
        autoscale=rng.random() < 0.5,
        drop_after=rng.choice([None, 0.02]),
        # Windows and, when on the grid, arrivals are exact binary fractions,
        # so batches start exactly on window boundaries.
        window=rng.choice([1 / 32, 1 / 8]),
        grid=rng.random() < 0.5,
        # Where the randomly split drive cuts segments, in ms.
        cuts=[rng.randint(1, 600) for _ in range(rng.randrange(40))],
    )


def _cluster_run(case, drive):
    """``ClusterEngine.run`` of ``case`` with the engine advanced by
    ``drive``: ``"run"`` as shipped, ``"steps"`` by ``step()`` until a batch
    starts at or past each boundary (the primitive's specification),
    ``"cuts"`` by the shipped primitive at every random cut as well, and
    ``"called"`` as shipped with every plug-in a subclass of its declared
    type, so that the loop calls the policy, the executors and the placer
    per batch instead of reading them."""
    called = drive == "called"
    models = [ServiceTimeModel("vit_base"), ServiceTimeModel("resnet50")]
    specs = [
        ServerSpec(f"s{i}", speed, service_model=models[i % 2])
        for i, speed in enumerate((300.0, 500.0, 800.0))
    ]
    faults = None
    if case["faults"] != "none":
        server, kind = case["server"], case["faults"]
        faults = FaultSchedule([
            FaultEvent(case["crash_at"], server, kind, factor=3.0),
            FaultEvent(case["recover_at"], server, "recover"),
        ])
    tracer = Tracer(sample_rate=0.5)
    cluster = ClusterEngine(
        specs,
        BatchingConfig(max_batch=6, drop_after=case["drop_after"]),
        scheduler={
            "fifo": None, "edf": EdfScheduler(), "priority": PriorityScheduler()
        }[case["scheduler"]],
        placer=SlowestIdlePlacer() if case["placer"] == "custom" else case["placer"],
        window=case["window"],
        autoscaler=(
            SloLatencyAutoscaler(slo_seconds=0.01, patience=1) if case["autoscale"] else None
        ),
        min_servers=1,
        initial_servers=2 if case["autoscale"] else None,
        fault_schedule=faults,
        migration=RequeueAtHeadMigration(delay=0.004),
        checkpoint=StepCheckpoint(steps=4),
        tracer=tracer,
        slo_monitor=SloMonitor(
            objectives=[SloObjective("fast", target=0.9, kind="latency",
                                     latency_slo_seconds=0.02)],
            rules=[BurnRateRule(threshold=2.0, fast_windows=1, slow_windows=2,
                                severity="page")],
        ),
    )
    fixed = CalledFixedRatioPolicy if called else FixedRatioPolicy
    modeled = CalledModeledExecutor if called else ModeledExecutor
    cluster.register(
        "m",
        policy=(
            fixed(0.5) if case["policy"] == "fixed"
            else QueueDepthRatioPolicy({3: 0.5, 8: 1.0})
        ),
        mode="int8",
        executors=[
            LinearExecutor() if case["executor"] == "custom" else modeled(spec.service_model)
            for spec in specs
        ],
    )
    engine = cluster.engine
    if called and case["placer"] in ("least_work", "weighted"):
        kind = type(engine.placer)
        engine.placer.__class__ = type(f"Called{kind.__name__}", (kind,), {})
    if drive == "steps":
        def advance_until(time):
            record = engine.step()
            while record is not None and record.start < time:
                record = engine.step()
            return record

        engine.advance_until = advance_until
    else:
        advance = _kept_to_its_word(engine)
        if drive == "cuts":
            cuts = sorted(case["cuts"])

            def advance_until(time):
                while cuts and cuts[0] * 1e-3 < time:
                    record = advance(cuts.pop(0) * 1e-3)
                    if record is None or record.start >= time:
                        return record
                return advance(time)

            engine.advance_until = advance_until
        else:
            engine.advance_until = advance
    trace = PoissonTrace(3000, duration=0.3, seed=case["seed"]).generate()
    if case["grid"]:
        trace = RequestTrace(np.round(trace.arrival_times * 1024) / 1024, trace.duration)
    requests = requests_from_trace(
        trace, model="m", deadlines=[0.01, 0.03, None], priorities=[0, 1, 2]
    )
    return cluster.run(requests=requests), tracer


def _kept_to_its_word(engine):
    """``engine.advance_until``, checked on every call: the batches it served
    all start before ``time`` but the last, which it returns, unless the
    work ran out first."""
    advance = engine.advance_until

    def advance_until(time):
        ledger = engine._session.ledger  # no rewind happens inside a call
        before = len(ledger)
        record = advance(time)
        starts = ledger.lists[0][before:]
        if record is None:
            assert all(start < time for start in starts)
        else:
            assert record == ledger[-1] and record.start >= time
            assert all(start < time for start in starts[:-1])
        return record

    return advance_until


def _outcome(outcome, tracer):
    """Everything a drive can change: every ledger column and rider, the
    drop cohorts, every telemetry cell, the span columns and the events."""
    result = outcome.result
    ledger, responses = result.batch_records, result.responses
    cells = {
        key: [
            value.joined().tolist() if isinstance(value, Samples) else value
            for value in (getattr(cell, f.name) for f in dataclasses.fields(cell))
        ]
        for key, cell in outcome.telemetry._cells.items()
    }
    return dict(
        columns=[column.tolist() for column in (
            ledger.starts, ledger.finishes, ledger.sizes, ledger.servers,
            ledger.queue_depths,
        )],
        ratios=ledger.ratios, ids=ledger.ids, cohort=ledger.cohort,
        riders=[slots.tolist() for slots in ledger.row_slots()],
        outputs=ledger.outputs,
        served_by=responses.batch.tolist(),
        drop_times=[t if t == t else None for t in responses.drop_times.tolist()],
        latencies=[t if t == t else None for t in result.request_latencies.tolist()],
        cells=cells,
        spans={name: column.tolist() for name, column in tracer.spans().items()},
        events=[repr(event) for event in outcome.timeline()],
        kernel=(result.kernel, result.kernel_reason),
        migrated=result.migrated,
    )


def _kernel(case, drive):
    """What a ``drive`` of ``case`` must report as ``(kernel,
    kernel_reason)``: the object loop, for the first clause against the
    sweep -- the scheduler, or for FIFO the placer, a policy that is not a
    ``FixedRatioPolicy`` (every plug-in is a subclass when ``"called"``), a
    custom executor, and else the cluster's bus."""
    if case["scheduler"] != "fifo":
        return ("object", "scheduler")
    if case["placer"] is not None:
        return ("object", "placer")
    if drive == "called" or case["policy"] != "fixed":
        return ("object", "policy")
    if case["executor"] == "custom":
        return ("object", "executor")
    return ("object", "telemetry")


class TestASegmentIsItsSteps:
    """``ServingEngine.advance_until(t)`` serves every batch that starts
    before ``t`` and the first that starts at or after it, on the FIFO and
    the scheduled loop alike.  Driving a generated cluster session by it as
    shipped, by ``step()`` until a batch starts past each boundary, by it
    with the segments cut at random times in between, and with plug-ins the
    loop must call rather than read gives one outcome, field by field (the
    kernel's reason aside: it names the first plug-in that is not declared)."""

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(cluster_sessions())
    def test_advancing_equals_stepping_equals_run(self, case):
        shipped = _outcome(*_cluster_run(case, "run"))
        assert shipped.pop("kernel") == _kernel(case, "run")
        assert shipped["columns"][0]  # something was served
        for drive in ("steps", "cuts", "called"):
            outcome = _outcome(*_cluster_run(case, drive))
            assert outcome.pop("kernel") == _kernel(case, drive), drive
            assert outcome == shipped, drive
