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

import random

import numpy as np
from hypothesis import example, given, settings, strategies as st

from priority_scheduler import PriorityScheduler
from reference_sim import SpecCrash, SpecRequest, reference_run
from repro.serving.core import PENDING, SERVED
from repro.serving.engine import BatchingConfig, Request, ServingEngine
from repro.serving.executors import ModeledExecutor
from repro.serving.policies import FixedRatioPolicy
from repro.serving.resilience import RequeueAtHeadMigration
from repro.serving.schedulers import EdfScheduler, FifoScheduler
from repro.serving.simulator import ServiceTimeModel

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
