"""``ServingEngine`` against its specification (``tests/reference_sim.py``).

Generated configurations — K servers x 1-2 models x discipline x
``drop_after`` on/off — served three ways: by the plain-Python reference, by
``ServingEngine.run(requests=...)``, and by the streamed ``submit``/``step``
drive.  All three must agree exactly on every request's latency, every drop
and its time, every batch's server, start, size and riders, and — request by
request — all 14 fields of ``result.responses[number]``; where the columnar
sweep applies, its per-request latencies equal the object loop's.  A second
generated test crashes one server between two ``step()`` calls and requeues its
riders (the reference's rules 6-8).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from reference_sim import SpecCrash, SpecRequest, reference_run
from repro.serving.core import BatchLedger
from repro.serving.engine import BatchingConfig, Request, ServingEngine
from repro.serving.executors import ModeledExecutor
from repro.serving.policies import FixedRatioPolicy
from repro.serving.resilience import RequeueAtHeadMigration
from repro.serving.schedulers import EdfScheduler, FifoScheduler, PriorityScheduler
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
    case["scheduler"] = "fifo"
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
            assert isinstance(swept.batch_records, BatchLedger)
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
