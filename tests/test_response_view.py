"""``EngineResult.responses`` is a view: same fields, built only when read.

A session keeps a request's outcome once — batch records, which record
finally served each slot, when each dropped cohort was dropped, the store's
columns — and ``responses`` reads ``Response`` objects off that.  Pinned
three ways:

* **goldens** — every field of every ``Response`` of seeded runs covering
  FIFO two-model with ``drop_after``, EDF with deadlines and priorities,
  streamed ``submit``/``step``, crash + requeue (one and two migrations),
  ``DropExpiredMigration``, ``StepCheckpoint``, a graceful drain, a trace
  session under a cluster crash and a ``RuntimeExecutor`` run with payloads,
  captured at the commit before responses became a view
  (``tests/goldens/responses.json``; floats as hex, outputs as sha256);
* **a count, not a clock** — ``run()`` + ``summary()`` + ``to_json()``
  construct no ``Response``; reading one constructs exactly one;
* **the sequence surface** the suites, examples and ``bench/`` use.

The goldens are recaptured only on purpose: ``PYTHONPATH=src:. python
tests/test_response_view.py`` from the repo root.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Sequence
from pathlib import Path

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
    FixedRatioPolicy,
    ModeledExecutor,
    Request,
    RequeueAtHeadMigration,
    RuntimeExecutor,
    ServerSpec,
    ServiceTimeModel,
    ServingEngine,
    StepCheckpoint,
    TelemetryBus,
    requests_from_trace,
)
from repro.serving.core import LazyRequests, RequestStore
from repro.serving.engine import Response
from tests.conftest import TinyMLP

GOLDENS = Path(__file__).resolve().parent / "goldens" / "responses.json"

FIELDS = (
    "request_id", "model", "arrival_time", "start_time", "finish_time",
    "batch_size", "ratio", "mode", "dropped", "output", "priority", "deadline",
    "server", "migrations",
)


# ----------------------------------------------------------------------
# Lossless, JSON-ready views (floats as hex so nan compares, outputs hashed)
# ----------------------------------------------------------------------
def _exact(value):
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (int, np.integer)):
        return int(value)
    array = np.ascontiguousarray(value)
    return {
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "sha256": hashlib.sha256(array.tobytes()).hexdigest(),
    }


#: A golden row: the 14 fields, then the two derived readings.
COLUMNS = FIELDS + ("latency", "deadline_met")


def response_row(response) -> list:
    return [_exact(getattr(response, name)) for name in COLUMNS]


def result_view(result) -> dict:
    return {
        "responses": [response_row(response) for response in result.responses],
        "deadline_attainment": _exact(result.deadline_attainment()),
        "report": json.dumps(result.to_json(), sort_keys=True),
    }


# ----------------------------------------------------------------------
# The golden runs (recipes from the serving, resilience and domain suites)
# ----------------------------------------------------------------------
class FixedExecutor:
    """Deterministic executor: every batch takes exactly ``seconds``."""

    def __init__(self, seconds: float) -> None:
        self.seconds = float(seconds)

    def execute(self, batch, mode, ratio):
        return BatchExecution(service_time=self.seconds)


class PinnedRuntimeExecutor(RuntimeExecutor):
    """Real forwards, modeled clock: outputs are the runtime's, the service
    time is fixed so every timing field is reproducible."""

    def execute(self, batch, mode, ratio):
        execution = super().execute(batch, mode, ratio)
        return BatchExecution(0.002 * batch.size, execution.outputs, execution.ratio)


def _fixed_engine(num_requests, num_servers, deadlines=None, drop_after=None):
    engine = ServingEngine(
        BatchingConfig(max_batch=4, drop_after=drop_after), num_servers=num_servers
    )
    engine.register("m", FixedExecutor(1.0), mode="int8")
    engine.start(
        requests=[
            Request(
                arrival_time=0.0, model="m", request_id=i,
                deadline=None if deadlines is None else deadlines[i],
            )
            for i in range(num_requests)
        ]
    )
    return engine


def fifo_two_models_drop_after():
    """Two models at their own mode and ratio, drops, ids partly unnamed."""
    trace = PoissonTrace(2000, duration=0.12, seed=21).generate()
    arrivals = np.sort(trace.arrival_times)
    requests = [
        Request(
            float(arrival), "ab"[(number // 3) % 2],
            request_id=-1 if number % 4 else 1000 + number,
            priority=number % 3,
            deadline=None if number % 5 == 0 else float(arrival) + 0.03,
        )
        for number, arrival in enumerate(arrivals)
    ]
    engine = ServingEngine(BatchingConfig(max_batch=4, drop_after=0.02), num_servers=2)
    executor = ModeledExecutor(ServiceTimeModel())
    engine.register("a", executor, policy=FixedRatioPolicy(0.5))
    engine.register("b", executor, policy=FixedRatioPolicy(1.0), mode="int8")
    return engine.run(requests=requests)


def edf_deadlines_priorities():
    trace = PoissonTrace(1800, duration=0.12, seed=22).generate()
    requests = requests_from_trace(
        trace, model="m", priorities=[0, 2, 1], deadlines=[0.01, None, 0.05, 0.02]
    )
    engine = ServingEngine(
        BatchingConfig(max_batch=3, drop_after=0.03), num_servers=2,
        scheduler=EdfScheduler(), telemetry=TelemetryBus(window=0.1, num_servers=2),
    )
    engine.register(
        "m", ModeledExecutor(ServiceTimeModel()), policy=FixedRatioPolicy(0.25)
    )
    return engine.run(requests=requests)


def streamed_submit_step():
    """``submit`` a chunk, ``step`` it dry, as a streaming caller does."""
    trace = PoissonTrace(2400, duration=0.1, seed=23).generate()
    requests = requests_from_trace(trace, model="m", deadlines=[0.02])
    engine = ServingEngine(BatchingConfig(max_batch=4, drop_after=0.015), num_servers=2)
    engine.register(
        "m", ModeledExecutor(ServiceTimeModel()), policy=FixedRatioPolicy(0.5)
    )
    engine.start(record_responses=True)
    for first in range(0, len(requests), 25):
        engine.submit(requests[first:first + 25])
        while engine.step() is not None:
            pass
    return engine.finish()


def crash_requeue_twice():
    """Three crashes: the last lands on the server that took the first one's
    migrants (two moves); the middle one's victims move once."""
    specs = [
        ServerSpec(name=f"g{i}", speed=1.0, service_model=ServiceTimeModel())
        for i in range(4)
    ]
    cluster = ClusterEngine(
        specs,
        BatchingConfig(max_batch=4),
        fault_schedule=FaultSchedule(
            [
                FaultEvent(time=0.3, server=0, kind="crash"),
                FaultEvent(time=0.5, server=2, kind="crash"),
                FaultEvent(time=1.2, server=3, kind="crash"),
            ]
        ),
        migration=RequeueAtHeadMigration(delay=0.6),
        window=0.25,
    )
    cluster.register("m", mode="int8", executors=[FixedExecutor(1.0) for _ in specs])
    requests = [Request(arrival_time=0.0, model="m", request_id=i) for i in range(12)]
    return cluster.run(requests=requests).result


def drop_expired_migration():
    """Two migrants already past their deadline at the crash, two not."""
    engine = _fixed_engine(4, 2, deadlines=[0.2, 0.3, 9.0, 9.0])
    engine.step()
    engine.preempt_server(0, 0.5, policy=DropExpiredMigration(), kill_running=True)
    engine.set_active_servers([1])
    return engine.finish()


def step_checkpoint():
    engine = _fixed_engine(6, 2)
    engine.step()
    engine.step()
    engine.preempt_server(
        0, 0.5, policy=RequeueAtHeadMigration(), kill_running=True,
        checkpoint=StepCheckpoint(steps=4),
    )
    engine.set_active_servers([1])
    return engine.finish()


def graceful_drain():
    """``kill_running=False``: the running batch finishes, later ones move."""
    engine = _fixed_engine(12, 1)
    engine.step(), engine.step(), engine.step()
    engine.preempt_server(0, 1.5, policy=RequeueAtHeadMigration(), kill_running=False)
    return engine.finish()


def trace_session_cluster_crash():
    """A trace session (arrivals only, every other column implicit)."""
    specs = [
        ServerSpec(name=f"s{i}", speed=1.0, service_model=ServiceTimeModel())
        for i in range(3)
    ]
    cluster = ClusterEngine(
        specs,
        BatchingConfig(max_batch=8, drop_after=0.05),
        placer="least_work",
        fault_schedule=FaultSchedule.single_crash(1, at=0.1, recover_at=0.2),
        migration=RequeueAtHeadMigration(delay=0.01),
        window=0.05,
    )
    cluster.register("m", policy=FixedRatioPolicy(0.5))
    trace = PoissonTrace(1500, duration=0.3, seed=24).generate()
    return cluster.run(trace=trace, record_responses=True).result


def tiny_runtime():
    """A prepared FlexiQ runtime of the suite's smallest model, untrained."""
    from repro.core import FlexiQConfig, FlexiQPipeline
    from repro.core.selection import SelectionConfig

    calibration = np.random.default_rng(7).standard_normal((48, 3, 4, 4))
    config = FlexiQConfig(
        ratios=(0.5, 1.0), group_size=4, selection="greedy",
        selection_config=SelectionConfig(group_size=4),
    )
    runtime = FlexiQPipeline(
        TinyMLP(rng=np.random.default_rng(0)), calibration.astype(np.float32), config
    ).run()
    runtime.prepare(use_prepared=True)
    return runtime


def runtime_outputs():
    """Real forwards with payloads: each response carries its own logits."""
    runtime = tiny_runtime()
    payloads = np.random.default_rng(8).standard_normal((10, 3, 4, 4))
    payloads = payloads.astype(np.float32)
    engine = ServingEngine(BatchingConfig(max_batch=4))
    engine.register("mlp", PinnedRuntimeExecutor(runtime), policy=FixedRatioPolicy(0.5))
    # "int4" pins ratio 1.0 whatever the policy says: the executed ratio.
    engine.register(
        "mlp4", PinnedRuntimeExecutor(runtime), policy=FixedRatioPolicy(0.5),
        mode="int4",
    )
    requests = [
        Request(0.001 * (i // 2), "mlp4" if i % 5 == 4 else "mlp", payload=payloads[i])
        for i in range(len(payloads))
    ]
    return engine.run(requests=requests)


RUNS = (
    fifo_two_models_drop_after,
    edf_deadlines_priorities,
    streamed_submit_step,
    crash_requeue_twice,
    drop_expired_migration,
    step_checkpoint,
    graceful_drain,
    trace_session_cluster_crash,
    runtime_outputs,
)


class TestGoldens:
    @pytest.mark.parametrize("run", RUNS, ids=lambda run: run.__name__)
    def test_every_field_of_every_response_is_bit_identical(self, run):
        golden = json.loads(GOLDENS.read_text())[run.__name__]
        view = json.loads(json.dumps(result_view(run())))
        assert len(view["responses"]) == len(golden["responses"])
        for slot, (got, want) in enumerate(zip(view["responses"], golden["responses"])):
            assert dict(zip(COLUMNS, got)) == dict(zip(COLUMNS, want)), slot
        assert view["deadline_attainment"] == golden["deadline_attainment"]
        assert view["report"] == golden["report"]

    def test_the_runs_cover_what_they_claim(self):
        golden = json.loads(GOLDENS.read_text())

        def column(run, name):
            at = COLUMNS.index(name)
            return [row[at] for row in golden[run]["responses"]]

        assert any(column("fifo_two_models_drop_after", "dropped"))
        assert {"flexiq", "int8"} == set(column("fifo_two_models_drop_after", "mode"))
        assert any(column("edf_deadlines_priorities", "dropped"))
        assert None in column("edf_deadlines_priorities", "deadline")
        assert any(column("streamed_submit_step", "dropped"))
        assert {0, 1, 2} == set(column("crash_requeue_twice", "migrations"))
        assert column("drop_expired_migration", "dropped") == [True, True, False, False]
        assert 1 in column("step_checkpoint", "migrations")
        assert 1 in column("graceful_drain", "migrations")
        assert 1 in column("trace_session_cluster_crash", "migrations")
        assert any(column("trace_session_cluster_crash", "dropped"))
        assert all(column("runtime_outputs", "output"))
        assert {(1.0).hex(), (0.5).hex()} == set(column("runtime_outputs", "ratio"))


# ----------------------------------------------------------------------
# A count, not a clock
# ----------------------------------------------------------------------
class TestNothingIsBuiltUntilRead:
    def test_run_summary_and_to_json_construct_no_response(self, monkeypatch):
        built = []
        construct = Response.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            construct(self, *args, **kwargs)

        monkeypatch.setattr(Response, "__init__", counting)
        # Deadlines, a crash + requeue, and drops: two batches run, server 0
        # dies under its own, and the survivor gets to the migrants (ready
        # since the crash) third, just in time; the four it would have
        # served then have waited beyond drop_after.
        engine = _fixed_engine(
            16, 2, deadlines=[1.5, None, 2.5, 0.5] * 4, drop_after=1.5
        )
        engine.step(), engine.step()
        report = engine.preempt_server(
            0, 0.5, policy=RequeueAtHeadMigration(), kill_running=True
        )
        engine.set_active_servers([1])
        result = engine.finish()
        assert (report.migrated, result.migrated, result.dropped) == (4, 4, 4)

        result.summary()
        report = result.to_json()
        assert report["deadline_attainment"] == result.deadline_attainment() == 3 / 12
        assert len(result.responses) == 16 and result.responses
        assert built == []

        # ... zero until one is read, exactly one per read.
        third = result.responses[3]
        assert len(built) == 1 and built[0] is third
        assert (third.migrations, third.server, third.deadline_met) == (1, 1, False)
        assert result.responses[3] is not third and result.responses[3] == third
        assert len(built) == 3
        assert sum(1 for response in result.responses if response.dropped) == 4
        assert len(built) == 3 + 16


# ----------------------------------------------------------------------
# The sequence surface
# ----------------------------------------------------------------------
class TestSequenceSurface:
    def test_indexing_slicing_iteration_len_and_truth(self):
        result = edf_deadlines_priorities()
        responses = result.responses
        assert isinstance(responses, Sequence) and not isinstance(responses, list)
        count = len(responses)
        assert count == len(result.request_latencies) and responses
        everything = list(responses)
        assert len(everything) == count
        assert all(type(response) is Response for response in everything)
        rows = [response_row(response) for response in everything]
        assert response_row(responses[-1]) == rows[-1]
        assert response_row(responses[np.intp(2)]) == rows[2]
        assert [response_row(r) for r in responses[3:9:2]] == rows[3:9:2]
        assert type(responses[:2]) is list
        for index in (count, -count - 1):
            with pytest.raises(IndexError):
                responses[index]
        with pytest.raises(TypeError):  # read-only: a view, not a list
            responses[0] = everything[0]

    def test_an_empty_session_has_an_empty_falsy_view(self):
        engine = ServingEngine(BatchingConfig(max_batch=4))
        engine.register("m", FixedExecutor(1.0))
        result = engine.run(requests=[])
        assert result.responses is not None and not result.responses
        assert list(result.responses) == [] and result.responses[:] == []
        assert math.isnan(result.deadline_attainment())

    def test_without_recording_there_is_no_view_and_no_attainment(self):
        trace = PoissonTrace(500, duration=0.1, seed=25).generate()
        requests = requests_from_trace(trace, model="m", deadlines=[0.05])
        engine = ServingEngine(BatchingConfig(max_batch=4))
        engine.register("m", ModeledExecutor(ServiceTimeModel()))
        result = engine.run(requests=requests, record_responses=False)
        assert result.responses is None
        assert math.isnan(result.deadline_attainment())
        assert result.to_json()["deadline_attainment"] is None

    def test_a_view_outlives_its_store_being_served_again(self):
        """The store's ``status`` column belongs to whichever session is
        open; a finished run's responses are read off its own records."""
        trace = PoissonTrace(2500, duration=0.1, seed=26).generate()
        view = requests_from_trace(trace, model="m", deadlines=[0.03], lazy=True)

        def serve(num_servers):
            engine = ServingEngine(
                BatchingConfig(max_batch=4, drop_after=0.02), num_servers=num_servers
            )
            engine.register(
                "m", ModeledExecutor(ServiceTimeModel()), policy=FixedRatioPolicy(0.5)
            )
            return engine.run(requests=view)

        first = serve(1)
        before = [response_row(response) for response in first.responses]
        attainment = first.deadline_attainment()
        assert first.dropped > 0
        second = serve(4)  # same store, adopted again: fewer drops this time
        assert second.dropped < first.dropped
        assert [response_row(response) for response in first.responses] == before
        assert first.deadline_attainment() == attainment

    def test_a_view_outlives_its_store_being_appended_to(self):
        """A streamed session that adopts a request-list store grows it."""
        store = RequestStore.from_requests(
            [Request(0.001 * i, "m", deadline=0.001 * i + 0.004) for i in range(20)]
        )

        def engine():
            engine = ServingEngine(BatchingConfig(max_batch=4))
            engine.register("m", ModeledExecutor(ServiceTimeModel()))
            return engine

        first = engine().run(requests=LazyRequests(store))
        before = [response_row(response) for response in first.responses]
        attainment = first.deadline_attainment()
        streamed = engine()
        streamed.start(requests=LazyRequests(store))
        streamed.submit([Request(0.05, "m", deadline=0.06, priority=3)])
        assert len(streamed.finish().responses) == len(store) == 21
        assert [response_row(response) for response in first.responses] == before
        assert first.deadline_attainment() == attainment


if __name__ == "__main__":  # run at the parent commit to (re)capture
    GOLDENS.parent.mkdir(exist_ok=True)
    views = {run.__name__: result_view(run()) for run in RUNS}
    # One response a line: a recapture diffs request by request.
    text = json.dumps(views, sort_keys=True).replace("], [", "],\n[")
    GOLDENS.write_text(text + "\n")
