"""The diurnal ``cluster_day`` through the columnar serving core: outcomes.

Two scales of one workload shape.  The ~1/20-scale day (~50k requests) runs
under a deliberately loose wall-clock ceiling: it catches an accidentally
quadratic hot path or a broken fast-path dispatch, not a few-percent
regression.  The full day (>= 1M requests, the shape ``bench/``'s
``day_fifo`` times) is checked for what is exact about it: every request
ends served or dropped, and the K=1 FIFO slice is bit-identical to the
object loop.  How long the full day takes, and what it allocates, is
``bench/``'s to measure (``day_fifo``: ``op_p50_ms``, ``peak_rss_mb``).
Runs as its own CI matrix entry so a failure here points straight at the
columnar core.
"""

import time

import numpy as np
import pytest

from repro.data.traces import DiurnalTrace, RequestTrace
from repro.serving import (
    BatchingConfig,
    ClusterEngine,
    FaultSchedule,
    FixedRatioPolicy,
    ModeledExecutor,
    ServerSpec,
    ServiceTimeModel,
    ServingEngine,
)

NIGHT_RATE = 150            # 1/20 of the full day's diurnal curve
PEAK_RATE = 650
FULL_SCALE = 20             # 3k req/s trough, 13k req/s peak: ~1.04M requests
DURATION = 130.0
SEED = 8
SERVERS = 8
MAX_BATCH = 16
DROP_AFTER = 0.1
MIN_REQUESTS = 50_000
FULL_MIN_REQUESTS = 1_000_000
FULL_SLICE = 100_000        # head of the full day replayed on one server
WALL_CEILING_S = 20.0       # measured ~0.05 s; the ceiling flags blowups only

SERVICE_MODEL = ServiceTimeModel()


def diurnal_day(scale=1):
    return DiurnalTrace(
        night_rate=NIGHT_RATE * scale,
        peak_rate=PEAK_RATE * scale,
        duration=DURATION,
        period=DURATION,
        num_phases=int(DURATION),
        seed=SEED,
    ).generate()


@pytest.fixture(scope="module")
def day_trace():
    return diurnal_day()


def _engine(columnar=True, num_servers=SERVERS, tracer=None):
    engine = ServingEngine(
        BatchingConfig(max_batch=MAX_BATCH, drop_after=DROP_AFTER),
        num_servers=num_servers,
        columnar=columnar,
        tracer=tracer,
    )
    engine.register(
        "m", ModeledExecutor(SERVICE_MODEL), policy=FixedRatioPolicy(0.5)
    )
    return engine


def test_smoke_day_within_wall_ceiling(day_trace):
    assert len(day_trace) >= MIN_REQUESTS
    start = time.perf_counter()
    outcome = _engine().run(day_trace, model="m")
    wall = time.perf_counter() - start
    assert wall <= WALL_CEILING_S
    assert outcome.latencies.size + outcome.dropped == len(day_trace)
    assert outcome.latencies.size > 0
    # Every admitted-and-served request waited less than the drop horizon
    # plus one full batch's service time.
    assert float(np.nanmax(outcome.request_latencies)) < DROP_AFTER + 1.0


def test_smoke_slice_parity_with_object_loop(day_trace):
    arrivals = day_trace.sorted_arrivals()[:5000]
    slice_trace = RequestTrace(np.asarray(arrivals), duration=float(arrivals[-1]))
    fast = _engine(True).run(slice_trace, model="m")
    slow = _engine(False).run(slice_trace, model="m")
    assert np.array_equal(fast.request_latencies, slow.request_latencies, equal_nan=True)
    assert list(fast.batch_sizes) == list(slow.batch_sizes)
    assert fast.dropped == slow.dropped
    assert fast.server_busy_times == slow.server_busy_times


def test_smoke_faulted_cluster_day(day_trace):
    """The stepped control loop (windows + faults) also clears the day."""
    specs = [
        ServerSpec(name=f"s{index}", speed=1.0, service_model=SERVICE_MODEL)
        for index in range(SERVERS)
    ]
    schedule = FaultSchedule.single_crash(at=40.0, server=3, recover_at=90.0)
    cluster = ClusterEngine(
        specs,
        batching=BatchingConfig(max_batch=MAX_BATCH, drop_after=DROP_AFTER),
        fault_schedule=schedule,
        window=1.0,
    )
    cluster.register("m", policy=FixedRatioPolicy(0.5))
    start = time.perf_counter()
    outcome = cluster.run(day_trace, model="m")
    wall = time.perf_counter() - start
    assert wall <= WALL_CEILING_S
    assert outcome.result.latencies.size + outcome.result.dropped == len(day_trace)
    assert [event.kind for event in outcome.fault_events] == ["crash", "recover"]


def test_full_day_conserves_and_k1_slice_is_bit_identical():
    trace = diurnal_day(FULL_SCALE)
    assert len(trace) >= FULL_MIN_REQUESTS
    outcome = _engine().run(trace, model="m")
    assert outcome.dropped > 0      # the midday peak really overloads
    assert outcome.latencies.size + outcome.dropped == len(trace)
    # The unbreakable invariant: one server, FIFO, columnar sweep == object
    # loop (and so, by tests/test_serving_engine.py, the seed simulator).
    arrivals = trace.sorted_arrivals()[:FULL_SLICE]
    slice_trace = RequestTrace(np.asarray(arrivals), duration=float(arrivals[-1]))
    fast = _engine(True, num_servers=1).run(slice_trace, model="m")
    slow = _engine(False, num_servers=1).run(slice_trace, model="m")
    assert np.array_equal(fast.latencies, slow.latencies)
    assert list(fast.batch_sizes) == list(slow.batch_sizes)
    assert fast.dropped == slow.dropped
