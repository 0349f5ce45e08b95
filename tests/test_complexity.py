"""Cost claims, checked by counting calls instead of reading a clock.

A claim here says how a loop's work grows with its input.  The test counts
the Python and C function calls the loop makes (the ``call`` and ``c_call``
events of ``sys.setprofile``) on inputs of growing size, so it holds on any
machine under any load.  Where a count is pinned, a change that raises it
fails with the ten call sites that made the most calls.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Callable, Tuple

from repro.data.traces import PoissonTrace
from repro.obs import Tracer
from repro.serving import (
    BatchingConfig,
    ClusterEngine,
    DecodePressureRatioPolicy,
    EdfScheduler,
    IterationScheduler,
    ModeledGenerationBackend,
    PrefillPriorityAdmission,
    Request,
    ServerSpec,
    ServiceTimeModel,
    SloLatencyAutoscaler,
    requests_from_trace,
)

# bench/gen.py's traffic mix and backend, copied (not imported) so the
# benchmark can change without moving the claim.
RATE = 120
SEED = 8
MAX_BATCH = 8
PROMPT_TOKENS = (32, 512, 96, 256)
NEW_TOKENS = (96, 8, 160, 16)
DECODE_FRACTION = 0.05
PRESSURE_THRESHOLD = 900
WAITING_WEIGHT = 64.0

#: Calls of the 30-step decode-only probe at every batch width.
DECODE_PROBE_CALLS = 484
#: Ceiling on calls per iteration over the 4 s mix.
MIX_CALLS_PER_ITERATION = 20.3
#: Ceiling on calls per batch of the small EDF + ``least_work`` cluster run.
CLUSTER_CALLS_PER_BATCH = 52.9
#: The same ceiling with a 1%-sampled tracer on the run.
TRACED_CLUSTER_CALLS_PER_BATCH = 53.4


def count_calls(fn: Callable[[], object]) -> Tuple[int, Counter]:
    """The Python and C calls ``fn()`` makes: the total and a ``Counter``
    keyed by call site (``caller file:line -> callee``)."""
    sites: Counter = Counter()

    def count(frame, event, arg):
        if event == "call":
            caller, callee = frame.f_back, frame.f_code.co_qualname
        elif event == "c_call":
            caller, callee = frame, getattr(arg, "__qualname__", repr(arg))
        else:
            return
        where = caller.f_code.co_filename.rsplit("/", 1)[-1]
        sites[f"{where}:{caller.f_lineno} -> {callee}"] += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return sum(sites.values()), sites


def top_sites(sites: Counter, label: str = "") -> str:
    """The ten call sites with the most calls, one a line."""
    lines = [f"{calls:8d}  {site}" for site, calls in sites.most_common(10)]
    return "\n".join([f"top call sites {label}".rstrip(), *lines])


def _calls_per_iteration(duration: float) -> Tuple[float, Counter]:
    """Calls one ``IterationScheduler.run`` over a ``duration``-second trace
    makes per iteration, and their sites, after a five-request warm-up run
    (the model computes each price on first use)."""
    trace = PoissonTrace(RATE, duration=duration, seed=SEED).generate()
    requests = requests_from_trace(
        trace, model="m",
        prefill_tokens=list(PROMPT_TOKENS), max_new_tokens=list(NEW_TOKENS),
    )
    scheduler = IterationScheduler(
        ModeledGenerationBackend(
            ServiceTimeModel("vit_base", gpu="a6000", decode_token_fraction=DECODE_FRACTION)
        ),
        max_batch=MAX_BATCH,
        admission=PrefillPriorityAdmission(),
        policy=DecodePressureRatioPolicy(
            pressure_threshold=PRESSURE_THRESHOLD, waiting_weight=WAITING_WEIGHT
        ),
    )
    scheduler.run(requests[:5])
    results = []
    calls, sites = count_calls(lambda: results.append(scheduler.run(requests)))
    return calls / len(results[0].iterations), sites


def test_generation_pays_per_iteration_not_per_trace_length():
    """``IterationScheduler`` does O(joins + retirements + queue depth) work
    per iteration, whatever the length of the trace: doubling the trace
    twice does not raise the calls per iteration."""
    measured = [_calls_per_iteration(seconds) for seconds in (1.0, 2.0, 4.0)]
    counts = [calls for calls, _ in measured]
    assert counts == sorted(counts, reverse=True), "\n".join(
        [str(counts), *(top_sites(sites, f"at {s:g} s") for s, (_, sites) in
                        zip((1.0, 2.0, 4.0), measured))]
    )


def test_generation_calls_per_iteration_are_pinned():
    """An iteration over the mix reads each price from the model's table
    with one call: the calls per iteration stay under the pinned ceiling."""
    calls, sites = _calls_per_iteration(4.0)
    assert calls <= MIX_CALLS_PER_ITERATION, f"{calls:.2f}\n{top_sites(sites)}"


def _calls_per_decode_iteration(width: int, steps: int = 30) -> Tuple[int, Counter]:
    """Calls ``steps`` decode-only iterations make over a batch ``width``
    sequences wide: every sequence joins in the first iteration and none
    retires before the last counted one (the cost model is warmed by one
    run of the same requests first)."""
    requests = [
        Request(0.0, "m", request_id=i, prefill_tokens=32, max_new_tokens=steps + 5)
        for i in range(width)
    ]
    scheduler = IterationScheduler(
        ModeledGenerationBackend(
            ServiceTimeModel("vit_base", gpu="a6000", decode_token_fraction=DECODE_FRACTION)
        ),
        max_batch=width,
        policy=DecodePressureRatioPolicy(pressure_threshold=PRESSURE_THRESHOLD),
    )
    scheduler.run(requests)
    scheduler.start(requests)
    assert scheduler.step().size == 2 * width  # every prefill and its first decode
    records = []
    calls, sites = count_calls(
        lambda: records.extend([scheduler.step() for _ in range(steps)])
    )
    assert all(r.size == width for r in records)
    scheduler.finish()
    return calls, sites


def test_decode_iteration_cost_does_not_grow_with_batch_width():
    """A decode iteration touches no sequence: the running sequences'
    tokens are derived from the iteration they joined and the iteration
    end times, so 30 decode-only iterations make the same calls whatever
    the batch width -- exactly the pinned count."""
    for width in (1, 2, 4, 8, 16):
        calls, sites = _calls_per_decode_iteration(width)
        assert calls == DECODE_PROBE_CALLS, (
            f"width {width}: {calls} calls\n{top_sites(sites)}"
        )


def _cluster(placer: str = "least_work", **control) -> Tuple[ClusterEngine, list]:
    """EDF (every request has a deadline), a named placer (``least_work``)
    scoring three servers with the cluster's estimators and a
    ``ModeledExecutor`` per server, over a second of requests."""
    trace = PoissonTrace(600, duration=1.0, seed=SEED).generate()
    requests = requests_from_trace(trace, model="m", deadlines=[0.05, 0.2])
    cluster = ClusterEngine(
        [ServerSpec(f"s{i}", 100.0, service_model=ServiceTimeModel()) for i in range(3)],
        batching=BatchingConfig(max_batch=8),
        scheduler=EdfScheduler(),
        placer=placer,
        **control,
    )
    cluster.register("m", mode="int8")
    return cluster, requests


def _calls_per_cluster_batch(**control) -> Tuple[float, Counter]:
    """Calls one ``ClusterEngine.run`` of :func:`_cluster` makes per batch,
    and their sites, after a warm-up run of the same requests (each price is
    computed on first use)."""
    cluster, requests = _cluster(**control)
    cluster.run(requests=requests)
    results = []
    calls, sites = count_calls(lambda: results.append(cluster.run(requests=requests)))
    return calls / len(results[0].result.batch_records), sites


def test_cluster_calls_per_batch_are_pinned():
    """A placed, EDF-scheduled batch on the cluster reads every price it
    scores or serves from the model's table with one call: the calls per
    batch stay under the pinned ceiling."""
    calls, sites = _calls_per_cluster_batch()
    assert calls <= CLUSTER_CALLS_PER_BATCH, f"{calls:.2f}\n{top_sites(sites)}"


def test_a_cluster_batch_makes_no_telemetry_call():
    """The bus reads the session's ledger when it is read, not per batch:
    over a cluster run whose autoscaler reads it at every window boundary,
    the engine's ``step()`` calls nothing in ``telemetry.py``; the window
    reads between steps are where the bus catches up."""
    cluster, requests = _cluster(
        window=0.1, autoscaler=SloLatencyAutoscaler(slo_seconds=0.05),
        min_servers=1, initial_servers=2,
    )
    engine, stepping = cluster.engine, [False]
    in_steps, elsewhere = Counter(), Counter()
    step = engine.step

    def flagged_step():
        stepping[0] = True
        try:
            return step()
        finally:
            stepping[0] = False

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith("telemetry.py"):
            (in_steps if stepping[0] else elsewhere)[frame.f_code.co_qualname] += 1

    engine.step = flagged_step
    sys.setprofile(count)
    try:
        outcome = cluster.run(requests=requests)
    finally:
        sys.setprofile(None)
    batches = len(outcome.result.batch_records)
    assert batches > 200 and len(outcome.telemetry.cluster_series()) == 10
    assert not in_steps, in_steps.most_common(10)
    assert elsewhere["TelemetryBus.catch_up"] >= 10


def test_a_traced_cluster_batch_makes_no_tracer_call():
    """The tracer reads the session's ledger when it settles, not per batch:
    over a traced cluster run that drops and rewinds nothing (a drop cohort
    or a rewind is still handed over as it happens), the engine's
    ``step()`` calls nothing in ``tracing.py``, and a traced batch stays
    under its pinned calls."""
    cluster, requests = _cluster(tracer=Tracer(sample_rate=0.01))
    engine, stepping = cluster.engine, [False]
    in_steps, elsewhere = Counter(), Counter()
    step = engine.step

    def flagged_step():
        stepping[0] = True
        try:
            return step()
        finally:
            stepping[0] = False

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith("tracing.py"):
            (in_steps if stepping[0] else elsewhere)[frame.f_code.co_qualname] += 1

    engine.step = flagged_step
    sys.setprofile(count)
    try:
        outcome = cluster.run(requests=requests)
    finally:
        sys.setprofile(None)
    assert len(outcome.result.batch_records) > 200
    assert not in_steps, in_steps.most_common(10)
    assert elsewhere["Tracer.settle"] >= 1 and len(cluster.tracer.store) > 0
    calls, sites = _calls_per_cluster_batch(tracer=Tracer(sample_rate=0.01))
    assert calls <= TRACED_CLUSTER_CALLS_PER_BATCH, f"{calls:.2f}\n{top_sites(sites)}"


def test_a_predictive_placer_has_the_ledger_read_once_a_window():
    """``PredictivePlacer`` asks the bus for its last window at every batch
    and for a server's rates when a window completes: the bus reads the
    ledger's new rows (``BatchLedger.since``) once per completed window,
    not once per batch."""
    cluster, requests = _cluster("predictive", window=0.1)
    reads = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_qualname == "BatchLedger.since":
            reads[frame.f_code.co_qualname] += 1

    sys.setprofile(count)
    try:
        outcome = cluster.run(requests=requests)
    finally:
        sys.setprofile(None)
    assert len(outcome.result.batch_records) > 200
    assert 0 < reads["BatchLedger.since"] <= len(outcome.telemetry.cluster_series()) + 1
