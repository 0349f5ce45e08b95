"""day_fifo / day_control / day_stream: simulated cluster days, offline.

These are batch jobs: the unit of work is a simulated request and the
speed is work per *host* second.  Queueing under the arrival rate exists
only in *simulated* time; those outcomes are deterministic, are reported as
exact metrics, and every rep must reproduce rep 0's.

All three share one modelled system -- 8 unit-speed servers, batches of at
most 16, requests shed after 100 ms in queue.

``overhead_ratio`` always divides like by like -- the same kind of code, so
that what is left of the box's mood after scaling to reference speed (numpy
sweeps and Python loops slow by different factors) cancels:

* ``day_fifo``     host time per request of the full-day sweep over the
  same sweep of the day's first requests (1.0 for a sweep linear in length)
* ``day_control``  host time per batch with the whole control plane on over
  the plain ``ClusterEngine`` object loop on the day's first seconds
* ``day_stream``   host time per batch of the streamed day over the bulk
  ``run(requests=...)`` object loop on the day's first seconds
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.traces import DiurnalTrace, RequestTrace
from repro.obs import (
    BurnRateRule,
    SloMonitor,
    SloObjective,
    Tracer,
    prometheus_exposition,
    registry_from_cluster,
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
    RequestStore,
    RequeueAtHeadMigration,
    ServerSpec,
    ServiceTimeModel,
    ServingEngine,
    SloLatencyAutoscaler,
    requests_from_trace,
)

from bench.harness import (
    OUT_DIR,
    BoxSpeed,
    Outcome,
    Rounds,
    bench_values,
    median,
    quietest,
    reference_seconds,
    timed_rounds,
)
from bench.spans import SpanRecorder, no_span

MODEL = "m"
SERVERS = 8
MAX_BATCH = 16
DROP_AFTER = 0.1
RATIO = 0.5
#: Short like-for-like baseline runs per round.
REFERENCE_REPS = 3


def _batching() -> BatchingConfig:
    return BatchingConfig(max_batch=MAX_BATCH, drop_after=DROP_AFTER)


def fifo_engine(columnar: bool = True) -> ServingEngine:
    """The plain K=8 FIFO engine of ``day_fifo`` and ``day_stream``.

    The executor and policy are the program's own classes, unwrapped:
    ``_fast_eligible`` tests ``type(...) is``, so a timing proxy here would
    silently move the run off the columnar path being measured.
    """
    engine = ServingEngine(_batching(), num_servers=SERVERS, columnar=columnar)
    engine.register(
        MODEL, ModeledExecutor(ServiceTimeModel()), policy=FixedRatioPolicy(RATIO)
    )
    return engine


def _diurnal(night: float, peak: float, duration: float, seed: int) -> RequestTrace:
    trace = DiurnalTrace(
        night_rate=night, peak_rate=peak, duration=duration, period=duration,
        num_phases=int(duration), seed=seed,
    ).generate()
    trace.sorted_arrivals()  # sorted once, in set-up, as a real caller would
    return trace


def _head(trace: RequestTrace, count: int) -> RequestTrace:
    """The trace's first ``count`` arrivals."""
    arrivals = np.asarray(trace.sorted_arrivals()[:count])
    return RequestTrace(arrivals, duration=float(arrivals[-1]))


def _head_seconds(trace: RequestTrace, seconds: float) -> RequestTrace:
    """The trace's first ``seconds`` of simulated time."""
    arrivals = trace.sorted_arrivals()
    return _head(trace, int(np.searchsorted(arrivals, seconds)))


def _fastest(run, reps: int = REFERENCE_REPS) -> float:
    """Smallest value ``run()`` returns over a few calls."""
    return min(run() for _ in range(reps))


def _seconds(run) -> float:
    """Host seconds of ``run()``, as measured."""
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def _sweep_seconds(trace: RequestTrace, box: Optional[BoxSpeed] = None) -> float:
    """Host seconds of one columnar FIFO sweep of ``trace`` (``run`` only);
    at reference speed when a ``box`` is sampling."""
    engine = fifo_engine()
    sweep = lambda: engine.run(trace, model=MODEL)  # noqa: E731
    return box.time(sweep)[0] if box is not None else _seconds(sweep)


def _engine_outcome(result, submitted: int) -> Dict[str, float]:
    """The exact (simulated-time) outcome of an engine run."""
    served = int(np.count_nonzero(~np.isnan(result.request_latencies)))
    return {
        "submitted": submitted,
        "served": served,
        "dropped": int(result.dropped),
        "batches": len(result.batch_records),
        "p99": float(np.percentile(result.latencies, 99)) if served else 0.0,
    }


def _check_rep(outcome: Outcome, exact: Dict, first: Dict, label: str) -> None:
    """One rep is one operation: conserved, and identical to rep 0."""
    outcome.attempted += 1
    submitted, served, dropped = exact["submitted"], exact["served"], exact["dropped"]
    if served + dropped != submitted:
        outcome.fail(1, f"{label}: served {served} + dropped {dropped} != {submitted}")
    elif exact != first:
        outcome.fail(1, f"{label}: exact outcome differs from rep 0")


def _sim_values(exact: Dict) -> Dict[str, float]:
    return {
        "sim.requests": exact["submitted"],
        "sim.p99_ms": exact["p99"] * 1e3,
        "sim.drop_share": exact["dropped"] / exact["submitted"],
        "serving.engine.batches": exact["batches"],
        "serving.engine.mean_batch_size": exact["served"] / max(exact["batches"], 1),
    }


# ----------------------------------------------------------------------
# day_fifo
# ----------------------------------------------------------------------
@dataclass
class FifoState:
    sizes: Dict[str, float]
    trace: RequestTrace
    head: RequestTrace            # reference for overhead_ratio
    parity: RequestTrace          # replayed through the object loop
    split: Dict[str, float] = field(default_factory=dict)


class DayFifo:
    """~1.04 M requests through the columnar fast path, and nothing else."""

    name = "day_fifo"
    SIZES = {
        "full": dict(duration=130.0, head=100_000, parity=20_000, min_rounds=5),
        "tiny": dict(duration=3.0, head=4_000, parity=2_000, min_rounds=2),
    }

    def setup(self, seed: int, scale: str) -> FifoState:
        sizes = self.SIZES[scale]
        start = time.perf_counter()
        trace = _diurnal(3000, 13000, sizes["duration"], seed)
        generate_s = time.perf_counter() - start
        start = time.perf_counter()
        RequestStore.from_trace(trace, model=MODEL)
        store_s = time.perf_counter() - start
        state = FifoState(
            sizes=sizes, trace=trace,
            head=_head(trace, int(sizes["head"])),
            parity=_head(trace, int(sizes["parity"])),
            split={
                "data.traces.generate_s": generate_s,
                "serving.core.store_build_s": store_s,
            },
        )
        for _ in range(2):  # discarded warm-up reps
            self._rep(state)
        return state

    def _rep(self, state: FifoState, recorder: Optional[SpanRecorder] = None):
        """Engine construction + ``run`` + ``summary()``; returns the clock at
        (start, engine built, run done, summary done) and the result."""
        span = recorder.span if recorder is not None else no_span
        with span("rep", "bench.rep"):
            start = time.perf_counter()
            with span("ServingEngine()", "serving.engine.build"):
                engine = fifo_engine()
            built = time.perf_counter()
            with span("run", "serving.core.sweep"):
                result = engine.run(state.trace, model=MODEL)
            ran = time.perf_counter()
            with span("summary+to_json", "serving.engine.summary"):
                result.summary()
                result.to_json()
            done = time.perf_counter()
        return (start, built, ran, done), result

    def _check_parity(self, state: FifoState, outcome: Outcome) -> None:
        """The first arrivals again with ``columnar=False``: must agree exactly."""
        fast = fifo_engine().run(state.parity, model=MODEL)
        slow = fifo_engine(columnar=False).run(state.parity, model=MODEL)
        outcome.attempted += 1
        if not (
            np.array_equal(fast.latencies, slow.latencies)
            and list(fast.batch_sizes) == list(slow.batch_sizes)
            and fast.dropped == slow.dropped
        ):
            outcome.fail(1, "day_fifo: columnar sweep and object loop disagree")

    def measure(self, state: FifoState, seconds: float) -> Outcome:
        outcome = Outcome()
        requests = len(state.trace)
        rounds = Rounds()
        first = None
        self._check_parity(state, outcome)
        with BoxSpeed() as box:
            for _ in timed_rounds(seconds, state.sizes["min_rounds"]):
                (start, built, ran, done), result = self._rep(state)
                wall, measured = box.at_reference_speed(start, done)
                run, _ = box.at_reference_speed(built, ran)
                exact = _engine_outcome(result, requests)
                first = exact if first is None else first
                _check_rep(outcome, exact, first, self.name)
                rounds.walls.append(wall)
                rounds.walls_measured.append(measured)
                rounds.ops_ms.append(run * 1e3)
                rounds.costs.append(run / requests)
                rounds.baselines.extend(
                    _sweep_seconds(state.head, box) / len(state.head)
                    for _ in range(REFERENCE_REPS)
                )
        return rounds.finish(
            outcome, box, requests,
            good_share=first["served"] / requests, op_label="run() ms",
        )

    def trace(self, state: FifoState, seconds: float) -> Outcome:
        outcome = Outcome()
        requests = len(state.trace)
        recorder = SpanRecorder()
        untraced, traced, runs, summaries, references = [], [], [], [], []
        object_us, speedups = [], []
        first = None
        self._check_parity(state, outcome)
        for _ in timed_rounds(seconds, state.sizes["min_rounds"]):
            references.append(reference_seconds())
            (start, _, _, done), _ = self._rep(state)
            untraced.append(done - start)
            (start, built, ran, done), result = self._rep(state, recorder)
            traced.append(done - start)
            runs.append(ran - built)
            summaries.append(done - ran)
            exact = _engine_outcome(result, requests)
            first = exact if first is None else first
            _check_rep(outcome, exact, first, self.name)

            start = time.perf_counter()
            slow = fifo_engine(columnar=False).run(state.head, model=MODEL)
            slow_s = time.perf_counter() - start
            object_us.append(slow_s / len(slow.batch_records) * 1e6)
            speedups.append(slow_s / _fastest(lambda: _sweep_seconds(state.head)))
        recorder.write(OUT_DIR / f"trace-{self.name}.json", self.name)
        outcome.values = {
            **state.split,
            **_sim_values(first),
            "serving.engine.run_p50_s": median(runs),
            "serving.engine.summary_s": quietest(summaries),
            "serving.core.sweep_us_per_batch": quietest(runs) / first["batches"] * 1e6,
            "serving.engine.object_loop_us_per_batch": quietest(object_us),
            "serving.engine.fast_over_object_speedup": median(speedups),
            **bench_values(references, traced, untraced, len(recorder)),
        }
        return outcome


# ----------------------------------------------------------------------
# day_control
# ----------------------------------------------------------------------
@dataclass
class ControlState:
    sizes: Dict[str, float]
    trace: RequestTrace
    requests: Sequence[Request]   # lazy, store-backed view
    head: Sequence[Request]       # the same, first seconds only
    split: Dict[str, float] = field(default_factory=dict)


#: Layers of the objects the benchmark injects into ``ClusterEngine``:
#: (layer, constructor argument, methods wrapped in the traced run).
CONTROL_PROXIES = (
    ("serving.schedulers.edf", "scheduler", ("key", "keys")),
    ("serving.policies.select", "policy", ("select",)),
    ("serving.cluster.autoscaler", "autoscaler", ("decide",)),
    ("serving.resilience.migration", "migration", ("plan",)),
    ("obs.slo.observe", "slo_monitor", ("evaluate",)),
    ("obs.tracing.hooks", "tracer",
     ("on_batch", "on_drop", "on_preempt", "on_requeue")),
)


def _deadline_requests(trace: RequestTrace) -> Sequence[Request]:
    return requests_from_trace(
        trace, model=MODEL, deadlines=[0.1, 0.2], priorities=[0, 1], lazy=True
    )


class DayControl:
    """Everything the control plane has, on at once, on the object path."""

    name = "day_control"
    SIZES = {
        "full": dict(night=750, peak=3250, duration=16.0, crash=5.0, recover=11.0,
                     head=4.0, min_rounds=4),
        "tiny": dict(night=120, peak=500, duration=3.0, crash=1.0, recover=2.0,
                     head=1.0, min_rounds=2),
    }

    def setup(self, seed: int, scale: str) -> ControlState:
        sizes = self.SIZES[scale]
        start = time.perf_counter()
        trace = _diurnal(sizes["night"], sizes["peak"], sizes["duration"], seed)
        generate_s = time.perf_counter() - start
        start = time.perf_counter()
        requests = _deadline_requests(trace)
        store_s = time.perf_counter() - start
        state = ControlState(
            sizes=sizes, trace=trace, requests=requests,
            head=_deadline_requests(_head_seconds(trace, sizes["head"])),
            split={
                "data.traces.generate_s": generate_s,
                "serving.core.store_build_s": store_s,
            },
        )
        self._rep(state.requests, self.parts(state))  # discarded warm-up rep
        return state

    def parts(self, state: ControlState) -> Dict[str, object]:
        """Fresh control-plane objects for one rep (the benchmark owns them)."""
        sizes = state.sizes
        return dict(
            scheduler=EdfScheduler(),
            policy=FixedRatioPolicy(RATIO),
            autoscaler=SloLatencyAutoscaler(slo_seconds=0.1, patience=2),
            migration=RequeueAtHeadMigration(delay=0.01),
            tracer=Tracer(sample_rate=0.01),
            # The page/ticket burn-rate pair of examples/observability_demo.py.
            slo_monitor=SloMonitor(
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
            ),
            fault_schedule=FaultSchedule.single_crash(
                1, at=sizes["crash"], recover_at=sizes["recover"]
            ),
            placer="least_work",
        )

    @staticmethod
    def _cluster(parts: Dict[str, object]) -> ClusterEngine:
        parts = dict(parts)
        policy = parts.pop("policy")
        if "autoscaler" in parts:
            parts.update(min_servers=2, initial_servers=4)
        specs = [
            ServerSpec(name=f"s{i}", speed=1.0, service_model=ServiceTimeModel())
            for i in range(SERVERS)
        ]
        cluster = ClusterEngine(specs, _batching(), window=1.0, **parts)
        cluster.register(MODEL, policy=policy)
        return cluster

    def _rep(self, requests: Sequence[Request], parts: Dict[str, object],
             recorder: Optional[SpanRecorder] = None):
        """Cluster construction + ``run`` + summary; returns the clock at
        (start, cluster built, run done, summary done) and the result."""
        span = recorder.span if recorder is not None else no_span
        with span("rep", "bench.rep"):
            start = time.perf_counter()
            with span("ClusterEngine()", "serving.cluster.build"):
                cluster = self._cluster(parts)
            built = time.perf_counter()
            with span("run", "serving.cluster.self"):
                result = cluster.run(requests=requests)
            ran = time.perf_counter()
            with span("summary+to_json", "serving.engine.summary"):
                result.result.summary()
                result.to_json()
            done = time.perf_counter()
        return (start, built, ran, done), result

    def _plain_seconds_per_batch(self, requests: Sequence[Request],
                                 box: Optional[BoxSpeed] = None) -> float:
        """The same servers with no scheduler, placer, autoscaler, faults,
        monitor or tracer: host seconds per batch of the bare object loop
        (at reference speed when a ``box`` is sampling)."""
        (_, built, ran, _), result = self._rep(requests, dict(policy=FixedRatioPolicy(RATIO)))
        run = box.at_reference_speed(built, ran)[0] if box is not None else ran - built
        return run / len(result.result.batch_records)

    @staticmethod
    def _exact(result, submitted: int, tracer: Tracer) -> Dict[str, float]:
        return {
            **_engine_outcome(result.result, submitted),
            "deadline_attainment": float(result.deadline_attainment()),
            "scale_events": len(result.scale_events),
            "fault_events": len(result.fault_events),
            "migrated": int(result.migrated),
            "alerts": len(result.alert_events),
            "spans": len(tracer.store),
        }

    def measure(self, state: ControlState, seconds: float) -> Outcome:
        outcome = Outcome()
        requests = len(state.trace)
        rounds = Rounds()
        first = None
        with BoxSpeed() as box:
            for _ in timed_rounds(seconds, state.sizes["min_rounds"]):
                parts = self.parts(state)
                (start, built, ran, done), result = self._rep(state.requests, parts)
                wall, measured = box.at_reference_speed(start, done)
                run, _ = box.at_reference_speed(built, ran)
                exact = self._exact(result, requests, parts["tracer"])
                first = exact if first is None else first
                _check_rep(outcome, exact, first, self.name)
                rounds.walls.append(wall)
                rounds.walls_measured.append(measured)
                rounds.ops_ms.append(run * 1e3)
                rounds.costs.append(run / exact["batches"])
                rounds.baselines.append(self._plain_seconds_per_batch(state.head, box))
        return rounds.finish(
            outcome, box, requests,
            good_share=first["deadline_attainment"], op_label="run() ms",
        )

    def trace(self, state: ControlState, seconds: float) -> Outcome:
        outcome = Outcome()
        requests = len(state.trace)
        recorder = SpanRecorder()
        untraced, traced, runs, references = [], [], [], []
        no_placer, plain, sweeps = [], [], []
        first = None
        result = tracer = None
        for _ in timed_rounds(seconds, state.sizes["min_rounds"]):
            references.append(reference_seconds())
            parts = self.parts(state)
            tracer = parts["tracer"]
            (start, built, ran, done), result = self._rep(state.requests, parts)
            untraced.append(done - start)
            runs.append(ran - built)
            exact = self._exact(result, requests, tracer)
            first = exact if first is None else first
            _check_rep(outcome, exact, first, self.name)

            parts = self.parts(state)
            for layer, key, methods in CONTROL_PROXIES:
                for method in methods:
                    recorder.wrap(parts[key], method, f"{key}.{method}", layer)
            (start, _, _, done), wrapped = self._rep(state.requests, parts, recorder)
            traced.append(done - start)
            _check_rep(
                outcome, self._exact(wrapped, requests, parts["tracer"]), first, self.name
            )

            # Ablation, where ClusterEngine builds the object from a name.
            parts = self.parts(state)
            del parts["placer"]
            (_, built, ran, _), _ = self._rep(state.requests, parts)
            no_placer.append(ran - built)
            plain.append(self._plain_seconds_per_batch(state.head))
            sweeps.append(_fastest(lambda: _sweep_seconds(state.trace)))
        recorder.write(OUT_DIR / f"trace-{self.name}.json", self.name)

        # Post-run reporting layers, timed once on the last untraced rep.
        start = time.perf_counter()
        timeline = result.timeline()
        timeline_s = time.perf_counter() - start
        start = time.perf_counter()
        registry = registry_from_cluster(result)
        registry_s = time.perf_counter() - start
        start = time.perf_counter()
        prometheus_exposition(registry)
        prometheus_s = time.perf_counter() - start
        start = time.perf_counter()
        to_chrome_trace(
            tracer, timeline=timeline, server_names=[s.name for s in result.specs]
        )
        chrome_s = time.perf_counter() - start

        batches = first["batches"]
        windows = int(state.sizes["duration"])
        reps = len(traced)
        layer_s = recorder.layer_seconds()
        calls = recorder.layer_calls()
        run_s = quietest(runs)
        plain_s = quietest(plain)

        def per(layer: str, unit_count: float) -> float:
            return layer_s.get(layer, 0.0) / reps / max(unit_count, 1) * 1e6

        outcome.values = {
            **state.split,
            **_sim_values(first),
            "sim.deadline_attainment": first["deadline_attainment"],
            "serving.schedulers.edf_us_per_batch": per("serving.schedulers.edf", batches),
            "serving.policies.select_us_per_batch": per("serving.policies.select", batches),
            "serving.cluster.autoscaler_us_per_window": per("serving.cluster.autoscaler", windows),
            "serving.resilience.migration_us_per_victim": per(
                "serving.resilience.migration", first["migrated"]
            ),
            "obs.slo.observe_us_per_window": per("obs.slo.observe", windows),
            "obs.tracing.hooks_us_per_batch": per("obs.tracing.hooks", batches),
            "serving.cluster.self_us_per_batch": per("serving.cluster.self", batches),
            "serving.placement.place_us_per_batch": (
                (run_s - quietest(no_placer)) / batches * 1e6
            ),
            "serving.cluster.plain_us_per_batch": plain_s * 1e6,
            "serving.cluster.control_over_plain_ratio": run_s / batches / plain_s,
            "serving.cluster.control_over_fifo_ratio": run_s / quietest(sweeps),
            "serving.cluster.run_p50_s": median(runs),
            "serving.cluster.us_per_batch": run_s / batches * 1e6,
            "serving.telemetry.timeline_s": timeline_s,
            "obs.registry.build_s": registry_s,
            "obs.export.prometheus_s": prometheus_s,
            "obs.export.chrome_trace_s": chrome_s,
            "serving.cluster.windows": calls.get("obs.slo.observe", 0) / reps,
            "serving.cluster.scale_events": first["scale_events"],
            "serving.resilience.fault_events": first["fault_events"],
            "serving.resilience.migrated": first["migrated"],
            "obs.slo.alerts": first["alerts"],
            "obs.tracing.spans": first["spans"],
            **bench_values(references, traced, untraced, len(recorder)),
        }
        return outcome


# ----------------------------------------------------------------------
# day_stream
# ----------------------------------------------------------------------
@dataclass
class StreamState:
    sizes: Dict[str, float]
    trace: RequestTrace
    seconds: List[List[Request]]  # materialised requests per simulated second
    head: List[Request]           # the first seconds, for the bulk reference
    split: Dict[str, float] = field(default_factory=dict)


class DayStream:
    """The FIFO engine driven incrementally: submit a second, step it dry."""

    name = "day_stream"
    SIZES = {
        "full": dict(duration=26.0, head=8, min_rounds=4),
        "tiny": dict(duration=2.0, head=1, min_rounds=2),
    }

    def setup(self, seed: int, scale: str) -> StreamState:
        sizes = self.SIZES[scale]
        start = time.perf_counter()
        trace = _diurnal(750, 3250, sizes["duration"], seed)
        generate_s = time.perf_counter() - start
        start = time.perf_counter()
        requests = requests_from_trace(trace, model=MODEL)
        materialize_s = time.perf_counter() - start
        seconds: List[List[Request]] = [[] for _ in range(int(sizes["duration"]) + 1)]
        for request in requests:
            seconds[int(request.arrival_time)].append(request)
        state = StreamState(
            sizes=sizes, trace=trace, seconds=seconds,
            head=[r for chunk in seconds[: int(sizes["head"])] for r in chunk],
            split={
                "data.traces.generate_s": generate_s,
                "serving.engine.materialize_s": materialize_s,
            },
        )
        self._rep(state)  # discarded warm-up rep
        return state

    def _rep(self, state: StreamState, recorder: Optional[SpanRecorder] = None):
        """One streamed day; returns the clock at (start, done), at each
        simulated second's (submit, last step returned), the number of
        steps and the result."""
        span = recorder.span if recorder is not None else no_span
        cycles = np.empty((len(state.seconds), 2))
        steps = 0
        with span("rep", "bench.rep"):
            start = time.perf_counter()
            with span("ServingEngine()+start", "serving.engine.build"):
                engine = fifo_engine()
                engine.start(record_responses=True)
            try:
                for second, chunk in enumerate(state.seconds):
                    began = time.perf_counter()
                    with span("submit", "serving.engine.submit"):
                        engine.submit(chunk)
                    while True:
                        with span("step", "serving.engine.step_fifo"):
                            record = engine.step()
                        if record is None:
                            break
                        steps += 1
                    cycles[second] = began, time.perf_counter()
                with span("finish", "serving.engine.finish"):
                    result = engine.finish()
            except BaseException:
                engine.abort()
                raise
            with span("summary+to_json", "serving.engine.summary"):
                result.summary()
                result.to_json()
            done = time.perf_counter()
        return (start, done), cycles, steps, result

    @staticmethod
    def _bulk_seconds_per_batch(state: StreamState, box: BoxSpeed) -> float:
        """``run(requests=...)`` over the first seconds: the same object loop,
        everything admitted up front (host seconds at reference speed)."""
        engine = fifo_engine()
        seconds, _, result = box.time(lambda: engine.run(requests=state.head))
        return seconds / len(result.batch_records)

    @staticmethod
    def _exact(result, submitted: int, steps: int) -> Dict[str, float]:
        responses = sum(1 for response in result.responses if response is not None)
        return {**_engine_outcome(result, submitted), "steps": steps, "responses": responses}

    def measure(self, state: StreamState, seconds: float) -> Outcome:
        outcome = Outcome()
        requests = len(state.trace)
        rounds = Rounds()
        first = None
        with BoxSpeed() as box:
            for _ in timed_rounds(seconds, state.sizes["min_rounds"]):
                (start, done), cycles, steps, result = self._rep(state)
                wall, measured = box.at_reference_speed(start, done)
                exact = self._exact(result, requests, steps)
                first = exact if first is None else first
                _check_rep(outcome, exact, first, self.name)
                if exact["responses"] != requests:
                    outcome.fail(1, "day_stream: a submitted request has no response")
                rounds.walls.append(wall)
                rounds.walls_measured.append(measured)
                # The p50 cycle, net of speed samples, at the rep's speed (a
                # 30 ms cycle sees too few samples to have a speed of its own).
                net = box.intervals_at_reference_speed(*cycles.T)[1]
                rounds.ops_ms.append(median(net) * (wall / measured) * 1e3)
                rounds.costs.append(wall / exact["batches"])
                rounds.baselines.append(self._bulk_seconds_per_batch(state, box))
        return rounds.finish(
            outcome, box, requests,
            good_share=first["served"] / requests, op_label="submit+step cycle p50 ms",
        )

    def trace(self, state: StreamState, seconds: float) -> Outcome:
        outcome = Outcome()
        requests = len(state.trace)
        recorder = SpanRecorder()
        untraced, traced, references = [], [], []
        first = None
        for _ in timed_rounds(seconds, state.sizes["min_rounds"]):
            references.append(reference_seconds())
            (start, done), _, steps, result = self._rep(state)
            untraced.append(done - start)
            exact = self._exact(result, requests, steps)
            first = exact if first is None else first
            _check_rep(outcome, exact, first, self.name)
            (start, done), _, steps, result = self._rep(state, recorder)
            traced.append(done - start)
            _check_rep(outcome, self._exact(result, requests, steps), first, self.name)
        recorder.write(OUT_DIR / f"trace-{self.name}.json", self.name)
        reps = len(traced)
        layer_s = recorder.layer_seconds()
        outcome.values = {
            **state.split,
            **_sim_values(first),
            "serving.engine.submit_us_per_request": (
                layer_s["serving.engine.submit"] / reps / requests * 1e6
            ),
            "serving.engine.step_fifo_us_per_batch": (
                layer_s["serving.engine.step_fifo"] / reps / first["batches"] * 1e6
            ),
            "serving.engine.finish_s": layer_s["serving.engine.finish"] / reps,
            "serving.engine.summary_s": layer_s["serving.engine.summary"] / reps,
            "serving.engine.steps": first["steps"],
            **bench_values(references, traced, untraced, len(recorder)),
        }
        return outcome
