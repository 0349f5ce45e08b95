"""Standalone perf smoke test for the prepared-kernel cache.

Measures repeated quantized inference (the serving steady state: every
forward after ``freeze()`` + ``configure()``) on ResNet-18 and ViT-small,
comparing the prepared-kernel fast path against the uncached reference
implementation (the seed behaviour, which re-derives all weight-side state
from the float weights on every call).  Two granularities are reported:

* ``quantized`` -- the microbenchmark proper: repeated forwards through the
  model's quantized (FlexiQ) layers on captured activations, isolating the
  path the prepared-kernel subsystem optimizes;
* ``end_to_end`` -- full model forwards, which additionally include the
  float glue (batch norm, activations, attention softmax, residuals);
* ``serving`` -- sustained requests/second through the serving engine's
  ``RuntimeExecutor`` at batch 8 with a heterogeneous-ratio batch stream
  (round-robin over the runtime's available ratios), the serving hot path
  the unified ``ServingEngine`` API optimizes.  The measurement also counts
  prepared-kernel rebuilds, which must stay at zero: per-batch ratio
  switching is an O(1) variable update.

A top-level ``cluster_scaling`` section exercises the PR 3 multi-server
dispatch layer: one ``ServingEngine`` coordinating K modeled accelerators
under a saturating Poisson trace.  Throughput (served requests per second
of simulated makespan) must scale near-linearly in K while every server
stays busy; the recorded efficiency is throughput(K) / (K * throughput(1)).

A ``heterogeneous_placement`` section exercises the PR 4 cluster control
plane: a mixed-speed cluster (one fast GPU, two slow NPUs) serves the same
near-capacity trace under the seed argmin-free-clock dispatch and under the
speed-aware placers (least-outstanding-work, weighted-by-speed).  The smart
placers must win throughput *and* p99 strictly — free-clock keeps handing
head-of-line batches to idle slow servers, stretching the makespan.  The
workload is a deterministic simulation, so the gate is exact, not a timing
threshold.

A ``fault_tolerance`` section exercises the PR 5 resilience subsystem: a
three-GPU cluster with per-request deadlines loses one server mid-run.
Without migration the crashed server's in-flight and pinned batches are
lost work (drops = deadline misses) and the run falls below a 99%
deadline-attainment SLO; with preemption & migration every victim is
requeued, re-placed and served — 100% conservation, SLO met.  Also exact:
the schedules are deterministic.

A ``failure_domains`` section exercises the PR 6 failure-domain layer on
the exact ``examples/zone_outage.py`` scenario (imported, so the demo and
the gate cannot drift): a whole zone — two of four active servers — fails
as a unit.  The flat single-domain cluster misses the deadline-attainment
SLO; reactive cold standby meets it but pays the provisioning lag; spread
placement + warm spares meet it with the lowest p99 (promotion latency
only).  Deterministic, so the gates are exact.

A ``continuous_batching`` section exercises the PR 7 generation subsystem
on the exact ``examples/continuous_batching.py`` scenario (imported, same
no-drift rule): a mixed prompt-/generation-length trace served by static
run-to-completion batching and by the iteration-level scheduler.
Continuous batching must beat static on both TTFT p99 and tokens/sec, and
the decode-pressure ratio policy must switch precision mid-sequence.
Modeled costs with a fixed trace seed, so these gates are exact too.

Run it directly (finishes well under 60 s with a warm pretrain cache)::

    PYTHONPATH=src python benchmarks/perf_smoke.py

It prints a summary table, verifies that prepared and uncached outputs are
bit-exact, and writes ``benchmarks/out/BENCH_prepared_kernels.json`` (not
tracked: the repo's perf record is ``bench/`` + ``BENCHMARK.json``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:  # allow `python benchmarks/perf_smoke.py`
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from repro.core import FlexiQConfig, FlexiQPipeline
from repro.core.prepared import PreparedKernel
from repro.core.runtime import FlexiQConv2d, FlexiQLinear, FlexiQModel
from repro.core.selection import SelectionConfig
from repro.data import CalibrationSampler
from repro.nn.registry import get_spec
from repro.hardware.npu import NpuConfig
from repro.serving import (
    BatchingConfig,
    ClusterEngine,
    FaultSchedule,
    FixedRatioPolicy,
    ModeledExecutor,
    Request,
    RequeueAtHeadMigration,
    RoundRobinRatioPolicy,
    RuntimeExecutor,
    ServiceTimeModel,
    ServingEngine,
    gpu_server,
    npu_server,
    requests_from_trace,
)
from repro.tensor import Tensor
from repro.train.pretrain import get_dataset_for, get_pretrained

# Wall-clock numbers: a git-ignored directory, so a run leaves the tree clean.
RESULTS_PATH = Path(__file__).resolve().parent / "out" / "BENCH_prepared_kernels.json"

MODELS = ("resnet18", "vit_small")
BENCH_RATIO = 0.5
BATCH = 1
SERVING_BATCH = 8
SERVING_REQUESTS = 64
SERVING_ROUNDS = 3
CLUSTER_SIZES = (1, 2, 4)
CLUSTER_RATE = 12000        # req/s: saturates even the largest cluster
CLUSTER_DURATION = 2.0
HETERO_RATE = 3000          # req/s: ~90% of the mixed cluster's capacity
HETERO_DURATION = 2.0
HETERO_PLACERS = ("free_clock", "least_work", "weighted")
FAULT_RATE = 3000           # req/s over the 3-GPU fault-tolerance cluster
FAULT_DURATION = 6.0
FAULT_CRASH_AT, FAULT_RECOVER_AT = 2.0, 4.0
FAULT_DEADLINE = 0.8        # relative per-request deadline (seconds)
FAULT_SLO = 0.99            # deadline-attainment target

# PR 8 cluster_day workload: a compressed diurnal "day" of >= 1M requests
# over an 8-server cluster, swept through the columnar event-driven core.
DAY_NIGHT_RATE = 3000       # req/s trough of the diurnal curve
DAY_PEAK_RATE = 13000       # req/s midday peak
DAY_DURATION = 130.0        # seconds of simulated time (~1.04M requests)
DAY_SEED = 8
DAY_SERVERS = 8
DAY_MAX_BATCH = 16
DAY_DROP_AFTER = 0.1        # overload sheds instead of queueing unboundedly
DAY_SLICE = 100_000         # head slice used for the vs-seed-loop speedup
DAY_MIN_REQUESTS = 1_000_000
DAY_WALL_BUDGET_S = 30.0    # generous ceiling; measured ~0.3-0.4 s
DAY_PEAK_TRACED_MB = 512.0  # tracemalloc peak budget for the full-day run
DAY_SPEEDUP_TARGET = 10.0   # columnar core vs object loop on the 100k slice

# PR 9 observability overheads on the cluster_day workload: attaching the
# tracing hooks but leaving them disabled must be free (the `tracer is
# None` guards), and sampled tracing must stay cheap enough to leave on.
OBS_SAMPLE_RATE = 0.01      # head-based sampling rate for the traced run
OBS_OFF_OVERHEAD_PCT = 2.0  # tracer=None day vs the cluster_day baseline
OBS_ON_OVERHEAD_PCT = 15.0  # sampled-tracer day vs the tracer=None day


def build_runtime(name: str) -> tuple:
    """FlexiQ runtime (greedy selection: fast, deterministic) plus its data."""
    model = get_pretrained(name)
    dataset = get_dataset_for(name)
    spec = get_spec(name)
    calibration = CalibrationSampler(
        dataset.train_images, size=spec.calibration_size, batch_size=32, seed=0
    )
    config = FlexiQConfig(
        ratios=(0.25, 0.5, 1.0),
        group_size=4,
        selection="greedy",
        selection_config=SelectionConfig(group_size=4),
    )
    runtime = FlexiQPipeline(model, calibration.all(), config).run()
    return runtime, dataset


def capture_layer_inputs(runtime: FlexiQModel, x: Tensor) -> list:
    """(layer, input) pairs for every FlexiQ layer, captured in one forward."""
    layers = [
        (name, module)
        for name, module in runtime.model.named_modules()
        if isinstance(module, (FlexiQConv2d, FlexiQLinear))
    ]
    captured = {}
    originals = {}
    for name, module in layers:
        def wrap(t, _name=name, _forward=module.forward):
            captured[_name] = t
            return _forward(t)

        originals[name] = module.forward
        module.forward = wrap
    try:
        runtime(x)
    finally:
        for name, module in layers:
            module.forward = originals[name]
    return [(module, captured[name]) for name, module in layers if name in captured]


def best_of(fn, reps: int, rounds: int = 5) -> float:
    """Best mean over ``rounds`` timing rounds (robust to machine noise)."""
    fn()
    fn()
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - start) / reps)
    return best


def check_bit_exact(runtime: FlexiQModel, x: Tensor) -> None:
    for ratio in runtime.available_ratios:
        runtime.set_ratio(ratio)
        runtime.prepare(use_prepared=True)
        fast = runtime(x).data.copy()
        runtime.prepare(use_prepared=False)
        slow = runtime(x).data.copy()
        if not np.array_equal(fast, slow):
            raise AssertionError(
                f"prepared path is not bit-exact at ratio {ratio}"
            )
    runtime.prepare(use_prepared=True)


def bench_serving(runtime: FlexiQModel, dataset) -> dict:
    """Requests/s through the serving engine's RuntimeExecutor at batch 8.

    All requests arrive at once so every batch is full; the ratio policy
    round-robins over the runtime's available ratios, making consecutive
    batches heterogeneous (each one switches the prepared runtime's ratio).
    Throughput is served requests per second of measured accelerator busy
    time, best of ``SERVING_ROUNDS`` engine runs.
    """
    runtime.prepare(use_prepared=True)
    ratios = runtime.available_ratios
    images = dataset.train_images
    for ratio in ratios:  # warm every boundary plane before instrumenting
        runtime.forward_batch(images[:1], ratio=ratio)
    requests = [
        Request(arrival_time=0.0, model="m", payload=images[i % len(images)])
        for i in range(SERVING_REQUESTS)
    ]
    executor = RuntimeExecutor(runtime)
    engine = ServingEngine(BatchingConfig(max_batch=SERVING_BATCH))
    engine.register("m", executor, policy=RoundRobinRatioPolicy(ratios))

    builds_before = PreparedKernel.build_count
    planes_before = PreparedKernel.plane_build_count
    best, best_switches = None, 0
    for _ in range(SERVING_ROUNDS):
        switches_before = executor.ratio_switches
        outcome = engine.run(requests=requests, record_responses=False)
        round_switches = executor.ratio_switches - switches_before
        if best is None or outcome.requests_per_busy_second > best.requests_per_busy_second:
            best, best_switches = outcome, round_switches

    return {
        "batch": SERVING_BATCH,
        "requests": SERVING_REQUESTS,
        "batches": len(best.batch_records),
        "requests_per_s": round(best.requests_per_busy_second, 2),
        "distinct_ratios": len(set(best.batch_ratios)),
        "ratio_switches": best_switches,
        "kernel_builds": PreparedKernel.build_count - builds_before,
        "plane_builds": PreparedKernel.plane_build_count - planes_before,
    }


def bench_cluster_scaling() -> dict:
    """Throughput scaling of the multi-server dispatch layer (PR 3).

    One modeled ViT-Base/A6000 endpoint behind a ``ServingEngine`` with K
    servers, driven by a Poisson trace heavy enough to keep every server
    saturated (INT8 capacity is ~1.7k req/s per server at batch 64).  The
    run uses explicit requests with no fixed duration, so throughput is
    served requests per second of simulated makespan -- which halves every
    time K doubles as long as dispatch keeps all servers busy.  Also timed:
    the real wall-clock cost of the discrete-event loop per served request
    (the engine overhead the fast FIFO array path keeps small).
    """
    from repro.data.traces import PoissonTrace

    service = ServiceTimeModel("vit_base", gpu="a6000", anchor_batches=(1, 16, 64, 128))
    trace = PoissonTrace(CLUSTER_RATE, duration=CLUSTER_DURATION, seed=21).generate()
    requests = requests_from_trace(trace, model="m")

    servers = {}
    base_rps = None
    for k in CLUSTER_SIZES:
        engine = ServingEngine(BatchingConfig(max_batch=64), num_servers=k)
        engine.register("m", ModeledExecutor(service), mode="int8")
        wall_start = time.perf_counter()
        outcome = engine.run(requests=requests, record_responses=False)
        wall = time.perf_counter() - wall_start
        rps = outcome.throughput
        if base_rps is None:
            base_rps = rps
        servers[str(k)] = {
            "requests_per_s": round(rps, 1),
            "scaling_efficiency": round(rps / (k * base_rps), 3),
            "batches": len(outcome.batch_records),
            "dispatch_us_per_request": round(wall / len(requests) * 1e6, 2),
        }
    return {
        "model": "vit_base",
        "mode": "int8",
        "rate": CLUSTER_RATE,
        "requests": len(requests),
        "max_batch": 64,
        "servers": servers,
    }


def bench_heterogeneous_placement() -> dict:
    """Placement rules on a mixed-speed cluster (PR 4 control plane).

    One fast GPU (L40S) plus two scaled-up NPUs (64x64 array at 800 MHz:
    slow but not useless) serve a Poisson trace at ~90% of combined
    capacity.  Throughput is served requests per second of simulated
    makespan; under argmin-free-clock an *idle* slow server always has the
    earliest clock and keeps stealing head-of-line batches, so the run
    drags a slow-server tail.  The speed-aware placers route those batches
    to the fast GPU unless a slow server would genuinely finish first, and
    must therefore beat free-clock on throughput and p99 alike.
    """
    from repro.data.traces import PoissonTrace

    npu_config = NpuConfig(array_rows=64, array_cols=64, clock_mhz=800.0)
    specs = [
        gpu_server("gpu0", "vit_base", gpu="l40s"),
        npu_server("npu0", "vit_base", config=npu_config),
        npu_server("npu1", "vit_base", config=npu_config),
    ]
    trace = PoissonTrace(HETERO_RATE, duration=HETERO_DURATION, seed=33).generate()
    requests = requests_from_trace(trace, model="m")

    placers = {}
    for name in HETERO_PLACERS:
        cluster = ClusterEngine(
            specs,
            BatchingConfig(max_batch=64),
            placer=None if name == "free_clock" else name,
        )
        cluster.register("m", mode="int8")
        outcome = cluster.run(requests=requests, record_responses=False)
        placers[name] = {
            "requests_per_s": round(outcome.throughput, 1),
            "p50_ms": round(outcome.latency_percentile(50) * 1e3, 2),
            "p99_ms": round(outcome.p99_latency * 1e3, 2),
            "served": int(outcome.latencies.size),
            "busy_seconds": round(outcome.server_seconds, 3),
        }
    base = placers["free_clock"]["requests_per_s"]
    return {
        "model": "vit_base",
        "mode": "int8",
        "rate": HETERO_RATE,
        "requests": len(requests),
        "max_batch": 64,
        "servers": [
            {"name": s.name, "device": s.device, "speed_rps": round(s.speed, 1)}
            for s in specs
        ],
        "placers": placers,
        "weighted_speedup_vs_free_clock": round(
            placers["weighted"]["requests_per_s"] / base, 3
        ),
        "least_work_speedup_vs_free_clock": round(
            placers["least_work"]["requests_per_s"] / base, 3
        ),
    }


def bench_fault_tolerance() -> dict:
    """Crash survival on a deadline-SLO cluster (PR 5 resilience subsystem).

    Three modeled A6000 ViT-Base servers serve a Poisson trace whose every
    request carries a relative deadline; server 0 crashes mid-run and later
    recovers.  The non-migrating run loses the crashed server's unfinished
    batches (dropped requests = deadline misses) and falls below the
    deadline-attainment SLO; with a requeue-at-head migration policy the
    victims restart on the surviving servers (migration latency charged
    explicitly) and the SLO holds with zero lost requests.
    """
    from repro.data.traces import PoissonTrace

    trace = PoissonTrace(FAULT_RATE, duration=FAULT_DURATION, seed=5).generate()
    requests = requests_from_trace(trace, model="m", deadlines=[FAULT_DEADLINE])

    def run(migration):
        cluster = ClusterEngine(
            [gpu_server(f"g{i}", "vit_base", gpu="a6000") for i in range(3)],
            BatchingConfig(max_batch=64),
            fault_schedule=FaultSchedule.single_crash(
                0, at=FAULT_CRASH_AT, recover_at=FAULT_RECOVER_AT
            ),
            migration=migration,
            window=0.25,
        )
        cluster.register("m", mode="int8")
        outcome = cluster.run(requests=requests)
        return {
            "deadline_attainment": round(outcome.deadline_attainment(), 5),
            "slo_met": bool(outcome.deadline_attainment() >= FAULT_SLO),
            "served": int(outcome.latencies.size),
            "lost": int(outcome.result.dropped),
            "migrated": int(outcome.migrated),
            "p99_ms": round(outcome.p99_latency * 1e3, 2),
        }

    return {
        "model": "vit_base",
        "mode": "int8",
        "rate": FAULT_RATE,
        "requests": len(requests),
        "deadline_s": FAULT_DEADLINE,
        "slo_attainment_target": FAULT_SLO,
        "crash_at_s": FAULT_CRASH_AT,
        "recover_at_s": FAULT_RECOVER_AT,
        "no_migration": run(None),
        "migration": run(RequeueAtHeadMigration(delay=0.01)),
    }


def bench_failure_domains() -> dict:
    """Zone outage vs spread placement + warm spares (PR 6 failure domains).

    Runs the ``examples/zone_outage.py`` scenario verbatim: zones A and B
    hold two A6000 ViT-Base servers each, zone C holds two reserve spares;
    zone A fails as a unit mid-run and recovers later.  Four deployments
    face the same schedule — no fault, the flat PR 5-style cluster
    (migration only), reactive cold standby (SLO autoscaler + provisioning
    lag) and spread placement + warm spares (promotion latency only).
    """
    import importlib.util

    path = ROOT / "examples" / "zone_outage.py"
    spec = importlib.util.spec_from_file_location("zone_outage_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    outcomes = module.outage_scenario()

    def row(outcome):
        promotions = [e for e in outcome.scale_events if e.action == "promote"]
        demotions = [e for e in outcome.scale_events if e.action == "demote"]
        return {
            "deadline_attainment": round(outcome.deadline_attainment(), 5),
            "slo_met": bool(
                outcome.deadline_attainment() >= module.ATTAINMENT_TARGET
            ),
            "served": int(outcome.latencies.size),
            "lost": int(outcome.result.dropped),
            "migrated": int(outcome.migrated),
            "promotions": len(promotions),
            "demotions": len(demotions),
            "p99_ms": round(outcome.p99_latency * 1e3, 2),
        }

    warm = outcomes["spread + warm spares"]
    cold = outcomes["cold standby"]
    return {
        "model": "vit_base",
        "mode": "int8",
        "rate": module.RATE,
        "zones": list(module.ZONES),
        "deadline_s": module.DEADLINE_SLO,
        "slo_attainment_target": module.ATTAINMENT_TARGET,
        "outage_at_s": module.OUTAGE_AT,
        "recover_at_s": module.RECOVER_AT,
        "promotion_latency_s": module.PROMOTION_LATENCY,
        "cold_provision_s": module.COLD_DELAY,
        "no_fault": row(outcomes["no fault"]),
        "flat": row(outcomes["flat (single-domain)"]),
        "cold_standby": row(cold),
        "warm_spares": row(warm),
        "warm_p99_advantage_ms": round(
            (cold.p99_latency - warm.p99_latency) * 1e3, 2
        ),
    }


def bench_continuous_batching() -> dict:
    """Iteration-level scheduling vs run-to-completion (PR 7 generation).

    Runs the ``examples/continuous_batching.py`` scenario verbatim: a mixed
    prompt-/generation-length Poisson trace on one modeled A6000 server,
    served by static admit-once batching and by the continuous
    ``IterationScheduler`` (FCFS, prefill-priority, and prefill-priority
    with the decode-pressure mid-sequence precision policy).  The gate is
    the headline claim: continuous beats static on **both** TTFT p99 and
    tokens/sec on the identical trace.
    """
    import importlib.util

    path = ROOT / "examples" / "continuous_batching.py"
    spec = importlib.util.spec_from_file_location("continuous_batching_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    outcomes = module.generation_scenario()

    def row(result):
        stream = result.streaming((50, 99))
        return {
            "requests": len(result.responses),
            "tokens": int(result.tokens),
            "tokens_per_sec": round(stream["tokens_per_sec"], 2),
            "ttft_p50_ms": round(stream["ttft_p50"] * 1e3, 3),
            "ttft_p99_ms": round(stream["ttft_p99"] * 1e3, 3),
            "inter_token_p99_ms": round(stream["inter_token_p99"] * 1e3, 3),
            "makespan_s": round(result.duration, 4),
            "iterations": len(result.iterations),
        }

    static = outcomes["run-to-completion"]
    continuous = outcomes["continuous (fcfs)"]
    adaptive = outcomes["continuous (decode-pressure int4)"]
    static_stream = static.streaming((99,))
    continuous_stream = continuous.streaming((99,))
    return {
        "model": "vit_base",
        "rate": module.RATE,
        "max_batch": module.MAX_BATCH,
        "prompt_tokens": list(module.PROMPT_TOKENS),
        "new_tokens": list(module.NEW_TOKENS),
        "static": row(static),
        "continuous": row(continuous),
        "prefill_priority": row(outcomes["continuous (prefill-priority)"]),
        "decode_pressure": row(adaptive),
        "ratio_switches": int(module.ratio_switches(adaptive)),
        "ttft_p99_speedup": round(
            static_stream["ttft_p99"] / continuous_stream["ttft_p99"], 3
        ),
        "throughput_speedup": round(
            continuous_stream["tokens_per_sec"] / static_stream["tokens_per_sec"],
            3,
        ),
    }


def _day_engine(
    columnar: bool = True, num_servers: int = DAY_SERVERS, tracer=None
) -> ServingEngine:
    engine = ServingEngine(
        BatchingConfig(max_batch=DAY_MAX_BATCH, drop_after=DAY_DROP_AFTER),
        num_servers=num_servers,
        columnar=columnar,
        tracer=tracer,
    )
    engine.register(
        "m", ModeledExecutor(ServiceTimeModel()), policy=FixedRatioPolicy(0.5)
    )
    return engine


def bench_cluster_day() -> dict:
    """A million-request diurnal day through the columnar core (PR 8).

    A compressed diurnal trace (~1.04M requests: 3k req/s trough, 13k req/s
    peak) drains through an 8-server engine via the vectorized FIFO sweep.
    Reported and gated:

    * full-day wall clock (min of 2 runs) against ``DAY_WALL_BUDGET_S`` and
      tracemalloc peak (a separate, instrumented run — tracing taxes the
      timing) against ``DAY_PEAK_TRACED_MB``;
    * speedup of the columnar core over the pre-refactor object loop on the
      first ``DAY_SLICE`` requests (min-of-2 each; target >= 10x);
    * ``fifo_bit_identical`` — the unbreakable invariant: a K=1 FIFO run of
      the slice through the columnar core reproduces the object loop's (and
      so, by ``tests/test_serving_engine.py``, the seed simulator's)
      latencies, batch sizes and drop count bit-for-bit.
    """
    import resource
    import tracemalloc

    from repro.data.traces import DiurnalTrace, RequestTrace

    trace = DiurnalTrace(
        night_rate=DAY_NIGHT_RATE,
        peak_rate=DAY_PEAK_RATE,
        duration=DAY_DURATION,
        period=DAY_DURATION,
        num_phases=int(DAY_DURATION),
        seed=DAY_SEED,
    ).generate()
    num_requests = len(trace)

    day_wall = float("inf")
    day_outcome = None
    for _ in range(2):
        engine = _day_engine()
        start = time.perf_counter()
        outcome = engine.run(trace, model="m")
        elapsed = time.perf_counter() - start
        if elapsed < day_wall:
            day_wall, day_outcome = elapsed, outcome

    tracemalloc.start()
    _day_engine().run(trace, model="m")
    _, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    ru_maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    arrivals = trace.sorted_arrivals()[:DAY_SLICE]
    slice_trace = RequestTrace(np.asarray(arrivals), duration=float(arrivals[-1]))
    timings = {}
    for label, columnar in (("columnar", True), ("legacy", False)):
        best = float("inf")
        for _ in range(2):
            engine = _day_engine(columnar=columnar)
            start = time.perf_counter()
            engine.run(slice_trace, model="m")
            best = min(best, time.perf_counter() - start)
        timings[label] = best

    seed_result = _day_engine(columnar=False, num_servers=1).run(
        slice_trace, model="m"
    )
    k1_result = _day_engine(num_servers=1).run(slice_trace, model="m")
    fifo_bit_identical = bool(
        np.array_equal(seed_result.latencies, k1_result.latencies)
        and list(seed_result.batch_sizes) == list(k1_result.batch_sizes)
        and seed_result.dropped == k1_result.dropped
    )

    return {
        "night_rate": DAY_NIGHT_RATE,
        "peak_rate": DAY_PEAK_RATE,
        "duration_s": DAY_DURATION,
        "servers": DAY_SERVERS,
        "max_batch": DAY_MAX_BATCH,
        "drop_after_s": DAY_DROP_AFTER,
        "requests": num_requests,
        "served": int(day_outcome.latencies.size),
        "dropped": int(day_outcome.dropped),
        "batches": len(day_outcome.batch_records),
        "wall_seconds": round(day_wall, 4),
        "wall_budget_s": DAY_WALL_BUDGET_S,
        "requests_per_wall_second": round(num_requests / day_wall, 1),
        "peak_traced_mb": round(traced_peak / (1024.0 * 1024.0), 2),
        "peak_traced_budget_mb": DAY_PEAK_TRACED_MB,
        "ru_maxrss_mb": round(ru_maxrss_mb, 1),
        "slice_requests": DAY_SLICE,
        "slice_columnar_ms": round(timings["columnar"] * 1e3, 2),
        "slice_legacy_ms": round(timings["legacy"] * 1e3, 2),
        "slice_speedup": round(timings["legacy"] / timings["columnar"], 2),
        "speedup_target": DAY_SPEEDUP_TARGET,
        "fifo_bit_identical": fifo_bit_identical,
    }


def bench_observability(day: dict) -> dict:
    """Tracing overhead on the cluster_day workload (PR 9).

    Re-runs the full diurnal day twice through the columnar core: once with
    ``tracer=None`` (the disabled path — every hook is behind a ``tracer is
    None`` guard, so this must match the ``cluster_day`` baseline to within
    noise, gated at ``OBS_OFF_OVERHEAD_PCT``) and once with a sampled
    :class:`~repro.obs.Tracer` at ``OBS_SAMPLE_RATE`` (batch spans always
    recorded, per-request spans head-sampled; gated at
    ``OBS_ON_OVERHEAD_PCT`` over the disabled run).  The traced run's spans
    are exported to Chrome trace-event JSON and schema-validated, and the
    run's metrics registry is serialized to Prometheus text exposition and
    shape-checked — a malformed exporter fails the bench, not just a unit
    test.
    """
    from repro.data.traces import DiurnalTrace
    from repro.obs import (
        Tracer,
        prometheus_exposition,
        registry_from_engine,
        to_chrome_trace,
        validate_chrome_trace,
    )

    trace = DiurnalTrace(
        night_rate=DAY_NIGHT_RATE,
        peak_rate=DAY_PEAK_RATE,
        duration=DAY_DURATION,
        period=DAY_DURATION,
        num_phases=int(DAY_DURATION),
        seed=DAY_SEED,
    ).generate()

    off_wall = float("inf")
    for _ in range(3):
        engine = _day_engine(tracer=None)
        start = time.perf_counter()
        engine.run(trace, model="m")
        off_wall = min(off_wall, time.perf_counter() - start)

    on_wall = float("inf")
    tracer = None
    traced_result = None
    for _ in range(3):
        candidate = Tracer(sample_rate=OBS_SAMPLE_RATE)
        engine = _day_engine(tracer=candidate)
        start = time.perf_counter()
        result = engine.run(trace, model="m")
        elapsed = time.perf_counter() - start
        if elapsed < on_wall:
            on_wall, tracer, traced_result = elapsed, candidate, result

    baseline = float(day["wall_seconds"])
    off_overhead_pct = (off_wall - baseline) / baseline * 100.0
    on_overhead_pct = (on_wall - off_wall) / off_wall * 100.0

    chrome = to_chrome_trace(tracer)
    try:
        validate_chrome_trace(chrome)
        trace_valid = True
    except ValueError:
        trace_valid = False

    exposition = prometheus_exposition(registry_from_engine(traced_result))
    prometheus_valid = exposition.endswith("\n") and all(
        line.startswith(("# HELP ", "# TYPE "))
        or (len(line.rsplit(" ", 1)) == 2 and _parses_float(line.rsplit(" ", 1)[1]))
        for line in exposition.splitlines()
        if line
    )

    counts = tracer.span_counts()
    return {
        "sample_rate": OBS_SAMPLE_RATE,
        "requests": len(trace),
        "day_baseline_s": baseline,
        "tracer_off_wall_s": round(off_wall, 4),
        "tracer_on_wall_s": round(on_wall, 4),
        "off_overhead_pct": round(off_overhead_pct, 2),
        "off_overhead_budget_pct": OBS_OFF_OVERHEAD_PCT,
        "on_overhead_pct": round(on_overhead_pct, 2),
        "on_overhead_budget_pct": OBS_ON_OVERHEAD_PCT,
        "spans": len(tracer.store),
        "execute_spans": counts["execute"],
        "sampled_requests": counts["served"] + counts["dropped"],
        "trace_events": len(chrome["traceEvents"]),
        "trace_valid": trace_valid,
        "prometheus_lines": len(exposition.splitlines()),
        "prometheus_valid": bool(prometheus_valid),
    }


def _parses_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def bench_model(name: str, reps: int = 20) -> dict:
    runtime, dataset = build_runtime(name)
    x = Tensor(dataset.train_images[:BATCH])
    check_bit_exact(runtime, Tensor(dataset.train_images[:8]))
    runtime.set_ratio(BENCH_RATIO)

    pairs = capture_layer_inputs(runtime, x)

    def run_layers():
        for module, t in pairs:
            module(t)

    result = {"batch": BATCH, "ratio": BENCH_RATIO, "bit_exact": True}
    for key, fn in (("quantized", run_layers), ("end_to_end", lambda: runtime(x))):
        runtime.prepare(use_prepared=False)
        uncached = best_of(fn, reps)
        runtime.prepare(use_prepared=True)
        prepared = best_of(fn, reps)
        result[key] = {
            "uncached_ms": round(uncached * 1e3, 4),
            "prepared_ms": round(prepared * 1e3, 4),
            "speedup": round(uncached / prepared, 3),
        }
    result["serving"] = bench_serving(runtime, dataset)
    return result


SUMMARY_SECTIONS = (
    "meta",
    "cluster_scaling",
    "heterogeneous_placement",
    "fault_tolerance",
    "failure_domains",
    "continuous_batching",
    "cluster_day",
    "observability",
)


def render(results: dict) -> str:
    lines = [
        "Prepared-kernel cache -- repeated quantized inference "
        f"(batch {BATCH}, ratio {BENCH_RATIO})",
        f"{'model':>10} | {'scope':>10} | {'uncached':>10} | {'prepared':>10} | speedup",
        "-" * 62,
    ]
    for name, result in results.items():
        if name in SUMMARY_SECTIONS:
            continue
        for scope in ("quantized", "end_to_end"):
            row = result[scope]
            lines.append(
                f"{name:>10} | {scope:>10} | {row['uncached_ms']:>8.2f}ms "
                f"| {row['prepared_ms']:>8.2f}ms | {row['speedup']:.2f}x"
            )
    lines.append("")
    lines.append(
        f"Serving engine -- RuntimeExecutor, batch {SERVING_BATCH}, "
        "round-robin heterogeneous ratios"
    )
    for name, result in results.items():
        if name in SUMMARY_SECTIONS:
            continue
        row = result["serving"]
        lines.append(
            f"{name:>10} | {row['requests_per_s']:>8.1f} req/s | "
            f"{row['batches']} batches | {row['distinct_ratios']} ratios | "
            f"{row['kernel_builds']} kernel rebuilds"
        )
    cluster = results.get("cluster_scaling")
    if cluster:
        lines.append("")
        lines.append(
            f"Cluster scale-out -- modeled {cluster['model']} ({cluster['mode']}), "
            f"{cluster['rate']} req/s Poisson, max_batch {cluster['max_batch']}"
        )
        for k, row in cluster["servers"].items():
            lines.append(
                f"{'K=' + k:>10} | {row['requests_per_s']:>8.1f} req/s | "
                f"efficiency {row['scaling_efficiency']:.2f} | "
                f"{row['dispatch_us_per_request']:.1f} us dispatch/req"
            )
    hetero = results.get("heterogeneous_placement")
    if hetero:
        lines.append("")
        servers = ", ".join(
            f"{s['name']}~{s['speed_rps']:.0f}rps" for s in hetero["servers"]
        )
        lines.append(
            f"Heterogeneous placement -- {servers}; "
            f"{hetero['rate']} req/s Poisson"
        )
        for name, row in hetero["placers"].items():
            lines.append(
                f"{name:>12} | {row['requests_per_s']:>8.1f} req/s | "
                f"p50 {row['p50_ms']:>7.2f} ms | p99 {row['p99_ms']:>7.2f} ms"
            )
        lines.append(
            f"{'':>12} | weighted {hetero['weighted_speedup_vs_free_clock']:.3f}x, "
            f"least-work {hetero['least_work_speedup_vs_free_clock']:.3f}x "
            "vs argmin-free-clock"
        )
    fault = results.get("fault_tolerance")
    if fault:
        lines.append("")
        lines.append(
            f"Fault tolerance -- 3x GPU, server 0 crashes at "
            f"t={fault['crash_at_s']:g}s; {fault['deadline_s']:g}s deadlines, "
            f"SLO >= {fault['slo_attainment_target']:.0%} attainment"
        )
        for name in ("no_migration", "migration"):
            row = fault[name]
            lines.append(
                f"{name:>12} | attainment {row['deadline_attainment']:.4f} "
                f"({'met' if row['slo_met'] else 'MISSED'}) | "
                f"lost {row['lost']} | migrated {row['migrated']} | "
                f"p99 {row['p99_ms']:.1f} ms"
            )
    domains = results.get("failure_domains")
    if domains:
        lines.append("")
        lines.append(
            f"Failure domains -- zone A (2 of 4 active servers) fails at "
            f"t={domains['outage_at_s']:g}s; {domains['deadline_s']:g}s "
            f"deadlines, SLO >= {domains['slo_attainment_target']:.0%} attainment"
        )
        for name in ("no_fault", "flat", "cold_standby", "warm_spares"):
            row = domains[name]
            lines.append(
                f"{name:>12} | attainment {row['deadline_attainment']:.4f} "
                f"({'met' if row['slo_met'] else 'MISSED'}) | "
                f"lost {row['lost']} | migrated {row['migrated']} | "
                f"p99 {row['p99_ms']:.1f} ms"
            )
        lines.append(
            f"{'':>12} | warm promotion beats cold provisioning by "
            f"{domains['warm_p99_advantage_ms']:.0f} ms p99"
        )
    generation = results.get("continuous_batching")
    if generation:
        lines.append("")
        lines.append(
            f"Continuous batching -- {generation['rate']} gen req/s, prompts "
            f"{min(generation['prompt_tokens'])}-{max(generation['prompt_tokens'])} "
            f"tokens, max_batch {generation['max_batch']}"
        )
        for name in ("static", "continuous", "prefill_priority", "decode_pressure"):
            row = generation[name]
            lines.append(
                f"{name:>16} | {row['tokens_per_sec']:>8.1f} tok/s | "
                f"ttft p99 {row['ttft_p99_ms']:>8.2f} ms | "
                f"inter-tok p99 {row['inter_token_p99_ms']:>6.2f} ms | "
                f"makespan {row['makespan_s']:.2f} s"
            )
        lines.append(
            f"{'':>16} | continuous beats static {generation['ttft_p99_speedup']:.2f}x "
            f"ttft p99, {generation['throughput_speedup']:.2f}x tokens/sec; "
            f"{generation['ratio_switches']} mid-sequence ratio switches"
        )
    day = results.get("cluster_day")
    if day:
        lines.append("")
        lines.append(
            f"Cluster day -- {day['requests']:,} requests "
            f"({day['night_rate']}-{day['peak_rate']} req/s diurnal), "
            f"{day['servers']} servers, columnar event-driven core"
        )
        lines.append(
            f"{'full day':>12} | {day['wall_seconds']:.3f} s wall "
            f"(budget {day['wall_budget_s']:g} s) | "
            f"{day['requests_per_wall_second']:,.0f} req/s of wall | "
            f"peak {day['peak_traced_mb']:.0f} MB traced "
            f"(budget {day['peak_traced_budget_mb']:g} MB)"
        )
        lines.append(
            f"{'100k slice':>12} | columnar {day['slice_columnar_ms']:.1f} ms "
            f"vs object loop {day['slice_legacy_ms']:.1f} ms | "
            f"{day['slice_speedup']:.1f}x (target {day['speedup_target']:g}x) | "
            f"K=1 FIFO bit-identical: {day['fifo_bit_identical']}"
        )
    obs = results.get("observability")
    if obs:
        lines.append("")
        lines.append(
            f"Observability -- cluster day re-run, tracer sampling "
            f"{obs['sample_rate']:g}"
        )
        lines.append(
            f"{'overhead':>12} | off {obs['off_overhead_pct']:+.1f}% "
            f"(budget {obs['off_overhead_budget_pct']:g}%) | "
            f"on {obs['on_overhead_pct']:+.1f}% "
            f"(budget {obs['on_overhead_budget_pct']:g}%)"
        )
        lines.append(
            f"{'exports':>12} | {obs['spans']:,} spans -> "
            f"{obs['trace_events']:,} trace events "
            f"(valid: {obs['trace_valid']}) | "
            f"{obs['prometheus_lines']} exposition lines "
            f"(valid: {obs['prometheus_valid']})"
        )
    return "\n".join(lines)


def main() -> dict:
    start = time.perf_counter()
    results = {name: bench_model(name) for name in MODELS}
    results["cluster_scaling"] = bench_cluster_scaling()
    results["heterogeneous_placement"] = bench_heterogeneous_placement()
    results["fault_tolerance"] = bench_fault_tolerance()
    results["failure_domains"] = bench_failure_domains()
    results["continuous_batching"] = bench_continuous_batching()
    results["cluster_day"] = bench_cluster_day()
    results["observability"] = bench_observability(results["cluster_day"])
    results["meta"] = {
        "benchmark": "prepared_kernels",
        "models": list(MODELS),
        "batch": BATCH,
        "ratio": BENCH_RATIO,
        "wall_seconds": round(time.perf_counter() - start, 2),
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(render(results))
    print(f"\nwrote {RESULTS_PATH}")
    return results


if __name__ == "__main__":
    main()
