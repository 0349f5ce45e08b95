"""Multi-accelerator, SLO-aware serving on the unified engine (PR 3 tour).

Three scale-out stories on top of :class:`~repro.serving.ServingEngine`,
all with modeled ViT-Base/A6000 service times so the script runs in
seconds:

1. **Cluster scale-out** — one engine coordinating K identical servers,
   each with its own clock (and, for real execution, its own
   ``RuntimeExecutor`` and prepared-kernel cache).  Under a load that
   saturates a single accelerator, median latency collapses as K grows and
   throughput scales near-linearly.
2. **SLO-aware scheduling** — the same overloaded trace with per-request
   deadlines, served FIFO vs earliest-deadline-first.  EDF spends the
   scarce accelerator time on requests whose SLOs are still winnable and
   wins deadline attainment without touching throughput.
3. **Queue-aware ratio policy** — a context-aware policy
   (:class:`~repro.serving.QueueDepthRatioPolicy`) that raises the 4-bit
   ratio only while the queue is backed up: latency close to the all-4-bit
   deployment, accuracy close to the all-8-bit one.

Run with:  python examples/cluster_serving.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reports import format_table
from repro.data.traces import PoissonTrace
from repro.serving import (
    BatchingConfig,
    EdfScheduler,
    FixedRatioPolicy,
    ModeledExecutor,
    QueueDepthRatioPolicy,
    ServiceTimeModel,
    ServingEngine,
    requests_from_trace,
)


def build_engine(service, num_servers=1, scheduler=None, policy=None, mode="int8"):
    engine = ServingEngine(
        BatchingConfig(max_batch=64), num_servers=num_servers, scheduler=scheduler
    )
    engine.register("vit", ModeledExecutor(service), policy=policy, mode=mode)
    return engine


def main() -> None:
    service = ServiceTimeModel("vit_base", gpu="a6000", anchor_batches=(1, 16, 64, 128))
    trace = PoissonTrace(6000, duration=3.0, seed=42).generate()
    requests = requests_from_trace(trace, model="vit")
    print(f"Trace: {len(requests)} requests over {trace.duration:.0f}s "
          f"(~{trace.average_rate:.0f} req/s, INT8 capacity ~1.7k req/s/server)")

    # ------------------------------------------------------------------
    # 1. Cluster scale-out
    # ------------------------------------------------------------------
    rows = []
    for k in (1, 2, 4, 8):
        outcome = build_engine(service, num_servers=k).run(
            requests=requests, record_responses=False
        )
        rows.append([
            f"K={k}",
            outcome.throughput,
            outcome.median_latency * 1e3,
            outcome.p90_latency * 1e3,
            min(outcome.server_busy_times) / max(outcome.server_busy_times),
        ])
    print(format_table(
        ["cluster", "req/s", "median (ms)", "p90 (ms)", "load balance"],
        rows, precision=2,
        title="\n1. Multi-server dispatch (modeled ViT-Base, INT8)",
    ))

    # ------------------------------------------------------------------
    # 2. FIFO vs earliest-deadline-first under overload
    # ------------------------------------------------------------------
    # Moderate overload for the scheduling stories: ~1.2x the 2-server INT8
    # capacity, so part of the SLOs stay winnable and the queue can drain.
    slo_trace = PoissonTrace(4200, duration=3.0, seed=43).generate()
    rng = np.random.default_rng(7)
    arrivals = np.sort(np.asarray(slo_trace.arrival_times))
    slo_requests = requests_from_trace(slo_trace, model="vit")
    for i, request in enumerate(slo_requests):
        tight = rng.random() < 0.5
        request.deadline = float(arrivals[i]) + (0.15 if tight else 1.5)

    rows = []
    for label, scheduler in (("FIFO", None), ("EDF (SLO-aware)", EdfScheduler())):
        engine = build_engine(service, num_servers=2, scheduler=scheduler)
        outcome = engine.run(requests=slo_requests)
        lateness = np.asarray([
            response.finish_time - response.deadline
            for response in outcome.responses if not response.dropped
        ])
        rows.append([
            label,
            outcome.deadline_attainment() * 100.0,
            float(np.percentile(lateness, 99)) * 1e3,
            outcome.throughput,
        ])
    print(format_table(
        ["scheduler", "SLOs met (%)", "p99 lateness (ms)", "req/s"],
        rows, precision=2,
        title="\n2. Deadline attainment on a 2-server cluster (mixed 150ms/1.5s SLOs)",
    ))

    # ------------------------------------------------------------------
    # 3. Queue-aware ratio policy (accuracy only when it is free)
    # ------------------------------------------------------------------
    accuracy = {0.0: 84.72, 0.5: 84.67, 1.0: 83.81}
    deployments = [
        ("INT8 fixed", FixedRatioPolicy(0.0)),
        ("INT4 fixed", FixedRatioPolicy(1.0)),
        ("queue-aware", QueueDepthRatioPolicy({32: 0.5, 128: 1.0})),
    ]
    rows = []
    for label, policy in deployments:
        engine = build_engine(service, num_servers=2, policy=policy, mode="flexiq")
        outcome = engine.run(requests=slo_requests, record_responses=False)
        mean_ratio = outcome.mean_executed_ratio
        nearest = min(accuracy, key=lambda r: abs(r - mean_ratio))
        rows.append([
            label,
            outcome.median_latency * 1e3,
            outcome.p90_latency * 1e3,
            mean_ratio,
            accuracy[nearest],
        ])
    print(format_table(
        ["deployment", "median (ms)", "p90 (ms)", "mean 4-bit ratio", "~accuracy (%)"],
        rows, precision=2,
        title="\n3. Batch-size-aware ratio policy (2 servers, flexiq mode)",
    ))


if __name__ == "__main__":
    main()
