"""Elastic heterogeneous serving: the cluster control plane in one scenario.

A day of traffic in twenty simulated seconds: a diurnal cycle (night floor,
midday peak) with a flash-crowd spike superimposed on the ramp, served by a
heterogeneous cluster — two datacenter GPUs plus two scaled-up NPUs — under
:class:`~repro.serving.ClusterEngine`:

1. **Heterogeneous placement** — the same trace dispatched argmin-free-clock
   (the seed rule) vs least-outstanding-work vs weighted-by-speed.  The
   speed-aware placers stop feeding head-of-line batches to idle slow NPUs,
   winning throughput *and* tail latency on the mixed cluster.
2. **Elastic autoscaling** — a static minimal deployment (one GPU) misses a
   p99 SLO the spike tramples; the autoscaled cluster (windowed p99
   telemetry, hysteresis, provisioning lag) scales 1 -> 4 servers through
   the spike, meets the SLO, then shrinks back — paying far fewer
   server-seconds than a static fleet sized for the peak.
3. **Per-server adaptation** — the paper's ratio controller, finally fed
   per-server telemetry: each server raises its own 4-bit ratio only while
   *it* is the loaded one.

Run with:  python examples/autoscaling_cluster.py
"""

from __future__ import annotations

from repro.analysis.reports import format_table
from repro.core.controller import AdaptiveRatioController, build_profile_from_latency_fn
from repro.data.traces import DiurnalTrace, SpikeTrace, merge_traces
from repro.hardware.npu import NpuConfig
from repro.serving import (
    BatchingConfig,
    ClusterEngine,
    PerServerAdaptiveRatioPolicy,
    SloLatencyAutoscaler,
    gpu_server,
    npu_server,
    requests_from_trace,
)

SLO_SECONDS = 0.5  # p99 response-time target


def build_trace():
    """Diurnal cycle + flash crowd: the autoscaler's canonical workload."""
    diurnal = DiurnalTrace(
        night_rate=250, peak_rate=1400, duration=20.0, period=20.0, seed=3
    ).generate()
    spike = SpikeTrace(
        base_rate=1e-9, spike_rate=2000, spike_start=7.0, spike_duration=4.0,
        duration=20.0, seed=4,
    ).generate()
    return merge_traces(diurnal, spike)


def build_specs():
    """Two fast GPUs + two merely-slow NPUs (scaled-up 64x64 arrays)."""
    npu_config = NpuConfig(array_rows=64, array_cols=64, clock_mhz=800.0)
    return [
        gpu_server("gpu0", "vit_base", gpu="a6000"),
        gpu_server("gpu1", "vit_base", gpu="a6000"),
        npu_server("npu0", "vit_base", config=npu_config),
        npu_server("npu1", "vit_base", config=npu_config),
    ]


def main() -> None:
    trace = build_trace()
    requests = requests_from_trace(trace, model="vit")
    specs = build_specs()
    print(
        f"Trace: {len(requests)} requests over {trace.duration:.0f}s "
        f"({trace.description})"
    )
    print(
        "Cluster: "
        + ", ".join(f"{s.name}[{s.device}] ~{s.speed:.0f} req/s" for s in specs)
    )

    # ------------------------------------------------------------------
    # 1. Placement on the heterogeneous cluster
    # ------------------------------------------------------------------
    rows = []
    for label, placer in (
        ("argmin free clock (seed)", None),
        ("least outstanding work", "least_work"),
        ("weighted by speed", "weighted"),
    ):
        cluster = ClusterEngine(specs, BatchingConfig(max_batch=64), placer=placer)
        cluster.register("vit", mode="int8")
        outcome = cluster.run(requests=requests, record_responses=False)
        rows.append(
            [
                label,
                outcome.throughput,
                outcome.latency_percentile(50) * 1e3,
                outcome.p99_latency * 1e3,
                outcome.slo_attainment(SLO_SECONDS) * 100.0,
            ]
        )
    print(
        format_table(
            ["placement", "req/s", "p50 (ms)", "p99 (ms)", f"SLO<{SLO_SECONDS}s (%)"],
            rows,
            precision=2,
            title="\n1. Heterogeneous placement (2x GPU + 2x NPU, all active)",
        )
    )

    # ------------------------------------------------------------------
    # 2. Static minimal vs autoscaled vs static peak
    # ------------------------------------------------------------------
    def autoscaled():
        return ClusterEngine(
            [gpu_server(f"g{i}", "vit_base", gpu="a6000") for i in range(4)],
            BatchingConfig(max_batch=64),
            autoscaler=SloLatencyAutoscaler(
                slo_seconds=0.15, percentile=99, headroom=0.3, patience=3
            ),
            min_servers=1,
            window=0.5,
            startup_delay=0.25,
        )

    def static(k):
        return ClusterEngine(
            [gpu_server(f"g{i}", "vit_base", gpu="a6000") for i in range(k)],
            BatchingConfig(max_batch=64),
        )

    rows = []
    scale_story = None
    for label, cluster in (
        ("static x1 (minimal)", static(1)),
        ("autoscaled 1..4", autoscaled()),
        ("static x4 (peak-sized)", static(4)),
    ):
        cluster.register("vit", mode="int8")
        outcome = cluster.run(requests=requests, record_responses=False)
        if outcome.scale_events:
            scale_story = outcome
        rows.append(
            [
                label,
                outcome.p99_latency * 1e3,
                outcome.slo_attainment(SLO_SECONDS) * 100.0,
                outcome.server_seconds,
                outcome.peak_active,
            ]
        )
    print(
        format_table(
            ["deployment", "p99 (ms)", f"SLO<{SLO_SECONDS}s (%)", "server-s", "peak K"],
            rows,
            precision=2,
            title="\n2. Elastic autoscaling through the spike (homogeneous GPUs)",
        )
    )
    print("\n   Scale events (SLO-driven, 0.5s windows, 0.25s provisioning lag):")
    if scale_story is None:
        print("     (none — the SLO was never threatened at this load)")
    else:
        for event in scale_story.scale_events:
            print(
                f"     t={event.time:5.2f}s  {event.action:>6s} server {event.server}"
                f"  -> {event.active_after} active   ({event.reason})"
            )

    # ------------------------------------------------------------------
    # 3. Per-server ratio adaptation from telemetry
    # ------------------------------------------------------------------
    service = specs[0].service_model

    def latency_fn(ratio, rate):
        from repro.data.traces import PoissonTrace
        from repro.serving import FixedRatioPolicy, ModeledExecutor, ServingEngine

        probe = PoissonTrace(max(rate, 1), duration=2.0, seed=11).generate()
        engine = ServingEngine()
        engine.register("m", ModeledExecutor(service), policy=FixedRatioPolicy(ratio))
        return engine.run(probe).median_latency

    profile = build_profile_from_latency_fn(
        [200, 600, 1000, 1600, 2200, 2800], [0.0, 0.25, 0.5, 0.75, 1.0], latency_fn
    )
    policy = PerServerAdaptiveRatioPolicy(
        lambda: AdaptiveRatioController(profile, latency_threshold=0.05),
        control_window=1.0,
    )
    # One GPU + two NPUs: the spike overloads the GPU *specifically*, so only
    # its controller should spend accuracy — the NPUs' stay at full precision.
    small = [specs[0], specs[2], specs[3]]
    cluster = ClusterEngine(small, BatchingConfig(max_batch=64), placer="weighted")
    cluster.register("vit", policy=policy, mode="flexiq")
    outcome = cluster.run(requests=requests, record_responses=False)
    rows = []
    for server, spec in enumerate(small):
        updates = [e for e in policy.timeline if e["server"] == server]
        series = outcome.telemetry.server_series(server)
        rows.append(
            [
                f"{spec.name}[{spec.device}]",
                sum(s.served for s in series),
                max((e["rate"] for e in updates), default=0.0),
                max((e["ratio"] for e in updates), default=0.0),
                sum(s.busy_time for s in series),
            ]
        )
    print(
        format_table(
            ["server", "served", "peak rate seen", "peak 4-bit ratio", "busy (s)"],
            rows,
            precision=2,
            title="\n3. Per-server adaptive ratios (1 GPU + 2 NPUs, telemetry-fed)",
        )
    )
    print(
        f"\n   Cluster p99 {outcome.p99_latency * 1e3:.1f} ms at batch-weighted "
        f"executed ratio {outcome.result.mean_executed_ratio:.2f} "
        "(accuracy spent only where the load landed)."
    )


if __name__ == "__main__":
    main()
