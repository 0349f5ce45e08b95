"""Prepared-kernel cache microbenchmark (repeated quantized inference).

The serving steady state of the FlexiQ runtime is: freeze + configure once,
then serve many requests, switching only the 4-bit ratio between them.  The
seed implementation re-derived all weight-side state (weight quantization,
channel permutation, 4-bit plane lowering, ``2**shift`` factor tables) from
the float weights on every forward call; the prepared-kernel cache
(:mod:`repro.core.prepared`) computes it once at prepare time.

This bench drives ResNet-18 and ViT-small runtimes through repeated
quantized forwards with the cache on and off, verifies the outputs are
bit-exact, asserts the ResNet-18 quantized-inference speedup target (>= 3x)
and writes the numbers to ``benchmarks/out/BENCH_prepared_kernels.json``
(git-ignored) via the standalone :mod:`perf_smoke` runner.

It also gates the serving hot path: the unified ``ServingEngine`` serves a
prepared ResNet-18 runtime through ``RuntimeExecutor`` at batch 8 with
heterogeneous per-batch ratios, and must (a) never rebuild a prepared kernel
(the O(1) ratio-switch claim), and (b) sustain a clearly higher throughput
than batch-1 inference implies — a regression in the engine's batching or
dispatch overhead fails the suite.

PR 3 adds the cluster gate: multi-server dispatch over K modeled
accelerators must scale throughput near-linearly (efficiency >= 0.9 at
K=4 under a saturating trace — the workload is deterministic, so this is a
property of the dispatch layer, not of machine noise).

PR 4 adds the heterogeneous-placement gate: on a mixed-speed cluster (one
fast GPU, two slow NPUs) the speed-aware placers (least-outstanding-work,
weighted-by-speed) must achieve strictly higher makespan throughput — and
lower p99 — than the seed argmin-free-clock dispatch.  Also deterministic:
the comparison is between simulated schedules, not wall clocks.

PR 5 adds the fault-tolerance gate: a 3-GPU deadline-SLO cluster loses one
server mid-run.  Without migration the crashed server's unfinished batches
are lost (drops = deadline misses) and the run must fall below the 99%
deadline-attainment SLO; with preemption & migration every victim re-serves
(zero lost requests, full conservation) and the SLO must hold.  Exact, the
schedules are deterministic.

PR 6 adds the failure-domain gate on the ``examples/zone_outage.py``
scenario: a zone outage (two of four active servers at once) must cost the
flat single-domain cluster the deadline-attainment SLO, while spread
placement + warm spares meet it — and beat reactive cold standby on p99
(promotion latency vs provisioning lag).  Exact and deterministic.

PR 7 adds the continuous-batching gate on the
``examples/continuous_batching.py`` scenario: on a mixed prompt-/generation-
length trace, iteration-level scheduling must beat static run-to-completion
batching on **both** TTFT p99 and tokens/sec, and the decode-pressure
policy must actually switch precision mid-sequence.  Exact and
deterministic (modeled costs, fixed trace seed).

PR 8 adds the ``cluster_day`` gate on the columnar event-driven serving
core: a >= 1M-request compressed diurnal day over 8 servers must clear
within the wall-clock and tracemalloc-peak budgets, the columnar core must
beat the pre-refactor object loop by >= 10x on a 100k-request slice, and —
the unbreakable invariant — a K=1 FIFO run must stay bit-identical to the
seed simulator.

PR 9 adds the ``observability`` gate on the same workload: attaching the
``repro.obs`` tracing hooks with the tracer disabled must not regress the
cluster day by more than 2% (the opt-in promise — every hook sits behind a
``tracer is None`` guard), sampled tracing at 1% must cost under 15% over
the disabled run, and both exporters must produce valid output (the Chrome
trace-event JSON schema-checks, the Prometheus exposition parses).  The
overhead clauses are timing measurements and share the one-retry policy.
"""

from __future__ import annotations

import json

import perf_smoke


def _serving_floor(result: dict) -> float:
    """Minimum acceptable batch-8 serving throughput for one model.

    Batch-1 end-to-end prepared latency implies a per-request rate; batched
    serving amortizes per-call overhead, so batch 8 must beat it with margin
    (typical measurements sit at 2-3x the batch-1 rate).
    """
    batch1_rps = 1000.0 / result["end_to_end"]["prepared_ms"]
    return 1.2 * batch1_rps


def test_prepared_kernel_speedup(benchmark):
    results = benchmark.pedantic(perf_smoke.main, rounds=1, iterations=1)
    if (
        results["resnet18"]["quantized"]["speedup"] < 3.0
        or results["resnet18"]["serving"]["requests_per_s"] < _serving_floor(results["resnet18"])
    ):
        # Timing benchmark on a shared box: one retry before declaring a
        # perf regression (typical measurements sit at 3.4-4.5x).
        results = perf_smoke.main()

    for name in perf_smoke.MODELS:
        assert results[name]["bit_exact"] is True

    # The tentpole target: repeated quantized inference on the ResNet-18
    # microbenchmark at least 3x faster than the seed (uncached) kernels.
    assert results["resnet18"]["quantized"]["speedup"] >= 3.0
    # ViT-small is linear-layer bound at these tiny shapes (GEMM + per-call
    # overhead dominate), so its bound is looser; it must still clearly win.
    assert results["vit_small"]["quantized"]["speedup"] >= 1.5
    # End-to-end forwards include the float glue (norms, attention,
    # residuals) but must still show a solid improvement.
    assert results["resnet18"]["end_to_end"]["speedup"] >= 1.5
    assert results["vit_small"]["end_to_end"]["speedup"] >= 1.2

    # Serving engine hot path: heterogeneous-ratio batches through
    # RuntimeExecutor must never rebuild a prepared kernel (per-batch
    # set_ratio is an O(1) variable update -- the PR 1 instrumentation).
    for name in perf_smoke.MODELS:
        serving = results[name]["serving"]
        assert serving["kernel_builds"] == 0
        assert serving["plane_builds"] == 0
        assert serving["distinct_ratios"] >= 2
        assert serving["ratio_switches"] > 0
        assert serving["batch"] == 8
    # Throughput gate: batch-8 serving clearly beats the batch-1 rate.
    assert (
        results["resnet18"]["serving"]["requests_per_s"]
        >= _serving_floor(results["resnet18"])
    )

    # Cluster scale-out: K modeled servers under a saturating trace serve
    # near-K-times the single-server rate (simulated makespan throughput).
    cluster = results["cluster_scaling"]["servers"]
    assert set(cluster) == {str(k) for k in perf_smoke.CLUSTER_SIZES}
    assert cluster["1"]["scaling_efficiency"] == 1.0
    for k in perf_smoke.CLUSTER_SIZES[1:]:
        assert cluster[str(k)]["scaling_efficiency"] >= 0.9
    assert (
        cluster["4"]["requests_per_s"]
        > cluster["2"]["requests_per_s"]
        > cluster["1"]["requests_per_s"]
    )

    # Heterogeneous placement: on a mixed-speed cluster the speed-aware
    # placers strictly beat argmin-free-clock on throughput and p99 (the
    # PR 4 control-plane gate; exact, the schedules are deterministic).
    hetero = results["heterogeneous_placement"]
    speeds = [server["speed_rps"] for server in hetero["servers"]]
    assert max(speeds) > 5 * min(speeds)  # the cluster really is mixed-speed
    placers = hetero["placers"]
    free_clock = placers["free_clock"]
    for smart in ("least_work", "weighted"):
        assert placers[smart]["requests_per_s"] > free_clock["requests_per_s"]
        assert placers[smart]["p99_ms"] < free_clock["p99_ms"]
        assert placers[smart]["served"] == free_clock["served"]  # same work
    assert hetero["weighted_speedup_vs_free_clock"] > 1.0
    assert hetero["least_work_speedup_vs_free_clock"] > 1.0

    # Fault tolerance: a mid-run server crash must cost the SLO without
    # migration and be fully absorbed with it (the PR 5 resilience gate).
    fault = results["fault_tolerance"]
    admitted = fault["requests"]
    lost_run, saved_run = fault["no_migration"], fault["migration"]
    assert lost_run["deadline_attainment"] < fault["slo_attainment_target"]
    assert not lost_run["slo_met"]
    assert lost_run["lost"] > 0
    assert saved_run["deadline_attainment"] >= fault["slo_attainment_target"]
    assert saved_run["slo_met"]
    # Conservation: nothing lost, nothing served twice, every victim moved.
    assert saved_run["lost"] == 0
    assert saved_run["served"] == admitted
    assert lost_run["served"] + lost_run["lost"] == admitted
    assert saved_run["migrated"] == lost_run["lost"] > 0

    # Failure domains: the zone outage must sink the flat cluster's SLO,
    # warm spares must absorb it and beat cold standby on p99 (the PR 6
    # failure-domain gate; exact, the scenario is deterministic).
    domains = results["failure_domains"]
    target = domains["slo_attainment_target"]
    assert domains["no_fault"]["deadline_attainment"] == 1.0
    assert domains["flat"]["deadline_attainment"] < target
    assert not domains["flat"]["slo_met"]
    assert domains["cold_standby"]["slo_met"]
    assert domains["warm_spares"]["slo_met"]
    assert (
        domains["warm_spares"]["p99_ms"] < domains["cold_standby"]["p99_ms"]
    )
    assert domains["warm_p99_advantage_ms"] > 0
    # Both zone-A servers were covered by promoted spares, later demoted.
    assert domains["warm_spares"]["promotions"] == 2
    assert domains["warm_spares"]["demotions"] == 2
    assert domains["cold_standby"]["promotions"] == 0
    # Conservation under the outage: the SLO misses are latency, not loss.
    for name in ("no_fault", "flat", "cold_standby", "warm_spares"):
        assert domains[name]["lost"] == 0
    assert domains["warm_spares"]["migrated"] > 0

    # Continuous batching: iteration-level scheduling must beat static
    # run-to-completion on BOTH streaming axes on the identical trace (the
    # PR 7 generation gate; exact, modeled costs + fixed trace seed).
    generation = results["continuous_batching"]
    static, continuous = generation["static"], generation["continuous"]
    assert continuous["ttft_p99_ms"] < static["ttft_p99_ms"]
    assert continuous["tokens_per_sec"] > static["tokens_per_sec"]
    assert generation["ttft_p99_speedup"] > 1.0
    assert generation["throughput_speedup"] > 1.0
    # Conservation: both schedules generate every requested token.
    assert continuous["tokens"] == static["tokens"] > 0
    assert continuous["requests"] == static["requests"] > 0
    # Continuous batching runs many small iterations, not a few big batches.
    assert continuous["iterations"] > static["iterations"]
    # The decode-pressure policy really switches precision mid-sequence.
    assert generation["ratio_switches"] > 0

    # Cluster day: the PR 8 columnar-core gate.  Correctness clauses
    # (request count, bit identity) are exact; the wall-clock and speedup
    # clauses are timing measurements, so they get the same one-retry
    # policy as the kernel speedup above before declaring a regression.
    day = results["cluster_day"]
    if (
        day["wall_seconds"] > day["wall_budget_s"]
        or day["slice_speedup"] < day["speedup_target"]
    ):
        day = perf_smoke.bench_cluster_day()
        results["cluster_day"] = day
    assert day["requests"] >= perf_smoke.DAY_MIN_REQUESTS
    assert day["served"] + day["dropped"] == day["requests"]
    assert day["wall_seconds"] <= day["wall_budget_s"]
    assert day["peak_traced_mb"] <= day["peak_traced_budget_mb"]
    assert day["slice_speedup"] >= day["speedup_target"]
    assert day["fifo_bit_identical"] is True

    # Observability: the PR 9 overhead + exporter-validity gate.  Exporter
    # clauses are exact; the overhead clauses are timing deltas between
    # back-to-back day runs, so they too get one retry (re-benching the
    # day first so the baseline and the overhead runs share conditions).
    obs = results["observability"]
    if (
        obs["off_overhead_pct"] > obs["off_overhead_budget_pct"]
        or obs["on_overhead_pct"] > obs["on_overhead_budget_pct"]
    ):
        results["cluster_day"] = perf_smoke.bench_cluster_day()
        obs = perf_smoke.bench_observability(results["cluster_day"])
        results["observability"] = obs
    assert obs["off_overhead_pct"] <= obs["off_overhead_budget_pct"]
    assert obs["on_overhead_pct"] <= obs["on_overhead_budget_pct"]
    assert obs["trace_valid"] is True
    assert obs["prometheus_valid"] is True
    assert obs["spans"] > 0 and obs["sampled_requests"] > 0
    assert obs["trace_events"] >= obs["spans"]

    # The JSON artifact carries every section.
    stored = json.loads(perf_smoke.RESULTS_PATH.read_text())
    assert stored["meta"]["benchmark"] == "prepared_kernels"
    assert "heterogeneous_placement" in stored
    assert "fault_tolerance" in stored
    assert "failure_domains" in stored
    assert "continuous_batching" in stored
    assert "cluster_day" in stored
    assert "observability" in stored
