"""Smoke test of the benchmark itself, at ``--scale tiny``.

Two rounds per workload on traces ~1/50 long: checks what does not depend
on host time -- the names printed against ``BENCHMARK.json``, that exact
metrics repeat with one seed and move with another, that a corrupted logit
is counted as a failure, and that the traced run's span tree is well formed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from bench import run as bench_run
from bench.harness import OUT_DIR, load_spec

SPEC = load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SIMULATED = [name for name in WORKLOADS if not name.startswith("fwd_")]
SEED = 8


@pytest.fixture(scope="module")
def workloads():
    return bench_run.workloads()


@pytest.fixture(scope="module")
def states(workloads):
    """One tiny set-up per workload, shared by the tests below."""
    return {name: workloads[name].setup(SEED, "tiny") for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced(workloads, states):
    """Two traced runs per workload on the same state (the second one's
    spans are what ``bench/out/trace-<workload>.json`` holds afterwards)."""
    return {
        name: [
            bench_run.result_object(name, True, workloads[name].trace(states[name], 0.0), {})
            for _ in range(2)
        ]
        for name in WORKLOADS
    }


def _exact(result: dict) -> dict:
    units = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    return {
        name: entry["value"]
        for name, entry in result["metrics"].items()
        if units[name] == "count" or name.startswith(("sim.", "quality."))
    }


def test_workloads_are_the_declared_ones(workloads):
    assert sorted(workloads) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_end_to_end_names_units_and_checks(name, workloads, states):
    outcome = workloads[name].measure(states[name], 0.0)
    result = bench_run.result_object(
        name, False, outcome, {"setup_s": 1.0, "peak_rss_mb": 1.0}
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_names_units_and_exact_repeat(name, traced):
    first, second = traced[name]
    declared = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    assert first["correct"] and second["correct"]
    assert "bench.trace_overhead_pct" in first["metrics"]
    assert _exact(first) == _exact(second)
    assert any(_exact(first).values())


@pytest.mark.parametrize("name", SIMULATED)
def test_exact_metrics_follow_the_seed(name, workloads, traced):
    workload = workloads[name]
    other = bench_run.result_object(
        name, True, workload.trace(workload.setup(SEED + 1, "tiny"), 0.0), {}
    )
    assert _exact(other) != _exact(traced[name][0])


def test_corrupted_logit_is_a_failed_operation(workloads):
    workload = workloads["fwd_vit_small"]
    state = workload.setup(SEED, "tiny")
    key = next(iter(state.ref_b1))
    state.ref_b1[key] = state.ref_b1[key] + 1.0
    outcome = workload.measure(state, 0.0)
    result = bench_run.result_object(
        workload.name, False, outcome, {"setup_s": 1.0, "peak_rss_mb": 1.0}
    )
    assert outcome.failed > 0 and not result["correct"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_span_tree_is_well_formed(name, traced):
    trace = json.loads((OUT_DIR / f"trace-{name}.json").read_text())
    spans = {
        event["args"]["span"]: event
        for event in trace["traceEvents"]
        if event["ph"] == "X"
    }
    assert spans
    covered = dict.fromkeys(spans, 0.0)
    root_of = {}
    for index in sorted(spans):
        event = spans[index]
        parent = event["args"]["parent"]
        if parent < 0:
            root_of[index] = index
            continue
        assert parent in spans, "every span but the root has a parent"
        outer = spans[parent]
        assert outer["args"]["request"] == event["args"]["request"]
        assert outer["ts"] <= event["ts"] + 1e-3
        assert event["ts"] + event["dur"] <= outer["ts"] + outer["dur"] + 1e-3
        covered[parent] += event["dur"]
        root_of[index] = root_of[parent]
    self_total = dict.fromkeys(set(root_of.values()), 0.0)
    for index, event in spans.items():
        self_time = event["dur"] - covered[index]
        assert self_time >= -1e-3, "self times are non-negative"
        self_total[root_of[index]] += self_time
    for root, total in self_total.items():
        assert total == pytest.approx(spans[root]["dur"], rel=0.01)


def test_command_line_contract():
    """The driver's call: one JSON object on the last line, exit code 0."""
    done = subprocess.run(
        [sys.executable, str(Path(bench_run.__file__)), "--workload", "gen_continuous",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0", "--scale", "tiny"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {metric["name"] for metric in SPEC["end_to_end"]}
    assert result["correct"] and result["metrics"]["setup_s"]["value"] > 0
