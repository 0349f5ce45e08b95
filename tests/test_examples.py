"""End-to-end smoke tests for the example scripts.

Examples are the repo's living documentation and rot silently when APIs
move; each test runs a script exactly the way the docs say to
(``python examples/<name>.py`` with ``src`` on the path) and asserts a
clean exit plus the landmark output each scenario promises.  The heavier
examples (``adaptive_serving``, ``llm_case_study``, ``hardware_latency_tour``)
are exercised by the figure benchmarks already; these cover the quickstart
path and the serving-cluster tours (placement/autoscaling and resilience).
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


def load_example(name: str):
    """Import ``examples/<name>.py`` as a module.

    Acceptance tests assert on the scenario function a script exports, so
    the demo and the gate cannot drift apart.
    """
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def run_example(name: str, timeout: float = 300.0, args: tuple = ()) -> str:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        cwd=str(ROOT),
    )
    assert result.returncode == 0, (
        f"{name} exited {result.returncode}\n"
        f"stdout:\n{result.stdout[-2000:]}\nstderr:\n{result.stderr[-2000:]}"
    )
    return result.stdout


def test_quickstart_runs_end_to_end():
    # The slowest of the three (~6 s warm, a few minutes if the pretrain
    # cache is cold); the generous timeout covers cold CI runners.
    out = run_example("quickstart.py", timeout=600.0)
    assert "accuracy vs precision" in out
    assert "full precision" in out and "uniform INT8" in out
    assert "average weight bits" in out


def test_cluster_serving_runs_end_to_end():
    out = run_example("cluster_serving.py")
    assert "Multi-server dispatch" in out
    assert "Deadline attainment" in out
    assert "ratio policy" in out


def test_autoscaling_cluster_runs_end_to_end():
    out = run_example("autoscaling_cluster.py")
    assert "Heterogeneous placement" in out
    assert "Elastic autoscaling" in out
    assert "Per-server adaptive ratios" in out
    # The demo's promise: scale-up and scale-down both happened.
    assert "add server" in out and "remove server" in out


def test_resilient_cluster_runs_end_to_end():
    out = run_example("resilient_cluster.py")
    assert "Fault plane" in out
    assert "Predictive placement" in out
    # The demo's promise: the crash really cost the baseline its SLO and
    # migration really saved it.
    assert "NO" in out and "Migration rescued" in out
    assert "crash server 0" in out and "recover server 0" in out


def test_continuous_batching_runs_end_to_end():
    out = run_example("continuous_batching.py")
    assert "Continuous batching" in out
    assert "run-to-completion" in out
    # The headline claim: continuous wins on both streaming axes.
    assert "beats run-to-completion on both axes" in out
    # The mid-sequence precision story: the decode-pressure policy really
    # flipped the ratio while sequences were in flight.
    assert "mid-sequence precision" in out
    assert "made 0 mid-sequence" not in out


def test_zone_outage_runs_end_to_end():
    out = run_example("zone_outage.py")
    assert "Failure domains" in out
    assert "Zone A outage" in out
    # The flat single-domain cluster misses the SLO the others meet.
    assert "NO" in out
    assert "Warm spares beat cold standby" in out
    # Warm-spare promotion/demotion landed on the merged timeline with
    # the crash's failure-domain tag.
    assert "promote server" in out and "demote server" in out
    assert "[zone:A]" in out


def test_observability_demo_runs_end_to_end(tmp_path):
    trace_path = tmp_path / "trace.json"
    out = run_example("observability_demo.py", args=(trace_path,))
    assert "Observability demo" in out
    # Request conservation held across the outage's preemptions/migrations.
    assert "one terminal each: yes" in out
    # Both burn-rate severities fired on the latency objective.
    assert "[  page] latency_150ms" in out
    assert "[ticket] latency_150ms" in out
    assert "Perfetto trace written" in out
    assert "Prometheus exposition (head):" in out
    # The written artifact is loadable, schema-valid Chrome trace JSON.
    import json

    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs import validate_chrome_trace

    trace = json.loads(trace_path.read_text())
    validate_chrome_trace(trace)
    assert len(trace["traceEvents"]) > 100
