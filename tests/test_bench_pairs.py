"""``scripts/bench_pairs.py``: the interleaved-pairs procedure runs and counts.

One real pair at ``--scale tiny`` (this checkout on both sides) through the
script as a user runs it, and the wins count on hand-made result sets.  No
timing is asserted: the two sides are the same code.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


def test_one_tiny_pair_end_to_end(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--a", str(ROOT), "--b", str(ROOT),
         "--workload", "day_stream", "--scale", "tiny", "--runs", "1",
         "--claim", "day_stream:op_p50_ms", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300, cwd=str(ROOT),
    )
    assert "Traceback" not in done.stderr, done.stdout + done.stderr
    # The exit-code contract: 1 exactly when a row's verdict is "worse" or
    # "changed" (or a run is incorrect, checked below).  Identical code can
    # change nothing; whether one tiny pair reads as "worse" is the box's
    # mood, and a timing is never a test assertion.
    assert "  changed  " not in done.stdout, done.stdout
    assert done.returncode == (1 if "  worse  " in done.stdout else 0), (
        done.stdout + done.stderr)
    # compare.py's table, then the wins lines under it.
    assert "verdict" in done.stdout and "B wins" in done.stdout
    # One pair claims nothing, whichever side it favoured.
    assert "claim day_stream:op_p50_ms: B wins " in done.stdout
    assert done.stdout.rstrip().endswith(": not met"), done.stdout
    for name in ("pairs-a.json", "pairs-b.json"):
        result_set = json.loads((tmp_path / name).read_text())
        (run,) = result_set["workloads"]["day_stream"]
        assert run["correct"] and run["seed"] == 0  # keyed by pair number
        assert result_set["seed"] == 8


@pytest.fixture(scope="module")
def module():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_set(values):
    return {"workloads": {"w": [
        {"metrics": {"op_p50_ms": {"value": v}, "work_per_s": {"value": v},
                     "good_share": {"value": 1.0}}}
        for v in values
    ]}}


def test_wins_counts_pairs_not_medians(module):
    metrics = [
        {"name": "op_p50_ms", "unit": "ms", "better": "lower"},
        {"name": "work_per_s", "unit": "1/s", "better": "higher"},
        {"name": "good_share", "unit": "fraction", "better": "higher"},
    ]
    lines = module.wins(result_set([3.0, 3.0, 3.0]), result_set([2.0, 3.0, 4.0]), metrics)
    assert len(lines) == 2  # the exact metric is compare.py's business
    assert "op_p50_ms" in lines[0] and "B wins 1/3, A wins 1/3, ties 1" in lines[0]
    assert "work_per_s" in lines[1] and "B wins 1/3, A wins 1/3, ties 1" in lines[1]


LOWER = {"name": "op_p50_ms", "unit": "ms", "better": "lower"}
HIGHER = {"name": "work_per_s", "unit": "1/s", "better": "higher"}
PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.1, 9.9]  # IQR 0.2


def test_a_claim_is_met_on_nine_wins_and_a_gap_wider_than_the_spread(module):
    change = [value - 1.0 for value in PARENT]
    change[0] = 11.0  # one lost pair of ten still meets it
    line = module.claim(result_set(PARENT), result_set(change), "w", LOWER)
    assert line == ("claim w:op_p50_ms: B wins 9/10 pairs (needs 9/10 of >= 10), "
                    "median gain 0.95 (B/A 0.905x) vs A's IQR 0.2: met")
    # For a higher-is-better metric the same runs are a loss; the medians'
    # ratio is B/A whichever way the metric points.
    assert module.claim(result_set(PARENT), result_set(change), "w", HIGHER).endswith(
        "B wins 1/10 pairs (needs 9/10 of >= 10), median gain -0.95 (B/A 0.905x) "
        "vs A's IQR 0.2: not met")
    # Fewer than ten pairs claim nothing, however they went.
    line = module.claim(result_set(PARENT[1:]), result_set(change[1:]), "w", LOWER)
    assert "B wins 9/9 pairs" in line and line.endswith(": not met")


def test_a_claim_prints_the_medians_ratio_b_over_a(module):
    faster = [value * 0.8 for value in PARENT]  # lower is better: a gain
    assert "(B/A 0.8x)" in module.claim(result_set(PARENT), result_set(faster), "w", LOWER)
    more = [value * 1.25 for value in PARENT]  # higher is better: a gain
    line = module.claim(result_set(PARENT), result_set(more), "w", HIGHER)
    assert "median gain 2.5 (B/A 1.25x) vs A's IQR 0.2: met" in line


def test_a_claim_is_not_met_on_eight_wins(module):
    change = [value - 1.0 for value in PARENT]
    change[0] = change[1] = 11.0
    line = module.claim(result_set(PARENT), result_set(change), "w", LOWER)
    assert "B wins 8/10 pairs" in line and line.endswith(": not met")


def test_a_claim_is_not_met_inside_the_parents_spread(module):
    # Nine pairs won and one tied (counting for neither side), but by less
    # than the parent's quartile distance.
    change = [value - 0.1 for value in PARENT]
    change[-1] = PARENT[-1]
    line = module.claim(result_set(PARENT), result_set(change), "w", LOWER)
    assert "B wins 9/10 pairs" in line and line.endswith(": not met")
    assert "vs A's IQR 0.2" in line
