"""Compare two result sets written by ``bench/run.py`` (A = base, B = new).

    python3 bench/compare.py bench/out/A.json bench/out/B.json

One row per (workload, metric): both medians with their quartiles, the
ratio B/A with its base, and a verdict:

``ok``          B's median is not worse than A's by more than the bound
``worse``       it is, and the runs do not leave room for doubt
``unresolved``  the run-to-run spread is wider than the bound and the two
                sets of runs overlap: neither "same" nor "worse" is shown
``changed``     an exact metric (simulated outcome, count) differs

Exact metrics are compared by equality, seed by seed.  Exits non-zero on
``worse`` or ``changed``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.harness import distribution, load_spec  # noqa: E402

#: End-to-end metrics that do not depend on host time: one seed, one value.
EXACT_END_TO_END = ("good_share",)


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    spread = distribution(values)
    return spread["q1"], spread["median"], spread["q3"]


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    """ok / worse / unresolved for a timed metric (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    cost_a = [sign * value for value in a]  # larger cost = worse, either way
    cost_b = [sign * value for value in b]
    a_q1, a_med, a_q3 = _quartiles(cost_a)
    b_q1, b_med, b_q3 = _quartiles(cost_b)
    worse_by = (b_med - a_med) / abs(a_med)
    spread = max((a_q3 - a_q1) / abs(a_med), (b_q3 - b_q1) / abs(b_med))
    if spread > bound and max(cost_b) >= min(cost_a) and min(cost_b) <= max(cost_a):
        # Too noisy to call from the medians, and the runs overlap.
        return "unresolved"
    return "worse" if worse_by > bound else "ok"


def _values(runs: List[dict], metric: str) -> Dict[int, float]:
    return {run["seed"]: run["metrics"][metric]["value"] for run in runs}


def compare(a: dict, b: dict, spec: dict) -> Tuple[List[str], bool]:
    traced = bool(a["trace"])
    if traced != bool(b["trace"]):
        raise SystemExit("one file is a traced run and the other is not")
    metrics = spec["per_layer"] if traced else spec["end_to_end"]
    lines = [
        f"{'workload':<15} {'metric':<44} {'A median [q1, q3]':>34} "
        f"{'B median [q1, q3]':>34} {'B/A':>8}  verdict"
    ]
    bad = False
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a = a["workloads"].get(workload, [])
        runs_b = b["workloads"].get(workload, [])
        if not runs_a or not runs_b:
            continue
        for metric in metrics:
            name = metric["name"]
            by_seed_a, by_seed_b = _values(runs_a, name), _values(runs_b, name)
            va, vb = list(by_seed_a.values()), list(by_seed_b.values())
            if traced and not any(va) and not any(vb):
                continue  # layer not on this workload's path
            exact = name in EXACT_END_TO_END or metric["unit"] == "count"
            if exact:
                shared = sorted(set(by_seed_a) & set(by_seed_b))
                same = bool(shared) and all(by_seed_a[s] == by_seed_b[s] for s in shared)
                result = "ok" if same else ("changed" if shared else "no shared seed")
            elif traced:
                result = "info"  # per-layer timings carry no bound
            else:
                result = verdict(va, vb, metric["better"], metric["bound"])
            bad = bad or result in ("worse", "changed")
            (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = _quartiles(va), _quartiles(vb)
            ratio = f"{b_med / a_med:8.4f}" if a_med else "     n/a"
            lines.append(
                f"{workload:<15} {name:<44} "
                f"{a_med:>12.6g} [{a_q1:>9.5g},{a_q3:>9.5g}] "
                f"{b_med:>12.6g} [{b_q1:>9.5g},{b_q3:>9.5g}] {ratio}  {result}"
                f"  (base {a_med:.6g} {metric['unit']}, {metric['better']} is better)"
            )
    return lines, bad


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    lines, bad = compare(a, b, load_spec())
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
