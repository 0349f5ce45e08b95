"""Interleaved parent/change pairs of ``bench/run.py`` — how a gain is claimed.

    python3 scripts/bench_pairs.py --a ../parent --b . \\
        --workload day_stream --workload day_control --runs 10 [--seed 8]

For each workload, ``--runs`` pairs: both checkouts run ``bench/run.py`` on
the same seed, one straight after the other, alternating which side goes
first (this box slows by 30-100 % for minutes at a time; only neighbours in
time are comparable).  Each side's results are written as a result set
(``<out>/pairs-a.json``, ``pairs-b.json``), ``bench/compare.py``'s table is
printed for the two sets, and under it, per timed metric, how many pairs the
change won — the "at least nine in ten" of the choosing-metrics guide.  Ties
count for neither side.  ``--claim WORKLOAD:METRIC`` (repeatable) adds that
guide's verdict on one claimed gain: met when at least ten pairs ran, the
change won at least nine in ten of them and its median beats the parent's
by more than the parent's interquartile range.  It prints the wins, the
two numbers behind the verdict and the medians' ratio B/A (the figure a
change quotes); the exit status does not depend on it.

Inside a result set a run is keyed by its pair number (``compare.py`` keys
runs by ``seed`` and matches exact metrics seed by seed; pair *i* of A and
pair *i* of B ran the same seed, so that is the right match); the seed
itself is recorded once, on the set.

Each side imports from its own bytecode cache (``<out>/pycache-a``,
``pycache-b``), written whatever ``PYTHONDONTWRITEBYTECODE`` says and warmed
by one import of the workloads before pair 1: a side whose in-tree
``__pycache__`` is stale would otherwise recompile on every run, and
``setup_s`` would count it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.compare import compare  # noqa: E402
from bench.harness import distribution, load_spec  # noqa: E402


def side_env(out: Path, side: str) -> Dict[str, str]:
    """The environment of one side's runs: its own, written bytecode cache."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(out / f"pycache-{side}")
    return env


def run_once(checkout: Path, side: str, out: Path, workload: str, seed: int,
             seconds: float, trace: int, scale: str) -> dict:
    """One ``bench/run.py`` run in ``checkout``; its result object."""
    command = [
        sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--scale", scale,
    ]
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, timeout=1800,
        env=side_env(out, side),
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{checkout}: {workload} exited with {done.returncode}")
    return json.loads(done.stdout.rstrip("\n").splitlines()[-1])


def run_pairs(a: Path, b: Path, workloads: List[str], runs: int, seed: int,
              seconds: float, trace: int, scale: str, out: Path) -> Tuple[dict, dict]:
    """``runs`` alternating pairs per workload; the two result sets (A, B)."""
    sides = {"a": a, "b": b}
    sets = {
        side: {"seed": seed, "runs": runs, "seconds": seconds, "trace": trace,
               "scale": scale, "workloads": {name: [] for name in workloads}}
        for side in sides
    }
    for side, checkout in sides.items():  # fill each side's bytecode cache
        subprocess.run(
            [sys.executable, "-c", "from bench.run import workloads; workloads()"],
            cwd=checkout, env=side_env(out, side), check=True, timeout=600,
        )
    for workload in workloads:
        for pair in range(runs):
            for side in ("a", "b") if pair % 2 == 0 else ("b", "a"):
                result = run_once(
                    sides[side], side, out, workload, seed, seconds, trace, scale
                )
                result["seed"] = pair
                sets[side]["workloads"][workload].append(result)
                print(f"  {workload} pair {pair + 1}/{runs} {side.upper()} "
                      f"{'ok' if result['correct'] else 'INCORRECT'}", flush=True)
    return sets["a"], sets["b"]


def wins(a: dict, b: dict, metrics: List[dict]) -> List[str]:
    """Per workload and timed metric: pairs B won, A won, and tied."""
    lines = []
    for workload, runs_a in a["workloads"].items():
        runs_b = b["workloads"][workload]
        for metric in metrics:
            name = metric["name"]
            if metric["unit"] == "count" or name == "good_share":
                continue  # exact metrics: compare.py says ok or changed
            won = lost = 0
            for run_a, run_b in zip(runs_a, runs_b):
                value_a = run_a["metrics"].get(name, {}).get("value")
                value_b = run_b["metrics"].get(name, {}).get("value")
                if not value_a and not value_b:
                    continue  # layer not on this workload's path
                lower = metric["better"] == "lower"
                won += (value_b < value_a) if lower else (value_b > value_a)
                lost += (value_b > value_a) if lower else (value_b < value_a)
            if won or lost:
                pairs = len(runs_a)
                lines.append(f"{workload:<15} {name:<44} B wins {won}/{pairs}, "
                             f"A wins {lost}/{pairs}, ties {pairs - won - lost}")
    return lines


def claim(a: dict, b: dict, workload: str, metric: dict) -> str:
    """The verdict on one claimed gain (choosing-metrics guide, section 8):
    met when at least ten pairs ran, B won at least nine in ten of them (ties
    count for neither side) and B's median beats A's by more than A's
    interquartile range.  Beside the gain it prints the medians' ratio B/A."""
    name = metric["name"]
    values_a, values_b = (
        [run["metrics"][name]["value"] for run in result_set["workloads"][workload]]
        for result_set in (a, b)
    )
    sign = 1.0 if metric["better"] == "lower" else -1.0
    won = sum(sign * (x - y) > 0 for x, y in zip(values_a, values_b))
    spread_a, spread_b = distribution(values_a), distribution(values_b)
    gain = sign * (spread_a["median"] - spread_b["median"])
    iqr = spread_a["q3"] - spread_a["q1"]
    ratio = spread_b["median"] / spread_a["median"] if spread_a["median"] else float("nan")
    pairs = len(values_a)
    met = pairs >= 10 and 10 * won >= 9 * pairs and gain > iqr
    return (f"claim {workload}:{name}: B wins {won}/{pairs} pairs (needs 9/10 of >= 10), "
            f"median gain {gain:.6g} (B/A {ratio:.4g}x) vs A's IQR {iqr:.6g}: "
            f"{'met' if met else 'not met'}")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    known = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, required=True, help="base checkout (the parent)")
    parser.add_argument("--b", type=Path, required=True, help="new checkout (the change)")
    parser.add_argument("--workload", action="append", choices=known,
                        help="repeat for several (default: every workload)")
    parser.add_argument("--runs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                        help="print the gain verdict for this pair (repeatable; "
                             "informational, the exit status does not change)")
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "out",
                        help="directory for pairs-a.json, pairs-b.json and "
                             "each side's bytecode cache")
    args = parser.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    named = {metric["name"]: metric for metric in metrics}
    claims = []
    for wanted in args.claim:
        workload, _, name = wanted.partition(":")
        if workload not in (args.workload or known) or name not in named:
            parser.error(f"--claim {wanted}: not a WORKLOAD:METRIC of this run")
        claims.append((workload, named[name]))

    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    set_a, set_b = run_pairs(
        args.a.resolve(), args.b.resolve(), args.workload or known, args.runs,
        args.seed, args.seconds, args.trace, args.scale, out,
    )
    for name, result_set in (("pairs-a.json", set_a), ("pairs-b.json", set_b)):
        (out / name).write_text(json.dumps(result_set, indent=1))
    lines, bad = compare(set_a, set_b, spec)
    print("\n".join(lines))
    print("\n".join(wins(set_a, set_b, metrics)))
    for workload, metric in claims:
        print(claim(set_a, set_b, workload, metric))
    correct = all(
        run["correct"] for result_set in (set_a, set_b)
        for runs in result_set["workloads"].values() for run in runs
    )
    return 1 if bad or not correct else 0


if __name__ == "__main__":
    sys.exit(main())
