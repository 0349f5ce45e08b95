"""Run the benchmark.

One workload, as the driver calls it (the last line of stdout is the
result, one JSON object)::

    python3 bench/run.py --workload day_fifo --seed 8 --seconds 14 --trace 0

Every workload, each in its own subprocess, one after the other, with the
results collected in ``bench/out/NAME.json``::

    python3 bench/run.py [--seed N] [--runs K] [--traced] [--out NAME]

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` is a separate
run that reports the per-layer metrics and writes its spans to
``bench/out/trace-<workload>.json`` when it ends.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # set-up time counts the imports below

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

if __name__ == "__main__":
    # One thread, decided before numpy loads its BLAS: the box has two cores
    # and the benchmark is a single closed-loop client.  Only when run as a
    # program: importing this module must not change the caller's process.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench.harness import (  # noqa: E402
    OUT_DIR,
    BoxSpeed,
    Outcome,
    load_spec,
    median,
    peak_rss_mb,
)

DEFAULT_SEED = 8
#: Set-ups timed per run (this process plus fresh child processes); the
#: reported ``setup_s`` is their median.
SETUP_SAMPLES = 3


def workloads() -> Dict[str, object]:
    """Name -> workload object (imports the program under test)."""
    from bench.day import DayControl, DayFifo, DayStream
    from bench.fwd import ForwardWorkload
    from bench.gen import GenContinuous

    found = [
        ForwardWorkload("resnet18"),
        ForwardWorkload("vit_small"),
        DayFifo(),
        DayControl(),
        DayStream(),
        GenContinuous(),
    ]
    return {workload.name: workload for workload in found}


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def _setup(name: str, seed: int, scale: str):
    """Import the program and set the workload up.

    Returns the workload, its state and the set-up time: from the start of
    this process to ready-to-measure, at reference speed (the speed sampler
    runs beside the imports and the set-up).
    """
    with BoxSpeed() as box:
        workload = workloads()[name]
        state = workload.setup(seed, scale)
        ready = time.perf_counter()
    return workload, state, box.at_reference_speed(_PROCESS_START, ready)[0]


def _child_setup_seconds(name: str, seed: int, scale: str) -> float:
    """Set the workload up in a fresh process; its own start-to-ready time."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--scale", scale, "--setup-only"],
        check=True, capture_output=True, text=True, timeout=170,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def result_object(name: str, trace: bool, outcome: Outcome, extra: Dict[str, float]) -> dict:
    """The object the driver reads, checked against BENCHMARK.json.

    ``extra`` holds the metrics the harness measures itself (``setup_s``,
    ``peak_rss_mb``).  In a traced run a layer the workload never enters
    did no work: it reads 0, by definition.
    """
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = {**outcome.values, **extra}
    if trace:
        values = {**{metric["name"]: 0.0 for metric in wanted}, **values}
    names = {metric["name"] for metric in wanted}
    if set(values) != names:
        raise RuntimeError(
            f"{name}: metrics do not match BENCHMARK.json: "
            f"missing {sorted(names - set(values))}, "
            f"unknown {sorted(set(values) - names)}"
        )
    for key, value in values.items():
        if not math.isfinite(value):
            raise RuntimeError(f"{name}: metric {key} is not finite: {value}")
    return {
        "correct": bool(outcome.correct and outcome.failed == 0),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            metric["name"]: {"value": float(values[metric["name"]]), "unit": metric["unit"]}
            for metric in wanted
        },
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """Set up, measure, check, print the table; returns the result object.

    Set-up time counts from the start of this process (imports included) and
    is the median of this process's and of fresh child processes' set-ups.
    """
    workload, state, own_setup = _setup(name, seed, scale)
    setups = [own_setup]
    outcome: Outcome = (workload.trace if trace else workload.measure)(state, seconds)
    extra: Dict[str, float] = {}
    if not trace:
        children = 0 if scale == "tiny" else SETUP_SAMPLES - 1
        setups += [_child_setup_seconds(name, seed, scale) for _ in range(children)]
        extra = {"setup_s": median(setups), "peak_rss_mb": peak_rss_mb()}
    result = result_object(name, trace, outcome, extra)
    _print_table(name, seed, trace, result, outcome)
    return result


def _print_table(name: str, seed: int, trace: bool, result: dict, outcome: Outcome) -> None:
    spec = load_spec()
    kind = "per-layer (traced run)" if trace else "end-to-end"
    print(f"== {name}  seed {seed}  {kind}")
    for metric in spec["per_layer"] if trace else spec["end_to_end"]:
        value = result["metrics"][metric["name"]]["value"]
        if trace and metric["name"] not in outcome.values:
            continue  # layer not on this workload's path
        bound = f"  bound {metric['bound']:.2f}" if "bound" in metric else ""
        print(
            f"  {metric['name']:<46} {value:>14.6g} {metric['unit']:<10}"
            f" {metric['better']} is better{bound}"
        )
    for label, dist in outcome.detail.items():
        print(
            f"  . {label:<38} min {dist['min']:.5g}  q1 {dist['q1']:.5g}  "
            f"median {dist['median']:.5g}  q3 {dist['q3']:.5g}  max {dist['max']:.5g}"
            f"  n={dist['n']}"
        )
    share = outcome.failed / max(outcome.attempted, 1)
    print(f"  operations {outcome.attempted}  failed {outcome.failed}  failed_share {share:.6f}")
    for problem in outcome.problems:
        print(f"  ! {problem}")


# ----------------------------------------------------------------------
# Every workload, each in its own subprocess
# ----------------------------------------------------------------------
def run_all(names: List[str], seed: int, runs: int, seconds: float, trace: bool,
            scale: str, out: Optional[str]) -> int:
    results: Dict[str, List[dict]] = {name: [] for name in names}
    status = 0
    for name in names:
        for run in range(runs):
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed + run), "--seconds", str(seconds),
                "--trace", "1" if trace else "0", "--scale", scale,
            ]
            done = subprocess.run(command, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"== {name}: exited with {done.returncode}")
                status = 1
                continue
            *table, last = done.stdout.rstrip("\n").splitlines()
            print("\n".join(table))
            result = json.loads(last)
            result["seed"] = seed + run
            results[name].append(result)
            if not result["correct"]:
                status = 1
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = out or f"results-{'traced' if trace else 'end_to_end'}-seed{seed}"
    path = OUT_DIR / f"{Path(out).name}.json"
    path.write_text(json.dumps(
        {"seed": seed, "runs": runs, "seconds": seconds, "trace": int(trace),
         "scale": scale, "workloads": results},
        indent=1,
    ))
    print(f"results written to {path.relative_to(ROOT)}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write("bench/run.py: src/repro is missing; run from a checkout of the repo\n")
        return 2
    spec = load_spec()
    known = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=known,
                        help="run this workload in this process (repeat, or omit, "
                             "to run several, each in a subprocess)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: two rounds on traces ~1/50 long (smoke test)")
    parser.add_argument("--out", help="name of the results file under bench/out/ "
                                      "(default results-<kind>-seed<N>)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    trace = bool(args.trace or args.traced)

    if args.setup_only:
        print(json.dumps({"setup_s": _setup(args.workload[0], args.seed, args.scale)[2]}))
        return 0
    if args.workload and len(args.workload) == 1 and args.runs == 1:
        seconds = 0.0 if args.scale == "tiny" else args.seconds
        print(json.dumps(run_workload(args.workload[0], args.seed, seconds, trace, args.scale)))
        return 0
    return run_all(args.workload or known, args.seed, args.runs, args.seconds,
                   trace, args.scale, args.out)


if __name__ == "__main__":
    sys.exit(main())
