"""Shared pieces of the benchmark: the result record, statistics, time-boxing.

Host time, two rules (``bench/README.md`` has the measurements behind them).

End-to-end metrics are reported *at reference speed*.  This shared box slows
everything by 30-100 % for seconds to minutes at a time, so while a workload
measures, :class:`BoxSpeed` keeps timing one fixed reference kernel beside
it; a timed interval counts as its own time, less the kernel's, scaled by how
slow the kernel was around it.  The metric is the median of those intervals
(requests; reps of a simulated day).

Per-layer metrics of the traced run are as measured and report the
*quietest* stretch: the run is cut into short stretches (a block of
consecutive requests, one rep), each gives one value (the block's median,
the rep's wall) and the smallest is reported.  Contention only ever adds
time, so the quietest stretch moves when every stretch does, which is what
a change to the code causes; it is steady to a few percent on a quiet box
and is not meant to be compared across machines or days.
"""

from __future__ import annotations

import json
import resource
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

def load_spec() -> dict:
    """The benchmark's contract: workloads, metric names, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass
class Outcome:
    """What one workload run reports.

    ``values`` maps metric names to numbers; ``detail`` carries the
    per-round distributions behind the headline numbers (printed for
    humans, never parsed by the driver).
    """

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    values: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, Dict[str, float]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        """Count ``count`` failed operations (and keep the first reasons)."""
        if count <= 0:
            return
        self.failed += int(count)
        if len(self.problems) < 8:
            self.problems.append(why)

    def violated(self, why: str) -> None:
        """A whole-run invariant broke: the run is incorrect."""
        self.correct = False
        if len(self.problems) < 8:
            self.problems.append(why)


def distribution(values: Sequence[float]) -> Dict[str, float]:
    """min / lower quartile / median / upper quartile / max / count."""
    data = np.asarray(values, dtype=np.float64)
    q1, q2, q3 = np.percentile(data, (25, 50, 75))
    return {
        "min": float(data.min()),
        "q1": float(q1),
        "median": float(q2),
        "q3": float(q3),
        "max": float(data.max()),
        "n": int(data.size),
    }


def quietest(values: Sequence[float]) -> float:
    """The stretch the neighbours disturbed least (per-layer rule above)."""
    return float(np.min(np.asarray(values, dtype=np.float64)))


def block_medians(samples: np.ndarray, size: int) -> np.ndarray:
    """Median of each run of ``size`` consecutive samples (a ragged tail is cut)."""
    blocks = len(samples) // size
    return np.median(samples[: blocks * size].reshape(blocks, size), axis=1)


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def timed_rounds(seconds: float, min_rounds: int) -> Iterator[int]:
    """Round indices until ``seconds`` have passed (at least ``min_rounds``)."""
    deadline = time.perf_counter() + seconds
    index = 0
    while index < min_rounds or time.perf_counter() < deadline:
        yield index
        index += 1


# ----------------------------------------------------------------------
# The reference kernel: how fast is the box right now?
# ----------------------------------------------------------------------
_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = _REF_RNG.standard_normal((96, 96)).astype(np.float32)
_REF_VECTOR = _REF_RNG.standard_normal(60_000).astype(np.float32)
_REF_FLOATS = _REF_RNG.standard_normal(3_000).tolist()

#: The reference kernel's usual time on the quiet sizing box.  Host times are
#: reported at this speed: measured x REFERENCE_NOMINAL_S / reference beside it.
REFERENCE_NOMINAL_S = 3.3e-3


def _reference_kernel() -> None:
    """Fixed work, half interpreter-bound and half numpy-bound, like the
    program under test: arithmetic, a dict and a keyed sort in bytecode; then
    small GEMMs, elementwise passes over 240 kB, a reduction and a cast.

    It creates numbers and arrays only, no container objects, so that it
    never triggers a garbage collection of the program's heap -- which would
    be charged to the reference.
    """
    table = {}
    total = 0.0
    for i in range(10_000):
        value = i * 0.5
        table[i & 255] = value + total
        total += value * 1.0001
    sorted(_REF_FLOATS, key=abs)
    x = _REF_VECTOR
    for _ in range(18):
        _REF_MATRIX @ _REF_MATRIX
        x = np.maximum(x * 1.01 + 0.5, 0.0)
        x.reshape(200, 300).sum(axis=1)
        x.astype(np.int8)


def reference_seconds(calls: int = 3) -> float:
    """Median host time of ``calls`` runs of the reference kernel (~3 ms each)."""
    samples = []
    for _ in range(calls):
        start = time.perf_counter()
        _reference_kernel()
        samples.append(time.perf_counter() - start)
    return median(samples)


class BoxSpeed:
    """Samples the reference kernel *while* a long call runs.

    A rep of a simulated day is one call of about a second, and the box
    changes speed within it, so references taken before and after say too
    little.  Inside the ``with`` block an interval timer interrupts the main
    thread every ``period`` host seconds and runs the kernel once from the
    signal handler -- between two bytecodes of whatever is running, with no
    hook inside the program.  :meth:`at_reference_speed` then takes the
    kernel's own time out of an interval and scales the rest by the speed
    the samples in and around it saw.
    """

    #: Host seconds of samples a short interval's speed is taken from.
    SPEED_WINDOW = 0.3

    def __init__(self, period: float = 0.05) -> None:
        self.period = period
        self.samples: List[Tuple[float, float]] = []  # (start, seconds)
        self._sampling = False

    def __enter__(self) -> "BoxSpeed":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_signal_args) -> None:
        if self._sampling:  # the box stalled for a whole period: skip a beat
            return
        self._sampling = True
        try:
            start = time.perf_counter()
            _reference_kernel()
            self.samples.append((start, time.perf_counter() - start))
        finally:
            self._sampling = False

    def at_reference_speed(self, start: float, end: float) -> Tuple[float, float]:
        """(seconds at reference speed, seconds as measured) of the interval
        ``start..end`` of ``time.perf_counter()``, both net of the samples
        taken inside it."""
        at_speed, net = self.intervals_at_reference_speed([start], [end])
        return float(at_speed[0]), float(net[0])

    def intervals_at_reference_speed(self, starts, ends) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`at_reference_speed` for many intervals at once.

        An interval's speed is the median sample of the ``SPEED_WINDOW``
        around it, or of the interval itself where that is longer.
        """
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        # Copy first: the timer may append while numpy walks the list.
        ticks, seconds = np.array(self.samples[:]).T
        spent = np.concatenate([[0.0], np.cumsum(seconds)])
        first = np.searchsorted(ticks, starts)
        net = (ends - starts) - (spent[np.searchsorted(ticks, ends)] - spent[first])
        pad = np.maximum(self.period, (self.SPEED_WINDOW - (ends - starts)) / 2.0)
        low = np.searchsorted(ticks, starts - pad)
        high = np.maximum(np.searchsorted(ticks, ends + pad), low + 1)
        low = np.minimum(low, len(ticks) - 1)
        reference = np.array([np.median(seconds[a:b]) for a, b in zip(low, high)])
        return net * (REFERENCE_NOMINAL_S / reference), net

    def time(self, run) -> Tuple[float, float, object]:
        """Call ``run()``: (seconds at reference speed, as measured, its result)."""
        start = time.perf_counter()
        result = run()
        end = time.perf_counter()
        return (*self.at_reference_speed(start, end), result)


@dataclass
class Rounds:
    """What the end-to-end run of a simulated day collects, one value a round.

    Host times are at reference speed (see :class:`BoxSpeed`) except
    ``walls_measured``.  ``costs`` holds each round's unit cost and
    ``baselines`` every like-for-like baseline run (a round may make a
    few); ``overhead_ratio`` is the quotient of their medians -- at
    reference speed both series are steady, so nothing is gained by pairing
    them round by round.
    """

    walls: List[float] = field(default_factory=list)
    walls_measured: List[float] = field(default_factory=list)
    ops_ms: List[float] = field(default_factory=list)
    costs: List[float] = field(default_factory=list)
    baselines: List[float] = field(default_factory=list)

    def finish(self, outcome: Outcome, box: BoxSpeed, work: int, good_share: float,
               op_label: str) -> Outcome:
        outcome.values = {
            "op_p50_ms": median(self.ops_ms),
            "work_per_s": work / median(self.walls),
            "overhead_ratio": median(self.costs) / median(self.baselines),
            "good_share": good_share,
        }
        outcome.detail = {
            "rep wall s": distribution(self.walls),
            "rep wall s, as measured": distribution(self.walls_measured),
            op_label: distribution(self.ops_ms),
            "unit cost": distribution(self.costs),
            "baseline unit cost": distribution(self.baselines),
            "reference kernel ms": distribution([s * 1e3 for _, s in box.samples]),
        }
        return outcome


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bench_values(
    references: Sequence[float],
    traced: Sequence[float],
    untraced: Sequence[float],
    spans: int,
) -> Dict[str, float]:
    """The per-layer metrics every traced run reports about the benchmark itself.

    ``traced[i]``/``untraced[i]`` are the same timed region with and without
    the span recorder attached, measured one right after the other, so the
    overhead is the median of the paired ratios.
    """
    paired = np.asarray(traced, dtype=np.float64) / np.asarray(untraced, dtype=np.float64)
    return {
        "bench.trace_overhead_pct": (median(paired) - 1.0) * 100.0,
        "bench.noise_ref_us": quietest(references) * 1e6,
        "bench.noise_ref_max_us": float(max(references)) * 1e6,
        "bench.spans": spans,
    }
