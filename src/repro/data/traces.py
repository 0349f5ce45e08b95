"""Request-arrival traces for the serving experiments (Figures 8 and 9).

Four trace families are provided:

* :class:`PoissonTrace` -- open-loop Poisson arrivals at a fixed average
  rate, used for the latency-vs-rate sweeps in Figure 8.
* :class:`FluctuatingTrace` -- a piecewise-varying rate whose peak is a
  configurable multiple of its minimum (the paper uses 3x, following Azure
  trace statistics), used for the dynamic-adaptation experiment in Figure 9.
* :class:`DiurnalTrace` -- a smooth day/night cycle (sinusoidal rate between
  a night floor and a midday peak), the slow component of production load.
* :class:`SpikeTrace` -- a steady base rate with sudden rectangular bursts,
  the fast component autoscalers exist for.

:func:`merge_traces` superimposes traces (arrival processes add), e.g. a
diurnal cycle plus a spike for the autoscaling scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


def _positive(name: str, value: float) -> float:
    """``value`` as a float; refuse NaN, inf, zero and a negative, naming the
    field (``nan <= 0`` is false, so a bare sign test lets NaN through)."""
    number = float(value)
    if not np.isfinite(number) or number <= 0:
        raise ValueError(f"{name} must be a finite number > 0 (got {value!r})")
    return number


@dataclass
class RequestTrace:
    """A concrete sequence of request arrival timestamps (seconds)."""

    arrival_times: np.ndarray
    duration: float
    description: str = ""
    # Memoized sorted view keyed by the identity of ``arrival_times``: every
    # run entry needs arrivals sorted, and a million-request trace re-sorted
    # per run dominates small sweeps.  Rebinding ``arrival_times`` (the only
    # supported mutation — the dataclass is otherwise value-like) invalidates
    # the cache via the identity guard.
    _sorted_cache: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.arrival_times = np.asarray(self.arrival_times, dtype=np.float64)

    def sorted_arrivals(self) -> np.ndarray:
        """Arrival times sorted ascending, computed once per array binding.

        Returns a shared read-only array: callers treating it as the
        admission schedule (the serving engine does) must not mutate it.
        The cache holds the source array itself as its key, so identity
        (not value) decides freshness — in-place mutation of
        ``arrival_times`` is not supported, rebinding it is.
        """
        if self._sorted_cache is None or self._sorted_cache[0] is not self.arrival_times:
            ordered = np.sort(np.asarray(self.arrival_times, dtype=np.float64))
            ordered.setflags(write=False)
            self._sorted_cache = (self.arrival_times, ordered)
        return self._sorted_cache[1]

    def __len__(self) -> int:
        return len(self.arrival_times)

    @property
    def average_rate(self) -> float:
        """Average arrival rate in requests per second."""
        if self.duration <= 0:
            return 0.0
        return len(self.arrival_times) / self.duration

    def rate_in_window(self, start: float, end: float) -> float:
        """Observed arrival rate within [start, end)."""
        if end <= start:
            return 0.0
        count = int(
            np.count_nonzero(
                (self.arrival_times >= start) & (self.arrival_times < end)
            )
        )
        return count / (end - start)


class PoissonTrace:
    """Generate open-loop Poisson arrivals at a constant average rate."""

    def __init__(self, rate_per_second: float, duration: float, seed: int = 0) -> None:
        self.rate = _positive("rate_per_second", rate_per_second)
        self.duration = _positive("duration", duration)
        self.seed = int(seed)

    def generate(self) -> RequestTrace:
        """Sample inter-arrival gaps until the duration is exhausted."""
        rng = np.random.default_rng(self.seed)
        expected = int(self.rate * self.duration * 1.2) + 16
        gaps = rng.exponential(1.0 / self.rate, size=expected)
        times = np.cumsum(gaps)
        while times[-1] < self.duration:
            extra = rng.exponential(1.0 / self.rate, size=expected)
            times = np.concatenate([times, times[-1] + np.cumsum(extra)])
        times = times[times < self.duration]
        return RequestTrace(
            arrival_times=times,
            duration=self.duration,
            description=f"poisson(rate={self.rate:.0f}/s)",
        )


@dataclass
class FluctuatingTrace:
    """Piecewise-constant fluctuating request rate, peak = ``peak_ratio`` x min.

    The rate profile follows a smooth bursty pattern: it ramps between the
    minimum and the peak over ``num_phases`` phases, echoing the request-rate
    fluctuations of the Azure public traces referenced by the paper.
    """

    min_rate: float
    peak_ratio: float = 3.0
    duration: float = 60.0
    num_phases: int = 12
    seed: int = 0
    # Memoized (parameters, rates): the cache key guards against the stale-
    # cache bug where mutating seed/num_phases/min_rate/peak_ratio after the
    # first phase_rates() call silently returned rates for the old
    # parameters.
    _cache: Optional[Tuple[Tuple[float, float, int, int], List[float]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for name in ("min_rate", "peak_ratio", "duration"):
            _positive(name, getattr(self, name))
        if not self.num_phases >= 1:
            raise ValueError(f"num_phases must be at least 1 (got {self.num_phases!r})")

    def phase_rates(self) -> List[float]:
        """Return the per-phase average rates (requests/second)."""
        key = (
            float(self.min_rate),
            float(self.peak_ratio),
            int(self.num_phases),
            int(self.seed),
        )
        if self._cache is None or self._cache[0] != key:
            rng = np.random.default_rng(self.seed)
            peak = self.min_rate * self.peak_ratio
            # Smooth ramp up/down with jitter, covering min -> peak -> min.
            base = 0.5 * (1 - np.cos(np.linspace(0, 2 * np.pi, self.num_phases)))
            rates = self.min_rate + base * (peak - self.min_rate)
            jitter = rng.uniform(0.92, 1.08, size=self.num_phases)
            self._cache = (
                key,
                list(np.clip(rates * jitter, self.min_rate * 0.9, peak * 1.05)),
            )
        return list(self._cache[1])

    def generate(self) -> RequestTrace:
        """Generate arrivals by drawing a Poisson process per phase."""
        rng = np.random.default_rng(self.seed + 1)
        phase_duration = self.duration / self.num_phases
        times: List[np.ndarray] = []
        for phase_index, rate in enumerate(self.phase_rates()):
            start = phase_index * phase_duration
            expected = int(rate * phase_duration * 1.3) + 8
            gaps = rng.exponential(1.0 / rate, size=expected)
            arrivals = start + np.cumsum(gaps)
            arrivals = arrivals[arrivals < start + phase_duration]
            times.append(arrivals)
        all_times = np.sort(np.concatenate(times))
        return RequestTrace(
            arrival_times=all_times,
            duration=self.duration,
            description=(
                f"fluctuating(min={self.min_rate:.0f}/s, peak_ratio={self.peak_ratio:.1f})"
            ),
        )


def _piecewise_poisson(
    rates: Sequence[float], phase_duration: float, rng: np.random.Generator
) -> np.ndarray:
    """Arrivals of a piecewise-constant-rate Poisson process, sorted."""
    times: List[np.ndarray] = []
    for phase_index, rate in enumerate(rates):
        if rate <= 0:
            continue
        start = phase_index * phase_duration
        expected = int(rate * phase_duration * 1.3) + 8
        gaps = rng.exponential(1.0 / rate, size=expected)
        arrivals = start + np.cumsum(gaps)
        while arrivals[-1] < start + phase_duration:
            extra = rng.exponential(1.0 / rate, size=expected)
            arrivals = np.concatenate([arrivals, arrivals[-1] + np.cumsum(extra)])
        times.append(arrivals[arrivals < start + phase_duration])
    if not times:
        return np.zeros(0, dtype=np.float64)
    return np.sort(np.concatenate(times))


@dataclass(frozen=True)
class DiurnalTrace:
    """Day/night request-rate cycle: sinusoid between a floor and a peak.

    The rate at time ``t`` is ``night_rate + (peak_rate - night_rate) *
    0.5 * (1 - cos(2 pi t / period))`` — the floor at ``t = 0`` (midnight),
    the peak half a period in (midday).  ``duration`` may span several
    periods; arrivals are drawn as a piecewise-constant Poisson process over
    ``num_phases`` equal phases, each at the cycle's rate at the phase
    midpoint.  Frozen: regenerating with different parameters means
    constructing a new trace (no stale-cache class of bugs by design).
    """

    night_rate: float
    peak_rate: float
    duration: float = 60.0
    period: float = 60.0
    num_phases: int = 60
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("night_rate", "peak_rate", "duration", "period"):
            _positive(name, getattr(self, name))
        if self.peak_rate < self.night_rate:
            raise ValueError("need 0 < night_rate <= peak_rate")
        if not self.num_phases >= 1:
            raise ValueError(f"num_phases must be at least 1 (got {self.num_phases!r})")

    def rate_at(self, time: float) -> float:
        """Instantaneous arrival rate of the cycle (requests/second)."""
        swing = 0.5 * (1.0 - np.cos(2.0 * np.pi * time / self.period))
        return float(self.night_rate + (self.peak_rate - self.night_rate) * swing)

    def phase_rates(self) -> List[float]:
        """Per-phase rates (cycle sampled at each phase midpoint)."""
        phase_duration = self.duration / self.num_phases
        return [
            self.rate_at((index + 0.5) * phase_duration)
            for index in range(self.num_phases)
        ]

    def generate(self) -> RequestTrace:
        rng = np.random.default_rng(self.seed)
        times = _piecewise_poisson(
            self.phase_rates(), self.duration / self.num_phases, rng
        )
        return RequestTrace(
            arrival_times=times,
            duration=self.duration,
            description=(
                f"diurnal(night={self.night_rate:.0f}/s, "
                f"peak={self.peak_rate:.0f}/s, period={self.period:.0f}s)"
            ),
        )


@dataclass(frozen=True)
class SpikeTrace:
    """Steady base load with a sudden rectangular burst.

    Arrivals run at ``base_rate`` over the whole trace; during
    ``[spike_start, spike_start + spike_duration)`` an *additional*
    ``spike_rate - base_rate`` Poisson process is superimposed, jumping the
    total rate to ``spike_rate`` with no ramp — the flash-crowd shape that
    defeats purely reactive capacity if it reacts too slowly.
    """

    base_rate: float
    spike_rate: float
    spike_start: float
    spike_duration: float
    duration: float = 60.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("base_rate", "spike_rate", "duration", "spike_duration"):
            _positive(name, getattr(self, name))
        if self.spike_rate < self.base_rate:
            raise ValueError("need 0 < base_rate <= spike_rate")
        if not 0 <= self.spike_start <= self.duration:
            raise ValueError("spike_start must lie within the trace")

    def rate_at(self, time: float) -> float:
        """Instantaneous arrival rate (requests/second)."""
        in_spike = self.spike_start <= time < self.spike_start + self.spike_duration
        return float(self.spike_rate if in_spike else self.base_rate)

    def generate(self) -> RequestTrace:
        rng = np.random.default_rng(self.seed)
        base = _piecewise_poisson([self.base_rate], self.duration, rng)
        extra_rate = self.spike_rate - self.base_rate
        if extra_rate > 0:
            span = min(self.spike_duration, self.duration - self.spike_start)
            burst = self.spike_start + _piecewise_poisson([extra_rate], span, rng)
            times = np.sort(np.concatenate([base, burst]))
        else:
            times = base
        return RequestTrace(
            arrival_times=times,
            duration=self.duration,
            description=(
                f"spike(base={self.base_rate:.0f}/s, "
                f"spike={self.spike_rate:.0f}/s @ "
                f"{self.spike_start:.0f}s+{self.spike_duration:.0f}s)"
            ),
        )


def merge_traces(*traces: RequestTrace) -> RequestTrace:
    """Superimpose arrival processes (Poisson processes add rates).

    The merged trace lasts as long as the longest input; descriptions are
    joined with ``" + "``.
    """
    if not traces:
        raise ValueError("merge_traces needs at least one trace")
    times = np.sort(
        np.concatenate([np.asarray(t.arrival_times, dtype=np.float64) for t in traces])
    )
    return RequestTrace(
        arrival_times=times,
        duration=max(t.duration for t in traces),
        description=" + ".join(t.description for t in traces if t.description),
    )
