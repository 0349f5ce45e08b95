"""Runtime 4-bit ratio controller for fluctuating workloads (Figure 9).

The controller follows the policy described in Section 8.3: the serving
system profiles latency as a function of request rate for every available
4-bit ratio (the Figure 8 sweep), then at runtime it monitors the observed
request rate and raises the 4-bit ratio whenever the profiled latency of the
current configuration exceeds a threshold; symmetrically it lowers the ratio
when a more accurate configuration would still meet the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np


@dataclass
class LatencyProfile:
    """Profiled latency (seconds) per (ratio, request rate) grid point."""

    rates: np.ndarray                      # sorted request rates (req/s)
    latency_by_ratio: Dict[float, np.ndarray]  # ratio -> latency at each rate

    def __post_init__(self) -> None:
        self.rates = np.asarray(self.rates, dtype=np.float64)
        self.latency_by_ratio = {
            float(ratio): np.asarray(values, dtype=np.float64)
            for ratio, values in self.latency_by_ratio.items()
        }
        for ratio, values in self.latency_by_ratio.items():
            if len(values) != len(self.rates):
                raise ValueError(
                    f"profile for ratio {ratio} has {len(values)} points, "
                    f"expected {len(self.rates)}"
                )

    @property
    def ratios(self) -> List[float]:
        return sorted(self.latency_by_ratio)

    def latency(self, ratio: float, rate: float) -> float:
        """Interpolated latency for a ratio at a request rate.

        Rates beyond the profiled range are clamped to the boundary values,
        which errs on the safe side at very high load (the profile's last
        point is already saturated).
        """
        values = self.latency_by_ratio[float(ratio)]
        return float(np.interp(rate, self.rates, values))


@dataclass
class AdaptiveRatioController:
    """Threshold-based 4-bit ratio controller.

    Parameters
    ----------
    profile:
        Latency profile built offline (Figure 8 style sweep).
    latency_threshold:
        Target latency in seconds; the controller keeps the profiled latency
        of the active configuration below this value whenever possible.
    step_up_only:
        If True, emulate the paper's policy literally: only increase the
        ratio by one step when the threshold is exceeded.  If False (default)
        the controller also steps back down when a lower ratio would satisfy
        the threshold with the ``hysteresis`` margin, which is needed for
        long traces where load subsides.
    """

    profile: LatencyProfile
    latency_threshold: float
    step_up_only: bool = False
    hysteresis: float = 0.8
    current_ratio: float = 0.0
    history: List[Dict[str, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        ratios = self.profile.ratios
        if not ratios:
            raise ValueError("latency profile is empty")
        if self.current_ratio not in ratios:
            self.current_ratio = ratios[0]

    def _ratio_index(self, ratio: float) -> int:
        return self.profile.ratios.index(ratio)

    def update(self, observed_rate: float) -> float:
        """Observe the current request rate and return the ratio to use."""
        ratios = self.profile.ratios
        index = self._ratio_index(self.current_ratio)
        current_latency = self.profile.latency(self.current_ratio, observed_rate)

        if current_latency > self.latency_threshold and index < len(ratios) - 1:
            index += 1
        elif not self.step_up_only and index > 0:
            lower_latency = self.profile.latency(ratios[index - 1], observed_rate)
            if lower_latency < self.latency_threshold * self.hysteresis:
                index -= 1

        self.current_ratio = ratios[index]
        self.history.append(
            {
                "rate": float(observed_rate),
                "ratio": float(self.current_ratio),
                "profiled_latency": self.profile.latency(self.current_ratio, observed_rate),
            }
        )
        return self.current_ratio

    def average_ratio(self) -> float:
        """Time-averaged ratio over the controller's history."""
        if not self.history:
            return self.current_ratio
        return float(np.mean([entry["ratio"] for entry in self.history]))

    def as_policy(self, control_window: float = 1.0):
        """Adapt this controller to the serving engine's ratio-policy protocol.

        Returns an :class:`repro.serving.policies.AdaptiveRatioPolicy` that
        feeds the controller one observed-rate update per control window,
        making it interchangeable with fixed-ratio and schedule policies
        under :class:`repro.serving.engine.ServingEngine`.
        """
        from repro.serving.policies import AdaptiveRatioPolicy

        return AdaptiveRatioPolicy(self, control_window=control_window)


def build_profile_from_latency_fn(
    rates: Sequence[float],
    ratios: Sequence[float],
    latency_fn,
) -> LatencyProfile:
    """Helper to assemble a profile from ``latency_fn(ratio, rate) -> seconds``."""
    rates = np.asarray(sorted(rates), dtype=np.float64)
    table = {
        float(ratio): np.asarray([latency_fn(ratio, rate) for rate in rates])
        for ratio in ratios
    }
    return LatencyProfile(rates=rates, latency_by_ratio=table)
