"""SLO monitoring: multi-window burn-rate alerting over telemetry windows.

Classic single-threshold SLO alerts are either too twitchy (page on one
bad window) or too slow (miss a budget-destroying incident for hours).
The standard fix is *multi-window burn-rate* alerting: an alert fires
only when the error-budget burn rate — window error rate divided by the
budget ``1 - target`` — exceeds a threshold over both a short window
(the incident is happening *now*) and a long window (it is not a blip).

:class:`SloMonitor` evaluates :class:`SloObjective`\\ s against the
closed :class:`~repro.serving.telemetry.TelemetryBus` windows at
``ClusterEngine`` boundaries.  Two objective kinds:

* ``attainment`` — error rate is the fraction of deadline-tracked
  requests that missed their deadline in the window (drops included via
  the bus's drop accounting).
* ``latency`` — error rate is the fraction of requests whose latency
  exceeded ``latency_slo_seconds`` (drops count as violations).

Fired alerts become :class:`AlertEvent`\\ s on the merged cluster
timeline next to scale and fault events.  Alerts are edge-triggered: a
rule re-fires only after its fast-window burn has dropped back below
threshold.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.checks import check_positive
from repro.serving.core import check_integer


@dataclass(frozen=True)
class SloObjective:
    """One service-level objective evaluated per telemetry window."""

    name: str
    target: float                        # e.g. 0.99 → 1% error budget
    kind: str = "attainment"             # "attainment" | "latency"
    latency_slo_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1)")
        if self.kind not in ("attainment", "latency"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind == "latency" and self.latency_slo_seconds is None:
            raise ValueError("latency objectives need latency_slo_seconds")

    @property
    def budget(self) -> float:
        return 1.0 - self.target


@dataclass(frozen=True)
class BurnRateRule:
    """Fire when burn >= threshold over both fast and slow windows."""

    threshold: float                     # budget multiples, e.g. 14.4
    fast_windows: int = 1                # telemetry windows in the fast pane
    slow_windows: int = 12               # telemetry windows in the slow pane
    severity: str = "page"

    def __post_init__(self) -> None:
        # ``burn >= nan`` is never true: a NaN threshold would never fire.
        check_positive("threshold", self.threshold)
        # Window counts slice the history: a fractional one failed at the
        # first window close.
        for name in ("fast_windows", "slow_windows"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), 1))
        if not self.fast_windows <= self.slow_windows:
            raise ValueError("need 0 < fast_windows <= slow_windows")


@dataclass(frozen=True)
class AlertEvent:
    """A burn-rate alert, placed on the merged cluster timeline."""

    time: float
    objective: str
    severity: str
    burn_fast: float
    burn_slow: float
    threshold: float
    window: int


#: Default rule pair, scaled from the SRE-workbook 5m/1h + 6h/3d pairs to
#: simulation window counts: a fast pager and a slow ticket.
DEFAULT_RULES = (
    BurnRateRule(threshold=14.4, fast_windows=1, slow_windows=12,
                 severity="page"),
    BurnRateRule(threshold=3.0, fast_windows=6, slow_windows=48,
                 severity="ticket"),
)


@dataclass
class SloMonitor:
    """Evaluates burn-rate rules over successive telemetry windows.

    Attach via ``ClusterEngine(slo_monitor=...)``; the engine calls
    :meth:`evaluate` once per closed window and records the returned
    :class:`AlertEvent`\\ s onto the telemetry timeline.
    """

    objectives: Sequence[SloObjective]
    rules: Sequence[BurnRateRule] = DEFAULT_RULES
    _errors: Dict[str, Deque[Tuple[float, float]]] = field(
        default_factory=dict, init=False, repr=False
    )
    _firing: Dict[Tuple[str, int], bool] = field(
        default_factory=dict, init=False, repr=False
    )
    _window_index: int = field(default=0, init=False, repr=False)
    alerts: List[AlertEvent] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if not self.objectives:
            raise ValueError("need at least one objective")
        if not self.rules:
            raise ValueError("need at least one burn-rate rule")
        depth = max(rule.slow_windows for rule in self.rules)
        for objective in self.objectives:
            self._errors[objective.name] = deque(maxlen=depth)

    def reset(self) -> None:
        """Clear window history, firing state and collected alerts."""
        for history in self._errors.values():
            history.clear()
        self._firing.clear()
        self.alerts.clear()
        self._window_index = 0

    # ------------------------------------------------------------------
    def _window_error(self, objective: SloObjective, stats) -> Tuple[float, float]:
        """(violations, total) for one objective in one closed window."""
        if objective.kind == "attainment":
            # deadline_total counts every deadline-carrying request seen in
            # the window (drops included, via the bus's drop accounting);
            # deadline_met the ones served in time.
            total = float(stats.deadline_total)
            return total - float(stats.deadline_met), total
        latencies = np.asarray(stats.latencies, dtype=np.float64)
        drops = float(stats.drops)
        total = float(len(latencies)) + drops
        exceeding = float(
            np.count_nonzero(latencies > objective.latency_slo_seconds)
        )
        return exceeding + drops, total

    def evaluate(self, telemetry, window: int, active_servers) -> List[AlertEvent]:
        """Fold one closed window in; return newly fired alerts.

        ``telemetry`` is the cluster's ``TelemetryBus``; ``window`` the
        just-closed window index; ``active_servers`` the servers that
        were live (forwarded to ``cluster_window``).
        """
        stats = telemetry.cluster_window(window, active_servers)
        boundary = (window + 1) * telemetry.window
        fired: List[AlertEvent] = []
        self._window_index += 1
        for objective in self.objectives:
            history = self._errors[objective.name]
            history.append(self._window_error(objective, stats))
            for index, rule in enumerate(self.rules):
                burn_fast = self._burn(objective, history, rule.fast_windows)
                burn_slow = self._burn(objective, history, rule.slow_windows)
                key = (objective.name, index)
                firing = self._firing.get(key, False)
                if burn_fast >= rule.threshold and burn_slow >= rule.threshold:
                    if not firing:
                        event = AlertEvent(
                            time=float(boundary),
                            objective=objective.name,
                            severity=rule.severity,
                            burn_fast=float(burn_fast),
                            burn_slow=float(burn_slow),
                            threshold=float(rule.threshold),
                            window=int(window),
                        )
                        fired.append(event)
                        self.alerts.append(event)
                        self._firing[key] = True
                elif burn_fast < rule.threshold:
                    self._firing[key] = False
        return fired

    def _burn(
        self,
        objective: SloObjective,
        history: Deque[Tuple[float, float]],
        span: int,
    ) -> float:
        """Burn rate over the trailing ``span`` windows (0 if no traffic).

        Short histories evaluate over what exists — a budget-torching
        first window should page immediately, not wait for the slow pane
        to fill.
        """
        recent = list(history)[-span:]
        total = sum(entry[1] for entry in recent)
        if total <= 0:
            return 0.0
        violations = sum(entry[0] for entry in recent)
        return (violations / total) / objective.budget
