"""Ratio policies: interchangeable per-batch 4-bit-ratio selection strategies.

Every policy implements the :class:`~repro.serving.engine.RatioPolicy`
protocol: the engine shows it the model's admitted trace once per run
(:meth:`on_run_start`) and then asks for a ratio per batch with one
signature, ``select(context: PolicyContext)``.  The context carries the
batch start time plus queue depth, server index, the telemetry bus and (on
generation runs) the decode pressure, so fixed-ratio,
schedule-driven, controller-driven and load-driven deployments are
interchangeable under one engine — what the seed spread across its
simulator's ``ratio`` vs ``ratio_schedule`` arguments and a second, adaptive
simulator.  The time-driven policies read ``context.time`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.data.traces import RequestTrace
from repro.serving.core import check_integer, check_positive, check_ratio

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.controller import AdaptiveRatioController
    from repro.serving.telemetry import TelemetryBus


@dataclass
class GenerationStepContext:
    """Per-iteration decode pressure handed to ratio policies.

    Built by the :class:`~repro.serving.generation.IterationScheduler` once
    per decode iteration and attached to :attr:`PolicyContext.generation`,
    so a policy can switch precision *mid-sequence*: ``prefill_tokens`` is
    the joiners' total prompt tokens (prefilled first), ``tokens_in_flight``
    the token footprint of the running batch (prompt + generated so far),
    and ``waiting`` the queued sequences that have arrived but not joined.
    ``None`` on the one-shot batch paths.
    """

    prefill_tokens: int = 0
    tokens_in_flight: int = 0
    waiting: int = 0


@dataclass
class PolicyContext:
    """Per-batch information handed to every ratio policy's ``select``.

    ``time`` is the batch service start (simulation seconds).
    ``queue_depth`` counts the requests that have arrived and are still
    waiting when the batch forms (including the ones about to ride in it),
    and ``server`` is the accelerator it runs on.  A policy serves the one
    model it was registered with, so the context names no model.

    When the engine carries a :class:`~repro.serving.telemetry.TelemetryBus`
    it is exposed as ``telemetry`` (``None`` otherwise), giving policies
    windowed *per-server* signals — served rate, utilization, queue depth —
    instead of only the instantaneous ones.

    On iteration-level generation runs ``generation`` carries the decode
    step's :class:`GenerationStepContext` (``None`` on one-shot batch
    paths), so precision can react to decode pressure per iteration.
    """

    time: float
    queue_depth: int = 0
    server: int = 0
    telemetry: Optional["TelemetryBus"] = None
    generation: Optional[GenerationStepContext] = None


class FixedRatioPolicy:
    """Always run at one 4-bit ratio (the fixed deployments of Figure 8)."""

    def __init__(self, ratio: float = 0.0) -> None:
        self.ratio = check_ratio(ratio)

    def on_run_start(self, trace: RequestTrace) -> None:
        pass

    def select(self, context: PolicyContext) -> float:
        return self.ratio


class RatioSchedulePolicy:
    """Ratio from an arbitrary ``time -> ratio`` schedule callable."""

    def __init__(self, schedule: Callable[[float], float]) -> None:
        self.schedule = schedule

    def on_run_start(self, trace: RequestTrace) -> None:
        pass

    def select(self, context: PolicyContext) -> float:
        return float(self.schedule(context.time))


class RoundRobinRatioPolicy:
    """Cycle through a ratio list, one step per batch.

    Serving tests and benchmarks use this to drive heterogeneous-ratio batch
    streams through a :class:`~repro.serving.executors.RuntimeExecutor`:
    every batch switches the prepared runtime to the next ratio, which must
    stay an O(1) variable update (no weight requantization).
    """

    def __init__(self, ratios: Sequence[float]) -> None:
        if not len(ratios):
            raise ValueError("ratios must be non-empty")
        self.ratios = [check_ratio(ratio) for ratio in ratios]
        self._next = 0

    def on_run_start(self, trace: RequestTrace) -> None:
        self._next = 0

    def select(self, context: PolicyContext) -> float:
        ratio = self.ratios[self._next % len(self.ratios)]
        self._next += 1
        return ratio


class QueueDepthRatioPolicy:
    """Batch-size-aware load shedding: raise the 4-bit ratio as the queue grows.

    Thresholds map the context's instantaneous queue depth to a ratio, so
    the engine spends accuracy exactly when requests are piling up and
    returns to high precision the moment the queue drains — a per-batch,
    reactive complement to the per-window :class:`AdaptiveRatioPolicy`.

    ``thresholds`` maps minimum queue depth to the ratio used at or above
    that depth; the highest satisfied threshold wins.  Depths below every
    threshold run all-8-bit (``BASE_RATIO``).
    """

    BASE_RATIO = 0.0

    def __init__(self, thresholds: Dict[int, float]) -> None:
        if not thresholds:
            raise ValueError("thresholds must be non-empty")
        self.thresholds = sorted(
            (check_integer("queue depth threshold", depth, 0), check_ratio(ratio))
            for depth, ratio in thresholds.items()
        )

    def on_run_start(self, trace: RequestTrace) -> None:
        pass

    def select(self, context: PolicyContext) -> float:
        ratio = self.BASE_RATIO
        for depth, depth_ratio in self.thresholds:
            if context.queue_depth >= depth:
                ratio = depth_ratio
        return ratio


class DecodePressureRatioPolicy:
    """Mid-sequence precision switching driven by decode pressure.

    A policy for iteration-level generation runs: when the token footprint
    of the running batch plus the queued backlog exceeds
    ``pressure_threshold`` tokens, the iteration runs all-4-bit
    (``PRESSED_RATIO``, cheaper); once pressure drains it returns to
    all-8-bit (``BASE_RATIO``) — so a single sequence's tokens can be
    generated at *different* precisions depending on the load its server
    was under at each step.  Pressure counts ``tokens_in_flight`` plus
    ``prefill_tokens`` about to join, plus ``waiting * waiting_weight``
    (each queued sequence's expected footprint).  A batch with no generation
    context (a one-shot engine) is refused: the policy has nothing to read.
    """

    BASE_RATIO = 0.0
    PRESSED_RATIO = 1.0

    def __init__(self, pressure_threshold: int, waiting_weight: float = 0.0) -> None:
        self.pressure_threshold = check_integer(
            "pressure_threshold", pressure_threshold, 1
        )
        # A NaN weight would never reach the threshold (the policy pins
        # BASE_RATIO); a negative one would make a longer queue less pressure.
        self.waiting_weight = check_positive(
            "waiting_weight", waiting_weight, allow_zero=True
        )
        self.switches = 0
        self._last: Optional[float] = None

    def on_run_start(self, trace: RequestTrace) -> None:
        self.switches = 0
        self._last = None

    def select(self, context: PolicyContext) -> float:
        generation = context.generation
        if generation is None:
            raise ValueError(
                "DecodePressureRatioPolicy reads decode pressure and serves "
                "generation runs only (IterationScheduler); this batch has "
                "no generation context"
            )
        pressure = (
            generation.tokens_in_flight
            + generation.prefill_tokens
            + generation.waiting * self.waiting_weight
        )
        ratio = (
            self.PRESSED_RATIO if pressure >= self.pressure_threshold
            else self.BASE_RATIO
        )
        if self._last is not None and ratio != self._last:
            self.switches += 1
        self._last = ratio
        return ratio


class AdaptiveRatioPolicy:
    """Per-window adaptation driven by an :class:`AdaptiveRatioController`.

    Reproduces the Figure 9 control loop exactly as the seed's adaptive
    simulator did: the trace is divided into control
    windows; at every window boundary the controller observes the window's
    request rate and picks the ratio for that window.  ``window_ratios`` and
    ``timeline`` expose the resulting plan for reporting (average ratio,
    effective accuracy).
    """

    def __init__(
        self, controller: "AdaptiveRatioController", control_window: float = 1.0
    ) -> None:
        self.controller = controller
        self.control_window = check_positive("control_window", control_window)
        self.window_ratios: np.ndarray = np.zeros(0, dtype=np.float64)
        self.timeline: List[Dict[str, float]] = []

    def on_run_start(self, trace: RequestTrace) -> None:
        num_windows = int(np.ceil(trace.duration / self.control_window))
        self.window_ratios = np.zeros(num_windows, dtype=np.float64)
        self.timeline = []
        for window in range(num_windows):
            start = window * self.control_window
            end = min(start + self.control_window, trace.duration)
            observed_rate = trace.rate_in_window(start, end)
            ratio = self.controller.update(observed_rate)
            self.window_ratios[window] = ratio
            self.timeline.append({"start": start, "rate": observed_rate, "ratio": ratio})

    def select(self, context: PolicyContext) -> float:
        if self.window_ratios.size == 0:
            return float(self.controller.current_ratio)
        window = min(
            int(context.time / self.control_window), self.window_ratios.size - 1
        )
        return float(self.window_ratios[window])

    @property
    def average_ratio(self) -> float:
        """Time-averaged ratio over the current run's control windows."""
        if self.window_ratios.size == 0:
            return 0.0
        return float(np.mean(self.window_ratios))


class PerServerAdaptiveRatioPolicy:
    """Per-server ratio adaptation driven by per-server telemetry signals.

    The seed controller (and :class:`AdaptiveRatioPolicy`) observes the
    *global* trace rate per control window — every server then runs the same
    ratio, even when placement has concentrated the load on a few of them.
    This policy closes the ROADMAP item: it keeps **one
    :class:`AdaptiveRatioController` per server** (built by
    ``controller_factory``, so each holds independent state) and feeds each
    controller the rate *its* server actually served over the previous
    window, read from the engine's
    :class:`~repro.serving.telemetry.TelemetryBus` through the policy
    context.  Without a telemetry bus it falls back to the instantaneous
    queue-depth-per-window rate, a conservative local signal.

    A controller is updated lazily: the first batch a server runs in a new
    control window triggers one ``update()``.  The rate it observes is the
    served rate of the *telemetry bus's* most recent completed window — the
    freshest per-server signal available — so ``control_window`` (the
    update cadence) and the bus's aggregation window may differ without the
    policy silently reading a stale interval.  ``timeline`` records every
    update as ``{"server", "window", "rate", "ratio"}`` for reporting.
    """

    def __init__(
        self,
        controller_factory: Callable[[], "AdaptiveRatioController"],
        control_window: float = 1.0,
    ) -> None:
        self.controller_factory = controller_factory
        self.control_window = check_positive("control_window", control_window)
        self.controllers: Dict[int, "AdaptiveRatioController"] = {}
        self.timeline: List[Dict[str, float]] = []
        self._last_window: Dict[int, int] = {}

    def on_run_start(self, trace: RequestTrace) -> None:
        self.controllers = {}
        self.timeline = []
        self._last_window = {}

    def controller_for(self, server: int) -> "AdaptiveRatioController":
        controller = self.controllers.get(server)
        if controller is None:
            controller = self.controllers[server] = self.controller_factory()
        return controller

    def select(self, context: PolicyContext) -> float:
        server = context.server
        controller = self.controller_for(server)
        window = int(context.time / self.control_window)
        if window > self._last_window.get(server, -1):
            if context.telemetry is not None:
                # Query in the *bus's* window units: the most recent
                # completed telemetry window before this batch's start.
                bus_window = context.telemetry.window_index(context.time)
                rate = context.telemetry.served_rate(server, bus_window - 1)
            else:
                rate = context.queue_depth / self.control_window
            ratio = controller.update(float(rate))
            self.timeline.append(
                {
                    "server": float(server),
                    "window": float(window),
                    "rate": float(rate),
                    "ratio": float(ratio),
                }
            )
            self._last_window[server] = window
        return float(controller.current_ratio)
