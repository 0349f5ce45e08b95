"""Cluster control plane: heterogeneous placement + telemetry + autoscaling.

The engine (:mod:`repro.serving.engine`) gives K server clocks one queue and
pluggable dispatch; this module is the layer *above* it — the part of a
production serving system that decides what the cluster looks like:

* :class:`ServerSpec` — one server's identity: a latency backend derived
  from the :mod:`repro.hardware` GPU/NPU models (or a real executor) plus a
  scalar ``speed`` (requests/second at a reference batch) that placement
  weighs.  :func:`gpu_server` and :func:`npu_server` build specs straight
  from the device catalogs, so a cluster can mix e.g. one fast GPU with two
  slow NPUs.
* **Placement** — :class:`~repro.serving.placement.Placer` implementations
  are resolved by name (``"free_clock"``, ``"least_work"``, ``"weighted"``)
  with speeds taken from the specs, or passed as instances.
* **Telemetry** — every :class:`ClusterEngine` owns a
  :class:`~repro.serving.telemetry.TelemetryBus`; the engine publishes
  per-batch/per-drop events into it and policies read it through
  :class:`~repro.serving.policies.PolicyContext`.
* :class:`Autoscaler` — a window-boundary policy deciding how many servers
  stay active.  :class:`QueueDepthAutoscaler` and
  :class:`SloLatencyAutoscaler` implement hysteresis-based scaling on queue
  depth and windowed latency percentiles;
  :class:`PredictiveFaultAutoscaler` additionally watches per-server
  telemetry trends and provisions *before* the SLO window breaks.  Scale
  decisions are applied via
  :meth:`~repro.serving.engine.ServingEngine.set_active_servers` and
  recorded as :class:`~repro.serving.telemetry.ScaleEvent` in the timeline.
* **Failure domains** — every spec carries a ``zone``/``rack`` identity;
  :class:`ClusterTopology` groups servers by the failure domain they share
  fate with.  Domain-scoped faults (``zone_outage``, ``rack_slowdown``)
  expand to per-server events against the topology,
  :class:`~repro.serving.placement.SpreadPlacer` keeps load from
  concentrating in one domain, and with ``min_domains`` set the autoscaler
  never parks a model's way down to a single domain.
* **Warm spares** — a :class:`~repro.serving.resilience.WarmSparePool`
  holds pre-replicated standby servers out of the ordinary active set; a
  crash of an active server *promotes* the fastest healthy spare with only
  the pool's ``promotion_latency`` (not the cold ``startup_delay``), and a
  later recovery demotes a spare back to reserve.  Both land on the
  telemetry timeline as ``"promote"``/``"demote"`` scale events.

A :class:`ClusterEngine` with one GPU spec, no placer and no autoscaler
degenerates to the seed single-server FIFO simulator (bit-identical
latencies); see ``tests/test_serving_cluster.py``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Set, Tuple, Union

import numpy as np

from repro.data.traces import RequestTrace
from repro.hardware.npu import NpuConfig, NpuLatencyModel
from repro.serving.core import check_integer, check_percentile, check_positive
from repro.serving.engine import (
    BatchingConfig,
    EngineResult,
    Executor,
    RatioPolicy,
    Request,
    ServingEngine,
)
from repro.serving.executors import ModeledExecutor
from repro.serving.metrics import attainment_within, latency_percentile
from repro.serving.placement import (
    FreeClockPlacer,
    LeastOutstandingWorkPlacer,
    ModelAffinityPlacer,
    Placer,
    PredictivePlacer,
    ServiceEstimator,
    SpreadPlacer,
    WeightedSpeedPlacer,
)
from repro.serving.resilience import (
    CheckpointPolicy,
    DegradableExecutor,
    FaultEvent,
    FaultSchedule,
    MigrationPolicy,
    WarmSparePool,
)
from repro.serving.schedulers import Scheduler
from repro.serving.simulator import ServiceTimeModel
from repro.serving.telemetry import (
    ClusterWindowStats,
    ScaleEvent,
    TelemetryBus,
    fold_rate,
)


# ----------------------------------------------------------------------
# Server profiles
# ----------------------------------------------------------------------
@dataclass
class ServerSpec:
    """One server of a (possibly heterogeneous) cluster.

    ``service_model`` is the analytic latency backend for modeled execution;
    ``executor`` optionally overrides it with any
    :class:`~repro.serving.engine.Executor` (e.g. a
    :class:`~repro.serving.executors.RuntimeExecutor` owning real prepared
    kernels).  ``speed`` is the server's serving rate in requests/second at
    the reference batch — only the *ratios* between specs matter, and the
    speed-aware placers consume them verbatim.

    ``zone`` / ``rack`` are the server's failure-domain identity: servers
    sharing a zone (or, absent zones, a rack) share fate under correlated
    faults (``zone_outage``, ``rack_slowdown``).  Both default to ``""`` —
    no declared domain, every server its own island — so existing configs
    are untouched; :class:`ClusterTopology` derives the domain map.

    ``health`` / ``slow_factor`` are run-time state maintained by the fault
    plane (:mod:`repro.serving.resilience`): ``"healthy"`` serves at nominal
    speed, ``"degraded"`` serves with service times inflated by
    ``slow_factor``, and ``"failed"`` serves nothing (the control plane
    keeps it out of the active set until it recovers).  A
    :class:`ClusterEngine` given a fault schedule resets both per run.
    """

    name: str
    speed: float
    service_model: Optional[ServiceTimeModel] = None
    executor: Optional[Executor] = None
    device: str = ""
    zone: str = ""
    rack: str = ""
    health: str = "healthy"
    slow_factor: float = 1.0

    def __post_init__(self) -> None:
        check_positive("speed (requests/second)", self.speed)
        if self.service_model is None and self.executor is None:
            raise ValueError("a ServerSpec needs a service_model or an executor")

    @property
    def available(self) -> bool:
        """Whether the server may hold a place in the active set."""
        return self.health != "failed"

    def fail(self) -> None:
        self.health = "failed"

    def degrade(self, factor: float) -> None:
        if factor <= 1.0:
            raise ValueError("a slowdown needs factor > 1")
        self.health = "degraded"
        self.slow_factor = float(factor)

    def recover(self) -> None:
        self.health = "healthy"
        self.slow_factor = 1.0

    def build_executor(self) -> Executor:
        """The executor serving this server's batches."""
        if self.executor is not None:
            return self.executor
        return ModeledExecutor(self.service_model)

    def estimate_batch_seconds(
        self,
        batch_size: int,
        mode: str = "int8",
        ratio: float = 0.0,
        residual: float = 1.0,
        transfer: float = 0.0,
    ) -> float:
        """Estimated service seconds for one batch (speed fallback without
        a service model).

        ``residual`` scales the estimate for partially-checkpointed work: a
        migrated cohort whose largest surviving demand is ``1 - progress``
        costs only that fraction of the full batch (see
        :class:`~repro.serving.resilience.CheckpointPolicy`).  ``transfer``
        adds the cohort's checkpoint-restore seconds on top (see
        :meth:`~repro.serving.resilience.StepCheckpoint.restore_seconds`) —
        a migrated batch is cheap to *re-execute* but not free to *land*.
        """
        if not 0 < residual <= 1:
            raise ValueError("residual must be in (0, 1]")
        if transfer < 0:
            raise ValueError("transfer must be >= 0 seconds")
        if self.service_model is not None:
            return (
                self.service_model.batch_latency(batch_size, mode, ratio) * residual
                + transfer
            )
        return batch_size / self.speed * residual + transfer


def _measured_speed(
    service_model: ServiceTimeModel, reference_batch: int, mode: str
) -> float:
    latency = service_model.batch_latency(reference_batch, mode)
    if latency <= 0:
        raise ValueError("reference batch latency must be positive")
    return reference_batch / latency


def gpu_server(
    name: str,
    model_name: str = "vit_base",
    gpu: str = "a6000",
    anchor_batches: Sequence[int] = (1, 8, 16, 32, 64, 128),
    reference_batch: int = 64,
    mode: str = "int8",
    zone: str = "",
    rack: str = "",
) -> ServerSpec:
    """A GPU-backed server profile from the :mod:`repro.hardware.gpu` model.

    ``speed`` is measured from the device's own latency model at
    ``reference_batch`` in ``mode`` — the number placement weighs, derived
    rather than guessed.  ``zone``/``rack`` declare the server's failure
    domain (see :class:`ClusterTopology`).
    """
    service = ServiceTimeModel(model_name, gpu=gpu, anchor_batches=anchor_batches)
    return ServerSpec(
        name=name,
        speed=_measured_speed(service, reference_batch, mode),
        service_model=service,
        device=f"gpu:{gpu}",
        zone=zone,
        rack=rack,
    )


def npu_server(
    name: str,
    model_name: str = "vit_base",
    config: Optional[NpuConfig] = None,
    anchor_batches: Sequence[int] = (1, 8, 16, 32, 64, 128),
    reference_batch: int = 64,
    mode: str = "int8",
    zone: str = "",
    rack: str = "",
) -> ServerSpec:
    """An NPU-backed server profile from the :mod:`repro.hardware.npu` model.

    The cycle model is adapted to the serving interface through
    :class:`~repro.hardware.npu.NpuServiceAdapter` (mode names map onto NPU
    ratios).  With the default 32x32/200 MHz config an NPU server is orders
    of magnitude slower than a datacenter GPU on the same model — pass a
    scaled-up :class:`~repro.hardware.npu.NpuConfig` for a merely-slow tier.
    """
    adapter = NpuLatencyModel(config or NpuConfig()).as_service_backend()
    service = ServiceTimeModel(
        model_name, anchor_batches=anchor_batches, latency_model=adapter
    )
    return ServerSpec(
        name=name,
        speed=_measured_speed(service, reference_batch, mode),
        service_model=service,
        device="npu",
        zone=zone,
        rack=rack,
    )


# ----------------------------------------------------------------------
# Failure-domain topology
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterTopology:
    """Failure-domain map of a cluster: which servers share fate.

    Built from the specs' ``zone``/``rack`` declarations
    (:meth:`from_specs`).  A server's *domain* is its finest declared
    correlated-failure group: ``"zone:<name>"`` when it has a zone,
    ``"rack:<name>"`` when it only has a rack, and ``"server:<id>"`` when it
    declared neither (an undeclared server is its own island, which keeps
    domain-unaware clusters behaving exactly as before).  The spread placer,
    domain-aware autoscaling and :meth:`~repro.serving.resilience.
    FaultSchedule.expand` all consume this map.
    """

    zone_by_server: Tuple[str, ...]
    rack_by_server: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.zone_by_server) != len(self.rack_by_server):
            raise ValueError("zone and rack maps must cover the same servers")

    @classmethod
    def from_specs(cls, specs: Sequence[ServerSpec]) -> "ClusterTopology":
        return cls(
            zone_by_server=tuple(str(spec.zone) for spec in specs),
            rack_by_server=tuple(str(spec.rack) for spec in specs),
        )

    @property
    def num_servers(self) -> int:
        return len(self.zone_by_server)

    def domain_of(self, server: int) -> str:
        """The server's finest failure-domain label (always non-empty)."""
        zone = self.zone_by_server[server]
        if zone:
            return f"zone:{zone}"
        rack = self.rack_by_server[server]
        if rack:
            return f"rack:{rack}"
        return f"server:{server}"

    def servers_in_zone(self, name: str) -> List[int]:
        """Member server ids of one zone, ascending (empty if unknown)."""
        return [
            server
            for server, zone in enumerate(self.zone_by_server)
            if zone == str(name)
        ]

    def servers_in_rack(self, name: str) -> List[int]:
        """Member server ids of one rack, ascending (empty if unknown)."""
        return [
            server
            for server, rack in enumerate(self.rack_by_server)
            if rack == str(name)
        ]

    @property
    def zones(self) -> Dict[str, List[int]]:
        """Declared zones and their member servers (insertion order)."""
        groups: Dict[str, List[int]] = {}
        for server, zone in enumerate(self.zone_by_server):
            if zone:
                groups.setdefault(zone, []).append(server)
        return groups

    @property
    def racks(self) -> Dict[str, List[int]]:
        """Declared racks and their member servers (insertion order)."""
        groups: Dict[str, List[int]] = {}
        for server, rack in enumerate(self.rack_by_server):
            if rack:
                groups.setdefault(rack, []).append(server)
        return groups

    @property
    def domains(self) -> Dict[str, List[int]]:
        """Every failure domain and its member servers."""
        groups: Dict[str, List[int]] = {}
        for server in range(self.num_servers):
            groups.setdefault(self.domain_of(server), []).append(server)
        return groups

    @property
    def num_domains(self) -> int:
        return len(self.domains)


# ----------------------------------------------------------------------
# Autoscalers
# ----------------------------------------------------------------------
class Autoscaler(Protocol):
    """Window-boundary elasticity policy.

    Observes one closed control window (cluster-wide stats) and returns the
    number of servers that should be active for the next window; the
    control plane clamps the answer to ``[min_servers, cluster size]`` and
    picks *which* servers to add/remove (fastest-first on scale-up,
    slowest-first on scale-down).

    Stateful autoscalers (hysteresis streaks) should also implement
    ``reset()``; :meth:`ClusterEngine.run` calls it when present so every
    run of the same deterministic workload starts from the same state.
    """

    def decide(self, stats: ClusterWindowStats, active: int) -> int:
        ...


class _CalmStreak:
    """The hysteresis every autoscaler here shares: one streak rule.

    A breach scales **up** by ``step`` at once; ``patience`` consecutive
    calm windows scale **down** by ``step``; any other window breaks the
    streak.  The class holding it declares ``patience``, ``step`` and
    ``_calm_windows`` as dataclass fields and calls
    ``_check_streak()`` from ``__post_init__``.
    """

    def _check_streak(self) -> None:
        self.patience = check_integer("patience", self.patience, 1)
        self.step = check_integer("step", self.step, 1)

    def reset(self) -> None:
        """Clear the hysteresis streak (called by the control plane per run)."""
        self._calm_windows = 0

    def _streak(self, active: int, breach: bool, calm: bool = False) -> int:
        if breach:
            self._calm_windows = 0
            return active + self.step
        self._calm_windows = self._calm_windows + 1 if calm else 0
        if self._calm_windows < self.patience:
            return active
        self._calm_windows = 0
        return active - self.step


@dataclass
class QueueDepthAutoscaler(_CalmStreak):
    """Scale on queue depth with hysteresis.

    Scale **up** by ``step`` whenever the window's mean queue depth exceeds
    ``scale_up_depth``.  Scale **down** only after ``patience`` consecutive
    windows below ``scale_down_depth`` — the hysteresis that stops the
    cluster from flapping on a bursty trace.  The asymmetric thresholds
    (up >> down) are the second half of the hysteresis band.
    """

    scale_up_depth: float = 64.0
    scale_down_depth: float = 8.0
    patience: int = 2
    step: int = 1
    _calm_windows: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        # A nan threshold fails every comparison: the cluster would never scale.
        if not (np.isfinite(self.scale_up_depth) and np.isfinite(self.scale_down_depth)):
            raise ValueError(
                "scale_up_depth and scale_down_depth must be finite (got "
                f"{self.scale_up_depth!r}, {self.scale_down_depth!r})"
            )
        if self.scale_down_depth > self.scale_up_depth:
            raise ValueError("scale_down_depth must not exceed scale_up_depth")
        self._check_streak()

    def decide(self, stats: ClusterWindowStats, active: int) -> int:
        depth = stats.mean_queue_depth
        return self._streak(
            active, depth > self.scale_up_depth, depth < self.scale_down_depth
        )


@dataclass
class SloLatencyAutoscaler(_CalmStreak):
    """Scale on a windowed latency-percentile SLO with hysteresis.

    Scale **up** when the window's ``percentile`` response time exceeds
    ``slo_seconds`` — or when the window *dropped* requests: a mass-dropping
    cluster can show healthy served-latency percentiles precisely because
    the queue is being culled, so drops are treated as the strongest breach
    signal.  Scale **down** after ``patience`` consecutive windows in which
    nothing was dropped and the percentile sits below ``slo_seconds *
    headroom`` (spare capacity) — so the cluster sheds servers only when
    the SLO is met with margin.  Windows with no completed responses and no
    drops leave the size unchanged.
    """

    slo_seconds: float
    percentile: float = 99.0
    headroom: float = 0.5
    patience: int = 2
    step: int = 1
    _calm_windows: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive("slo_seconds", self.slo_seconds)
        check_percentile(self.percentile)
        if not 0 < self.headroom <= 1:
            raise ValueError("headroom must be in (0, 1]")
        self._check_streak()

    def decide(self, stats: ClusterWindowStats, active: int) -> int:
        if stats.drops > 0:
            return self._streak(active, breach=True)
        if stats.latencies.size == 0:
            return active
        observed = stats.latency_percentile(self.percentile)
        return self._streak(
            active,
            observed > self.slo_seconds,
            observed < self.slo_seconds * self.headroom,
        )


@dataclass
class PredictiveFaultAutoscaler(SloLatencyAutoscaler):
    """Provision *ahead of* predicted degradation from telemetry trends.

    The reactive autoscalers wait for a breach — a blown percentile or a
    dropped request — which under a fault means a whole SLO window of damage
    is already done before capacity moves.  This policy watches the same
    per-server served-per-busy-second signal
    :class:`~repro.serving.placement.PredictivePlacer` forecasts with
    (:func:`~repro.serving.telemetry.fold_rate`, weight ``alpha``) and
    scales **up** the moment a server's newest windowed rate *collapses*
    below ``collapse_ratio`` of its forecast (a slowdown fault, thermal
    throttle or failing link shows up there one window after onset,
    typically before the cluster percentile breaks).  Otherwise it decides
    as :class:`SloLatencyAutoscaler`: the breach signals remain as the
    reactive backstop, and scale-down keeps the same hysteresis.

    The control plane hands the policy its
    :class:`~repro.serving.telemetry.TelemetryBus` through :meth:`attach`
    (called by :meth:`ClusterEngine.run`); without a bus the policy degrades
    to the reactive behaviour.  When a collapse triggered the decision,
    ``last_reason`` names the collapsed servers and the control plane
    appends it to the scale event's audit line.
    """

    collapse_ratio: float = 0.6
    alpha: float = 0.5
    _ewma: Dict[int, float] = field(default_factory=dict, init=False, repr=False)
    _telemetry: Optional[TelemetryBus] = field(
        default=None, init=False, repr=False
    )
    _pending_alerts: List[object] = field(
        default_factory=list, init=False, repr=False
    )
    last_reason: str = field(default="", init=False, repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.collapse_ratio < 1:
            raise ValueError("collapse_ratio must be in (0, 1)")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")

    def attach(self, telemetry: TelemetryBus) -> None:
        """Receive the cluster's telemetry bus (control-plane hook)."""
        self._telemetry = telemetry

    def reset(self) -> None:
        """Clear forecasts and hysteresis (called by the control plane per run)."""
        super().reset()
        self._ewma.clear()
        self._pending_alerts.clear()
        self.last_reason = ""

    def observe_alerts(self, alerts: Sequence[object]) -> None:
        """Receive freshly fired SLO burn-rate alerts (control-plane hook).

        Page-severity alerts (:class:`repro.obs.slo.AlertEvent`, duck-typed)
        queue as a scale-up trigger consumed by the next :meth:`decide` —
        the burn-rate signal sees a budget-torching incident across the
        whole error budget, which the single-window percentile check can
        miss when each window is individually borderline.  Never called on
        clusters without an SLO monitor, leaving behaviour unchanged.
        """
        self._pending_alerts.extend(
            alert for alert in alerts
            if getattr(alert, "severity", "page") == "page"
        )

    def _collapsed_servers(self, window: int) -> List[int]:
        """Fold the window into the forecasts; return servers that collapsed."""
        bus = self._telemetry
        collapsed: List[int] = []
        if bus is None or window < 0:
            return collapsed
        for server in range(bus.num_servers):
            rate = bus.measured_rate(server, window)
            forecast = self._ewma.get(server, float("nan"))
            if rate < self.collapse_ratio * forecast:  # false on either nan
                collapsed.append(server)
            # The degraded rate still folds in (slowly, via the EWMA): the
            # policy must also notice when the server *recovers*.
            self._ewma[server] = fold_rate(forecast, rate, self.alpha)
        return collapsed

    def decide(self, stats: ClusterWindowStats, active: int) -> int:
        self.last_reason = ""
        if self._pending_alerts:
            alert = self._pending_alerts[0]
            self._pending_alerts.clear()
            # Fold the window into the forecasts even when the alert
            # preempts the collapse check: recovery tracking must not stall.
            self._collapsed_servers(stats.window)
            self.last_reason = (
                "slo burn-rate alert: "
                f"{getattr(alert, 'objective', 'objective')} burning at "
                f"{getattr(alert, 'burn_fast', 0.0):.1f}x budget"
            )
            return self._streak(active, breach=True)
        collapsed = self._collapsed_servers(stats.window)
        if collapsed:
            self.last_reason = (
                "predicted degradation: served-per-busy-second collapsed on "
                f"server(s) {collapsed}"
            )
            return self._streak(active, breach=True)
        return super().decide(stats, active)


# ----------------------------------------------------------------------
# Control plane
# ----------------------------------------------------------------------
@dataclass
class ClusterResult:
    """Outcome of one cluster run: engine result + telemetry + events.

    ``scale_events`` are the run's elasticity decisions, ``fault_events``
    the fault injections the control plane applied (empty without a fault
    schedule).
    """

    result: EngineResult
    telemetry: TelemetryBus
    scale_events: List[ScaleEvent]
    specs: List[ServerSpec]
    initial_active: int = 0
    fault_events: List[FaultEvent] = field(default_factory=list)
    alert_events: List[object] = field(default_factory=list)

    @property
    def migrated(self) -> int:
        """Requests moved off failed/deactivated servers and re-served."""
        return self.result.migrated

    @property
    def promotions(self) -> List[ScaleEvent]:
        """Warm-spare activations (scale events with action ``"promote"``)."""
        return [event for event in self.scale_events if event.action == "promote"]

    def timeline(self) -> List[object]:
        """Scale, fault *and* alert events merged in deterministic time order."""
        return self.telemetry.timeline()

    def to_json(self) -> Dict[str, object]:
        """JSON-ready report: engine aggregates + control-plane events."""
        return {
            "engine": self.result.to_json(),
            "initial_active": int(self.initial_active),
            "peak_active": int(self.peak_active),
            "server_names": [spec.name for spec in self.specs],
            "scale_events": [
                {
                    "time": float(event.time),
                    "action": event.action,
                    "server": int(event.server),
                    "active_after": int(event.active_after),
                    "reason": event.reason,
                }
                for event in self.scale_events
            ],
            "fault_events": [
                {
                    "time": float(event.time),
                    "server": int(event.server),
                    "kind": event.kind,
                    "domain": event.domain,
                }
                for event in self.fault_events
            ],
            "alert_events": [
                {
                    "time": float(event.time),
                    "objective": event.objective,
                    "severity": event.severity,
                    "burn_fast": float(event.burn_fast),
                    "burn_slow": float(event.burn_slow),
                    "threshold": float(event.threshold),
                    "window": int(event.window),
                }
                for event in self.alert_events
            ],
        }

    def deadline_attainment(self) -> float:
        """Fraction of deadline-carrying requests that met their deadline."""
        return self.result.deadline_attainment()

    @property
    def latencies(self) -> np.ndarray:
        return self.result.latencies

    @property
    def throughput(self) -> float:
        return self.result.throughput

    def latency_percentile(self, percentile: float) -> float:
        return latency_percentile(self.latencies, percentile)

    @property
    def p99_latency(self) -> float:
        return self.latency_percentile(99)

    def slo_attainment(self, slo_seconds: float) -> float:
        """Fraction of admitted requests served within a response-time SLO.

        Dropped requests count as misses (their latency slot is ``nan``).
        """
        return attainment_within(self.result.request_latencies, slo_seconds)

    @property
    def server_seconds(self) -> float:
        """Accumulated busy seconds across servers (the run's compute bill)."""
        return self.result.busy_time

    @property
    def peak_active(self) -> int:
        """Largest active-set size reached during the run."""
        return max(
            [self.initial_active]
            + [event.active_after for event in self.scale_events]
        )

    def active_timeline(self) -> List[Dict[str, float]]:
        """``[{"time", "active"}...]`` — cluster size over the run."""
        return [{"time": 0.0, "active": float(self.initial_active)}] + [
            {"time": event.time, "active": float(event.active_after)}
            for event in self.scale_events
        ]


_PLACERS = ("free_clock", "least_work", "weighted", "predictive", "spread")


class ClusterEngine:
    """Heterogeneous serving cluster with telemetry, autoscaling and faults.

    ``specs`` define the servers (order = server ids; put fast servers
    first so tie-breaks favour them).  ``placer`` is a
    :class:`~repro.serving.placement.Placer` instance or one of
    ``"free_clock"``, ``"least_work"``, ``"weighted"``, ``"predictive"``
    (speeds *and* batch-size-aware service estimators taken from the
    specs); ``None`` keeps the engine's inlined seed dispatch.

    With an ``autoscaler`` the run starts at ``initial_servers`` active
    (default ``min_servers``) and re-evaluates the size at every telemetry
    window boundary; newly activated servers become available
    ``startup_delay`` seconds after the decision (provisioning lag).
    Scale-up activates the fastest parked *healthy* server, scale-down
    parks the slowest active one, and every decision lands in the telemetry
    timeline.  Under a :class:`~repro.serving.placement.ModelAffinityPlacer`
    scale-down additionally respects per-model floors: a model's last
    active affine server is never parked (override the default floor of one
    per affinity model with ``model_floors``).

    A ``fault_schedule`` (:class:`~repro.serving.resilience.FaultSchedule`)
    injects crashes, slowdowns and recoveries at window boundaries; a
    ``migration`` policy (:class:`~repro.serving.resilience.
    MigrationPolicy`) decides what happens to the work a crashed — or, with
    migration configured, autoscaler-deactivated — server leaves behind.
    Domain-scoped schedule events are expanded against the cluster's
    :class:`ClusterTopology` at construction.  A ``checkpoint`` policy
    (:class:`~repro.serving.resilience.CheckpointPolicy`) lets preempted
    batches keep their checkpointed progress, so migrated victims resume
    with residual demand.  ``warm_spares``
    (:class:`~repro.serving.resilience.WarmSparePool`) reserves the named
    specs as standbys: they start parked, ordinary scale-up skips them, and
    a crash of an active server promotes one with the pool's
    ``promotion_latency`` instead of the cold ``startup_delay``.
    ``min_domains`` makes scale-down refuse to shrink the active set (and
    each affinity model's active set) below that many failure domains.
    Without a migration policy a crash drops its victims (lost work);
    without a fault schedule this class behaves exactly as before.
    """

    def __init__(
        self,
        specs: Sequence[ServerSpec],
        batching: Optional[BatchingConfig] = None,
        scheduler: Optional[Scheduler] = None,
        placer: Union[Placer, str, None] = None,
        window: float = 1.0,
        autoscaler: Optional[Autoscaler] = None,
        min_servers: int = 1,
        initial_servers: Optional[int] = None,
        startup_delay: float = 0.0,
        fault_schedule: Optional[FaultSchedule] = None,
        migration: Optional[MigrationPolicy] = None,
        model_floors: Optional[Dict[str, int]] = None,
        warm_spares: Optional[WarmSparePool] = None,
        min_domains: Optional[int] = None,
        checkpoint: Optional[CheckpointPolicy] = None,
        columnar: bool = True,
        tracer=None,
        slo_monitor=None,
    ) -> None:
        if not specs:
            raise ValueError("a cluster needs at least one ServerSpec")
        self.specs = list(specs)
        self.topology = ClusterTopology.from_specs(self.specs)
        self.autoscaler = autoscaler
        self.warm_spares = warm_spares
        self._spare_ids: Set[int] = (
            set(warm_spares.spares) if warm_spares is not None else set()
        )
        if self._spare_ids:
            out_of_range = [s for s in self._spare_ids if s >= len(self.specs)]
            if out_of_range:
                raise ValueError(
                    f"warm spare pool names server(s) {sorted(out_of_range)}, "
                    f"but the cluster has {len(self.specs)} servers"
                )
            if len(self._spare_ids) >= len(self.specs):
                raise ValueError("warm spares cannot cover every server")
        self._primaries = [
            s for s in range(len(self.specs)) if s not in self._spare_ids
        ]
        self._promoted: Set[int] = set()
        self.min_domains = (
            None if min_domains is None else check_integer("min_domains", min_domains, 1)
        )
        self.checkpoint = checkpoint
        self.min_servers = check_integer("min_servers", min_servers, 1)
        if self.min_servers > len(self.specs):
            raise ValueError("min_servers must be in [1, len(specs)]")
        self.initial_servers = (
            self.min_servers if initial_servers is None
            else check_integer("initial_servers", initial_servers, 1)
        )
        if not self.min_servers <= self.initial_servers <= len(self.specs):
            raise ValueError("initial_servers must be in [min_servers, len(specs)]")
        self.startup_delay = check_positive(
            "startup_delay", startup_delay, allow_zero=True
        )
        if fault_schedule is not None and fault_schedule.has_domain_events:
            # Domain events resolve against *this* cluster's topology; the
            # expanded (fully server-scoped) schedule is what the run cursor
            # walks, each event tagged with its correlated-origin domain.
            fault_schedule = fault_schedule.expand(self.topology)
        self.fault_schedule = fault_schedule
        if fault_schedule is not None:
            for event in fault_schedule:
                if event.server >= len(self.specs):
                    raise ValueError(
                        f"fault schedule names server {event.server}, but the "
                        f"cluster has {len(self.specs)} servers"
                    )
        self.migration = migration
        self.model_floors = dict(model_floors) if model_floors is not None else None
        # Per-run fault cursor (the schedule's events not yet applied, in
        # schedule order); rebuilt by run() so one immutable schedule drives
        # any number of replays.
        self._faults: Optional[deque] = None
        # Per-server degradable executor wrappers (slowdown faults): one
        # list per server, one wrapper per registered model on it.  Only
        # populated when a fault schedule exists, so the default path keeps
        # the executors untouched.
        self._degraders: Optional[List[List[DegradableExecutor]]] = (
            [[] for _ in self.specs] if fault_schedule is not None else None
        )
        # Execution modes seen at register() time, and the mode
        # batch_estimators scores with — the registered one when they all
        # agree, else the "int8" reference — read lazily (placers are built
        # before registration happens) from a one-item list: an estimator
        # holding the cluster would close a cycle (engine -> placer), and a
        # finished cluster would wait for a full garbage collection.
        self._registered_modes: set = set()
        self._estimator_mode = ["int8"]
        # Opt-in observability (duck-typed; see repro.obs): a request
        # tracer threaded into the engine, and an SLO burn-rate monitor
        # evaluated at window boundaries.
        self.tracer = tracer
        self.slo_monitor = slo_monitor
        self.telemetry = TelemetryBus(window=window, num_servers=len(self.specs))
        self.engine = ServingEngine(
            batching=batching,
            num_servers=len(self.specs),
            scheduler=scheduler,
            placer=self.resolve_placer(placer),
            telemetry=self.telemetry,
            columnar=columnar,
            tracer=tracer,
        )
        if self.model_floors is not None:
            # Floors only act through affinity scale-down; accepting them
            # anywhere else would silently configure nothing.
            affinity = self._affinity_placer()
            if affinity is None:
                raise ValueError(
                    "model_floors requires a ModelAffinityPlacer (floors act "
                    "on a model's affine server set)"
                )
            unknown = set(self.model_floors) - set(affinity.affinity)
            if unknown:
                raise ValueError(
                    "model_floors names models absent from the affinity map: "
                    f"{sorted(unknown)}"
                )

    @property
    def speeds(self) -> List[float]:
        return [spec.speed for spec in self.specs]

    def batch_estimators(
        self, mode: Optional[str] = None
    ) -> List[ServiceEstimator]:
        """Per-server batch-size-aware service-time estimators.

        One callable per spec mapping a batch size to estimated service
        seconds via the spec's own latency backend (falling back to the
        scalar speed for executor-only specs) — what the named speed-aware
        placers score with instead of the reference-batch scalar.  With
        ``mode=None`` the execution mode is resolved *lazily* per call: the
        mode the cluster's endpoints registered when they all agree, else
        the ``"int8"`` reference (the same convention the spec speeds are
        measured at) — so a named placer resolved before :meth:`register`
        still estimates the precision that actually runs.

        Each estimator is a pure table: ``estimate_batch_seconds`` is asked
        once per distinct ``(batch size, resolved mode)`` of the spec's
        current ``service_model`` and the float is kept, so a placer scoring
        every candidate server for every batch pays a dict lookup, not the
        latency model.
        """

        registered = self._estimator_mode

        def estimator(spec: ServerSpec) -> ServiceEstimator:
            model, table = spec.service_model, {}

            def estimate(batch: int) -> float:
                nonlocal model, table
                if spec.service_model is not model:  # rebound: start over
                    model, table = spec.service_model, {}
                resolved = mode if mode is not None else registered[0]
                key = (batch, resolved)
                seconds = table.get(key)
                if seconds is None:
                    seconds = table[key] = spec.estimate_batch_seconds(
                        batch, mode=resolved
                    )
                return seconds

            return estimate

        return [estimator(spec) for spec in self.specs]

    def resolve_placer(self, placer: Union[Placer, str, None]) -> Optional[Placer]:
        if placer is None:
            return None
        if isinstance(placer, str):
            if placer == "free_clock":
                return FreeClockPlacer()
            if placer == "least_work":
                return LeastOutstandingWorkPlacer(
                    self.speeds, estimators=self.batch_estimators()
                )
            if placer == "weighted":
                return WeightedSpeedPlacer(
                    self.speeds, estimators=self.batch_estimators()
                )
            if placer == "predictive":
                return PredictivePlacer(
                    self.speeds, estimators=self.batch_estimators()
                )
            if placer == "spread":
                return SpreadPlacer(
                    self.topology,
                    within=WeightedSpeedPlacer(
                        self.speeds, estimators=self.batch_estimators()
                    ),
                )
            raise ValueError(
                f"unknown placer {placer!r}; named placers: {', '.join(_PLACERS)}"
            )
        return placer

    def _affinity_placer(self) -> Optional[ModelAffinityPlacer]:
        """The cluster's affinity placer, unwrapping one spread layer."""
        placer = self.engine.placer
        if isinstance(placer, SpreadPlacer):
            placer = placer.within
        return placer if isinstance(placer, ModelAffinityPlacer) else None

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        policy: Optional[RatioPolicy] = None,
        mode: str = "flexiq",
        executors: Optional[Sequence[Executor]] = None,
    ) -> None:
        """Register a model across the cluster (one executor per server).

        By default each server executes through its own spec's backend
        (heterogeneous service times); pass ``executors`` to override, e.g.
        with per-server :class:`~repro.serving.executors.RuntimeExecutor`
        instances owning real prepared-kernel caches.  With a fault
        schedule every executor is wrapped in a
        :class:`~repro.serving.resilience.DegradableExecutor` so slowdown
        faults can stretch the server's service times at run time.
        """
        self._registered_modes.add(mode)
        self._estimator_mode[0] = mode if len(self._registered_modes) == 1 else "int8"
        if executors is None:
            executors = [spec.build_executor() for spec in self.specs]
        executors = list(executors)
        if self._degraders is not None:
            if len(executors) != len(self.specs):
                raise ValueError(
                    f"got {len(executors)} executors for {len(self.specs)} servers"
                )
            executors = [DegradableExecutor(executor) for executor in executors]
            for server, wrapper in enumerate(executors):
                wrapper.factor = self.specs[server].slow_factor
                self._degraders[server].append(wrapper)
        self.engine.register(name, executors, policy=policy, mode=mode)

    # ------------------------------------------------------------------
    # Driving a run
    # ------------------------------------------------------------------
    def run(
        self,
        trace: Optional[RequestTrace] = None,
        requests: Optional[Sequence[Request]] = None,
        model: Optional[str] = None,
        duration: Optional[float] = None,
        record_responses: Optional[bool] = None,
    ) -> ClusterResult:
        """Serve a trace/request list under the control plane.

        Identical surface to :meth:`ServingEngine.run`; between batches the
        control loop closes telemetry windows, applies due fault injections
        and applies autoscaler decisions.  Without an autoscaler and fault
        schedule this is exactly an engine run plus telemetry.
        """
        if (trace is None) == (requests is None):
            raise ValueError("provide exactly one of trace or requests")
        self.telemetry.reset()
        if self.tracer is not None and hasattr(self.tracer, "reset"):
            self.tracer.reset()
        if self.slo_monitor is not None:
            self.slo_monitor.reset()
        if self.autoscaler is not None:
            if hasattr(self.autoscaler, "attach"):
                # Telemetry-driven policies (PredictiveFaultAutoscaler) read
                # per-server windows straight off the bus.
                self.autoscaler.attach(self.telemetry)
            if hasattr(self.autoscaler, "reset"):
                self.autoscaler.reset()
        self._faults = (
            deque(self.fault_schedule) if self.fault_schedule is not None else None
        )
        self._promoted.clear()
        if self.fault_schedule is not None:
            # Deterministic repeat runs: faults re-play from a clean slate.
            for spec in self.specs:
                spec.recover()
            for wrappers in self._degraders:
                for wrapper in wrappers:
                    wrapper.factor = 1.0
        self.engine.start(
            trace=trace,
            requests=requests,
            model=model,
            duration=duration,
            record_responses=record_responses,
        )
        if self.autoscaler is not None:
            self.engine.set_active_servers(self._primaries[: self.initial_servers])
        elif self._spare_ids:
            # Spares start parked even without an autoscaler: crash-driven
            # promotion is the only thing that activates them.
            self.engine.set_active_servers(self._primaries)
        control = (
            self.autoscaler is not None
            or self.fault_schedule is not None
            # An SLO monitor needs window boundaries even when nothing
            # scales or faults: its burn rates read the closed windows.
            or self.slo_monitor is not None
        )
        window, boundary = 0, self.telemetry.window
        try:
            # With no window-boundary decisions to make, the whole session
            # goes straight to finish(), which sweeps eligible FIFO sessions
            # columnar (stepping here, with a bus attached, is the object loop).
            while control:
                record = self.engine.step()
                if record is None:
                    if self._faults:
                        # Trailing faults: events after the last batch
                        # start (a server crashed in the final window)
                        # must still land.  Apply ONE event, then
                        # re-enter the step loop: a crash may requeue
                        # migrants whose batches a *later* event should
                        # see in flight — draining the whole cursor
                        # here would apply future faults before the work
                        # they are meant to disturb exists.
                        # The fault lands at its own window's end; the
                        # open window and its boundary stay where they are.
                        event = self._faults.popleft()
                        lands = (
                            self.telemetry.window_index(event.time) + 1
                        ) * self.telemetry.window
                        self._apply_fault(event, lands)
                        continue
                    break
                # Close every window boundary the clock has passed.
                # Batch start times are not strictly monotone across
                # servers, so a boundary closes when *some* batch starts
                # beyond it; stragglers still land in their own
                # (already-closed) window's telemetry cell, only the
                # scaling decision sees them late.  Window ``window``
                # closes at ``(window + 1) * telemetry.window``.
                while record.start >= boundary:
                    self._close_window(window, boundary)
                    window += 1
                    boundary = (window + 1) * self.telemetry.window
            result = self.engine.finish()
        except BaseException:
            # A mid-run failure (an unsurvivable crash fault, a rogue
            # placer) must not leave the session open: abort so the same
            # ClusterEngine can run() again — run() re-resets fault state.
            self.engine.abort()
            raise
        return ClusterResult(
            result=result,
            telemetry=self.telemetry,
            scale_events=list(self.telemetry.scale_events),
            specs=self.specs,
            initial_active=(
                min(self.initial_servers, len(self._primaries))
                if self.autoscaler is not None
                else len(self._primaries)
            ),
            fault_events=list(self.telemetry.fault_events),
            alert_events=list(self.telemetry.alert_events),
        )

    def _close_window(self, window: int, boundary: float) -> None:
        """Apply due faults, evaluate SLO burn, then one autoscaling decision.

        Faults that strike strictly *before* the boundary leave the per-run
        cursor here — a fault strikes mid-window but lands when the window
        closes (firing it at its own timestamp, mid-window, is not the
        model).  The SLO monitor reads the
        just-closed window next (alerts land on the timeline beside the
        faults that caused them), and the autoscaler decides last — with
        any fresh alerts already visible as an input signal.
        """
        faults = self._faults
        if faults is not None:
            while faults and faults[0].time < boundary:
                self._apply_fault(faults.popleft(), boundary)
        if self.slo_monitor is not None:
            alerts = self.slo_monitor.evaluate(
                self.telemetry, window, self.engine.active_servers
            )
            for alert in alerts:
                self.telemetry.record_alert_event(alert)
            if alerts and self.autoscaler is not None and hasattr(
                self.autoscaler, "observe_alerts"
            ):
                self.autoscaler.observe_alerts(alerts)
        if self.autoscaler is not None:
            self._autoscale(window, boundary)

    def _apply_fault(self, event: FaultEvent, boundary: float) -> None:
        """Apply one fault event (the autoscaler sees the post-fault world)."""
        spec = self.specs[event.server]
        active = self.engine.active_servers
        if event.kind == "crash":
            if self.warm_spares is not None and event.server in active:
                if self._promote_spare(event.server, boundary):
                    active = self.engine.active_servers
            if event.server in active and len(active) == 1:
                # Losing the sole active server is survivable when a
                # healthy spare is parked: wake the fastest one (with the
                # usual provisioning lag) before the crash lands, recorded
                # as a scale event so the emergency is auditable.
                spares = sorted(
                    (
                        s
                        for s in range(len(self.specs))
                        if s not in active
                        and s != event.server
                        and self.specs[s].available
                    ),
                    key=lambda s: (-self.specs[s].speed, s),
                )
                if not spares:
                    raise RuntimeError(
                        f"server {event.server} ({spec.name}) is the last "
                        "active server and no healthy spare is parked; the "
                        "cluster cannot survive losing it"
                    )
                replacement = spares[0]
                active = sorted(active + [replacement])
                self._rescale(
                    boundary, "add", [replacement], active,
                    f"emergency replacement for crashed server {event.server}",
                    available_from=boundary + self.startup_delay,
                )
            # Preempt even a parked server: it may still be draining a batch
            # a graceful deactivation let finish.
            self.engine.preempt_server(
                event.server,
                event.time,
                policy=self.migration,
                kill_running=True,
                checkpoint=self.checkpoint,
            )
            if event.server in active:
                self.engine.set_active_servers(
                    [server for server in active if server != event.server]
                )
            spec.fail()
        elif event.kind == "slowdown":
            # A slowdown against a crashed server must not resurrect it
            # (degrade() would flip health to "degraded" and the autoscaler
            # would wake it); the event is recorded but changes nothing
            # until the recovery fault lands.
            if spec.health != "failed":
                spec.degrade(event.factor)
                for wrapper in self._degraders[event.server]:
                    wrapper.factor = float(event.factor)
        else:  # recover
            was_failed = spec.health == "failed"
            spec.recover()
            for wrapper in self._degraders[event.server]:
                wrapper.factor = 1.0
            # Without an autoscaler nobody else would re-admit the server;
            # with one, it simply becomes eligible for the next scale-up.
            if was_failed and self.autoscaler is None and event.server not in active:
                self.engine.set_active_servers(
                    sorted(active + [event.server]), available_from=boundary
                )
                if self._promoted and event.server not in self._spare_ids:
                    # The recovered primary replaces a promoted spare, which
                    # drains gracefully back to reserve — capacity stays flat
                    # instead of compounding.
                    self._demote_spare(boundary)
        self.telemetry.record_fault_event(event)

    def _promote_spare(self, crashed: int, boundary: float) -> bool:
        """Activate a healthy reserve spare for a crashed server.

        Promotion is topology-aware: spares *outside* the crashed server's
        failure domain are preferred (a spare sharing the failed zone is one
        power/network event from dying with its promotion), tie-broken by
        speed, then id.  Promotion bypasses the cold ``startup_delay``: the
        spare's executor state is pre-replicated, so it becomes serviceable
        after only the pool's ``promotion_latency``.  Returns False when the
        reserve is exhausted (every spare promoted, crashed or already
        active) — the ordinary emergency path then takes over.
        """
        active = self.engine.active_servers
        failed_domain = self.topology.domain_of(crashed)
        candidates = sorted(
            (
                s
                for s in self._spare_ids
                if s not in self._promoted
                and s not in active
                and s != crashed
                and self.specs[s].available
            ),
            key=lambda s: (
                self.topology.domain_of(s) == failed_domain,
                -self.specs[s].speed,
                s,
            ),
        )
        if not candidates:
            return False
        spare = candidates[0]
        self._promoted.add(spare)
        self._rescale(
            boundary, "promote", [spare], sorted(active + [spare]),
            f"warm spare for crashed server {crashed} "
            f"[{self.topology.domain_of(crashed)}]",
            available_from=boundary + self.warm_spares.promotion_latency,
        )
        return True

    def _demote_spare(self, boundary: float) -> None:
        """Return the slowest promoted spare to the reserve pool."""
        active = self.engine.active_servers
        candidates = sorted(
            (s for s in self._promoted if s in active),
            key=lambda s: (self.specs[s].speed, s),
        )
        if not candidates:
            return
        spare = candidates[0]
        self._promoted.discard(spare)
        self._rescale(
            boundary, "demote", [spare], [s for s in active if s != spare],
            "primary recovered; spare returns to reserve", drain=True,
        )

    def _rescale(
        self,
        boundary: float,
        action: str,
        servers: Sequence[int],
        new_active: Sequence[int],
        reason: str,
        available_from: Optional[float] = None,
        drain: bool = False,
    ) -> None:
        """Apply one elasticity decision and log a ``ScaleEvent`` per server.

        ``drain`` is the graceful exit of deactivated servers: with a
        migration policy, work already pinned to one (dispatched but not
        started) re-places elsewhere instead of waiting out its backlog.
        """
        self.engine.set_active_servers(new_active, available_from=available_from)
        for server in servers:
            if drain and self.migration is not None:
                self.engine.preempt_server(
                    server,
                    boundary,
                    policy=self.migration,
                    kill_running=False,
                    checkpoint=self.checkpoint,
                )
            self.telemetry.record_scale_event(
                ScaleEvent(boundary, action, server, len(new_active), reason)
            )

    def _floor_blocked(self, server: int, remaining: set) -> bool:
        """Would parking ``server`` drop a model below its affinity floor?

        Floors default to one active server per model named in a
        :class:`~repro.serving.placement.ModelAffinityPlacer`'s map (so an
        autoscaler can never scale a model's last server to zero);
        ``model_floors`` overrides per model.
        """
        placer = self._affinity_placer()
        if placer is None:
            return False
        floors = (
            self.model_floors
            if self.model_floors is not None
            else {model: 1 for model in placer.affinity}
        )
        for model, allowed in placer.affinity.items():
            floor = floors.get(model, 1)
            if server in allowed:
                left = sum(
                    1 for other in remaining if other in allowed and other != server
                )
                if left < floor:
                    return True
        return False

    def _domain_blocked(self, server: int, remaining: set) -> bool:
        """Would parking ``server`` drop failure-domain diversity too low?

        With ``min_domains`` set, scale-down keeps the active set — and each
        affinity model's active subset — spread over at least that many
        failure domains (clamped to however many domains actually exist), so
        the autoscaler can never concentrate a model into one zone.
        """
        if self.min_domains is None:
            return False
        topology = self.topology
        left = {
            topology.domain_of(other) for other in remaining if other != server
        }
        if len(left) < min(self.min_domains, topology.num_domains):
            return True
        placer = self._affinity_placer()
        if placer is not None:
            for allowed in placer.affinity.values():
                if server not in allowed:
                    continue
                model_left = {
                    topology.domain_of(other)
                    for other in remaining
                    if other in allowed and other != server
                }
                model_total = {topology.domain_of(s) for s in allowed}
                if len(model_left) < min(self.min_domains, len(model_total)):
                    return True
        return False

    def _autoscale(self, window: int, boundary: float) -> None:
        """Apply one autoscaling decision at a window boundary."""
        active = self.engine.active_servers
        stats = self.telemetry.cluster_window(window, active_servers=active)
        # Any whole number: the answer is clamped to the cluster below.
        answer = self.autoscaler.decide(stats, len(active))
        target = check_integer("autoscaler target", answer, -math.inf)
        target = max(self.min_servers, min(target, len(self.specs)))
        if target == len(active):
            return
        # Signal-neutral audit line: the window's load picture, not a guess
        # at which signal the autoscaler keyed on.
        p99 = (
            f"{stats.latency_percentile(99) * 1e3:.0f}ms"
            if stats.latencies.size
            else "n/a"
        )
        reason = (
            f"window {window}: depth={stats.mean_queue_depth:.1f}, "
            f"p99={p99}, drops={stats.drops}"
        )
        predicted = getattr(self.autoscaler, "last_reason", "")
        if predicted:
            reason = f"{reason}; {predicted}"
        order = sorted(
            range(len(self.specs)), key=lambda s: (-self.specs[s].speed, s)
        )
        if target > len(active):
            # Only healthy servers can be woken: a crashed one stays parked
            # until its recovery fault flips it back.  Reserve warm spares
            # stay parked for crash promotion — ordinary load never eats
            # the crash budget.
            parked = [
                s
                for s in order
                if s not in active
                and self.specs[s].available
                and (s not in self._spare_ids or s in self._promoted)
            ]
            if self.min_domains is not None:
                # Prefer waking under-represented domains, so scale-up
                # rebuilds diversity before it adds depth.
                presence = {
                    domain: 0 for domain in self.topology.domains
                }
                for s in active:
                    presence[self.topology.domain_of(s)] += 1
                parked.sort(
                    key=lambda s: presence[self.topology.domain_of(s)]
                )
            added = parked[: target - len(active)]
            if not added:
                return
            self._rescale(
                boundary, "add", added, sorted(active + added), reason,
                available_from=boundary + self.startup_delay,
            )
        else:
            removable = [s for s in reversed(order) if s in active]
            removed: List[int] = []
            remaining = set(active)
            for server in removable:
                if len(removed) == len(active) - target:
                    break
                if self._floor_blocked(server, remaining):
                    continue
                if self._domain_blocked(server, remaining):
                    continue
                removed.append(server)
                remaining.discard(server)
            if not removed:
                return
            self._rescale(
                boundary, "remove", removed,
                sorted(s for s in active if s not in removed), reason,
                drain=True,
            )
