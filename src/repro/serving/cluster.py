"""Cluster control plane: heterogeneous placement + telemetry + autoscaling.

The engine (:mod:`repro.serving.engine`) gives K server clocks one queue and
pluggable dispatch; this module is the layer *above* it — the part of a
production serving system that decides what the cluster looks like:

* :class:`ServerSpec` — one server's identity: a service model derived
  from the :mod:`repro.hardware` GPU/NPU models plus a scalar ``speed``
  (requests/second at a reference batch) that placement weighs.
  :func:`gpu_server` and :func:`npu_server` build specs straight from the
  device catalogs, so a cluster can mix e.g. one fast GPU with two slow
  NPUs.  Real execution plugs in per model, through
  :meth:`ClusterEngine.register`'s ``executors``.
* **Placement** — :class:`~repro.serving.placement.Placer` implementations
  are resolved by name (``"free_clock"``, ``"least_work"``, ``"weighted"``)
  with speeds taken from the specs, or passed as instances.
* **Telemetry** — every :class:`ClusterEngine` owns a
  :class:`~repro.serving.telemetry.TelemetryBus`; it reads the engine's
  batch ledger when read (drops are handed to it) and policies read it
  through :class:`~repro.serving.policies.PolicyContext`.
* :class:`Autoscaler` — a window-boundary policy deciding how many servers
  stay active.  :class:`SloLatencyAutoscaler` implements hysteresis-based
  scaling on windowed latency percentiles and drops.  Scale decisions are
  applied via
  :meth:`~repro.serving.engine.ServingEngine.set_active_servers` and
  recorded as :class:`~repro.serving.telemetry.ScaleEvent` in the timeline.
* **Failure domains** — every spec carries a ``zone``/``rack`` identity;
  :class:`ClusterTopology` groups servers by the failure domain they share
  fate with.  Domain-scoped faults (``zone_outage``, ``rack_slowdown``)
  expand to per-server events against the topology, and
  :class:`~repro.serving.placement.SpreadPlacer` keeps load from
  concentrating in one domain.
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
from repro.checks import check_positive
from repro.serving.core import check_integer, check_percentile
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
from repro.serving.telemetry import ClusterWindowStats, ScaleEvent, TelemetryBus


# ----------------------------------------------------------------------
# Server profiles
# ----------------------------------------------------------------------
@dataclass
class ServerSpec:
    """One server of a (possibly heterogeneous) cluster.

    ``service_model`` is the analytic latency backend: it executes the
    server's batches unless :meth:`ClusterEngine.register` is handed
    ``executors`` (e.g. :class:`~repro.serving.executors.RuntimeExecutor`\\ s
    owning real prepared kernels), and the named placers always estimate
    with it.  A spec without one is refused.  ``speed`` is the server's
    serving rate in requests/second at the reference batch — only the
    *ratios* between specs matter, and the speed-aware placers consume them
    verbatim.

    ``zone`` / ``rack`` are the server's failure-domain identity: servers
    sharing a zone (or, absent zones, a rack) share fate under correlated
    faults (``zone_outage``, ``rack_slowdown``).  Both default to ``""`` —
    no declared domain, every server its own island — so existing configs
    are untouched; :class:`ClusterTopology` derives the domain map.

    ``health`` / ``slow_factor`` are run-time state maintained by the fault
    plane (:mod:`repro.serving.resilience`), not constructor options: every
    spec starts ``"healthy"`` at factor 1.  ``"healthy"`` serves at nominal
    speed, ``"degraded"`` serves with service times inflated by
    ``slow_factor``, and ``"failed"`` serves nothing (the control plane
    keeps it out of the active set until it recovers).  A
    :class:`ClusterEngine` given a fault schedule resets both per run.
    """

    name: str
    speed: float
    service_model: Optional[ServiceTimeModel] = None
    device: str = ""
    zone: str = ""
    rack: str = ""
    health: str = field(default="healthy", init=False)
    slow_factor: float = field(default=1.0, init=False)

    def __post_init__(self) -> None:
        check_positive("speed (requests/second)", self.speed)
        if self.service_model is None:
            raise ValueError("a ServerSpec needs a service_model")

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
        return ModeledExecutor(self.service_model)


def _table_reader(model: ServiceTimeModel, mode: str) -> ServiceEstimator:
    """An estimator subscripting ``model``'s (mode, ratio 0.0) price table,
    which the model fills on a miss; it never holds the cluster (no cycle)."""
    table = model.table(mode, 0.0)

    def estimate(batch: int) -> float:
        try:
            return table[batch]
        except KeyError:
            return model.batch_latency(batch, mode)

    return estimate


def _measured_speed(service_model: ServiceTimeModel) -> float:
    """Requests per second at the reference point: a batch of 64 in int8."""
    latency = service_model.batch_latency(64, "int8")
    if latency <= 0:
        raise ValueError("reference batch latency must be positive")
    return 64 / latency


def gpu_server(
    name: str,
    model_name: str = "vit_base",
    gpu: str = "a6000",
    zone: str = "",
) -> ServerSpec:
    """A GPU-backed server profile from the :mod:`repro.hardware.gpu` model.

    ``speed`` is measured from the device's own latency model at a batch of
    64 in int8 — the number placement weighs, derived rather than guessed.
    ``zone`` declares the server's failure domain (see
    :class:`ClusterTopology`; a rack is set on the :class:`ServerSpec`).
    """
    service = ServiceTimeModel(model_name, gpu=gpu)
    return ServerSpec(
        name=name,
        speed=_measured_speed(service),
        service_model=service,
        device=f"gpu:{gpu}",
        zone=zone,
    )


def npu_server(
    name: str,
    model_name: str = "vit_base",
    config: Optional[NpuConfig] = None,
) -> ServerSpec:
    """An NPU-backed server profile from the :mod:`repro.hardware.npu` model.

    The cycle model is adapted to the serving interface through
    :class:`~repro.hardware.npu.NpuServiceAdapter` (mode names map onto NPU
    ratios).  With the default 32x32/200 MHz config an NPU server is orders
    of magnitude slower than a datacenter GPU on the same model — pass a
    scaled-up :class:`~repro.hardware.npu.NpuConfig` for a merely-slow tier.
    """
    adapter = NpuLatencyModel(config or NpuConfig()).as_service_backend()
    service = ServiceTimeModel(model_name, latency_model=adapter)
    return ServerSpec(
        name=name, speed=_measured_speed(service), service_model=service, device="npu"
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
    warm-spare promotion and :meth:`~repro.serving.resilience.
    FaultSchedule.expand` consume this map.
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


@dataclass
class SloLatencyAutoscaler:
    """Scale on a windowed latency-percentile SLO with hysteresis.

    Scale **up** by ``step`` when the window's ``percentile`` response time
    exceeds ``slo_seconds`` — or when the window *dropped* requests: a
    mass-dropping cluster can show healthy served-latency percentiles
    precisely because the queue is being culled, so drops are treated as the
    strongest breach signal.  Scale **down** by ``step`` after ``patience``
    consecutive calm windows: nothing was dropped and the percentile sits
    below ``slo_seconds * headroom`` (spare capacity) — so the cluster sheds
    servers only when the SLO is met with margin.  Any other window breaks
    the streak; windows with no completed responses and no drops leave the
    size (and the streak) unchanged.
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
    timeline.

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
        warm_spares: Optional[WarmSparePool] = None,
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
        # agree, else the "int8" reference.  Named placers are built before
        # registration happens: the cluster keeps their estimator lists and
        # register() rebinds them in place.  An estimator holds a model and
        # its table only, so nothing in a list refers back to the cluster.
        self._registered_modes: set = set()
        self._estimator_mode = "int8"
        self._estimator_lists: List[List[ServiceEstimator]] = []
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

    @property
    def speeds(self) -> List[float]:
        return [spec.speed for spec in self.specs]

    def batch_estimators(self) -> List[ServiceEstimator]:
        """Per-server batch-size-aware service-time estimators.

        One callable per spec mapping a batch size to estimated service
        seconds via the spec's own latency backend — what the named
        speed-aware placers score with instead of the reference-batch
        scalar.  Each reads its spec's model's (mode, ratio 0.0) price
        table, which it holds (:func:`_table_reader`), so the model computes
        each size once, whoever else reads it.  They score the mode the
        cluster's endpoints registered when they all agree, else the
        ``"int8"`` reference (the convention the spec speeds are measured
        at); the named placers' estimators are rebound whenever
        :meth:`register` changes it, so a placer resolved before
        registration still estimates the precision that actually runs.
        """
        return [
            _table_reader(spec.service_model, self._estimator_mode)
            for spec in self.specs
        ]

    def _scored(self, kind: type) -> Placer:
        """A named speed-aware placer, its estimators rebound by register()."""
        placer = kind(self.speeds, estimators=self.batch_estimators())
        self._estimator_lists.append(placer.estimators)
        return placer

    def resolve_placer(self, placer: Union[Placer, str, None]) -> Optional[Placer]:
        if placer is None:
            return None
        if isinstance(placer, str):
            if placer == "free_clock":
                return FreeClockPlacer()
            if placer == "least_work":
                return self._scored(LeastOutstandingWorkPlacer)
            if placer == "weighted":
                return self._scored(WeightedSpeedPlacer)
            if placer == "predictive":
                return self._scored(PredictivePlacer)
            if placer == "spread":
                return SpreadPlacer(
                    self.topology, within=self._scored(WeightedSpeedPlacer)
                )
            raise ValueError(
                f"unknown placer {placer!r}; named placers: {', '.join(_PLACERS)}"
            )
        return placer

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
        self._estimator_mode = mode if len(self._registered_modes) == 1 else "int8"
        for estimators in self._estimator_lists:
            estimators[:] = self.batch_estimators()
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
        if self.slo_monitor is not None:
            self.slo_monitor.reset()
        if self.autoscaler is not None and hasattr(self.autoscaler, "reset"):
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
        model).  The SLO monitor reads the just-closed window next (alerts
        land on the timeline beside the faults that caused them), and the
        autoscaler decides last.
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
            added = parked[: target - len(active)]
            if not added:
                return
            self._rescale(
                boundary, "add", added, sorted(active + added), reason,
                available_from=boundary + self.startup_delay,
            )
        else:
            removed = [s for s in reversed(order) if s in active][
                : len(active) - target
            ]
            self._rescale(
                boundary, "remove", removed,
                sorted(s for s in active if s not in removed), reason,
                drain=True,
            )
