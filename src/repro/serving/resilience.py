"""Resilience: fault injection, request preemption & migration policies.

The cluster control plane (:mod:`repro.serving.cluster`) can grow and shrink
the fleet, but until this module a batch pinned to a failed server was simply
lost work.  Three pieces make the serving stack survive faults:

* **Fault plane** — :class:`FaultEvent` describes one injected fault (a
  ``crash``, a ``slowdown`` by a factor, or a ``recover``) against one
  server; a :class:`FaultSchedule` is the validated, time-ordered script a
  :class:`~repro.serving.cluster.ClusterEngine` applies at telemetry window
  boundaries.  A crash marks the server's
  :class:`~repro.serving.cluster.ServerSpec` ``failed`` until it recovers;
  a slowdown sets the server's service-time factor in the engine session
  (:meth:`~repro.serving.engine.ServingEngine.slow_server`), which
  multiplies every batch the server runs until recovery resets it to 1.
  Every applied fault is surfaced on the
  :class:`~repro.serving.telemetry.TelemetryBus` timeline next to the scale
  events.
* **Preemption & migration** — when a server crashes (or, with a migration
  policy configured, is deactivated by the autoscaler), the engine's
  :meth:`~repro.serving.engine.ServingEngine.preempt_server` rewinds the
  server's unfinished batches and hands the affected requests — as
  :class:`Migrant` records — to a :class:`MigrationPolicy`, which decides per
  request whether it re-enters the queue (and when it becomes serviceable)
  or is dropped.  Requeued migrants flow back through the configured
  :class:`~repro.serving.schedulers.Scheduler` and are re-placed by the
  configured :class:`~repro.serving.placement.Placer`; each successful move
  increments :attr:`~repro.serving.engine.Response.migrations`, and the
  policy's ``delay`` charges migration latency explicitly (a migrant is
  never serviceable before ``preemption time + delay``).
* **Predictive placement** — lives in :mod:`repro.serving.placement`
  (:class:`~repro.serving.placement.PredictivePlacer`): windowed telemetry
  trends instead of instantaneous free clocks, which is what notices a
  *degraded* (slowed-down) server whose nominal speed is stale.
* **Failure domains** — servers carry a ``zone``/``rack`` identity
  (:class:`~repro.serving.cluster.ServerSpec`, grouped by
  :class:`~repro.serving.cluster.ClusterTopology`) and faults can be
  domain-scoped (:data:`DOMAIN_FAULT_KINDS`: ``zone_outage``,
  ``rack_slowdown``, ...): one schedule event hits every server of the
  domain at once, expanded per server by :meth:`FaultSchedule.expand` with
  a ``domain`` tag that follows each event onto the telemetry timeline.
  Spread placement (:class:`~repro.serving.placement.SpreadPlacer`) and
  domain-aware autoscaling keep a model's capacity from concentrating in
  one domain so the correlated loss stays survivable.
* **Warm spares** — a :class:`WarmSparePool` holds standby servers with
  pre-replicated executor state out of the ordinary active set; a crash of
  an active server promotes the fastest healthy reserve spare with only
  ``promotion_latency`` of activation cost (not the cold ``startup_delay``),
  so the migrated victims land on restored capacity immediately.
* **Partial-batch checkpointing** — a :class:`CheckpointPolicy`
  (:class:`StepCheckpoint`) lets ``preempt_server`` record how much of a
  killed batch's service had been checkpointed; the engine keeps each
  victim's surviving share, and a re-executed cohort pays only its largest
  residual demand instead of restarting from zero.

Everything here is opt-in: an engine that never calls ``preempt_server`` and
a cluster without a ``fault_schedule`` run the exact seed arithmetic
(single-server FIFO stays bit-identical to the seed simulator).

Three migration policies ship with the module:

* :class:`RequeueAtHeadMigration` — the whole preempted cohort re-enters the
  queue at the migration point in its original order, ahead of requests that
  have not yet arrived; under FIFO it re-forms at the head of the post-crash
  queue (typically as one batch the placer re-places).
* :class:`RedistributeMigration` — the cohort is split into chunks released
  ``stagger`` seconds apart, so each chunk forms its own batch and the
  placer re-places them *independently* — surviving servers share the failed
  server's work instead of one of them swallowing a head-of-line mega-batch.
* :class:`DropExpiredMigration` — deadline-aware wrapper: migrants whose
  deadline cannot possibly be met any more (it precedes the earliest time
  the migrant could be served) are dropped — and counted as drops — instead
  of wasting post-fault capacity; the rest are delegated to an inner policy
  (requeue-at-head by default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Protocol, Sequence, TYPE_CHECKING, Tuple

from repro.checks import check_positive
from repro.serving.core import check_integer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.engine import BatchRecord


FAULT_KINDS = ("crash", "slowdown", "recover")

#: Domain-scoped fault kinds: the whole zone/rack fails, degrades or
#: recovers at once (correlated failure).  The schedule carries them as
#: single events; :meth:`FaultSchedule.expand` turns each into per-server
#: events against a :class:`~repro.serving.cluster.ClusterTopology` at
#: application time.
DOMAIN_FAULT_KINDS = (
    "zone_outage",
    "zone_slowdown",
    "zone_recover",
    "rack_outage",
    "rack_slowdown",
    "rack_recover",
)

_DOMAIN_ACTION = {"outage": "crash", "slowdown": "slowdown", "recover": "recover"}


# ----------------------------------------------------------------------
# Fault plane
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultEvent:
    """One injected fault against one server or one failure domain.

    ``kind`` is ``"crash"`` (the server fails: it leaves the active set and
    its unfinished work is preempted), ``"slowdown"`` (service times are
    multiplied by ``factor`` until recovery — a thermal throttle, a noisy
    neighbour, a failing link), or ``"recover"`` (health and speed restored;
    a crashed server becomes eligible for service again).  ``time`` is the
    simulation time the fault strikes; the control plane applies it at the
    first telemetry window boundary after it.

    Domain-scoped kinds (:data:`DOMAIN_FAULT_KINDS`, e.g. ``"zone_outage"``,
    ``"rack_slowdown"``) hit every server of a failure domain at once:
    ``zone``/``rack`` names the domain (``server`` stays at the ``-1``
    sentinel) and :meth:`FaultSchedule.expand` resolves the event into
    per-server events whose ``domain`` tag records the correlated origin —
    the tag every expanded event carries onto the telemetry timeline.
    """

    time: float
    server: int = -1
    kind: str = "crash"
    factor: float = 1.0
    zone: Optional[str] = None
    rack: Optional[str] = None
    domain: str = ""

    def __post_init__(self) -> None:
        check_positive("fault time", self.time, allow_zero=True)
        check_positive("factor", self.factor)
        if self.kind in FAULT_KINDS:
            if self.server < 0:
                raise ValueError(
                    f"a {self.kind!r} fault must name a server id (>= 0); "
                    "use a domain kind (e.g. 'zone_outage') for whole-domain "
                    "faults"
                )
            if self.zone is not None or self.rack is not None:
                raise ValueError(
                    "server-scoped faults must not name a zone/rack; use a "
                    "domain kind (e.g. 'zone_outage') instead"
                )
        elif self.kind in DOMAIN_FAULT_KINDS:
            scope, _, _ = self.kind.partition("_")
            named = self.zone if scope == "zone" else self.rack
            other = self.rack if scope == "zone" else self.zone
            if not named:
                raise ValueError(f"a {self.kind!r} fault must name its {scope}")
            if other is not None:
                raise ValueError(
                    f"a {self.kind!r} fault must name only its {scope}"
                )
            if self.server != -1:
                raise ValueError(
                    f"a {self.kind!r} fault is domain-scoped; leave server at "
                    "the -1 sentinel"
                )
        else:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of "
                f"{', '.join(FAULT_KINDS + DOMAIN_FAULT_KINDS)}"
            )
        if self.kind.endswith("slowdown") and self.factor <= 1.0:
            raise ValueError("a slowdown needs factor > 1 (service times multiply)")


class FaultSchedule:
    """A validated, time-ordered script of fault events for one run.

    The schedule itself is immutable; the control plane keeps its own cursor
    per run, so one schedule can drive any number of (deterministic,
    repeatable) runs.

    Validation rejects scripts that would silently mis-apply at window
    boundaries: exact duplicate events, two same-instant events against the
    same server (their application order would be arbitrary), and — on fully
    server-scoped schedules — a ``recover`` for a server that never crashed
    or slowed down, or a second ``crash`` or a ``slowdown`` against a server
    still down from its crash (a typo'd server id, not a scenario).
    Domain-scoped events defer these checks to :meth:`expand`, where the
    per-server script is known (there a domain outage or slowdown may sweep
    up a server already down).
    """

    def __init__(self, events: Iterable[FaultEvent]) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda event: (event.time, event.server, event.kind))
        )
        self._validate()

    def _validate(self) -> None:
        seen = set()
        instants = set()
        crashed: dict = {}  # server -> since when it has been down
        unhealthy = set()  # crashed or slowed, and not recovered since
        domain_scoped = False
        for event in self.events:
            key = (
                event.time, event.server, event.kind, event.factor,
                event.zone, event.rack,
            )
            if key in seen:
                raise ValueError(f"duplicate fault event: {event!r}")
            seen.add(key)
            if event.kind in DOMAIN_FAULT_KINDS:
                domain_scoped = True
                continue
            instant = (event.time, event.server)
            if instant in instants:
                raise ValueError(
                    f"two fault events against server {event.server} at "
                    f"t={event.time:g}; same-instant application order would "
                    "be arbitrary — separate them in time"
                )
            instants.add(instant)
            if domain_scoped:
                continue  # per-server sequencing is checked post-expansion
            if event.kind != "recover":
                # A domain outage or slowdown may sweep up a server that is
                # already down; a crash or a slowdown aimed at one is a
                # typo'd id or time (the slowdown would never apply).
                if event.server in crashed and not event.domain:
                    raise ValueError(
                        f"{event.kind} for server {event.server} at "
                        f"t={event.time:g}, but it has been down since its "
                        f"crash at t={crashed[event.server]:g} with no "
                        "recover in between"
                    )
                if event.kind == "crash":
                    crashed.setdefault(event.server, event.time)
                unhealthy.add(event.server)
            else:  # recover: from a crash, a slowdown or both
                if event.server not in unhealthy:
                    raise ValueError(
                        f"recover for server {event.server} at "
                        f"t={event.time:g}, but no earlier crash/slowdown "
                        "left it unhealthy (typo'd server id?)"
                    )
                crashed.pop(event.server, None)
                unhealthy.discard(event.server)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def servers(self) -> List[int]:
        """Server ids the schedule touches directly (ascending, unique).

        Domain-scoped events name no server until :meth:`expand` resolves
        them against a topology, so they do not appear here.
        """
        return sorted(
            {event.server for event in self.events if event.server >= 0}
        )

    @property
    def has_domain_events(self) -> bool:
        """Whether any event is domain-scoped (needs :meth:`expand`)."""
        return any(event.kind in DOMAIN_FAULT_KINDS for event in self.events)

    def expand(self, topology) -> "FaultSchedule":
        """Resolve domain-scoped events into per-server events.

        ``topology`` is a :class:`~repro.serving.cluster.ClusterTopology`;
        each domain event becomes one event per member server, carrying a
        ``domain`` tag (``"zone:eu-1"``) so the telemetry timeline shows the
        correlated origin.  Server-scoped events pass through untouched.
        The expanded schedule re-validates, so a zone outage colliding with
        a same-instant server event, or a recover with nothing to recover,
        fails loudly here instead of mis-applying mid-run.
        """
        expanded: List[FaultEvent] = []
        for event in self.events:
            if event.kind in FAULT_KINDS:
                expanded.append(event)
                continue
            scope, _, action = event.kind.partition("_")
            name = event.zone if scope == "zone" else event.rack
            members = (
                topology.servers_in_zone(name)
                if scope == "zone"
                else topology.servers_in_rack(name)
            )
            if not members:
                raise ValueError(
                    f"fault schedule names {scope} {name!r}, but the cluster "
                    f"topology has no server in it"
                )
            expanded.extend(
                FaultEvent(
                    time=event.time,
                    server=server,
                    kind=_DOMAIN_ACTION[action],
                    factor=event.factor,
                    domain=f"{scope}:{name}",
                )
                for server in members
            )
        return FaultSchedule(expanded)

    @classmethod
    def single_crash(
        cls, server: int, at: float, recover_at: Optional[float] = None
    ) -> "FaultSchedule":
        """The canonical scenario: one server crashes (and maybe recovers)."""
        events = [FaultEvent(time=at, server=server, kind="crash")]
        if recover_at is not None:
            if recover_at <= at:
                raise ValueError("recover_at must come after the crash")
            events.append(FaultEvent(time=recover_at, server=server, kind="recover"))
        return cls(events)

    @classmethod
    def zone_outage(
        cls, zone: str, at: float, recover_at: Optional[float] = None
    ) -> "FaultSchedule":
        """A whole zone fails at once (and maybe recovers) — the correlated
        scenario failure-domain placement exists for."""
        events = [FaultEvent(time=at, kind="zone_outage", zone=zone)]
        if recover_at is not None:
            if recover_at <= at:
                raise ValueError("recover_at must come after the outage")
            events.append(FaultEvent(time=recover_at, kind="zone_recover", zone=zone))
        return cls(events)

    @classmethod
    def rack_slowdown(
        cls, rack: str, at: float, factor: float, recover_at: Optional[float] = None
    ) -> "FaultSchedule":
        """A whole rack degrades at once (a shared-switch brownout)."""
        events = [
            FaultEvent(time=at, kind="rack_slowdown", rack=rack, factor=factor)
        ]
        if recover_at is not None:
            if recover_at <= at:
                raise ValueError("recover_at must come after the slowdown")
            events.append(FaultEvent(time=recover_at, kind="rack_recover", rack=rack))
        return cls(events)


# ----------------------------------------------------------------------
# Preemption & migration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Migrant:
    """One request preempted off a failing/deactivated server.

    ``slot`` is the engine's stable admission slot, ``deadline`` its
    deadline (``None``: it has none) and ``migrations`` counts moves
    *before* this preemption.  Latency is always charged from the original
    arrival, so migration shows up as response time, never hides.
    """

    slot: int
    deadline: Optional[float] = None
    migrations: int = 0


@dataclass(frozen=True)
class Preemption:
    """What one :meth:`ServingEngine.preempt_server` call did."""

    batches: int        # unfinished batches rewound off the server
    migrated: int       # requests requeued (each gains one migration)
    dropped: int        # requests dropped by the migration policy (or None policy)

    @property
    def requests(self) -> int:
        return self.migrated + self.dropped


class MigrationPolicy(Protocol):
    """Decides where preempted requests go.

    :meth:`plan` sees the whole preempted cohort (in original batch order)
    plus the preemption time and returns one entry per migrant: a float
    *ready key* — the pending-queue ordering key, which is also the earliest
    time the migrant may be served — or ``None`` to drop the request (it is
    counted as a drop, and as a deadline miss if it carried one).  The
    engine clamps ready keys to at least the preemption time: migrated work
    can never be re-served in the past.
    """

    def plan(
        self, migrants: Sequence[Migrant], time: float
    ) -> Sequence[Optional[float]]:
        ...


@dataclass
class RequeueAtHeadMigration:
    """Re-enter the whole cohort at the migration point, original order.

    Every migrant becomes serviceable at ``time + delay`` (``delay`` is the
    explicit migration cost: state handoff, connection re-establishment) and
    keeps its position relative to the other migrants.  Queued work that
    arrived before the fault keeps its place — the engine is work-conserving
    — but the cohort precedes everything that has not yet arrived, so under
    FIFO it sits at the head of the post-fault queue.
    """

    delay: float = 0.0

    def __post_init__(self) -> None:
        check_positive("migration delay", self.delay, allow_zero=True)

    def plan(
        self, migrants: Sequence[Migrant], time: float
    ) -> List[Optional[float]]:
        ready = time + self.delay
        return [ready] * len(migrants)


@dataclass
class RedistributeMigration:
    """Split the cohort into chunks the placer re-places independently.

    A crashed server's in-flight batch can be large (``max_batch`` under
    backlog); requeued as one block it re-forms as one batch on *one*
    surviving server.  This policy releases the cohort in chunks of
    ``chunk`` requests, ``stagger`` seconds apart: each chunk arrives as its
    own head-of-queue run, forms its own batch, and goes through the
    :class:`~repro.serving.placement.Placer` separately — so the surviving
    servers *share* the failed server's work.  ``stagger`` should be on the
    order of one batch service time; ``delay`` is the per-migration cost
    charged before the first chunk.
    """

    delay: float = 0.0
    chunk: int = 16
    stagger: float = 0.002

    def __post_init__(self) -> None:
        check_positive("migration delay", self.delay, allow_zero=True)
        check_positive("stagger", self.stagger, allow_zero=True)
        self.chunk = check_integer("chunk", self.chunk, 1)

    def plan(
        self, migrants: Sequence[Migrant], time: float
    ) -> List[Optional[float]]:
        return [
            time + self.delay + (index // self.chunk) * self.stagger
            for index in range(len(migrants))
        ]


@dataclass
class DropExpiredMigration:
    """Drop migrants whose deadline is already unwinnable; requeue the rest.

    A migrant whose ``deadline`` precedes the earliest time it could be
    served again (the inner policy's ready key) can only waste post-fault
    capacity; it is dropped immediately and counted as a drop — which also
    means a deadline miss, so the accounting stays honest.  Everything else
    (including deadline-less migrants) is planned by ``within``
    (:class:`RequeueAtHeadMigration` with the same ``delay`` by default).
    """

    delay: float = 0.0
    within: Optional[MigrationPolicy] = None

    def __post_init__(self) -> None:
        check_positive("migration delay", self.delay, allow_zero=True)
        if self.within is None:
            self.within = RequeueAtHeadMigration(delay=self.delay)

    def plan(
        self, migrants: Sequence[Migrant], time: float
    ) -> List[Optional[float]]:
        keys = list(self.within.plan(migrants, time))
        if len(keys) != len(migrants):
            raise ValueError("inner migration policy returned a short plan")
        for index, (migrant, key) in enumerate(zip(migrants, keys)):
            if key is None or migrant.deadline is None:
                continue
            if migrant.deadline <= max(float(key), time):
                keys[index] = None
        return keys


# ----------------------------------------------------------------------
# Partial-batch checkpointing
# ----------------------------------------------------------------------
class CheckpointPolicy(Protocol):
    """How much of a killed batch's work survives the preemption.

    :meth:`completed_fraction` sees the rewound batch's record and the kill
    time and returns the fraction of the batch's service (in ``[0, 1)``)
    that was checkpointed before the kill — the work the batch's requests do
    *not* have to redo.  The engine stores the fraction per victim request
    and, when a migrated cohort re-executes, scales the batch's service
    time by the cohort's largest residual demand (a batch runs its members'
    remaining steps jointly, so one fresh rider costs the full batch).
    Restoring the saved work costs nothing on top.
    """

    def completed_fraction(self, record: "BatchRecord", time: float) -> float:
        ...


@dataclass(frozen=True)
class StepCheckpoint:
    """Checkpoint at ``steps`` equally-spaced points through each batch.

    A batch killed ``elapsed`` seconds into a ``span``-second service has
    crossed ``floor(steps * elapsed / span)`` checkpoints; the fraction of
    work behind the last crossed checkpoint survives the preemption (the
    partial step in flight is lost, exactly like an un-checkpointed batch
    loses everything).  ``steps=1`` checkpoints nothing — the fraction is
    always 0 — which makes the degenerate policy equivalent to no policy.
    """

    steps: int = 4

    def __post_init__(self) -> None:
        check_integer("steps", self.steps, 1)

    def completed_fraction(self, record: "BatchRecord", time: float) -> float:
        span = record.finish - record.start
        elapsed = time - record.start
        if span <= 0 or elapsed <= 0:
            return 0.0
        crossed = int(self.steps * min(elapsed / span, 1.0))
        return min(crossed, self.steps - 1) / self.steps


def checkpointed_fraction(
    checkpoint: Optional[CheckpointPolicy], record: "BatchRecord", time: float
) -> float:
    """The share of ``record``'s work ``checkpoint`` saved before a kill at ``time``.

    0.0 without a checkpoint or when the batch had not started; otherwise
    the policy's ``completed_fraction``, refused outside ``[0, 1)``.  The
    salvage rule of ``ServingEngine.preempt_server``.
    """
    if checkpoint is None or record.start >= time:
        return 0.0
    fraction = float(checkpoint.completed_fraction(record, time))
    if not 0.0 <= fraction < 1.0:
        raise ValueError(
            f"checkpoint completed_fraction must be in [0, 1); got {fraction!r}"
        )
    return fraction


# ----------------------------------------------------------------------
# Warm spares
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WarmSparePool:
    """Standby servers the control plane promotes on a crash, lag-free.

    ``spares`` are server ids (of the cluster's spec list) held in reserve:
    they start parked, the autoscaler never wakes them for ordinary load,
    and their prepared-kernel/executor state is registered with everything
    else — pre-replicated, which is what makes promotion cheap.  When a
    crash removes an *active* server, the
    :class:`~repro.serving.cluster.ClusterEngine` promotes the fastest
    healthy reserve spare with ``promotion_latency`` seconds of activation
    cost instead of the cluster's cold ``startup_delay`` — so migrated
    victims land on restored capacity instead of waiting out provisioning.
    Promotions (and demotions, when a recovered server releases its spare
    back to reserve) are :class:`~repro.serving.telemetry.ScaleEvent`\\ s on
    the telemetry timeline.
    """

    spares: Tuple[int, ...]
    promotion_latency: float = 0.0

    def __init__(
        self, spares: Sequence[int], promotion_latency: float = 0.0
    ) -> None:
        ids = [check_integer("spare server id", server, 0) for server in spares]
        if not ids:
            raise ValueError("a WarmSparePool needs at least one spare server")
        if len(set(ids)) != len(ids):
            raise ValueError("spare server ids must be unique")
        object.__setattr__(self, "spares", tuple(sorted(ids)))
        object.__setattr__(
            self,
            "promotion_latency",
            check_positive("promotion_latency", promotion_latency, allow_zero=True),
        )
