"""Placement: pluggable server-selection rules for the serving engine.

The seed engine hard-coded *argmin-free-clock* dispatch: every batch goes to
the server whose clock frees earliest.  On a homogeneous cluster that rule is
work-conserving and near-optimal, but on a **heterogeneous** cluster it has a
classic failure mode: an idle slow server always has the earliest free clock,
so it keeps winning batches that a busy fast server would nevertheless have
*finished* sooner.  A :class:`Placer` generalizes the selection while the
engine keeps its invariants (the placer only picks *which* server runs the
next batch; admission, batching and scheduling are unchanged).

An engine built with ``placer=None`` keeps the seed rule, inlined
(:func:`earliest_free`; bit-identical to the seed simulator at
``num_servers=1``).  Four placers ship with the engine:

* :class:`LeastOutstandingWorkPlacer` — minimize the server's outstanding
  *work* (backlog seconds plus the estimated service seconds of the candidate
  batch).  Needs per-server speeds; on a mixed-speed cluster it stops feeding
  idle slow servers as soon as their service time exceeds a fast server's
  backlog-plus-service.
* :class:`WeightedSpeedPlacer` — earliest estimated *completion* (speed-
  weighted free clock): ``max(free_at, now) + batch_hint / speed``.  The
  scheduling-theory ECT rule; differs from least-work in charging the wait
  until the server frees, not just the work itself.
* :class:`SpreadPlacer` — failure-domain-aware placement: wraps any placer
  and steers each batch toward the least-loaded *domain* (zone, falling back
  to rack, falling back to the server itself — see
  :class:`~repro.serving.cluster.ClusterTopology`) so replicas of a model's
  working set spread across domains and a single zone outage cannot strand
  the whole fleet's backlog.
* :class:`PredictivePlacer` — telemetry-driven placement: instead of trusting
  nominal speeds, it forecasts each server's service capacity (EWMA over the
  windowed served-per-busy-second rates the
  :class:`~repro.serving.telemetry.TelemetryBus` aggregates) and its queue
  pressure trend, then places by forecasted completion.  This is the placer
  that notices a *degraded* server — a fault-plane slowdown leaves nominal
  speeds stale, but the telemetry trend shows the true current rate.

Per-server speeds are expressed in requests/second at a reference batch size
(see :meth:`repro.serving.cluster.ServerSpec.speed`); only their *ratios*
matter to the placers.  The speed-aware placers optionally take per-server
``estimators`` — callables mapping a batch size to estimated service seconds
(e.g. :meth:`repro.serving.cluster.ClusterEngine.batch_estimators`, which
read each server's price table) — in which case scoring uses real batch-size-aware service-time estimates instead
of the scalar reference-batch speed (batching amortizes per-batch overhead,
so ``latency(b) / b`` falls with ``b``; a scalar speed misprices small and
large batches alike).  :meth:`repro.serving.cluster.ClusterEngine.
resolve_placer` wires spec-derived estimators into the named placers
automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TYPE_CHECKING,
    runtime_checkable,
)

from repro.serving.telemetry import fold_rate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.cluster import ClusterTopology
    from repro.serving.telemetry import TelemetryBus


@dataclass
class PlacementContext:
    """What a placer sees when the engine is about to form a batch.

    ``time`` is the head-of-line arrival time of the request triggering the
    batch (the earliest possible service start).  ``free_at`` holds every
    server's clock (indexable by server id, including inactive servers);
    ``active`` lists the ids eligible for placement, ascending.  ``model`` is
    the model the batch will serve, and ``batch_hint`` estimates how many
    requests will ride in the batch (those arrived by the earliest service
    start, capped at ``max_batch``) — an
    estimate only, since the batch is formed *after* the server is chosen
    and later arrivals may still join it.  ``telemetry`` is the engine's
    :class:`~repro.serving.telemetry.TelemetryBus` when one is attached
    (``None`` otherwise) — windowed per-server history for placers that
    forecast rather than react (:class:`PredictivePlacer`).
    """

    time: float
    free_at: Sequence[float]
    active: Sequence[int]
    model: str = ""
    batch_hint: int = 1
    telemetry: Optional["TelemetryBus"] = None


@runtime_checkable
class Placer(Protocol):
    """Server-selection rule: return the server id for the next batch.

    The returned id must be a member of ``context.active``; the engine
    validates this and raises otherwise.
    """

    def place(self, context: PlacementContext) -> int:
        ...


def earliest_free(free_at: Sequence[float], active: Sequence[int]) -> int:
    """The active server whose clock frees first, ties to the lowest id.

    The seed dispatch rule, ``min(active, key=free_at.__getitem__)``, spelled
    as the loop it is: the engine runs it for every batch.
    """
    best = active[0]
    clock = free_at[best]
    for server in active:
        if free_at[server] < clock:
            best, clock = server, free_at[server]
    return best


def _validated_speeds(speeds: Sequence[float]) -> List[float]:
    values = [float(s) for s in speeds]
    if not values:
        raise ValueError("speeds must be non-empty")
    if any(s <= 0 for s in values):
        raise ValueError("speeds must be positive (requests/second)")
    return values


#: Per-server service-time estimator: batch size -> estimated seconds.  A
#: placer calls it once per candidate server per batch and never memoises
#: the answer, so a caller's estimator may be stateful (a live measurement, a
#: degradation factor); the ones :meth:`repro.serving.cluster.ClusterEngine.
#: batch_estimators` builds keep nothing and read the server's model's price
#: table (``ServiceTimeModel.table``).
ServiceEstimator = Callable[[int], float]


class _SpeedScoredPlacer:
    """Shared scoring base: speeds plus optional batch-size-aware estimates.

    :meth:`place` minimizes ``(score, -speed, server)`` over the active
    servers, where ``score`` is the server's wait plus the batch's estimated
    service seconds; ``completion`` says whether the wait is the absolute
    time service can start (earliest completion) or only the backlog from
    now (outstanding work).
    """

    completion = False

    def __init__(
        self,
        speeds: Sequence[float],
        estimators: Optional[Sequence[ServiceEstimator]] = None,
    ) -> None:
        self.speeds = _validated_speeds(speeds)
        if estimators is not None and len(estimators) != len(self.speeds):
            raise ValueError(
                f"got {len(estimators)} estimators for {len(self.speeds)} servers"
            )
        self.estimators = list(estimators) if estimators is not None else None

    def service_seconds(self, server: int, batch_size: int) -> float:
        """Estimated service seconds of a ``batch_size`` batch on ``server``.

        With estimators this is the real batch-size-aware estimate (per-batch
        overhead amortizes, so seconds-per-request falls as batches grow);
        without, the scalar reference-batch speed approximation.
        """
        if self.estimators is not None:
            return float(self.estimators[server](int(batch_size)))
        return batch_size / self.speeds[server]

    def place(self, context: PlacementContext) -> int:
        return self.choose(
            context.time, context.free_at, context.active, context.batch_hint
        )

    def choose(self, now: float, free_at: Sequence[float], active: Sequence[int],
               batch_hint: int) -> int:
        """:meth:`place`'s rule on the context's fields (the engine's
        scheduled loop calls it, building no context)."""
        hint = max(batch_hint, 1)
        whole = int(hint)  # what an estimator is asked about
        speeds, estimators = self.speeds, self.estimators
        best, best_score, best_speed = -1, 0.0, 0.0
        # One loop, no key tuples or closures: this runs per candidate server
        # per batch.  max(free, now) - now is max(free - now, 0.0) exactly.
        for server in active:
            free = free_at[server]
            wait = free if free > now else now
            if estimators is not None:
                seconds = float(estimators[server](whole))
            else:
                seconds = hint / speeds[server]
            score = (wait if self.completion else wait - now) + seconds
            speed = speeds[server]
            if (
                best < 0
                or score < best_score
                or (score == best_score and (
                    speed > best_speed or (speed == best_speed and server < best)
                ))
            ):
                best, best_score, best_speed = server, score, speed
        return best


class LeastOutstandingWorkPlacer(_SpeedScoredPlacer):
    """Minimize outstanding work: backlog seconds + candidate batch seconds.

    ``score(s) = max(free_at[s] - now, 0) + service_seconds(s, batch_hint)``:
    the total service-seconds the server would owe after accepting the
    batch.  Unlike the free-clock rule, an idle slow server only wins when
    its service time for the batch undercuts a fast server's backlog plus
    service — so slow servers absorb overflow instead of stealing
    head-of-line work.  Ties prefer the faster server, then the lower id.
    Pass per-server ``estimators`` for batch-size-aware service estimates
    instead of the scalar-speed approximation ``batch_hint / speed``.
    """


class WeightedSpeedPlacer(_SpeedScoredPlacer):
    """Earliest estimated completion, speed-weighted (the ECT rule).

    ``score(s) = max(free_at[s], now) + service_seconds(s, batch_hint)``:
    when the batch would *finish* if placed on ``s``.  Identical to
    least-work when every server is backlogged; differs for idle servers,
    whose idle-since gap costs nothing here (service cannot start before
    ``now`` anyway).  Ties prefer the faster server, then the lower id.
    Pass per-server ``estimators`` for batch-size-aware service estimates
    instead of the scalar-speed approximation ``batch_hint / speed``.
    """

    completion = True


class PredictivePlacer(_SpeedScoredPlacer):
    """Forecast-driven placement from windowed telemetry trends.

    The instantaneous placers react to free clocks and *nominal* speeds; on
    a cluster whose servers degrade at run time (fault-plane slowdowns,
    thermal throttling) the nominal speed is stale and the free clock only
    shows damage already done.  This placer reads the engine's
    :class:`~repro.serving.telemetry.TelemetryBus` through the placement
    context and keeps, per server, an EWMA forecast over completed windows
    of

    * the **measured service rate** (served requests per busy second — the
      server's demonstrated capacity, robust to idleness), and
    * the **queue-depth trend** observed at that server's batch formations
      (a congestion signal that rises while a server falls behind).

    Placement minimizes forecasted completion::

        score(s) = max(free_at[s], now)
                 + service_seconds(s, hint) * (nominal_rate[s] / forecast_rate[s])
                 + DEPTH_WEIGHT * depth_trend[s] / forecast_rate[s]

    i.e. the batch-size-aware estimate is *re-scaled by the measured
    degradation* and penalized by forecasted congestion.  Servers without
    telemetry history (cold start, no bus attached) fall back to nominal
    speeds — the placer then behaves exactly like
    :class:`WeightedSpeedPlacer`.

    ``ALPHA`` is the EWMA weight of the newest window.  Forecasts fold in
    incrementally (each window is visited once per server), so per-batch
    placement stays O(active servers).
    """

    ALPHA = 0.5
    DEPTH_WEIGHT = 0.1

    def __init__(
        self,
        speeds: Sequence[float],
        estimators: Optional[Sequence[ServiceEstimator]] = None,
    ) -> None:
        super().__init__(speeds, estimators)
        # server -> [last folded window, rate EWMA (nan = none), depth EWMA]
        self._trends: Dict[int, List[float]] = {}

    def _trend(
        self, bus: "TelemetryBus", server: int, now: float
    ) -> Tuple[float, float]:
        """(forecast rate, forecast depth) for one server at time ``now``.

        Folds completed windows into the per-server EWMA state; a state
        ahead of the bus (the bus was reset for a new run) starts over.
        """
        completed = min(bus.window_index(now) - 1, bus.last_window)
        state = self._trends.get(server)
        if state is None or state[0] > completed:
            state = self._trends[server] = [-1.0, float("nan"), 0.0]
        last, alpha = int(state[0]), self.ALPHA
        for window in range(last + 1, completed + 1):
            state[1] = fold_rate(state[1], bus.measured_rate(server, window), alpha)
            depth = bus.mean_depth(server, window)
            state[2] = alpha * depth + (1 - alpha) * state[2]
        state[0] = float(completed)
        return state[1], state[2]

    def place(self, context: PlacementContext) -> int:
        bus = context.telemetry
        now = context.time
        hint = max(context.batch_hint, 1)

        def score(server: int) -> Tuple[float, float, int]:
            nominal = self.speeds[server]
            rate, depth = (
                self._trend(bus, server, now)
                if bus is not None
                else (float("nan"), 0.0)
            )
            if not rate > 0:  # nan or zero: no history yet, trust nominal
                rate = nominal
            estimate = self.service_seconds(server, hint) * (nominal / rate)
            pressure = self.DEPTH_WEIGHT * depth / rate
            return (
                max(context.free_at[server], now) + estimate + pressure,
                -rate,
                server,
            )

        return min(context.active, key=score)


class SpreadPlacer:
    """Failure-domain-aware placement: spread load across zones/racks.

    Groups the active servers by failure domain (``topology.domain_of``),
    scores each domain by its *mean outstanding backlog per server*
    (``sum(max(free_at[s] - now, 0)) / len(servers)``), and restricts
    placement to the least-backlogged domain — ties prefer the domain with
    more active servers, then the lexically first name, so the choice is
    deterministic.  Within the chosen domain, ``within`` decides, so any
    speed-aware placer becomes spread-aware by wrapping.
    """

    def __init__(self, topology: "ClusterTopology", within: Placer) -> None:
        self.topology = topology
        self.within = within

    def place(self, context: PlacementContext) -> int:
        domains: Dict[str, List[int]] = {}
        for server in context.active:
            domains.setdefault(self.topology.domain_of(server), []).append(server)
        if len(domains) > 1:
            now = context.time
            backlog = {
                name: sum(
                    max(context.free_at[s] - now, 0.0) for s in servers
                )
                for name, servers in domains.items()
            }
            chosen = min(
                domains,
                key=lambda name: (
                    backlog[name] / len(domains[name]),
                    -len(domains[name]),
                    name,
                ),
            )
            context = replace(context, active=domains[chosen])
        return self.within.place(context)
