"""Schedulers: pluggable queue disciplines for the serving engine.

The seed engine hard-coded FIFO head-of-line batching.  A
:class:`Scheduler` generalizes the *order in which queued requests are
eligible for the next batch* while the engine keeps its invariants
(batches never mix models, a batch only contains requests that have
already arrived when service starts, and at most ``max_batch`` ride
together).

A scheduler is a pure ordering: :meth:`Scheduler.key` maps a queued
:class:`~repro.serving.engine.Request` to a sortable key (and, for the
built-in disciplines, ``keys(store, slots)`` computes the same keys for a
whole admitted chunk straight from the columns of the session's
:class:`~repro.serving.core.RequestStore`, which is the only form the
engine calls — see :func:`store_keys`); the engine
appends ``(arrival_time, admission index)`` as the final tie-breakers, so
requests with equal keys always serve FIFO by arrival (regardless of the
order they were pushed through streaming ``submit()``).  Three
disciplines ship with the engine:

* :class:`FifoScheduler` — arrival order; the seed behaviour.  A
  ``ServingEngine`` built with ``scheduler=None`` (or an explicit
  ``FifoScheduler``) takes the fast array path, which is bit-identical to
  the seed simulator at ``num_servers=1``.
* :class:`PriorityScheduler` — higher :attr:`Request.priority` first,
  FIFO within a priority class.
* :class:`EdfScheduler` — earliest :attr:`Request.deadline` first
  (earliest-deadline-first, the classic SLO-aware discipline); requests
  without a deadline sort last, FIFO among themselves.  Under overload
  EDF spends the scarce accelerator time on the requests whose SLOs are
  still winnable, which improves deadline attainment over FIFO (see
  ``tests/test_serving_engine.py::TestSchedulers``).

Every scheduler other than FIFO requires explicit
:class:`~repro.serving.engine.Request` objects (a list, a lazy view,
streamed submissions): a bare trace carries arrival times and no priority or
deadline to order by, so the engine refuses the combination.

Scheduling is orthogonal to *placement*: a scheduler orders **which
request** serves next, a :class:`~repro.serving.placement.Placer` picks
**which server** runs the batch.  The two compose freely — e.g. EDF
ordering with weighted-by-speed placement on a heterogeneous cluster (see
``tests/test_serving_cluster.py``).

Schedulers also order **migrated** work: when the resilience plane
(:mod:`repro.serving.resilience`) preempts a failing server's batches, the
requeued requests re-enter admission gated by their migration-ready time
and are then re-ranked by exactly the same :meth:`Scheduler.key` as fresh
requests — an EDF queue re-sorts migrants by their (unchanged) deadlines,
a priority queue by their priorities.  Equal keys tie-break on the
migration-ready time (a migrant's pend key, which stands in for its
arrival), then the admission slot.  No scheduler needs migration-specific
code.

The same key also orders **admission to a running generation batch**: the
iteration-level :class:`~repro.serving.generation.IterationScheduler` ranks
its waiting sequences with :func:`admission_key` — discipline key first,
arrival and admission slot as tie-breakers, exactly the engine's queue
ordering — so EDF/priority semantics carry over to continuous batching
without generation-specific scheduler code.
"""

from __future__ import annotations

from typing import List, Protocol, Tuple, TYPE_CHECKING, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.core import RequestStore
    from repro.serving.engine import Request


def admission_key(
    scheduler: "Scheduler", request: "Request", arrival: float, slot: int
) -> Tuple:
    """Full queue-ordering key: discipline key + the engine's tie-breakers.

    The one place the ``(scheduler.key, arrival, admission slot)`` ordering
    is spelled out for callers outside the engine's own loops (the
    generation scheduler's admission ranking) — keeping every queue in the
    system sorted by the same rule.
    """
    return (scheduler.key(request), float(arrival), int(slot))


@runtime_checkable
class Scheduler(Protocol):
    """Queue discipline: lower :meth:`key` serves first."""

    def key(self, request: "Request") -> Tuple:
        """Discipline sort key for one queued request.

        Return only the discipline's own criteria (priority, deadline,
        ...); the engine appends ``(arrival_time, admission index)``
        behind it, so equal keys tie-break FIFO by arrival.
        """
        ...


def store_keys(
    scheduler: "Scheduler", store: "RequestStore", slots: np.ndarray
) -> List[Tuple]:
    """Discipline keys for ``slots`` of a columnar store, vectorized.

    Dispatches to the scheduler's ``keys(store, slots)`` when it defines
    one (the built-in disciplines do — key extraction runs over the
    store's columns, no ``Request`` objects); custom schedulers that only
    define :meth:`Scheduler.key` are handed each row's request through
    :meth:`~repro.serving.core.RequestStore.request` — the caller's own
    object where the store kept it.
    """
    vectorized = getattr(scheduler, "keys", None)
    if vectorized is not None:
        return vectorized(store, slots)
    return [scheduler.key(store.request(slot)) for slot in slots]


class FifoScheduler:
    """First-in-first-out: the seed discipline (and the default)."""

    def key(self, request: "Request") -> Tuple:
        return ()  # the engine's arrival tie-breaker IS the discipline

    def keys(self, store: "RequestStore", slots: np.ndarray) -> List[Tuple]:
        return [()] * len(slots)


class PriorityScheduler:
    """Strict priority: higher ``Request.priority`` first, FIFO within."""

    def key(self, request: "Request") -> Tuple:
        return (-request.priority,)

    def keys(self, store: "RequestStore", slots: np.ndarray) -> List[Tuple]:
        if store.priorities is None:
            return [(0,)] * len(slots)
        # tolist() yields Python ints: identical key values (and types) to
        # the per-object ``-request.priority``.
        return [(p,) for p in (-store.priorities[slots]).tolist()]


class EdfScheduler:
    """Earliest-deadline-first (SLO-aware).

    Requests carrying a ``deadline`` (absolute simulation time by which
    the response should finish) are served soonest-deadline first;
    deadline-less requests sort after every deadline, FIFO among
    themselves.
    """

    def key(self, request: "Request") -> Tuple:
        deadline = request.deadline
        # nan is "no deadline" too (the store's sentinel): it sorts last.
        missing = deadline is None or deadline != deadline
        return (float("inf") if missing else deadline,)

    def keys(self, store: "RequestStore", slots: np.ndarray) -> List[Tuple]:
        inf = float("inf")
        if store.deadlines is None:
            return [(inf,)] * len(slots)
        # nan is the store's "no deadline" sentinel and never equals itself;
        # the key space uses inf (sorts last), exactly like key().
        return [(d if d == d else inf,) for d in store.deadlines[slots].tolist()]
