"""Schedulers: pluggable queue disciplines for the serving engine.

The seed engine hard-coded FIFO head-of-line batching.  A
:class:`Scheduler` generalizes the *order in which queued requests are
eligible for the next batch* while the engine keeps its invariants
(batches never mix models, a batch only contains requests that have
already arrived when service starts, and at most ``max_batch`` ride
together).

A scheduler is a pure ordering: :meth:`Scheduler.keys` maps rows of the
session's :class:`~repro.serving.core.RequestStore` to sortable discipline
keys, read straight from the store's columns (no ``Request`` objects).  Every
queue sorts on ``(key, arrival, admission slot)``, so requests with equal
keys always serve FIFO by arrival (regardless of the order they were pushed through streaming
``submit()``).  Three disciplines ship with the engine:

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
and are then re-ranked by the same keys as fresh requests — an EDF queue
re-sorts migrants by their (unchanged) deadlines, a priority queue by their
priorities.  Equal keys tie-break on the migration-ready time (a migrant's
pend key, which stands in for its arrival), then the admission slot.  No
scheduler needs migration-specific code.
"""

from __future__ import annotations

from typing import List, Protocol, Tuple, TYPE_CHECKING, runtime_checkable

import numpy as np

from repro.serving.core import RequestStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.engine import Request


@runtime_checkable
class Scheduler(Protocol):
    """Queue discipline: a lower key serves first."""

    def keys(self, store: RequestStore, slots: np.ndarray) -> List[Tuple]:
        """Discipline sort keys of rows ``slots`` of ``store``, in order.

        Return only the discipline's own criteria (priority, deadline,
        ...); every queue appends ``(arrival, admission slot)`` behind
        them, so equal keys tie-break FIFO by arrival.
        """
        ...


class FifoScheduler:
    """First-in-first-out: the seed discipline (and the default)."""

    def keys(self, store: RequestStore, slots: np.ndarray) -> List[Tuple]:
        return [()] * len(slots)  # the arrival tie-breaker IS the discipline


class PriorityScheduler:
    """Strict priority: higher ``Request.priority`` first, FIFO within."""

    def keys(self, store: RequestStore, slots: np.ndarray) -> List[Tuple]:
        if store.priorities is None:
            return [(0,)] * len(slots)
        return [(p,) for p in (-store.priorities[slots]).tolist()]


class EdfScheduler:
    """Earliest-deadline-first (SLO-aware).

    Requests carrying a ``deadline`` (absolute simulation time by which
    the response should finish) are served soonest-deadline first;
    deadline-less requests sort after every deadline, FIFO among
    themselves.
    """

    def keys(self, store: RequestStore, slots: np.ndarray) -> List[Tuple]:
        inf = float("inf")
        if store.deadlines is None:
            return [(inf,)] * len(slots)
        # nan is the store's "no deadline" sentinel and never equals itself;
        # the key space uses inf, which sorts last.
        return [(d if d == d else inf,) for d in store.deadlines[slots].tolist()]

    def key(self, request: "Request") -> Tuple:
        """:meth:`keys` of one request.  No queue calls it; it stays because
        ``bench/day.py``'s traced run wraps this name on the EDF scheduler."""
        return self.keys(RequestStore.from_requests([request]), np.zeros(1, np.intp))[0]
