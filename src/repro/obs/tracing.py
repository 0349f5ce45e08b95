"""Request-lifecycle tracing: one span table + a low-overhead tracer.

The serving layers record *what happened to each request* as typed spans
(see the taxonomy in :mod:`repro.obs`).  Three rules shape the design:

* **One table.**  A traced day is hundreds of thousands of spans, so
  :class:`SpanStore` is six numpy columns (kind, request, server, start,
  end, value) growing by doubling, not span objects — the structure-of-
  arrays discipline of :class:`~repro.serving.core.RequestStore`.

* **One writer.**  The object loops park a batch per :meth:`Tracer.on_batch`,
  the columnar sweep a run of ledger rows per :meth:`Tracer.on_batches`
  (each drop cohort goes to :meth:`Tracer.on_drop` in its place), and
  :meth:`Tracer.settle` writes all of their spans: a session's spans are the
  same rows, in the same order, whichever loop served it.

* **Head-based sampling.**  ``sample_rate`` decides *per request*, by a
  deterministic integer hash of the request slot, whether its per-request
  spans (queued / served) are recorded — the same request samples
  identically on every loop and across reruns.  Execute spans are always
  recorded when tracing is on: they are O(batches), they are the per-server
  swimlanes, and they cost nothing per request.  Drops and deadline misses
  override the sampling decision (``sample_drops`` /
  ``sample_deadline_misses``; a dropped request that carried a deadline
  missed it): the requests worth debugging are exactly the ones a uniform
  sample would usually miss.

Preemption support keeps the terminal-conservation invariant (every
traced request ends in *exactly one* live terminal span): when a batch is
rewound, its execute span becomes a ``preempted`` span ending at the kill
instant and the victims' ``served`` terminals are retracted (kind
``cancelled``, excluded from queries); the requests then re-terminate
through a later serve or drop.  Requeue decisions land as ``migrate``
(first move) or ``retry`` (repeat move) instants.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

import numpy as np

# ----------------------------------------------------------------------
# Span taxonomy (integer codes — the `kind` column)
# ----------------------------------------------------------------------
SPAN_QUEUED = 0      # request waiting: [arrival, batch start)
SPAN_EXECUTE = 1     # batch executing on a server: [start, finish]
SPAN_PREEMPTED = 2   # killed execution: [start, kill] (rewritten EXECUTE)
SPAN_SERVED = 3      # terminal instant: request completed (value = latency)
SPAN_DROPPED = 4     # terminal instant: request expired (value = wait)
SPAN_MIGRATE = 5     # hop instant: first requeue off a preempted server
SPAN_RETRY = 6       # hop instant: repeat requeue (request migrated before)
SPAN_CANCELLED = 7   # retracted row (a terminal undone by preemption)

KIND_NAMES = (
    "queued", "execute", "preempted", "served", "dropped", "migrate", "retry",
    "cancelled",
)
TERMINAL_KINDS = (SPAN_SERVED, SPAN_DROPPED)
#: Spans with duration (exported as Chrome "X" events; the rest are instants).
DURATION_KINDS = (SPAN_QUEUED, SPAN_EXECUTE, SPAN_PREEMPTED)

_HASH_MULT = 2654435761      # Knuth's multiplicative hash constant
_HASH_MOD = 1 << 32

#: The span table's columns, in row order: (name, dtype).
_COLUMNS = (
    ("kind", np.int64), ("request", np.int64), ("server", np.int64),
    ("start", np.float64), ("end", np.float64), ("value", np.float64),
)


class SpanStore:
    """One table of spans: six numpy columns, a row per span, in append order.

    The columns keep spare room behind the ``len(self)`` rows and double it
    when it runs out, so a run of appends costs O(rows added).  A row's
    index never changes: the tracer rewrites a span by it.
    """

    __slots__ = ("_table", "_rows")

    def __init__(self) -> None:
        self._table = [np.empty(0, dtype) for _, dtype in _COLUMNS]
        self._rows = 0

    def __len__(self) -> int:
        return self._rows

    def append_rows(self, columns: Sequence) -> int:
        """Append rows handed over as their six columns, each a sequence or
        one value for every row (the kinds' length is the row count: one row
        for a single kind); returns the first new row's index."""
        first = self._rows
        total = self._rows = first + np.size(columns[0])
        if total > len(self._table[0]):
            spare = max(total, 2 * len(self._table[0])) - first
            self._table = [
                np.concatenate([held[:first], np.empty(spare, held.dtype)])
                for held in self._table
            ]
        for held, column in zip(self._table, columns):
            held[first:total] = column
        return first

    def rewrite(self, row: int, kind: int, end: Optional[float] = None) -> None:
        """Rewrite one span's kind (and optionally end) in place."""
        self._table[0][row] = kind
        if end is not None:
            self._table[4][row] = end

    def columns(self) -> Dict[str, np.ndarray]:
        """The table as ``{column name: array}`` (copies)."""
        return {
            name: held[: self._rows].copy()
            for (name, _), held in zip(_COLUMNS, self._table)
        }


def _pairs(terminal: int, slots, servers, arrivals, waited, ends) -> tuple:
    """Six columns of (queued, ``terminal``) span pairs, a pair per request
    in order: the wait over [arrival, ``waited``), then the terminal instant
    at ``ends``; each pair's values are ``waited - arrival`` and
    ``ends - arrival``.  Every argument after ``terminal`` is a column or
    one value for every request."""
    count = len(slots)

    def interleave(first, second):
        column = np.empty(2 * count, np.result_type(first, second))
        column[0::2], column[1::2] = first, second
        return column

    return (
        interleave(SPAN_QUEUED, terminal),
        interleave(slots, slots),
        interleave(servers, servers),
        interleave(arrivals, ends),
        interleave(waited, ends),
        interleave(np.subtract(waited, arrivals), np.subtract(ends, arrivals)),
    )


class Tracer:
    """Low-overhead request-lifecycle tracer (engine / scheduler hook).

    Attach one to a :class:`~repro.serving.engine.ServingEngine` or
    :class:`~repro.serving.cluster.ClusterEngine` via their ``tracer``
    parameter.  ``sample_rate`` head-samples per-request spans (execute
    spans are always kept); ``sample_drops`` and ``sample_deadline_misses``
    force-trace the interesting requests regardless of the sampling
    decision.  Everything is opt-in: engines
    built without a tracer take a single ``is None`` branch per batch.

    **Spans are settled on read.**  :meth:`on_batch` and :meth:`on_batches`
    only park their batches; :meth:`settle` writes the spans of all of them
    (sampling hash and deadline-miss mask computed once, rows in the order a
    batch-at-a-time hook would append them) when anything reads or writes
    spans — :attr:`store`, every query, every other hook — and
    ``ServingEngine.finish()`` calls it before the session closes.
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        sample_drops: bool = True,
        sample_deadline_misses: bool = True,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.sample_rate = float(sample_rate)
        self.sample_drops = bool(sample_drops)
        self.sample_deadline_misses = bool(sample_deadline_misses)
        self._threshold = int(self.sample_rate * _HASH_MOD)
        self.reset()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    @property
    def wants_deadlines(self) -> bool:
        """Whether hooks should pass deadline columns (miss-forced sampling)."""
        return self.sample_deadline_misses and self.sample_rate < 1.0

    def sample_mask(self, slots: np.ndarray) -> np.ndarray:
        """Deterministic head-sampling decision per slot (vectorized)."""
        if self.sample_rate >= 1.0:
            return np.ones(len(slots), dtype=bool)
        if self.sample_rate <= 0.0:
            return np.zeros(len(slots), dtype=bool)
        hashed = (
            np.asarray(slots, dtype=np.uint64) * np.uint64(_HASH_MULT)
        ) % np.uint64(_HASH_MOD)
        return hashed < np.uint64(self._threshold)

    def reset(self) -> None:
        """Drop all recorded spans and bookkeeping (fresh run)."""
        self._store = SpanStore()
        # Parked batches, not written yet (see settle): per batch its record
        # row id, server, start, finish and size; per park its riders'
        # (slots, arrivals, deadlines or None).
        self._heads: tuple = ([], [], [], [], [])
        self._riders: List[tuple] = []
        # Live terminal row per traced slot.
        self._terminal_row: Dict[int, int] = {}
        # Execute span row per record ``row`` id, for preemption rewrite.
        self._record_row: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def on_batch(
        self,
        record,
        slots: np.ndarray,
        arrivals: np.ndarray,
        deadlines: Optional[np.ndarray] = None,
    ) -> None:
        """One executed batch: execute span + sampled per-request spans.

        ``record`` is any object with ``server``/``start``/``finish``/``row``
        attributes (:class:`~repro.serving.engine.BatchRecord`);
        ``deadlines`` (absolute, ``nan`` = none) enables forced sampling
        of deadline-missing requests.  The spans are written by
        :meth:`settle`.
        """
        rows, servers, starts, finishes, sizes = self._heads
        rows.append(record.row)
        servers.append(record.server)
        starts.append(record.start)
        finishes.append(record.finish)
        sizes.append(len(slots))
        self._riders.append((slots, arrivals, deadlines))

    def on_batches(
        self, ledger, lo: int, hi: int, slots: np.ndarray, arrivals: np.ndarray,
        deadlines: Optional[np.ndarray] = None,
    ) -> None:
        """Rows ``lo``..``hi`` of a :class:`~repro.serving.core.BatchLedger`
        no row was removed from yet (a row's id is its index), as that many
        :meth:`on_batch` calls: ``slots`` (with their ``arrivals`` and
        ``deadlines``) ride in them in order, each row seating its size."""
        starts, finishes, sizes, servers, _ = ledger.lists
        columns = (range(len(starts)), servers, starts, finishes, sizes)
        for held, column in zip(self._heads, columns):
            held.extend(column[lo:hi])
        self._riders.append((slots, arrivals, deadlines))

    @property
    def store(self) -> SpanStore:
        """The recorded spans, parked batches included."""
        self.settle()
        return self._store

    def settle(self) -> None:
        """Write the spans of every parked batch, in parking order: a batch's
        execute row, then a queued and a served row per traced rider."""
        riders = self._riders
        if not riders:
            return
        rows, servers, starts, finishes, sizes = self._heads
        self._heads, self._riders = ([], [], [], [], []), []
        servers, sizes = np.array(servers, np.int64), np.array(sizes, np.int64)
        starts, finishes = np.array(starts, float), np.array(finishes, float)
        slots = np.concatenate([park[0] for park in riders])
        arrivals = np.concatenate([park[1] for park in riders])
        batch = np.repeat(np.arange(len(sizes)), sizes)  # each rider's batch
        mask = self.sample_mask(slots)
        if self.sample_deadline_misses and any(park[2] is not None for park in riders):
            deadlines = np.concatenate([
                np.full(len(park[0]), np.nan) if park[2] is None else park[2]
                for park in riders
            ])
            mask |= ~np.isnan(deadlines) & (finishes[batch] > deadlines)
        hits = np.flatnonzero(mask)
        batch, traced = batch[hits], slots[hits]
        pairs = _pairs(
            SPAN_SERVED, traced, servers[batch], arrivals[hits], starts[batch],
            finishes[batch],
        )
        # Each execute row goes in ahead of the pairs of its traced riders.
        at = 2 * np.searchsorted(batch, np.arange(len(sizes)))
        executes = (SPAN_EXECUTE, -1, servers, starts, finishes, sizes)
        first = self._store.append_rows([
            np.insert(column, at, head) for column, head in zip(pairs, executes)
        ])
        self._record_row.update(
            zip(rows, (first + at + np.arange(len(at))).tolist())
        )
        served = first + batch + 2 * np.arange(1, len(hits) + 1)
        self._terminal_row.update(zip(traced.tolist(), served.tolist()))

    def on_drop(
        self,
        slots: np.ndarray,
        arrivals: np.ndarray,
        time: float,
        deadlines: Optional[np.ndarray] = None,
    ) -> None:
        """Expired requests: queued span + dropped terminal per traced request,
        each terminal its request's live one.

        ``deadlines`` (absolute, ``nan`` = none) force-traces, under
        ``sample_deadline_misses``, every dropped request that carried one:
        it missed it.
        """
        slots = np.asarray(slots)
        if self.sample_drops:
            mask = np.ones(len(slots), dtype=bool)
        else:
            mask = self.sample_mask(slots)
            if deadlines is not None and self.sample_deadline_misses:
                mask |= ~np.isnan(deadlines)
        if mask.any():
            time, slots = float(time), slots[mask]
            first = self.store.append_rows(
                _pairs(SPAN_DROPPED, slots, -1, np.asarray(arrivals)[mask], time, time)
            )
            self._terminal_row.update(
                zip(slots.tolist(), range(first + 1, first + 2 * len(slots), 2))
            )

    def on_preempt(self, record, slots: Sequence[int], time: float) -> None:
        """A batch was rewound: rewrite its span, retract terminals.

        The execute span becomes ``preempted``, truncated to the kill
        instant (zero-length for batches that had not started); victims'
        ``served`` terminals are cancelled so their eventual re-serve or
        drop is the single live terminal again.
        """
        store = self.store
        row = self._record_row.pop(record.row, None)
        if row is not None:
            end = min(float(record.finish), max(float(record.start), float(time)))
            store.rewrite(row, SPAN_PREEMPTED, end=end)
        for slot in slots:
            terminal = self._terminal_row.pop(int(slot), None)
            if terminal is not None:
                store.rewrite(terminal, SPAN_CANCELLED)

    def on_requeue(
        self,
        slots: Sequence[int],
        prior_migrations: Sequence[int],
        time: float,
        server: int,
    ) -> None:
        """Migration hops: ``migrate`` on first move, ``retry`` on repeats."""
        prior = np.asarray(prior_migrations, dtype=np.float64)
        time = float(time)
        self.store.append_rows((
            np.where(prior > 0, SPAN_RETRY, SPAN_MIGRATE), slots, int(server),
            time, time, prior + 1.0,
        ))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def spans(self) -> Dict[str, np.ndarray]:
        """The recorded spans as a columnar dict (copy)."""
        return self.store.columns()

    def span_counts(self) -> Dict[str, int]:
        """``{kind name: count}`` over every recorded span."""
        kinds = self.store.columns()["kind"]
        return {
            name: int(np.count_nonzero(kinds == code))
            for code, name in enumerate(KIND_NAMES)
        }

    def terminal_requests(self) -> Dict[int, int]:
        """``{request: live terminal count}`` — the conservation check.

        Every traced request must map to exactly 1 (one ``served`` or
        ``dropped`` instant), even across preemptions, migrations and
        checkpointed re-execution; cancelled terminals are excluded.
        """
        columns = self.store.columns()
        kinds = columns["kind"]
        terminal = (kinds == SPAN_SERVED) | (kinds == SPAN_DROPPED)
        return dict(Counter(columns["request"][terminal].tolist()))
