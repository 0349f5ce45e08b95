"""Request-lifecycle tracing: one span table + a low-overhead tracer.

The serving layers record *what happened to each request* as typed spans
(see the taxonomy in :mod:`repro.obs`).  Three rules shape the design:

* **One table.**  A traced day is hundreds of thousands of spans, so
  :class:`SpanStore` is six numpy columns (kind, request, server, start,
  end, value) growing by doubling, not span objects — the structure-of-
  arrays discipline of :class:`~repro.serving.core.RequestStore`.

* **One writer, reading the ledger.**  The engine binds the tracer to its
  session's :class:`~repro.serving.core.BatchLedger` and
  :class:`~repro.serving.core.RequestStore` at ``start()``
  (:meth:`Tracer.bind`), as it binds the telemetry bus, and hands it no
  batch: :meth:`Tracer.settle` writes the spans of the rows past its cursor
  in bulk before any read, any other hook, any rewind (``preempt_server``
  settles before ``ledger.remove``) and at ``finish()``, whichever loop
  wrote them.  Drop cohorts arrive as they happen, each written behind
  exactly the rows that went before it (on the sweep, ``FifoSweep.
  drop_rows``), so a session's spans are the same rows, in the same order,
  whichever loop served it.  Nothing catches up once per batch.

* **Head-based sampling.**  ``sample_rate`` decides *per request*, by a
  deterministic integer hash of the request slot, whether its per-request
  spans (queued / served) are recorded — the same request samples
  identically on every loop and across reruns.  Execute spans are always
  recorded when tracing is on: they are O(batches), they are the per-server
  swimlanes, and they cost nothing per request.  Every drop and every
  deadline miss is traced whatever the sampling decision: the requests
  worth debugging are exactly the ones a uniform sample would usually miss.

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
from typing import Dict, Optional, Sequence, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.core import BatchLedger, RequestStore

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
    spans, drops and deadline misses are always kept).  Everything is
    opt-in: engines built without a tracer take a single ``is None`` branch
    per drop cohort and rewind.

    **Spans are settled on read.**  :meth:`settle` writes the spans of the
    bound ledger's new rows (sampling hash and deadline-miss mask computed
    once, rows in the order a batch-at-a-time hook would append them) when
    anything reads or writes spans — :attr:`store`, every query, every
    hook — and when the engine binds the next session or none.
    """

    def __init__(self, sample_rate: float = 1.0) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.sample_rate = float(sample_rate)
        self._threshold = int(self.sample_rate * _HASH_MOD)
        self.reset()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
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
        """Drop all recorded spans and bookkeeping, and the session being
        read (fresh run)."""
        self._store = SpanStore()
        # Live terminal row per traced slot.
        self._terminal_row: Dict[int, int] = {}
        # Execute span row per record ``row`` id, for preemption rewrite.
        self._record_row: Dict[int, int] = {}
        self._ledger: Optional["BatchLedger"] = None
        self._requests: Optional["RequestStore"] = None
        self._cursor = 0

    # ------------------------------------------------------------------
    # Reading the session (bound by the engine)
    # ------------------------------------------------------------------
    def bind(
        self,
        ledger: Optional["BatchLedger"] = None,
        store: Optional["RequestStore"] = None,
    ) -> None:
        """Write the spans of the session being read, then read ``ledger``
        (whose riders are slots of ``store``) from its next row on;
        ``bind()`` only writes and lets the session go."""
        self.settle()
        self._ledger, self._requests = ledger, store
        self._cursor = 0 if ledger is None else len(ledger) + ledger.removed

    def settle(self, drops: Sequence[tuple] = ()) -> None:
        """Write the spans of the bound ledger's rows past the cursor (the
        next row id; row ids only grow), in row order: a batch's execute
        row, then a queued and a served row per traced rider.  A rewind must
        come after it: a row cut out of the ledger unread is never traced.

        ``drops`` are cohorts ``(row, slots, arrivals, time)``, in order,
        that expired when the ledger held the rows with ids below ``row``:
        each is written (as :meth:`on_drop` writes one) behind those rows."""
        ledger, cursor = self._ledger, self._cursor
        end = cursor if ledger is None else len(ledger.lists[0]) + ledger.removed
        if end == cursor and not drops:
            return
        ids, starts, finishes, sizes, servers, _, _, slots = (
            ledger.since(cursor) if end > cursor else (np.zeros(0, np.int64),) * 8
        )
        self._cursor = end
        cuts = [0, *np.searchsorted(ids, [drop[0] for drop in drops]).tolist(), len(ids)]
        seats = np.concatenate(([0], np.cumsum(sizes)))
        for k, drop in enumerate([*drops, None]):
            lo, hi = cuts[k], cuts[k + 1]
            if hi > lo:
                self._batches(
                    ids[lo:hi], servers[lo:hi], starts[lo:hi], finishes[lo:hi],
                    sizes[lo:hi], slots[seats[lo]:seats[hi]],
                )
            if drop is not None:
                self._drop(*drop[1:])

    def _batches(self, ids, servers, starts, finishes, sizes, slots) -> None:
        """The spans of a run of ledger rows (``slots`` ride in them in
        order, each row seating its size)."""
        requests = self._requests
        batch = np.repeat(np.arange(len(sizes)), sizes)  # each rider's batch
        mask = self.sample_mask(slots)
        if requests.deadlines is not None and self.sample_rate < 1.0:
            # A sampled-out request that misses its deadline is traced anyway.
            due = requests.deadlines[slots]
            mask |= ~np.isnan(due) & (finishes[batch] > due)
        hits = np.flatnonzero(mask)
        batch, traced = batch[hits], slots[hits]
        pairs = _pairs(
            SPAN_SERVED, traced, servers[batch], requests.arrivals[traced],
            starts[batch], finishes[batch],
        )
        # Each execute row goes in ahead of the pairs of its traced riders.
        at = 2 * np.searchsorted(batch, np.arange(len(sizes)))
        executes = (SPAN_EXECUTE, -1, servers, starts, finishes, sizes)
        first = self._store.append_rows([
            np.insert(column, at, head) for column, head in zip(pairs, executes)
        ])
        self._record_row.update(
            zip(ids.tolist(), (first + at + np.arange(len(at))).tolist())
        )
        served = first + batch + 2 * np.arange(1, len(hits) + 1)
        self._terminal_row.update(zip(traced.tolist(), served.tolist()))

    def _drop(self, slots, arrivals, time: float) -> None:
        slots, time = np.asarray(slots), float(time)
        first = self._store.append_rows(
            _pairs(SPAN_DROPPED, slots, -1, np.asarray(arrivals), time, time)
        )
        self._terminal_row.update(
            zip(slots.tolist(), range(first + 1, first + 2 * len(slots), 2))
        )

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def on_batch(self, *args) -> None:
        """No loop calls it: the tracer reads the ledger it is bound to.  It
        stays because ``bench/day.py``'s traced run wraps this name, and it
        goes when that run stops wrapping it (ROADMAP 1-I)."""
        raise RuntimeError("Tracer.on_batch is gone: bind() the tracer to a ledger")

    @property
    def store(self) -> SpanStore:
        """The recorded spans, the bound ledger's unread rows included."""
        self.settle()
        return self._store

    def on_drop(self, slots: np.ndarray, arrivals: np.ndarray, time: float) -> None:
        """Expired requests, behind every row the ledger holds: queued span
        + dropped terminal per request (every drop is traced), each terminal
        its request's live one."""
        if len(slots):
            self.settle([(np.inf, slots, arrivals, time)])

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
