"""Request-lifecycle tracing: columnar span store + low-overhead tracer.

The serving layers record *what happened to each request* as typed spans
(see the taxonomy in :mod:`repro.obs`).  Two constraints shape the design:

* **Columnar storage.**  A span is five scalars, and a traced day is
  hundreds of thousands of them — so :class:`SpanStore` keeps parallel
  columns (kind, request, server, start, end, value), not span objects,
  the same structure-of-arrays discipline as
  :class:`~repro.serving.core.RequestStore`.  The engine's columnar fast
  path appends whole numpy chunks (:meth:`SpanStore.extend`) instead of
  looping requests; chunks fold into the row lists only when a later
  mutation or point-append needs stable row identity.

* **Head-based sampling.**  ``sample_rate`` decides *per request*, by a
  deterministic integer hash of the request slot, whether its per-request
  spans (queued / served) are recorded — the same request samples
  identically on the object loop and the vectorized sweep, and across
  reruns.  Batch-level spans (execute / iteration) are always recorded
  when tracing is on: they are O(batches), they are the per-server
  swimlanes, and they cost nothing per request.  Drops and deadline
  misses override the sampling decision (``sample_drops`` /
  ``sample_deadline_misses``): the requests worth debugging are exactly
  the ones a uniform sample would usually miss.

Preemption support keeps the terminal-conservation invariant (every
traced request ends in *exactly one* live terminal span): when a batch is
rewound, its execute span becomes a ``preempted`` span ending at the kill
instant and the victims' ``served`` terminals are retracted (kind
``cancelled``, excluded from queries); the requests then re-terminate
through a later serve or drop.  Requeue decisions land as ``migrate``
(first move) or ``retry`` (repeat move) instants.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

# ----------------------------------------------------------------------
# Span taxonomy (integer codes — the `kind` column)
# ----------------------------------------------------------------------
SPAN_QUEUED = 0      # request waiting: [arrival, batch start)
SPAN_EXECUTE = 1     # batch executing on a server: [start, finish]
SPAN_ITERATION = 2   # one generation iteration on a server: [start, finish]
SPAN_PREEMPTED = 3   # killed execution: [start, kill] (rewritten EXECUTE)
SPAN_SERVED = 4      # terminal instant: request completed (value = latency)
SPAN_DROPPED = 5     # terminal instant: request expired (value = wait)
SPAN_MIGRATE = 6     # hop instant: first requeue off a preempted server
SPAN_RETRY = 7       # hop instant: repeat requeue (request migrated before)
SPAN_CANCELLED = 8   # retracted row (a terminal undone by preemption)

KIND_NAMES = (
    "queued", "execute", "iteration", "preempted", "served", "dropped",
    "migrate", "retry", "cancelled",
)
TERMINAL_KINDS = (SPAN_SERVED, SPAN_DROPPED)
#: Spans with duration (exported as Chrome "X" events; the rest are instants).
DURATION_KINDS = (SPAN_QUEUED, SPAN_EXECUTE, SPAN_ITERATION, SPAN_PREEMPTED)

_HASH_MULT = 2654435761      # Knuth's multiplicative hash constant
_HASH_MOD = 1 << 32


class SpanStore:
    """Append-mostly columnar span storage.

    Point appends go to plain Python lists (O(1) per span, the object
    loop's path); bulk appends park whole numpy column chunks
    (:meth:`extend`, the vectorized path).  Chunks are folded into the
    lists only when row identity matters — a point append or an in-place
    rewrite after a bulk ingest — so the common case never pays a
    concatenation.  :meth:`columns` materializes the unified view.
    """

    __slots__ = ("kinds", "requests", "servers", "starts", "ends", "values",
                 "_chunks")

    def __init__(self) -> None:
        self.kinds: List[int] = []
        self.requests: List[int] = []
        self.servers: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.values: List[float] = []
        self._chunks: List[tuple] = []

    def __len__(self) -> int:
        return len(self.kinds) + sum(len(chunk[0]) for chunk in self._chunks)

    def _fold(self) -> None:
        """Fold bulk chunks into the row lists (stable row indices after)."""
        for kinds, requests, servers, starts, ends, values in self._chunks:
            self.kinds.extend(int(k) for k in kinds)
            self.requests.extend(int(r) for r in requests)
            self.servers.extend(int(s) for s in servers)
            self.starts.extend(float(t) for t in starts)
            self.ends.extend(float(t) for t in ends)
            self.values.extend(float(v) for v in values)
        self._chunks.clear()

    def append(
        self,
        kind: int,
        request: int,
        server: int,
        start: float,
        end: float,
        value: float,
    ) -> int:
        """Append one span; returns its (stable) row index."""
        if self._chunks:
            self._fold()
        row = len(self.kinds)
        self.kinds.append(int(kind))
        self.requests.append(int(request))
        self.servers.append(int(server))
        self.starts.append(float(start))
        self.ends.append(float(end))
        self.values.append(float(value))
        return row

    def append_rows(self, columns: Sequence[Sequence]) -> None:
        """Append rows handed over as their six columns, each value already
        of the type :meth:`append` casts it to; they take row indices
        ``len(self)`` onwards, in order."""
        if self._chunks:
            self._fold()
        lists = (self.kinds, self.requests, self.servers, self.starts, self.ends,
                 self.values)
        for held, column in zip(lists, columns):
            held += column

    def extend(
        self,
        kind: int,
        requests: np.ndarray,
        servers: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Bulk-append ``len(requests)`` spans of one kind (columnar path)."""
        count = len(requests)
        if count == 0:
            return
        self._chunks.append((
            np.full(count, int(kind), dtype=np.int64),
            np.asarray(requests, dtype=np.int64),
            np.asarray(servers, dtype=np.int64),
            np.asarray(starts, dtype=np.float64),
            np.asarray(ends, dtype=np.float64),
            np.asarray(values, dtype=np.float64),
        ))

    def rewrite(
        self, row: int, kind: int, end: Optional[float] = None
    ) -> None:
        """Rewrite one span's kind (and optionally end) in place."""
        if self._chunks:
            self._fold()
        self.kinds[row] = int(kind)
        if end is not None:
            self.ends[row] = float(end)

    def columns(self) -> Dict[str, np.ndarray]:
        """The unified columnar view (lists + chunks, concatenated copies)."""
        parts = [(
            np.asarray(self.kinds, dtype=np.int64),
            np.asarray(self.requests, dtype=np.int64),
            np.asarray(self.servers, dtype=np.int64),
            np.asarray(self.starts, dtype=np.float64),
            np.asarray(self.ends, dtype=np.float64),
            np.asarray(self.values, dtype=np.float64),
        )] + self._chunks
        names = ("kind", "request", "server", "start", "end", "value")
        if len(parts) == 1:
            return dict(zip(names, parts[0]))
        return {
            name: np.concatenate([part[i] for part in parts])
            for i, name in enumerate(names)
        }


class Tracer:
    """Low-overhead request-lifecycle tracer (engine / scheduler hook).

    Attach one to a :class:`~repro.serving.engine.ServingEngine`,
    :class:`~repro.serving.cluster.ClusterEngine` or
    :class:`~repro.serving.generation.IterationScheduler` via their
    ``tracer`` parameter.  ``sample_rate`` head-samples per-request spans
    (batch/iteration spans are always kept); ``sample_drops`` and
    ``sample_deadline_misses`` force-trace the interesting requests
    regardless of the sampling decision.  Everything is opt-in: engines
    built without a tracer take a single ``is None`` branch per batch.

    **Spans are settled on read.**  :meth:`on_batch` only parks its
    arguments; the spans of the parked batches are written — sampling hash
    and deadline-miss mask computed once over the whole run of batches, rows
    in the order the eager hook would have appended them — when anything
    reads or rewrites spans (:attr:`store`, every query, every other hook)
    and by :meth:`settle`, which ``ServingEngine.finish()`` calls before the
    session closes.  Callers never see the difference; a record handed to
    :meth:`on_batch` must not be mutated before then.
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
        self._store = SpanStore()
        # on_batch arguments whose spans are not written yet (see settle).
        self._parked: List[tuple] = []
        # Live terminal row per traced slot (object path only; bulk-ingested
        # sessions cannot be preempted, so they skip the bookkeeping).
        self._terminal_row: Dict[int, int] = {}
        # Execute/iteration span row per record ``row`` id, for preemption
        # rewrite.
        self._record_row: Dict[int, int] = {}

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
        self._parked = []
        self._terminal_row.clear()
        self._record_row.clear()

    # ------------------------------------------------------------------
    # Engine hooks (object loop)
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
        self._parked.append((record, slots, arrivals, deadlines))

    @property
    def store(self) -> SpanStore:
        """The recorded spans, parked batches included."""
        self.settle()
        return self._store

    def settle(self) -> None:
        """Write the spans of every parked batch, in :meth:`on_batch` order."""
        parked = self._parked
        if not parked:
            return
        self._parked = []
        sizes = [len(batch[1]) for batch in parked]
        slots = np.concatenate([np.asarray(batch[1]) for batch in parked])
        arrivals = np.concatenate([np.asarray(batch[2]) for batch in parked])
        mask = self.sample_mask(slots)
        if self.sample_deadline_misses and any(
            batch[3] is not None for batch in parked
        ):
            deadlines = np.concatenate([
                np.full(size, np.nan) if batch[3] is None else batch[3]
                for batch, size in zip(parked, sizes)
            ])
            finishes = np.repeat([batch[0].finish for batch in parked], sizes)
            mask |= ~np.isnan(deadlines) & (finishes > deadlines)
        hits = np.flatnonzero(mask)
        traced = list(zip(slots[hits].tolist(), arrivals[hits].tolist()))
        # How many traced requests ride in the batches up to and including each.
        upto = np.searchsorted(hits, np.cumsum(sizes)).tolist()
        # The rows the eager hook appended, typed as it cast them, written in
        # one call: a row's index is its place in ``rows`` after the store's.
        base, rows, first = len(self._store), [], 0
        add, record_row, terminal_row = rows.append, self._record_row, self._terminal_row
        for (record, _, _, _), size, last in zip(parked, sizes, upto):
            start, finish = float(record.start), float(record.finish)
            server = int(record.server)
            record_row[record.row] = base + len(rows)
            add((SPAN_EXECUTE, -1, server, start, finish, float(size)))
            for slot, arrival in traced[first:last]:
                add((SPAN_QUEUED, slot, server, arrival, start, start - arrival))
                terminal_row[slot] = base + len(rows)
                add((SPAN_SERVED, slot, server, finish, finish, finish - arrival))
            first = last
        self._store.append_rows(zip(*rows))

    def on_drop(
        self, slots: np.ndarray, arrivals: np.ndarray, time: float
    ) -> None:
        """Expired requests: queued span + dropped terminal per request."""
        self.settle()
        slots_arr = np.asarray(slots)
        if self.sample_drops:
            mask = np.ones(len(slots_arr), dtype=bool)
        else:
            mask = self.sample_mask(slots_arr)
        if not mask.any():
            return
        store = self._store
        time = float(time)
        for slot, arrival in zip(
            slots_arr[mask].tolist(), np.asarray(arrivals)[mask].tolist()
        ):
            slot = int(slot)
            store.append(SPAN_QUEUED, slot, -1, arrival, time, time - arrival)
            self._terminal_row[slot] = store.append(
                SPAN_DROPPED, slot, -1, time, time, time - arrival
            )

    def on_preempt(self, record, slots: Sequence[int], time: float) -> None:
        """A batch/iteration was rewound: rewrite its span, retract terminals.

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
        store = self.store
        time = float(time)
        for slot, prior in zip(slots, prior_migrations):
            kind = SPAN_RETRY if int(prior) > 0 else SPAN_MIGRATE
            store.append(kind, int(slot), int(server), time, time, float(prior) + 1.0)

    def on_iteration(self, record) -> None:
        """One generation iteration (value = tokens emitted)."""
        row = self.store.append(
            SPAN_ITERATION, -1, record.server, record.start, record.finish,
            float(getattr(record, "tokens", 0)),
        )
        self._record_row[record.row] = row

    def on_served(
        self,
        slots: Sequence[int],
        arrivals: Sequence[float],
        finishes: Sequence[float],
        server: int,
        deadlines: Optional[Sequence[float]] = None,
    ) -> None:
        """Terminal instants for sequences retired outside a batch record.

        The generation loop's counterpart to the tail of :meth:`on_batch`:
        sequences finish at their own last-token time inside an iteration,
        so their terminals carry individual finishes.  Sampling (and the
        deadline-miss override) applies per slot as everywhere else.
        """
        slots_arr = np.asarray(slots)
        if len(slots_arr) == 0:
            return
        mask = self.sample_mask(slots_arr)
        if deadlines is not None and self.sample_deadline_misses:
            deadlines_arr = np.asarray(deadlines, dtype=np.float64)
            finishes_arr = np.asarray(finishes, dtype=np.float64)
            mask |= ~np.isnan(deadlines_arr) & (finishes_arr > deadlines_arr)
        if not mask.any():
            return
        store = self.store
        server = int(server)
        for slot, arrival, finish in zip(
            slots_arr[mask].tolist(),
            np.asarray(arrivals, dtype=np.float64)[mask].tolist(),
            np.asarray(finishes, dtype=np.float64)[mask].tolist(),
        ):
            slot = int(slot)
            store.append(SPAN_QUEUED, slot, server, arrival, finish,
                         finish - arrival)
            self._terminal_row[slot] = store.append(
                SPAN_SERVED, slot, server, finish, finish, finish - arrival
            )

    # ------------------------------------------------------------------
    # Columnar fast path (bulk ingestion)
    # ------------------------------------------------------------------
    def ingest_columnar(
        self,
        run,
        arrivals: np.ndarray,
        deadlines: Optional[np.ndarray] = None,
    ) -> None:
        """Bulk-ingest a closed :class:`~repro.serving.core.FifoSweep`.

        Emits the same spans the object loop would, in whole-column
        chunks: one execute span per batch, queued+served spans for the
        sampled (or deadline-missing) requests, queued+dropped spans for
        every drop cohort member.  The served positions (``run.survived``)
        ride, in order, in the rows the ledger's ``sizes`` give them.
        """
        store, ledger = self.store, run.ledger
        batch_starts, batch_finishes = ledger.starts, ledger.finishes
        servers, sizes = ledger.servers, ledger.sizes
        minus_one = np.full(len(ledger), -1, dtype=np.int64)
        store.extend(
            SPAN_EXECUTE, minus_one, servers, batch_starts, batch_finishes,
            sizes.astype(np.float64),
        )
        positions = np.flatnonzero(run.survived)
        batch = np.repeat(np.arange(len(ledger)), sizes)
        mask = self.sample_mask(positions)
        if deadlines is not None and self.sample_deadline_misses:
            due = deadlines[positions]
            mask |= ~np.isnan(due) & (batch_finishes[batch] > due)
        if mask.any():
            sel, batch = positions[mask], batch[mask]
            arr = np.asarray(arrivals, dtype=np.float64)[sel]
            starts, finishes = batch_starts[batch], batch_finishes[batch]
            store.extend(
                SPAN_QUEUED, sel, servers[batch], arr, starts, starts - arr
            )
            store.extend(
                SPAN_SERVED, sel, servers[batch], finishes, finishes,
                finishes - arr,
            )
        if run.dropped:
            # Cohorts cover ascending, disjoint position ranges.
            drop_positions = np.flatnonzero(~run.survived)
            drop_times = np.repeat(
                run.drop_times, np.subtract(run.drop_his, run.drop_los)
            )
            if not self.sample_drops:
                keep = self.sample_mask(drop_positions)
                drop_positions = drop_positions[keep]
                drop_times = drop_times[keep]
            if len(drop_positions):
                arr = np.asarray(arrivals, dtype=np.float64)[drop_positions]
                no_server = np.full(len(drop_positions), -1, dtype=np.int64)
                store.extend(
                    SPAN_QUEUED, drop_positions, no_server, arr, drop_times,
                    drop_times - arr,
                )
                store.extend(
                    SPAN_DROPPED, drop_positions, no_server, drop_times,
                    drop_times, drop_times - arr,
                )

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
        requests = columns["request"][terminal]
        counts: Dict[int, int] = {}
        for request in requests.tolist():
            counts[request] = counts.get(request, 0) + 1
        return counts
