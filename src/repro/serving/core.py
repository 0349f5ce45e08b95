"""Columnar serving core: arrays behind the object API.

The serving stack of PRs 2-7 carries one Python ``Request`` object per
request through a window-stepped loop — fine at 10^4 requests, hopeless at a
realistic diurnal day (>= 10^6).  This module is the data-layout refactor:
the hot state lives in parallel numpy columns and the object API survives as
thin lazily materialized views.

Views vs. copies
================
* :class:`RequestStore` owns the columns (one contiguous ``float64``/
  integer array per field).  ``store.arrivals`` *is* the engine's arrival
  array — no copy is taken on ``start()``.  Every engine session holds
  exactly one store, whichever way its requests were handed in.
* :class:`LazyRequests` is a zero-copy ``Sequence[Request]`` view over a
  store, or over some of its rows (a batch); indexing hands back the
  caller's :class:`Request` where the store was built from objects and
  materializes a transient one otherwise.
* :class:`BatchLedger` is the one table of a session's batches: whichever
  loop dispatches appends to it, a rewind cuts rows out of it, a row is known
  by a monotone id and each ``ledger[i]`` builds one ``BatchRecord`` on demand.
* Per-request outcomes are one gather: ``BatchLedger.served_by`` maps each
  request to the row that finally served it (-1: dropped), so its latency
  is ``finishes[served_by] - arrivals`` — a fresh array, computed once.
* Telemetry ingestion groups per-request latencies into per-window chunks
  (fresh arrays); everything else aggregates into scalar accumulators.

The resumable sweep
===================
:class:`FifoSweep` is the FIFO dispatch loop with its state carried between
calls: the pending arrivals as one typed float64 buffer (``arr``, an
``array("d")`` copied from the column's bytes, positions ``offset``..; a
float is boxed only when the loop reads it), the admission cursor (``pos``:
positions consumed, served or dropped), one ledger row per batch and one
entry per drop cohort.  ``advance`` runs it dry or for a number of batches —
``ServingEngine.step()`` is a segment of one, ``finish()`` one unlimited
segment — and the caller may extend or re-read the pending buffer
in between (``pending_from``, at a position from ``pos`` to the buffer's
end).  The clocks stay the caller's, who may write ``free_at``/``active``
between segments; the sweep carries its ``(free_at, server)`` heap with
copies of both and builds it afresh only when a call's differ (one list
compare each).  The buffer is emptied each time the cursor reaches its end,
before ``close()`` (the vectorized epilogue) allocates anything.

The unbreakable invariant: a K=1 FIFO run through the columnar core is
**bit-identical** to the seed simulator (see :class:`FifoSweep`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from heapq import heapify, heapreplace
from itertools import compress
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "RequestStore",
    "LazyRequests",
    "BatchLedger",
    "FifoSweep",
    "check_arrivals",
    "check_integer",
    "check_percentile",
    "check_ratio",
]


# Request status column values.
PENDING = 0
SERVED = 1
DROPPED = 2


# ----------------------------------------------------------------------
# Columnar request storage
# ----------------------------------------------------------------------
def _roundrobin_column(name: str, values: Sequence, n: int, dtype) -> np.ndarray:
    """``values`` tiled round-robin to length ``n`` (the trace convention)."""
    pool = _as_column(name, values, dtype)
    if len(pool) >= n:
        return pool[:n].copy()
    reps = -(-n // len(pool))  # ceil
    return np.tile(pool, reps)[:n]


def check_arrivals(arrivals: Sequence[float], ascending: bool = False) -> None:
    """Refuse a NaN/inf arrival (it sorts anywhere and is never served) and
    a negative one (the clocks start at 0.0, so it would be served "at 0.0"
    with the time before that billed as latency).

    The one arrival-time check of the serving plane — every
    :class:`RequestStore` passes through it when it is built or appended
    to, and the generation scheduler calls it on its request list.
    ``ascending`` additionally requires the order a store bisects.
    """
    column = np.asarray(arrivals, dtype=np.float64)
    valid = np.isfinite(column) & (column >= 0)
    if not valid.all():
        index = int(np.argmin(valid))
        value = float(column[index])
        kind = "negative" if np.isfinite(value) else "non-finite"
        raise ValueError(f"request {index} has a {kind} arrival_time ({value!r})")
    if ascending and len(column) > 1:
        backwards = column[1:] < column[:-1]
        if backwards.any():
            index = int(np.argmax(backwards)) + 1
            raise ValueError(
                f"arrivals must be sorted ascending: request {index} arrives "
                f"at {float(column[index])!r}, before request {index - 1} "
                f"({float(column[index - 1])!r})"
            )


def check_percentile(percentile: float) -> float:
    """``percentile`` as a float in [0, 100] (NaN fails both comparisons):
    refused when configured, not at the first window that reads it."""
    number = float(percentile)
    if not 0.0 <= number <= 100.0:
        raise ValueError(
            f"percentile must be a finite number in [0, 100] (got {percentile!r})"
        )
    return number


def check_integer(name: str, value, minimum: int) -> int:
    """``value`` as an ``int``; refuse what ``int()`` would truncate (1.5
    servers) and anything below ``minimum``."""
    if not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum} (got {value!r})")
    return int(value)


def check_ratio(ratio: float) -> float:
    """A 4-bit ratio as a float, by ``FlexiQModel.set_ratio``'s rule."""
    ratio = float(ratio)
    if not 0.0 <= ratio <= 1.0:  # NaN fails both comparisons
        raise ValueError(f"ratio must be a finite number in [0, 1], got {ratio!r}")
    return ratio


def _as_column(name: str, values, dtype) -> np.ndarray:
    """``values`` as a ``dtype`` column; an integer column refuses the floats
    the cast would truncate (nan and inf included)."""
    column = np.asarray(values)
    if column.dtype.kind == "f" and np.issubdtype(dtype, np.integer):
        whole = np.isfinite(column) & (column == np.floor(column))
        if not whole.all():
            value = column[np.argmin(whole)].item()
            raise ValueError(f"{name} must be integers (got {value!r})")
    return column.astype(dtype, copy=False)


# The columns a store may leave implicit (``None``): dtype and the value
# every row then holds, as a Request spells it.  ``request_ids`` -1 is
# "named no id": such a request is known by its row, which is what an
# implicit column reads as.  A ``None`` deadline is ``nan`` in the column
# (numpy converts).
_IMPLICIT = {
    "model_ids": (np.int32, 0),
    "request_ids": (np.int64, -1),
    "priorities": (np.int64, 0),
    "deadlines": (np.float64, None),
    "prefill_tokens": (np.int64, 0),
    "max_new_tokens": (np.int64, 0),
}


def grow_column(
    buffers: Dict[str, np.ndarray], name: str, column: np.ndarray, count: int
) -> np.ndarray:
    """``column`` with ``count`` unset rows behind it, held in ``buffers[name]``.

    ``column`` must be the array this returned last time (or a prefix of
    it).  Doubling: a run of appends costs O(rows added), not O(rows held)
    each.
    """
    first = len(column)
    total = first + count
    buffer = buffers.get(name, column)
    if len(buffer) < total:
        spare = np.empty(max(total, 2 * len(buffer)) - first, column.dtype)
        buffer = buffers[name] = np.concatenate([column, spare])
    return buffer[:total]


def _request_columns(
    requests: Sequence, model_names: Sequence[str]
) -> Tuple[Dict[str, np.ndarray], List[str]]:
    """The store columns of ``requests``, in the given order.

    ``arrivals`` always; any other column only if some request departs from
    its default, so plain requests cost one array.  Also returns
    ``model_names`` extended by the models seen here for the first time, in
    order of appearance (``model_ids`` index that list).
    """
    name_ids = {name: index for index, name in enumerate(model_names)}
    fields = {
        "model_ids": [name_ids.setdefault(r.model, len(name_ids)) for r in requests],
        "request_ids": [r.request_id for r in requests],
        "priorities": [r.priority for r in requests],
        "deadlines": [r.deadline for r in requests],
        "prefill_tokens": [r.prefill_tokens for r in requests],
        "max_new_tokens": [r.max_new_tokens for r in requests],
    }
    columns = {
        "arrivals": np.asarray([r.arrival_time for r in requests], dtype=np.float64)
    }
    for name, values in fields.items():
        dtype, default = _IMPLICIT[name]
        if values.count(default) < len(values):
            columns[name] = _as_column(name, values, dtype)
    return columns, list(name_ids)


class RequestStore:
    """Columnar storage for a cohort of requests (structure-of-arrays).

    One contiguous array per field.  A store built from columns or a trace
    hands out :class:`Request` objects only as transient views built by
    :meth:`request`; one built by :meth:`from_requests` keeps the caller's
    objects and hands those back.  ``arrivals`` must be finite and sorted
    ascending (checked here, once) — the engine's admission arithmetic
    bisects it directly, zero-copy.

    A column that is ``None`` is *implicit* — every row holds the field's
    default and nothing is allocated for it: ``model_ids`` (every row
    targets ``model_names[0]``), ``request_ids`` (the row index),
    ``priorities`` (0), ``deadlines`` (none), ``prefill_tokens`` and
    ``max_new_tokens`` (0).  ``RequestStore(arrivals, [model])`` is
    therefore all a bare arrival trace costs.

    ``deadlines`` uses ``nan`` as the "no deadline" sentinel so the column
    stays a dense ``float64`` array; :meth:`request` converts back to
    ``None`` at the view boundary.  ``status`` tracks request outcomes
    (``PENDING`` / ``SERVED`` / ``DROPPED``): the engine resets it at
    ``start()``, writes it on every path as batches execute and requests
    drop, and rewinds it on preemption.
    """

    __slots__ = (
        "arrivals",
        "model_ids",
        "model_names",
        "request_ids",
        "priorities",
        "deadlines",
        "prefill_tokens",
        "max_new_tokens",
        "status",
        "payload_pool",
        "_objects",
        "_buffers",
    )

    def __init__(
        self,
        arrivals: np.ndarray,
        model_names: Sequence[str],
        model_ids: Optional[np.ndarray] = None,
        request_ids: Optional[np.ndarray] = None,
        priorities: Optional[np.ndarray] = None,
        deadlines: Optional[np.ndarray] = None,
        prefill_tokens: Optional[np.ndarray] = None,
        max_new_tokens: Optional[np.ndarray] = None,
        payload_pool: Optional[Sequence] = None,
    ) -> None:
        self.arrivals = np.asarray(arrivals, dtype=np.float64)
        check_arrivals(self.arrivals, ascending=True)
        n = len(self.arrivals)
        self.model_names = list(model_names)
        if n and not self.model_names:
            raise ValueError("model_names must name at least one model")
        columns = (model_ids, request_ids, priorities, deadlines, prefill_tokens,
                   max_new_tokens)  # in _IMPLICIT's order
        for (name, (dtype, _)), values in zip(_IMPLICIT.items(), columns):
            column = None if values is None else _as_column(name, values, dtype)
            setattr(self, name, column)
        self.status = np.full(n, PENDING, dtype=np.int8)
        # Payloads: a round-robin pool (trace convention, request i gets
        # pool[i % len(pool)]); a store built from objects reads theirs.
        self.payload_pool = list(payload_pool) if payload_pool is not None else None
        # The caller's Request objects, row for row (from_requests/append),
        # and the over-allocated arrays append() grows the columns within.
        self._objects: Optional[List] = None
        self._buffers: Dict[str, np.ndarray] = {}

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_trace(
        cls,
        trace,
        model: str = "default",
        payloads: Optional[Sequence] = None,
        priorities: Optional[Sequence[int]] = None,
        deadlines: Optional[Sequence[Optional[float]]] = None,
        prefill_tokens: Optional[Sequence[int]] = None,
        max_new_tokens: Optional[Sequence[int]] = None,
    ) -> "RequestStore":
        """Columnar equivalent of :func:`repro.serving.engine.requests_from_trace`.

        Same semantics, zero ``Request`` objects: metadata pools attach
        round-robin in arrival order, ``deadlines`` entries are relative
        SLOs (the column stores ``arrival + slo``, elementwise — the exact
        IEEE sum the eager constructor computes per request).
        """
        if payloads is not None and len(payloads) == 0:
            raise ValueError("payloads must be non-empty (or None for no payloads)")
        if hasattr(trace, "sorted_arrivals"):
            arrivals = trace.sorted_arrivals()
        else:
            arrivals = np.sort(np.asarray(trace.arrival_times, dtype=np.float64))
        n = len(arrivals)

        def tiled(name, pool, dtype=np.int64):
            if pool is None:
                return None
            if len(pool) == 0:
                raise ValueError(f"{name} must be non-empty (or None)")
            return _roundrobin_column(name, pool, n, dtype)

        if deadlines is not None:
            deadlines = [np.nan if slo is None else float(slo) for slo in deadlines]
        slo = tiled("deadlines", deadlines, np.float64)
        return cls(
            arrivals,
            model_names=[model],
            priorities=tiled("priorities", priorities),
            deadlines=None if slo is None else arrivals + slo,
            prefill_tokens=tiled("prefill_tokens", prefill_tokens),
            max_new_tokens=tiled("max_new_tokens", max_new_tokens),
            payload_pool=payloads,
        )

    @classmethod
    def from_requests(cls, requests: Sequence) -> "RequestStore":
        """Columnarize explicit :class:`Request` objects (arrival-sorted).

        The store keeps the objects: ``store.request(i)`` is the caller's
        own ``Request`` for row ``i``, payload included.
        """
        # Checked before sorting, by the caller's index: a nan sorts anywhere.
        check_arrivals([request.arrival_time for request in requests])
        order = sorted(range(len(requests)), key=lambda i: requests[i].arrival_time)
        ordered = [requests[i] for i in order]
        columns, names = _request_columns(ordered, [])
        store = cls(model_names=names, **columns)
        store._objects = ordered
        return store

    def append(self, requests: Sequence) -> int:
        """Add ``requests`` as new rows behind the existing ones, in order.

        Streaming admission for a store built by :meth:`from_requests` (the
        objects are kept).  Returns the first new row.  Rows keep the order
        they were appended in, so an appended-to store is arrival-sorted
        only run by run: the session that owns it orders admission itself.
        A column stays implicit until a request departs from its default;
        the rows before it are then filled in with that default.
        """
        if self._objects is None:
            raise ValueError("append() needs a store built by from_requests()")
        first = len(self)
        count = len(requests)
        columns, names = _request_columns(requests, self.model_names)
        check_arrivals(columns["arrivals"])
        self._grow("arrivals", self.arrivals, count)[:] = columns["arrivals"]
        self._grow("status", self.status, count)[:] = PENDING
        for name, (dtype, default) in _IMPLICIT.items():
            column, values = getattr(self, name), columns.get(name)
            if column is None and values is None:
                continue
            if column is None:
                column = np.full(first, default, dtype=dtype)
            self._grow(name, column, count)[:] = default if values is None else values
        self.model_names = names
        self._objects.extend(requests)
        return first

    def _grow(self, name: str, column: np.ndarray, count: int) -> np.ndarray:
        """Lengthen column ``name`` by ``count`` rows; returns them, unset."""
        grown = grow_column(self._buffers, name, column, count)
        setattr(self, name, grown)
        return grown[len(column):]

    # -- column access --------------------------------------------------
    def __len__(self) -> int:
        return len(self.arrivals)

    @property
    def keeps_objects(self) -> bool:
        """Whether rows are the caller's ``Request`` objects (:meth:`append` works)."""
        return self._objects is not None

    @property
    def single_model(self) -> Optional[str]:
        """The one model every request targets, or ``None`` if mixed."""
        if self.model_names and (
            self.model_ids is None or len(self.model_names) == 1
        ):
            return self.model_names[0]
        return None

    def model_name(self, i: int) -> str:
        if self.model_ids is None:
            return self.model_names[0]
        return self.model_names[int(self.model_ids[i])]

    def model_mask(self, name: str) -> np.ndarray:
        """Boolean mask of requests targeting ``name`` (vectorized)."""
        try:
            model_id = self.model_names.index(name)
        except ValueError:
            return np.zeros(len(self), dtype=bool)
        if name == self.single_model:
            return np.ones(len(self), dtype=bool)
        if self.model_ids is None:
            return np.zeros(len(self), dtype=bool)
        return self.model_ids == model_id

    def model_name_list(self) -> List[str]:
        """Per-request model names (materializes one list of shared strings)."""
        if self.model_ids is None:
            return self.model_names[:1] * len(self)
        return [self.model_names[model_id] for model_id in self.model_ids.tolist()]

    def payload(self, i: int):
        if self._objects is not None:
            return self._objects[i].payload
        if self.payload_pool is not None:
            return self.payload_pool[i % len(self.payload_pool)]
        return None

    # -- view materialization -------------------------------------------
    def value(self, name: str, i: int):
        """Row ``i`` of column ``name`` as a ``Request`` spells it: the
        field's default where the column is implicit, ``None`` for no deadline."""
        column = getattr(self, name)
        if column is None:
            return _IMPLICIT[name][1]
        value = column[i].item()
        return None if value != value else value

    def request(self, i: int):
        """The :class:`~repro.serving.engine.Request` of row ``i``.

        The caller's own object where the store kept it, a freshly
        materialized view of the columns otherwise.
        """
        i = int(i)
        if self._objects is not None:
            return self._objects[i]
        from repro.serving.engine import Request

        return Request(
            arrival_time=float(self.arrivals[i]),
            model=self.model_name(i),
            request_id=i if self.request_ids is None else self.value("request_ids", i),
            payload=self.payload(i),
            priority=self.value("priorities", i),
            deadline=self.value("deadlines", i),
            prefill_tokens=self.value("prefill_tokens", i),
            max_new_tokens=self.value("max_new_tokens", i),
        )


class LazyRequests(_SequenceABC):
    """Zero-copy ``Sequence[Request]`` view over a :class:`RequestStore`.

    Without ``rows`` the view spans the store: rows are arrival-sorted (the
    store invariant), so the engine adopts the store as the session's own —
    no object walk, no sort, no copies.  With ``rows`` (an index array) it
    spans just those, in that order — what the engine hands an executor as
    ``Batch.requests``.  Indexing goes through :meth:`RequestStore.request`;
    nothing holds materialized views alive, so peak RSS stays O(columns)
    instead of O(requests x object overhead).
    """

    __slots__ = ("store", "rows")

    def __init__(self, store: RequestStore, rows: Optional[np.ndarray] = None) -> None:
        self.store = store
        self.rows = rows

    def __len__(self) -> int:
        return len(self.store) if self.rows is None else len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = int(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self.store.request(i if self.rows is None else self.rows[i])

    def __iter__(self):
        rows = range(len(self.store)) if self.rows is None else self.rows.tolist()
        return map(self.store.request, rows)


# ----------------------------------------------------------------------
# Batch ledger
# ----------------------------------------------------------------------
@dataclass
class BatchRecord:
    """Per-batch accounting: what ran, when, where, at which ratio — one row
    of a :class:`BatchLedger`, built when read.

    ``queue_depth`` is the number of arrived-and-waiting requests when the
    batch formed (the value telemetry aggregates) — kept on the record so a
    preempted batch can be *un*-recorded exactly.  ``row`` is the row's id in
    its ledger: what telemetry and the tracer know the batch by.
    """

    model: str
    start: float
    finish: float
    size: int
    ratio: float
    mode: str
    server: int = 0
    queue_depth: int = 0
    row: int = -1


class BatchLedger(_SequenceABC):
    """The one table of a session's batches, a row per batch, on every path.

    ``lists`` holds the ``starts/finishes/sizes/servers/queue_depths`` columns
    as Python lists — the sweep's loop appends to them directly, the object
    loops through :meth:`append` — or, once a sweep closed, as typed arrays
    that read and append the same; the properties of those names read them
    as numpy arrays.  ``cohort`` is one ``(model, mode, ratio)`` while every
    row agrees and a per-row list from the first row that differs; ``outputs``
    likewise (``None``: no executor returned any) and ``ids``: a row is known
    by its id, which only grows — its index until a rewind removes rows
    (``ids is None``), its entry in ``ids`` after (``RequestStore``'s
    implicit-column rule).  ``riders`` are the rows' request slots, in row
    order, in chunks of whole rows: an array of slots, or — where a chunk's
    slots ascend, as a sweep's do — a mask over the slots, an eighth of the
    bytes to keep.  ``ledger[i]`` builds row ``i``'s :class:`BatchRecord`.
    """

    __slots__ = ("lists", "cohort", "outputs", "ids", "removed", "riders")

    def __init__(self) -> None:
        self.lists: Tuple[list, ...] = ([], [], [], [], [])
        self.cohort: Any = ("", "", 0.0)
        self.outputs: Optional[list] = None
        self.ids: Optional[List[int]] = None
        self.removed = 0
        self.riders: List[np.ndarray] = []

    starts = property(lambda self: np.array(self.lists[0], dtype=np.float64))
    finishes = property(lambda self: np.array(self.lists[1], dtype=np.float64))
    sizes = property(lambda self: np.array(self.lists[2], dtype=np.int64))
    servers = property(lambda self: np.array(self.lists[3], dtype=np.int64))
    queue_depths = property(lambda self: np.array(self.lists[4], dtype=np.int64))

    @property
    def ratios(self) -> List[float]:
        """The executed ratio, row by row."""
        cohort = self.cohort
        if type(cohort) is list:
            return [ratio for _, _, ratio in cohort]
        return [cohort[2]] * len(self)

    def append(
        self, model: str, start: float, finish: float, size: int, ratio: float,
        mode: str, server: int, queue_depth: int, slots: np.ndarray, outputs=None,
    ) -> BatchRecord:
        """Add one row (``slots``: who rides in it); returns its record."""
        starts, finishes, sizes, servers, depths = self.lists
        rows = len(starts)
        cohort = (model, mode, ratio)
        if type(self.cohort) is list:
            self.cohort.append(cohort)
        elif not rows:
            self.cohort = cohort
        elif cohort != self.cohort:
            self.cohort = [self.cohort] * rows + [cohort]
        if self.outputs is not None:
            self.outputs.append(outputs)
        elif outputs is not None:
            self.outputs = [None] * rows + [outputs]
        row = rows + self.removed
        if self.ids is not None:
            self.ids.append(row)
        starts.append(start)
        finishes.append(finish)
        sizes.append(size)
        servers.append(server)
        depths.append(queue_depth)
        self.riders.append(slots)
        return BatchRecord(
            model, start, finish, size, ratio, mode, server, queue_depth, row
        )

    def _riders(self) -> np.ndarray:
        """Every row's slots, end to end."""
        chunks = [
            np.flatnonzero(chunk) if chunk.dtype == bool else chunk
            for chunk in self.riders
        ]
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    def row_slots(self) -> List[np.ndarray]:
        """``riders`` a row at a time (how they are held from then on)."""
        riders = self.riders
        if riders and (len(riders) != len(self) or riders[0].dtype == bool):
            self.riders = np.split(self._riders(), np.cumsum(self.sizes))[:-1]
        return self.riders

    def remove(self, rows: List[int]) -> List[Tuple[BatchRecord, np.ndarray]]:
        """Cut the rows at ascending indices ``rows`` out of every column (a
        rewind); returns each as (record, slots).  Rows left keep their ids."""
        slots = self.row_slots()
        victims = [(self[row], slots[row]) for row in rows]
        if self.ids is None:
            self.ids = list(range(len(self)))
        keep = np.ones(len(self), dtype=bool)
        keep[rows] = False

        def kept(column):  # a field every row shares stays as it is
            return list(compress(column, keep)) if type(column) is list else column

        self.lists = tuple(list(compress(column, keep)) for column in self.lists)
        self.ids, self.riders, self.outputs, self.cohort = map(
            kept, (self.ids, slots, self.outputs, self.cohort)
        )
        self.removed += len(victims)
        return victims

    def first_at(self, row_id: int) -> int:
        """The index of the first row whose id is ``row_id`` or later."""
        return row_id if self.ids is None else bisect_left(self.ids, row_id)

    def since(self, row_id: int) -> Tuple[np.ndarray, ...]:
        """The rows with id ``row_id`` on, as arrays: ids, the five ``lists``
        columns, ratios and the riders end to end (seated ones: a sweep
        seats its riders when it closes)."""
        ids, riders, cohort = self.ids, self.riders, self.cohort
        first = self.first_at(row_id)
        chunk = first - len(self) + len(riders)  # only chunk 0 holds many rows
        slots = (
            np.concatenate(riders[chunk:]) if first and chunk > 0
            else self._riders()[int(np.sum(self.lists[2][:first])):]
        )
        ratios = np.float64(cohort[2]) if type(cohort) is not list else np.array(
            [ratio for _, _, ratio in cohort[first:]], dtype=np.float64
        )
        ids = np.arange(first, len(self)) if ids is None else np.array(ids[first:])
        columns = (np.array(column[first:], dtype) for column, dtype in zip(
            self.lists, (np.float64,) * 2 + (np.int64,) * 3
        ))
        return (ids, *columns, ratios, slots)

    def served_by(self, count: int) -> np.ndarray:
        """Slot (of ``count``) → index of the row it rides in, -1: in none."""
        served_by = np.full(count, -1, dtype=np.intp)
        if self.riders:
            served_by[self._riders()] = np.repeat(np.arange(len(self)), self.sizes)
        return served_by

    def __len__(self) -> int:
        return len(self.lists[0])

    def __getitem__(self, index):
        starts, finishes, sizes, servers, depths = self.lists
        if type(index) is int:  # ``step()`` reads ``ledger[-1]`` once per batch
            i = index + len(starts) if index < 0 else index
            if i < 0:
                raise IndexError(index)
        else:
            i = range(len(starts))[index]  # a numpy integer, a slice
            if type(i) is range:
                return [self[j] for j in i]
        cohort, ids = self.cohort, self.ids
        model, mode, ratio = cohort[i] if type(cohort) is list else cohort
        return BatchRecord(  # positionally, in field order
            model, starts[i], finishes[i], sizes[i], ratio, mode, servers[i],
            depths[i], i if ids is None else ids[i],
        )


# ----------------------------------------------------------------------
# Columnar FIFO fast core
# ----------------------------------------------------------------------
class FifoSweep:
    """Carried state of the resumable columnar FIFO sweep (module docstring)
    and, once closed, the record of what it did beside ``ledger``'s rows.

    Bit-identical to the object loop in
    :meth:`repro.serving.engine.ServingEngine._step_fifo` with the seed
    argmin-free-clock rule, and at K=1 to the seed simulator: same ``start =
    max(free, arrival)``, same ``bisect_right`` admission boundary, same
    expired-prefix drop predicate (``start - arrival > drop_after``
    re-applied exactly at the searchsorted boundary), same at-least-one
    batch rule, and ``finish = start + service`` with the *same* service
    times (``latency_tables[server]`` is the server's model's price table,
    ``ServiceTimeModel.table``, held, not copied).  ``advance`` mutates
    ``free_at``/``busy`` in place, exactly as the object loop leaves them.

    The pending arrivals are ``arr``, one ``array("d")`` (8 bytes each,
    whatever the arrival column's strides).  The loop writes the ledger's
    five column lists only: its rows take the ledger's ``cohort`` as it
    stands and their index as id, so it writes before any row is removed.
    Drop cohort k went at ``drop_times[k]``, when the ledger held
    ``drop_rows[k]`` rows, and covers positions ``drop_los[k]``..
    ``drop_his[k]`` of the arrival order.  ``clock_heap`` is
    the free-clock heap the last call left, valid while the caller's clocks
    and active set equal its copies ``clocks``/``active``.
    """

    __slots__ = ("arr", "offset", "pos", "ledger", "drop_times", "drop_los",
                 "drop_his", "drop_rows", "dropped", "survived", "clock_heap",
                 "clocks", "active")

    def __init__(
        self, arrivals: np.ndarray, ledger: Optional[BatchLedger] = None
    ) -> None:
        self.arr = array("d")
        self.offset = self.pos = self.dropped = 0
        self.ledger = BatchLedger() if ledger is None else ledger
        self.drop_times, self.drop_los, self.drop_his, self.drop_rows = [], [], [], []
        self.clock_heap, self.clocks, self.active = [], None, None
        self.pending_from(0, arrivals)

    def pending_from(self, at: int, arrivals: np.ndarray) -> None:
        """Positions ``at`` onwards are now ``arrivals``; ``at`` runs from
        ``pos`` (nothing consumed is rewritten) to the buffer's end (no gap)."""
        if not self.pos <= at <= self.offset + len(self.arr):
            raise ValueError(
                f"pending_from needs pos <= at <= {self.offset + len(self.arr)} "
                f"(got at={at!r}, pos={self.pos})"
            )
        del self.arr[at - self.offset:]
        # Copied in through the column's bytes (C order, so a strided column
        # is gathered first): the same doubles, and no view of it kept.
        self.arr.frombytes(np.asarray(arrivals, dtype=np.float64).tobytes())

    def advance(
        self, free_at: List[float], busy: List[float], active: Sequence[int],
        latency_tables: Dict[int, Mapping[int, float]], max_batch: int,
        drop_after: Optional[float], limit: Optional[int] = None,
    ) -> int:
        """Dispatch pending arrivals, by the rules in the class docstring,
        until none is left or ``limit`` (>= 1) batches are out; returns how
        many went out.  ``free_at``/``busy`` are mutated in place."""
        if not active or limit is not None and limit < 1:
            raise ValueError(
                f"advance needs an active server and a limit >= 1 or None "
                f"(got active={list(active)!r}, limit={limit!r})"
            )
        remaining = limit or -1  # counts down to 0; unlimited never gets there
        arr = self.arr
        n = len(arr)
        offset = self.offset
        pos = self.pos - offset
        starts, finishes, sizes, servers, depths = self.ledger.lists
        before = len(starts)

        # Free-clock heap: (free_at, server) pops the earliest-free server, ties
        # by lowest id — ``min(sorted(active), key=free_at.__getitem__)`` — in
        # O(log K); carried over unless a clock or the active set changed.
        clock_heap = self.clock_heap
        if free_at != self.clocks or active != self.active:
            clock_heap = self.clock_heap = [(free_at[s], s) for s in active]
            heapify(clock_heap)
            self.active = list(active)  # an ``active`` range never equals it

        while pos < n:
            first_arrival = arr[pos]
            free, server = clock_heap[0]
            start = free if free >= first_arrival else first_arrival
            # Admission boundary, bisect_right's over the same sorted floats.
            # Probe first: arr[pos] <= start, so when the next arrival is
            # later (or there is none) the boundary is pos + 1, in one read.
            # Otherwise gallop: bracket [lo, hi) by doubling steps before the
            # bisect — O(log(backlog)) instead of O(log n) per batch.
            end_index = pos + 1
            if end_index < n and arr[end_index] <= start:
                step = 8
                lo = end_index
                hi = pos + step
                while hi < n and arr[hi] <= start:
                    lo = hi
                    step += step
                    hi = pos + step
                end_index = bisect_right(arr, start, lo, hi if hi < n else n)

            if drop_after is not None and start - first_arrival > drop_after:
                # Expired prefix, only behind an expired head (start - a does not
                # grow with a, so a fresh head means a fresh window): searchsorted
                # boundary + exact-predicate walk (_expired_prefix_end's rule).
                cut = start - drop_after
                fresh = bisect_left(arr, cut, pos, end_index)
                while fresh > pos and not (start - arr[fresh - 1] > drop_after):
                    fresh -= 1
                while fresh < end_index and (start - arr[fresh]) > drop_after:
                    fresh += 1
                self.dropped += fresh - pos
                self.drop_times.append(start)
                self.drop_los.append(offset + pos)
                self.drop_his.append(offset + fresh)
                self.drop_rows.append(len(starts))
                pos = fresh
                continue  # head changed: re-derive start

            end = pos + max_batch
            if end_index < end:
                end = end_index
            if end == pos:
                end = pos + 1  # serve at least the request that triggered us
            size = end - pos
            service = latency_tables[server][size]
            finish = start + service

            starts.append(start)
            finishes.append(finish)
            sizes.append(size)
            servers.append(server)
            depths.append(end_index - pos)
            busy[server] += service
            free_at[server] = finish
            heapreplace(clock_heap, (finish, server))
            pos = end
            remaining -= 1
            if not remaining:
                break

        self.clocks = free_at[:]
        self.pos = offset + pos
        if pos >= n:
            # Dry: the consumed buffer goes now, before any epilogue allocates.
            self.offset, self.arr = self.pos, array("d")
        return len(starts) - before

    def close(self) -> "FifoSweep":
        """Close the books on what was dispatched so far: ``survived`` says, by
        position, who was served — by the next row with room, FIFO: the
        ledger's riders, seated here (a position is its slot unless the caller
        says otherwise) — and who dropped with a cohort."""
        survived = self.survived = np.ones(self.pos, dtype=bool)
        for lo, hi in zip(self.drop_los, self.drop_his):
            survived[lo:hi] = False
        # Typed arrays, 8 bytes a row: a day's sweep otherwise leaves a
        # million boxed floats behind in its result.
        self.ledger.lists = tuple(map(array, "ddqqq", self.ledger.lists))
        self.ledger.riders = [survived]
        return self
