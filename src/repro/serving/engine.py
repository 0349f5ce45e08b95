"""Unified serving engine: one request/response surface for modeled and real execution.

The engine consolidates the serving story of Figures 8 and 9 behind a single
API.  A :class:`ServingEngine` owns admission, batching across ``num_servers``
identical (shared, simulated) accelerators, per-batch 4-bit-ratio selection
and metrics; *what* executes a batch, *which* requests ride in it and *which*
ratio it runs at are pluggable:

* :class:`Executor` — turns one :class:`Batch` into a service time (and
  optionally per-request outputs).  :class:`~repro.serving.executors.
  ModeledExecutor` wraps the analytic :class:`~repro.serving.simulator.
  ServiceTimeModel` (the paper's Figure 8/9 setup, bit-identical to the seed
  simulator); :class:`~repro.serving.executors.RuntimeExecutor` wraps a
  prepared :class:`~repro.core.runtime.FlexiQModel` and measures real
  wall-clock batch latencies.  With ``num_servers=K`` an endpoint may
  register one executor *per server* (e.g. K ``RuntimeExecutor``\\ s, each
  owning an independent prepared-kernel cache).
* :class:`~repro.serving.schedulers.Scheduler` — the queue discipline.
  The default is FIFO (the seed behaviour, served by a fast array path);
  the SLO-aware :class:`~repro.serving.schedulers.EdfScheduler` reorders
  queued requests by their ``deadline`` (a scheduler's keys may read
  ``priority`` too).
* :class:`~repro.serving.placement.Placer` — which server the next batch
  runs on.  ``placer=None`` keeps the seed argmin-free-clock dispatch
  (inlined, bit-identical); heterogeneous clusters plug in least-work,
  weighted-by-speed, predictive or domain-spread placement (see
  :mod:`repro.serving.placement` and :mod:`repro.serving.cluster`).
* :class:`RatioPolicy` — picks the 4-bit ratio for each batch.  Policies see
  a :class:`~repro.serving.policies.PolicyContext` (start time, queue depth,
  server, and — when the engine carries a
  :class:`~repro.serving.telemetry.TelemetryBus` — the windowed per-server
  telemetry) through one ``select(context)`` signature (see
  :mod:`repro.serving.policies`).

An engine given a :class:`~repro.serving.telemetry.TelemetryBus` binds it to
each session's ledger and store at :meth:`ServingEngine.start` (the bus
catches up from them in bulk when read; only drops are handed to it as they
happen), :meth:`ServingEngine.set_active_servers` lets a control plane
grow/shrink the serving set at run time and
:meth:`ServingEngine.slow_server` stretch one server's service times — the
hooks :mod:`repro.serving.cluster` builds elastic autoscaling and slowdown
faults on.

Admission is incremental: :meth:`ServingEngine.start` opens a session,
:meth:`ServingEngine.submit` pushes requests while the engine runs,
:meth:`ServingEngine.step` executes one batch (``advance_until``: a segment),
:meth:`ServingEngine.finish` drains the queue and returns the
:class:`EngineResult`.  :meth:`ServingEngine.run` is a thin batch driver
over exactly that lifecycle.

Several models can be registered on one engine (multi-model serving on
shared accelerators): each request names its model, batches are formed from
same-model requests in scheduler order, and every model keeps its own
executor(s) and policy — with a :class:`~repro.serving.executors.
RuntimeExecutor` per model and server that means one prepared-kernel cache
each, and a per-batch ``set_ratio()`` that stays an O(1) variable update.

However requests are handed in — a trace, a list of :class:`Request`
objects, a :class:`~repro.serving.core.LazyRequests` view, streaming
``submit()`` — a session holds them as one columnar
:class:`~repro.serving.core.RequestStore`; scheduler keys, deadline counts,
model names and payloads are all read from its columns, a batch at a time.
Outcomes are kept as columns too: a session's batches are the rows of one
:class:`~repro.serving.core.BatchLedger` whichever loop dispatches them (a
rewind cuts its victims out), beside its drop cohorts.  Every per-request
array is a gather through the ledger's ``served_by`` (slot → index of the row
that finally served it, -1: dropped) computed at :meth:`ServingEngine.finish`
— ``request_latencies = finishes[served_by] - arrivals`` — so nothing
per-request is maintained batch by batch, and a preempted batch has nothing
per-request to un-write.  :class:`BatchRecord`\\ s and :class:`Response`\\ s
are views, like :class:`Request`\\ s, built when read.

The discrete-event loop reproduces the seed simulator's semantics exactly
for single-server FIFO runs (same admission, batch-cap and float
arithmetic), so the Figure 8/9 reproductions are bit-identical to the seed
(the seed loops are kept as references in ``tests/test_serving_engine.py``).
One deliberate deviation from the seed: when
``drop_after`` expires requests, the batch is backfilled from the queue
after the expired prefix is dropped, so drops no longer waste batch slots
(the seed computed the batch window before filtering, leaving batches
under-filled exactly when the queue was backed up).
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from itertools import repeat
from math import inf
from operator import attrgetter
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TYPE_CHECKING,
    Union,
)

import numpy as np

from repro.checks import check_positive
from repro.data.traces import RequestTrace
from repro.serving.core import (
    BatchLedger,
    BatchRecord,
    DROPPED,
    FifoSweep,
    LazyRequests,
    PENDING,
    RequestStore,
    SERVED,
    check_integer,
    check_ratio,
    grow_column,
)
from repro.serving.metrics import (
    latency_percentiles,
    slo_attainment,
    summarize_latencies,
)
from repro.serving.placement import LeastOutstandingWorkPlacer, WeightedSpeedPlacer
from repro.serving.placement import Placer, PlacementContext, earliest_free
from repro.serving.policies import FixedRatioPolicy, PolicyContext
from repro.serving.schedulers import FifoScheduler, Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.telemetry import TelemetryBus


@dataclass
class BatchingConfig:
    """Batching policy of the serving system."""

    max_batch: int = 64
    # A request admitted while every server is busy waits in an unbounded
    # queue; ``drop_after`` (seconds) optionally drops requests that waited
    # longer than this (disabled by default, as in the paper).
    drop_after: Optional[float] = None

    def __post_init__(self) -> None:
        check_integer("max_batch", self.max_batch, 1)
        if self.drop_after is not None and not (
            np.isfinite(self.drop_after) and self.drop_after >= 0
        ):
            raise ValueError(
                "drop_after must be None or a finite number >= 0 "
                f"(got {self.drop_after!r})"
            )


@dataclass
class Request:
    """One inference request entering the engine.

    ``payload`` carries the actual model input for real execution (a single
    sample, e.g. a ``(C, H, W)`` image); modeled execution needs only the
    arrival time.  ``request_id`` defaults to the admission index.
    ``priority`` (higher is more urgent) and ``deadline`` (absolute time by
    which the response should finish) are what non-FIFO schedulers key on
    (:class:`~repro.serving.schedulers.EdfScheduler` reads the deadline);
    FIFO ignores both.  A deadline before the arrival is legal (a relative
    SLO of 0 makes one): one miss in ``deadline_attainment()`` and telemetry.

    The *generation profile* — ``prefill_tokens`` (prompt length) and
    ``max_new_tokens`` (the stop condition: how many tokens to generate,
    counting the one the prefill emits) — is read only by the
    iteration-level :class:`~repro.serving.generation.IterationScheduler`;
    the one-shot batch engine ignores both, so non-generative runs are
    untouched.  ``max_new_tokens=0`` (the default) marks a non-generative
    request; ``max_new_tokens=1`` is a prefill-only request (first token,
    zero decode steps).
    """

    arrival_time: float
    model: str = "default"
    request_id: int = -1
    payload: Optional[np.ndarray] = None
    priority: int = 0
    deadline: Optional[float] = None
    prefill_tokens: int = 0
    max_new_tokens: int = 0


@dataclass
class Response:
    """Outcome of one request: timing, the batch it rode in, and its output.

    A view, like a :class:`Request`: outcomes are kept as records + columns
    and :class:`ResponseView` builds a ``Response`` when one is read.  Dropped:
    ``start_time`` = the drop time, ``finish_time``/``ratio`` nan, ``batch_size`` 0.
    ``migrations`` counts how many times the request was preempted off a
    failing/deactivated server and requeued before this outcome (0 on the
    default, fault-free paths); see :mod:`repro.serving.resilience`.
    """

    request_id: int
    model: str
    arrival_time: float
    start_time: float
    finish_time: float
    batch_size: int
    ratio: float
    mode: str
    dropped: bool = False
    output: Any = None
    priority: int = 0
    deadline: Optional[float] = None
    server: int = 0
    migrations: int = 0

    @property
    def latency(self) -> float:
        """Response time: queueing delay plus batch service time (seconds)."""
        return self.finish_time - self.arrival_time

    @property
    def deadline_met(self) -> Optional[bool]:
        """Whether the response finished by its deadline (None without one)."""
        if self.deadline is None:
            return None
        return (not self.dropped) and self.finish_time <= self.deadline


@dataclass
class Batch:
    """One batch handed to an :class:`Executor`.

    ``requests`` is a lazy view over the session's store: an executor that
    indexes it gets the caller's :class:`Request` (or, for rows that never
    were objects, one materialized on the spot) and can read its payload;
    modeled execution reads only ``size`` and materializes nothing.
    ``server`` is the accelerator the batch runs on (0-based).
    """

    model: str
    start_time: float
    size: int
    indices: np.ndarray
    requests: Sequence[Request]
    server: int = 0


@dataclass
class BatchExecution:
    """What an executor reports back for one batch.

    ``service_time`` is the batch duration in seconds — analytic for modeled
    execution, measured wall-clock for real execution.  ``outputs`` optionally
    holds one entry per request of the batch, in batch order.  ``ratio``
    reports the ratio the batch *actually* executed at when the executor
    overrides the policy-selected one (e.g. ``RuntimeExecutor`` pinning
    ``"int8"``/``"int4"`` modes); ``None`` means the selected ratio ran.
    """

    service_time: float
    outputs: Optional[Sequence[Any]] = None
    ratio: Optional[float] = None


class Executor(Protocol):
    """Executes one batch for one model; see :mod:`repro.serving.executors`."""

    def execute(self, batch: Batch, mode: str, ratio: float) -> BatchExecution:
        ...


class RatioPolicy(Protocol):
    """Selects the 4-bit ratio for each batch; see :mod:`repro.serving.policies`."""

    def on_run_start(self, trace: RequestTrace) -> None:
        """Observe the admitted trace for this model before serving starts."""
        ...

    def select(self, context: PolicyContext) -> float:
        """Ratio for a batch, given its start time, queue depth, batch size,
        model, server and the telemetry bus (:class:`~repro.serving.policies.
        PolicyContext`)."""
        ...


@dataclass
class _Endpoint:
    """One registered model: per-server executors + policy + execution mode."""

    name: str
    executors: List[Executor]
    policy: RatioPolicy
    mode: str


def _declared(endpoint: _Endpoint) -> Tuple[Optional[float], list]:
    """What the sweep and the scheduled loop read instead of calling: a
    ``FixedRatioPolicy``'s ratio (``None``: call ``select``) and per server a
    ``ModeledExecutor``'s service model (``None``: call ``execute``)."""
    from repro.serving.executors import ModeledExecutor

    policy = endpoint.policy
    ratio = float(policy.ratio) if type(policy) is FixedRatioPolicy else None
    return ratio, [
        e.service_model if type(e) is ModeledExecutor else None
        for e in endpoint.executors
    ]


class ResponseView(Sequence[Response]):
    """Read-only ``Sequence[Response]`` over a finished session: its batch
    ledger, the ledger's ``served_by`` (``batch``: which row finally
    served each slot; -1: dropped, at ``drop_times[slot]``), the outputs
    its executors returned, the store's columns (never ``status``: a store
    may be served again) and the final migration counts.  ``view[slot]``
    constructs that request's :class:`Response`; nothing else does.
    """

    def __init__(
        self, session: "_Session", modes: Dict[str, str], served_by: np.ndarray
    ) -> None:
        # What a response is read from — not the session's queues and buffers.
        self.store, self.modes, self.records = session.store, modes, session.ledger
        self.batch, self.migrations = served_by, session.migrations
        # Slot -> its output, for the batches whose executor returned some
        # (one per rider, in batch order).
        ledger = session.ledger
        rows = zip(ledger.row_slots(), ledger.outputs) if ledger.outputs else ()
        self.outputs = {
            slot: output
            for slots, outputs in rows
            if outputs is not None
            for slot, output in zip(slots.tolist(), outputs)
        }
        self.drop_times = np.full(len(self.store), np.nan)
        for cohort, time in session.drops:
            self.drop_times[cohort] = time

    def __len__(self) -> int:
        return len(self.batch)

    def __getitem__(self, index):
        slot = range(len(self))[index]  # negative, out of range, a slice
        if isinstance(slot, range):
            return [self[i] for i in slot]
        store, served_by = self.store, self.batch[slot]
        request_id, model = store.value("request_ids", slot), store.model_name(slot)
        dropped = bool(served_by < 0)
        if dropped:  # a batch of nobody at the drop time: no finish, no executed ratio
            nan = float("nan")
            record = BatchRecord(
                model, float(self.drop_times[slot]), nan, 0, nan, self.modes[model]
            )
        else:
            record = self.records[served_by]
        return Response(  # positionally, in field order
            # A request that named no id is known by its admission slot.
            slot if request_id < 0 else request_id, model, float(store.arrivals[slot]),
            record.start, record.finish, record.size, record.ratio, record.mode,
            dropped, self.outputs.get(slot), store.value("priorities", slot),
            store.value("deadlines", slot), record.server, self.migrations.get(slot, 0),
        )


@dataclass
class EngineResult:
    """Outcome of one engine run.

    ``latencies`` holds the served requests' response times in admission
    order (dropped requests excluded); ``request_latencies`` keeps one slot
    per admitted request with ``nan`` marking drops, aligned with
    ``request_models`` for per-model breakdowns (``None`` when every request
    targets the one model that ran every batch).  Both are computed once, at
    ``finish()``, as a gather of ``batch_records``' finishes through its
    ``served_by``; ``batch_records`` is the session's ledger whichever loop
    ran, and the batch-level views read its columns.  ``responses`` reads the
    same outcome request by request (a :class:`ResponseView`, indexed by
    admission slot), or is ``None`` when the session did not record responses.
    ``server_busy_times`` has one accumulated busy time per server (their
    sum is ``busy_time``).  ``migrated`` counts successful request moves
    (preemption + requeue; see :mod:`repro.serving.resilience`) — zero on
    the default fault-free paths.  ``kernel`` says what dispatched the batches
    — ``"sweep"`` (columnar, whole or a batch per ``step()``), ``"object"`` or
    ``"sweep+object"`` (left the sweep part-way) — and ``kernel_reason`` the
    first clause against the sweep (``None``: none); neither is in any report.
    """

    latencies: np.ndarray
    request_latencies: np.ndarray
    request_models: Optional[List[str]]
    batch_records: BatchLedger
    dropped: int
    duration: float
    busy_time: float
    responses: Optional[ResponseView] = None
    num_servers: int = 1
    server_busy_times: Optional[List[float]] = None
    migrated: int = 0
    kernel: str = "object"
    kernel_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # Batch-level views
    # ------------------------------------------------------------------
    @property
    def batch_sizes(self) -> List[int]:
        return self.batch_records.sizes.tolist()

    @property
    def batch_ratios(self) -> List[float]:
        return self.batch_records.ratios

    @property
    def batch_servers(self) -> np.ndarray:
        """The server each batch ran on, as one vector."""
        return self.batch_records.servers

    @property
    def mean_executed_ratio(self) -> float:
        """Batch-size-weighted mean of the executed per-batch 4-bit ratios.

        ``nan`` when no batch was served.  Uses the *executed* ratios (after
        any executor mode pinning), so it reflects what actually ran.
        """
        sizes = np.asarray(self.batch_sizes, dtype=np.float64)
        if sizes.size == 0 or sizes.sum() <= 0:
            return float("nan")
        return float(
            np.average(np.asarray(self.batch_ratios, dtype=np.float64), weights=sizes)
        )

    # ------------------------------------------------------------------
    # Latency statistics
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        return summarize_latencies(self.latencies)

    @property
    def median_latency(self) -> float:
        return latency_percentiles(self.latencies, (50,))["p50"]

    @property
    def p90_latency(self) -> float:
        return latency_percentiles(self.latencies, (90,))["p90"]

    @property
    def throughput(self) -> float:
        """Served requests per second of trace time."""
        if self.duration <= 0:
            return 0.0
        return len(self.latencies) / self.duration

    def deadline_attainment(self) -> float:
        """Fraction of deadline-carrying requests that met their deadline.

        Dropped requests with deadlines count as misses.  Returns ``nan``
        when no response carries a deadline (or responses were not
        recorded).
        """
        view = self.responses
        if view is None or view.store.deadlines is None:
            return float("nan")
        # One count over the columns; a dropped slot's nan finish is a miss.
        # This run's rows: a store adopted again may since have been appended to.
        finishes = np.append(view.records.finishes, np.nan)  # -1 reads the nan
        return slo_attainment(finishes[view.batch], view.store.deadlines[: len(view)])

    def totals(self) -> Dict[str, Any]:
        """The run's counts and rates in plain types: the one mapping
        :meth:`to_json` reports and the table
        ``repro.obs.registry.ENGINE_METRICS`` exports."""
        return {
            "served": int(len(self.latencies)),
            "dropped": int(self.dropped),
            "migrated": int(self.migrated),
            "batches": int(len(self.batch_records)),
            "duration": float(self.duration),
            "busy_time": float(self.busy_time),
            "throughput": float(self.throughput),
            "num_servers": int(self.num_servers),
            "server_busy_times": [
                float(seconds) for seconds in (self.server_busy_times or [])
            ],
        }

    def to_json(self) -> Dict[str, Any]:
        """JSON-ready report of the run: :meth:`totals` plus the latency
        summary and deadline attainment (aggregates, not per-request
        arrays)."""
        report = self.totals()
        report["latency"] = {
            key: (None if np.isnan(value) else float(value))
            for key, value in self.summary().items()
        }
        attainment = self.deadline_attainment()
        report["deadline_attainment"] = (
            None if np.isnan(attainment) else float(attainment)
        )
        return report


def requests_from_trace(
    trace: RequestTrace,
    model: str = "default",
    payloads: Optional[Sequence[np.ndarray]] = None,
    priorities: Optional[Sequence[int]] = None,
    deadlines: Optional[Sequence[Optional[float]]] = None,
    prefill_tokens: Optional[Sequence[int]] = None,
    max_new_tokens: Optional[Sequence[int]] = None,
    lazy: bool = False,
) -> Sequence[Request]:
    """Materialize :class:`Request` objects from an arrival-time trace.

    ``payloads`` optionally attaches model inputs round-robin (real execution
    of a trace longer than the available sample pool reuses samples).
    ``priorities``/``deadlines`` optionally attach scheduler metadata, also
    round-robin, in arrival order.  ``deadlines`` entries are *relative*
    SLOs (seconds after the request's arrival): the materialized
    ``Request.deadline`` is ``arrival_time + slo`` — an absolute deadline
    list would make every request arriving after the largest entry
    born-expired.  ``prefill_tokens``/``max_new_tokens`` optionally attach
    generation profiles (also round-robin) for iteration-level scheduling
    (see :mod:`repro.serving.generation`) — a mixed prompt-length trace is
    one ``prefill_tokens`` list with several entries.

    Requests build from a columnar :class:`~repro.serving.core.RequestStore`
    (so the sorted arrivals are computed once per trace and the deadline
    arithmetic is the vectorized twin of the per-request ``arrival + slo``).
    ``lazy=True`` skips materialization entirely and returns the store's
    :class:`~repro.serving.core.LazyRequests` view — field-for-field the
    same requests, O(columns) memory instead of O(requests) objects.
    """
    store = RequestStore.from_trace(
        trace,
        model=model,
        payloads=payloads,
        priorities=priorities,
        deadlines=deadlines,
        prefill_tokens=prefill_tokens,
        max_new_tokens=max_new_tokens,
    )
    view = LazyRequests(store)
    if lazy:
        return view
    return list(view)


def _expired_prefix_end(
    arrivals: np.ndarray, lo: int, hi: int, start: float, drop_after: float
) -> int:
    """First position in ``[lo, hi)`` whose request has *not* expired.

    The expiry predicate is exactly the seed's ``start - arrival >
    drop_after``; over sorted arrivals it selects a prefix (float
    subtraction is monotone).  ``searchsorted`` on the algebraically
    equivalent ``arrival < start - drop_after`` lands within an ulp of that
    boundary, so a local walk re-applies the exact predicate — keeping the
    FIFO and scheduled paths' drop *sets* identical to each other and to
    the per-element seed arithmetic, without an O(queue) scan per batch.
    A head that has not expired means nothing has: one scalar test, which
    is all a batch that drops nothing pays.
    """
    if lo >= hi or not (start - arrivals[lo] > drop_after):
        return lo
    fresh = lo + int(np.searchsorted(arrivals[lo:hi], start - drop_after, side="left"))
    while fresh > lo and not (start - arrivals[fresh - 1] > drop_after):
        fresh -= 1
    while fresh < hi and (start - arrivals[fresh]) > drop_after:
        fresh += 1
    return fresh


class _Session:
    """Mutable state of one serving run (batch or streaming).

    The requests are ``store`` — one :class:`RequestStore`, whichever way
    they were handed in; a request's *slot* is its row.  The outcomes are
    ``ledger`` — the batches, a row each, whichever loop dispatches them —
    and ``drops`` (while the columnar sweep serves the session, its drop
    cohorts and, unseated until it closes, its rows' riders); "who served
    whom" is derived from the ledger once, at ``_finalize`` (``served_by``),
    never kept per request in flight.  The clocks are the session's on
    every path.
    """

    def __init__(
        self,
        num_servers: int,
        store: RequestStore,
        duration: Optional[float],
        record_responses: bool,
    ) -> None:
        num_requests = len(store)
        self.store = store
        self.duration = duration
        self.record_responses = record_responses
        self.ledger = BatchLedger()
        # For ResponseView: each drop cohort's (slots, time).
        self.drops: List[Tuple[np.ndarray, float]] = []
        # The sweep while it dispatches the batches, each server's price
        # table (its model's, held); which kernel dispatched (None until the
        # first dispatch decides) and why.
        self.sweep: Optional[FifoSweep] = None
        self.tables: Dict[int, Dict[int, float]] = {}
        self.kernel: Optional[str] = None
        self.reason: Optional[str] = None
        # Per-slot move counts and the run total (resilience accounting).
        self.migrations: Dict[int, int] = {}
        self.migrated = 0
        # Per-slot checkpointed progress fraction (partial-batch
        # checkpointing; see preempt_server).  Empty on the default paths —
        # the object loops only look at it when non-empty, keeping the seed
        # arithmetic untouched.
        self.checkpoints: Dict[int, float] = {}
        self.dropped = 0
        self.free_at: List[float] = [0.0] * num_servers
        self.busy: List[float] = [0.0] * num_servers
        # Each server's service-time factor (ServingEngine.slow_server).
        self.slowdown: List[float] = [1.0] * num_servers
        # Servers eligible for new batches (ascending ids).  The control
        # plane shrinks/grows this set at window boundaries (elastic
        # autoscaling); a deactivated server finishes its running batch but
        # receives no new ones.
        self.active: List[int] = list(range(num_servers))
        # Pending admission, sorted by arrival: positions >= ``pos`` are not
        # yet served (FIFO path) / not yet admitted to the queue (scheduled
        # path).  ``pend_slots[p]`` maps a pending position back to the
        # stable per-request slot index.  Until something is merged in
        # (submit, migration) the queue *is* the store's arrival column.
        self.pend_arrivals = store.arrivals
        self.pend_slots = np.arange(num_requests, dtype=np.intp)
        self.pos = 0
        # Set once a merge reorders the queue: positions are no longer rows.
        self.reordered = False
        # Where the pend arrays grow (core.grow_column).
        self.buffers: Dict[str, np.ndarray] = {}
        # Scheduled path only: admitted-but-unserved requests, a heap of
        # (scheduler key, pend key, slot, model id) — the pend key (the
        # arrival, or a migrant's ready time) then the admission slot are
        # the tie-breakers behind the discipline's key (slots are unique, so
        # the model id never orders anything; it rides along for same-model
        # batching).  ``arrival_heap`` holds (pend key, slot) and, lazily
        # cleaned against the store's status column, answers "earliest
        # queued pend key" without scanning the queue.
        self.queue: List[Tuple[Tuple, float, int, int]] = []
        self.arrival_heap: List[Tuple[float, int]] = []


class ServingEngine:
    """Discrete-event serving engine for ``num_servers`` shared accelerators.

    Register one endpoint per model with :meth:`register`, then either
    :meth:`run` a :class:`~repro.data.traces.RequestTrace` (single-model,
    arrivals only — the session's store aliases the trace's sorted arrivals
    and allocates no other request column, keeping million-request sweeps
    cheap) or explicit :class:`Request` objects (multi-model, scheduler-
    aware and real execution; a list, or a
    :class:`~repro.serving.core.LazyRequests` view) — or drive the engine
    incrementally::

        engine.start()                  # open a streaming session
        engine.submit(first_requests)   # admission while the engine runs
        engine.step()                   # execute one batch
        engine.advance_until(t)         # every batch starting before t, and one more
        result = engine.finish()        # drain the queue, close the session

    ``scheduler`` selects the queue discipline (default FIFO); non-FIFO
    schedulers read per-request ``priority``/``deadline`` fields, which a
    trace does not carry, and therefore require explicit requests (see
    :func:`requests_from_trace`).  Each discipline has one object loop, and
    both serve a segment per call under one contract (:meth:`step`: a batch,
    :meth:`advance_until`: up to a time, :meth:`finish`: the rest).  The
    scheduled loop reads a fixed-ratio policy, modeled executors and a
    least-work or weighted placer once per call instead of calling them per
    batch; the FIFO loop calls its policy and executor for every batch.
    """

    def __init__(
        self,
        batching: Optional[BatchingConfig] = None,
        num_servers: int = 1,
        scheduler: Optional[Scheduler] = None,
        placer: Optional[Placer] = None,
        telemetry: Optional["TelemetryBus"] = None,
        columnar: bool = True,
        tracer=None,
    ) -> None:
        self.batching = batching if batching is not None else BatchingConfig()
        self.num_servers = check_integer("num_servers", num_servers, 1)
        self.scheduler = scheduler
        # ``columnar`` lets step()/finish() dispatch eligible FIFO sessions on
        # the columnar sweep (repro.serving.core) — identical results, much
        # faster.  False forces the object loops (the parity-test reference).
        self.columnar = bool(columnar)
        # ``placer=None`` keeps the inlined argmin-free-clock dispatch (the
        # seed rule, bit-identical); a Placer generalizes server selection
        # for heterogeneous clusters (see repro.serving.placement).
        self.placer = placer
        # Optional telemetry bus for the cluster control plane: bound to each
        # session's ledger and store, it reads batches from them when asked
        # and receives drops as they happen (see repro.serving.telemetry).
        self.telemetry = telemetry
        # Optional request-lifecycle tracer (duck-typed; see repro.obs): bound
        # to each session's ledger and store like the bus, it reads batches
        # from them when it settles (on a read, before a rewind, at the end)
        # and receives drop cohorts, rewinds and requeues as they happen.
        # No batch path calls it.
        self.tracer = tracer
        self._fifo = scheduler is None or isinstance(scheduler, FifoScheduler)
        self._endpoints: Dict[str, _Endpoint] = {}
        self._session: Optional[_Session] = None

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        executor: Union[Executor, Sequence[Executor]],
        policy: Optional[RatioPolicy] = None,
        mode: str = "flexiq",
    ) -> None:
        """Register a model endpoint (executor(s) + ratio policy + mode).

        ``executor`` is either one executor shared by every server (fine for
        the stateless :class:`~repro.serving.executors.ModeledExecutor`) or a
        sequence of exactly ``num_servers`` executors, one per server — the
        configuration that gives each server its own
        :class:`~repro.serving.executors.RuntimeExecutor` and therefore its
        own prepared-kernel cache.
        """
        if policy is None:
            policy = FixedRatioPolicy(0.0)
        if isinstance(executor, (list, tuple)):
            executors = list(executor)
            if len(executors) != self.num_servers:
                raise ValueError(
                    f"got {len(executors)} executors for {self.num_servers} servers; "
                    "register one per server (or a single shared executor)"
                )
        else:
            executors = [executor] * self.num_servers
        self._endpoints[name] = _Endpoint(name, executors, policy, mode)

    @property
    def models(self) -> List[str]:
        return list(self._endpoints)

    # ------------------------------------------------------------------
    # Batch driver
    # ------------------------------------------------------------------
    def run(
        self,
        trace: Optional[RequestTrace] = None,
        requests: Optional[Sequence[Request]] = None,
        model: Optional[str] = None,
        record_responses: Optional[bool] = None,
    ) -> EngineResult:
        """Serve a trace or an explicit request list to completion.

        A thin driver over the streaming lifecycle: :meth:`start` a session
        with everything admitted up front, then :meth:`finish` (which steps
        until the queue drains).  Exactly one of ``trace`` and ``requests``
        must be given.  ``model`` names the endpoint a trace targets
        (optional when only one is registered).  The result's time span for
        throughput is the trace's duration, or the makespan (time until the
        last batch finishes) for explicit request lists.  ``record_responses``
        makes the result readable request by request (``result.responses``, a
        view, and ``deadline_attainment()``) and builds no object per request;
        it is on by default for explicit requests, off for traces (latency
        arrays only).
        """
        if (trace is None) == (requests is None):
            raise ValueError("provide exactly one of trace or requests")
        self.start(
            trace=trace,
            requests=requests,
            model=model,
            record_responses=record_responses,
        )
        return self.finish()

    # ------------------------------------------------------------------
    # Streaming lifecycle
    # ------------------------------------------------------------------
    def start(
        self,
        trace: Optional[RequestTrace] = None,
        requests: Optional[Sequence[Request]] = None,
        model: Optional[str] = None,
        record_responses: Optional[bool] = None,
    ) -> None:
        """Open a serving session.

        For streaming use, call with no ``trace``/``requests`` (or just the
        initially known requests) and push the rest through :meth:`submit`
        while :meth:`step`\\ ping.  Ratio policies observe the requests known
        at start time via ``on_run_start`` (endpoints with no admitted
        requests are skipped, as in the seed); later submissions are served
        but not re-shown to the policies.  ``record_responses`` is as for
        :meth:`run` (see :meth:`finish`); ``requests`` may be any iterable.
        """
        if self._session is not None:
            raise RuntimeError("a serving session is already open; finish() it first")
        if trace is not None and requests is not None:
            raise ValueError("provide exactly one of trace or requests")
        if not self._endpoints:
            raise RuntimeError("no model endpoints registered")

        if trace is not None:
            if not self._fifo:
                raise ValueError(
                    "non-FIFO schedulers read per-request priority/deadline "
                    "fields; pass explicit requests (see requests_from_trace)"
                )
            if model is None:
                if len(self._endpoints) != 1:
                    raise ValueError(
                        "model= is required when several models are registered"
                    )
                model = next(iter(self._endpoints))
            if model not in self._endpoints:
                raise KeyError(f"model {model!r} is not registered")
            # The trace's sorted arrivals (sorted once, cached on the trace)
            # are aliased, and every other column stays implicit: a trace
            # session allocates no per-request metadata.
            store = RequestStore.from_trace(trace, model=model)
            run_duration = trace.duration
        else:
            if model is not None and model not in self._endpoints:
                raise KeyError(f"model {model!r} is not registered")
            if isinstance(requests, LazyRequests) and requests.rows is None:
                # Rows are already arrival-sorted: adopt the view's store —
                # no object walk, no sort, no copies.
                store = requests.store
            else:
                if not isinstance(requests, (list, LazyRequests)):
                    requests = list(requests or ())  # any iterable, walked once
                store = RequestStore.from_requests(requests)
            for name in store.model_names:
                if name not in self._endpoints:
                    raise KeyError(f"model {name!r} is not registered")
                if model is not None and name != model:
                    raise ValueError(
                        f"model={model!r} conflicts with a request for "
                        f"{name!r}; omit model= for multi-model "
                        "request lists"
                    )
            # A request list spans until the last batch finishes (makespan,
            # filled in by finish()); policies windowing over admissions see
            # the arrival horizon.
            run_duration = None
        if run_duration is not None:
            run_duration = check_positive("duration", run_duration, allow_zero=True)

        if record_responses is None:
            record_responses = trace is None

        arrivals = store.arrivals
        policy_horizon = run_duration
        if policy_horizon is None:
            policy_horizon = float(arrivals[-1]) if len(arrivals) else 0.0
        # Show every involved policy its model's admitted trace.
        for name, endpoint in self._endpoints.items():
            if trace is not None:
                if name != model:
                    continue
                sub = trace
            else:
                mask = store.model_mask(name)
                if not mask.any():
                    continue
                sub = RequestTrace(
                    arrivals if store.single_model is not None else arrivals[mask],
                    policy_horizon,
                )
            endpoint.policy.on_run_start(sub)
        # A store served before (or aborted mid-run) starts over.
        store.status[:] = PENDING
        self._session = _Session(
            self.num_servers, store, run_duration, record_responses
        )
        # A session starts its bus and tracer empty: a reused engine must
        # not add this session's counts and spans to the last one's.
        if self.telemetry is not None:
            self.telemetry.reset()
            self.telemetry.bind(self._session.ledger, store)
        if self.tracer is not None:
            self.tracer.reset()
            self.tracer.bind(self._session.ledger, store)

    def submit(self, requests: Union[Request, Sequence[Request]]) -> None:
        """Push requests into the open session (streaming admission).

        Requests are merged into the unserved part of the queue by arrival
        time; a request whose ``arrival_time`` lies before the engine's
        current simulated time is simply served at the next opportunity.
        """
        session = self._require_session()
        if not session.store.keeps_objects:
            raise RuntimeError(
                "trace and store-backed (LazyRequests) sessions hold columns, "
                "not Request objects, and are fixed at start(); open a request-"
                "list session (start() or start(requests=[...])) for streaming "
                "admission"
            )
        if isinstance(requests, Request):
            requests = [requests]
        new = sorted(requests, key=attrgetter("arrival_time"))  # any iterable
        if not new:
            return
        for request in new:
            if request.model not in self._endpoints:
                raise KeyError(f"model {request.model!r} is not registered")
        first_slot = session.store.append(new)
        new_slots = np.arange(first_slot, first_slot + len(new), dtype=np.intp)
        sweep = session.sweep and self._decide_sweep(session, stepping=False)
        if sweep is not None:
            session.pos = sweep.pos  # the merge reorders behind the cursor only
        at = self._merge_pending(
            session, session.store.arrivals[first_slot:], new_slots
        )
        if sweep is not None:
            # In order: an append.  Out of order: the unserved suffix, re-read.
            sweep.pending_from(at, session.pend_arrivals[at:])

    def step(self) -> Optional[BatchRecord]:
        """Execute the next batch; ``None`` when no admitted work remains.
        (On the columnar sweep: one batch of what was submitted so far.)"""
        session = self._require_session()
        sweep = session.sweep
        if sweep is None and session.kernel is None:
            sweep = self._decide_sweep(session, stepping=True)
        if sweep is not None:
            cohorts = None if self.tracer is None else len(sweep.drop_rows)
            went = sweep.advance(
                session.free_at, session.busy, session.active, session.tables,
                self.batching.max_batch, self.batching.drop_after, 1,
            )
            if cohorts is not None:
                if went:  # the tracer reads the row before the sweep closes
                    size = session.ledger.lists[2][-1]
                    session.ledger.riders.append(
                        session.pend_slots[sweep.pos - size:sweep.pos].copy()
                    )
                self._trace_drops(session, sweep, cohorts)
            return session.ledger[-1] if went else None
        serve = self._serve_fifo if self._fifo else self._serve_scheduled
        return serve(session, -inf)

    def advance_until(self, time: float) -> Optional[BatchRecord]:
        """Serve every batch that starts before ``time`` and the first that
        starts at or after it, and return that one's record (``None``: the
        work ran out first): what a control plane acting at time boundaries
        calls once per boundary (``ClusterEngine.run``)."""
        if time != time:
            raise ValueError("advance_until(nan): a time is needed")
        session = self._require_session()
        if session.kernel is None:
            self._decide_sweep(session, stepping=True)
        if session.sweep is None:
            serve = self._serve_fifo if self._fifo else self._serve_scheduled
            return serve(session, time)
        record = self.step()  # the stepped sweep serves a batch per step()
        while record is not None and record.start < time:
            record = self.step()
        return record

    def finish(self) -> EngineResult:
        """Drain the queue, close the session and return the result.

        The session is closed even if an executor raises mid-drain, so the
        engine stays reusable after a failed run.

        A session on the columnar sweep (stepping it already, or eligible here,
        at its first dispatch) drains the rest through the same loop without a
        batch limit — unless it records responses: then a batch per
        :meth:`step` (ROADMAP 1(a): two benchmark ratios divide by it).  Any
        other session is drained by one call of its object loop.
        """
        session = self._require_session()
        try:
            sweep = session.sweep
            if sweep is None and session.kernel is None:
                sweep = self._decide_sweep(session, session.record_responses)
            if sweep is None:
                serve = self._serve_fifo if self._fifo else self._serve_scheduled
                serve(session, inf)
            elif session.record_responses:
                while self.step() is not None:
                    pass
            else:
                cohorts = len(sweep.drop_rows)
                sweep.advance(
                    session.free_at, session.busy, session.active, session.tables,
                    self.batching.max_batch, self.batching.drop_after,
                )
                self._sweep_rows(session, cohorts)
        finally:
            self._session = None
        return self._finalize(session)

    def abort(self) -> None:
        """Discard the open session (if any) without finalizing.

        For streaming callers stepping manually: after an executor error
        (or a decision to stop early) this resets the engine for a fresh
        :meth:`start`.
        """
        self._session = None

    def _require_session(self) -> _Session:
        if self._session is None:
            raise RuntimeError("no serving session open; call start() (or run())")
        return self._session

    def _server_id(self, server) -> int:
        """``server`` as the id of one of this engine's servers."""
        server = check_integer("server", server, 0)
        if server >= self.num_servers:
            raise ValueError(
                f"server {server} out of range (num_servers={self.num_servers})"
            )
        return server

    # ------------------------------------------------------------------
    # Elasticity (cluster control plane)
    # ------------------------------------------------------------------
    @property
    def active_servers(self) -> List[int]:
        """Server ids eligible for new batches in the open session."""
        return list(self._require_session().active)

    def set_active_servers(
        self,
        servers: Sequence[int],
        available_from: Optional[float] = None,
    ) -> None:
        """Resize the set of servers receiving new batches (elastic scaling).

        ``servers`` are the ids (0-based) to keep active; at least one is
        required, and deactivated servers simply stop receiving batches
        (one already running finishes normally).  ``available_from``
        models provisioning lag: a *newly* activated server's clock is
        advanced to at least that time, so scale-up capacity does not
        retroactively serve the past.
        """
        session = self._require_session()
        active = sorted({self._server_id(server) for server in servers})
        if not active:
            raise ValueError("at least one server must stay active")
        if available_from is not None:
            available_from = check_positive(
                "available_from", available_from, allow_zero=True
            )
            previous = set(session.active)
            for server in active:
                if server not in previous:
                    session.free_at[server] = max(
                        session.free_at[server], available_from
                    )
        session.active = active
        if session.sweep is not None:
            self._decide_sweep(session, stepping=False)

    def slow_server(self, server: int, factor: float) -> None:
        """Multiply ``server``'s service times by ``factor`` from its next
        batch on (a slowdown fault: a degraded-but-correct accelerator, so
        outputs and executed ratios are untouched); 1.0 is nominal speed."""
        session = self._require_session()
        server = self._server_id(server)
        factor = float(factor)
        if not 1.0 <= factor < np.inf:  # NaN fails both comparisons
            raise ValueError(f"factor must be a finite number >= 1 (got {factor!r})")
        session.slowdown[server] = factor
        if session.sweep is not None:
            self._decide_sweep(session, stepping=False)

    # ------------------------------------------------------------------
    # Preemption & migration (resilience plane)
    # ------------------------------------------------------------------
    def preempt_server(
        self,
        server: int,
        time: float,
        policy=None,
        kill_running: bool = True,
        checkpoint=None,
    ):
        """Rewind a server's unfinished batches and migrate their requests.

        The fault/elasticity hook of :mod:`repro.serving.resilience`: called
        when ``server`` crashes at ``time`` (``kill_running=True`` — the
        running batch dies too, its partial work wasted) or is gracefully
        deactivated (``kill_running=False`` — the running batch finishes,
        only batches that have not *started* by ``time`` are rewound).

        ``checkpoint`` (a :class:`~repro.serving.resilience.
        CheckpointPolicy`) optionally records how much of a *running* killed
        batch's service had been checkpointed by ``time``: each victim keeps
        that fraction as surviving progress (compounding across repeated
        migrations), and when a cohort re-executes, the batch's service time
        shrinks to its largest residual demand — resumed work is not redone,
        though one fresh rider still costs the full batch.

        Every rewound batch is cut out of the run's ledger (so out of every
        per-request value: those are read off the ledger at ``finish()``)
        and its telemetry contribution reversed (busy time up to the kill
        point stays billed: wasted work is still work).  Its requests are
        then handed to ``policy`` (a
        :class:`~repro.serving.resilience.MigrationPolicy`): requests it
        requeues re-enter the pending queue — ordered and gated by the
        policy's ready key, clamped to ``time`` so migration never serves
        the past — and flow back through the configured scheduler and
        placer; requests it rejects (or all of them when ``policy`` is
        ``None``: lost work) are dropped.  Returns a
        :class:`~repro.serving.resilience.Preemption` report.

        This never touches other servers' state: a session with no
        preempted work is left exactly as it was.
        """
        from repro.serving.resilience import Migrant, Preemption, checkpointed_fraction

        s = self._require_session()
        server = self._server_id(server)
        time = check_positive("preemption time", time, allow_zero=True)
        ledger = s.ledger
        on_server, finishes = ledger.servers == server, ledger.finishes
        gone = on_server & (finishes > time)
        if not kill_running:
            gone &= ledger.starts >= time
        if not gone.any():
            return Preemption(batches=0, migrated=0, dropped=0)
        if s.sweep is not None:
            self._leave_sweep(s, "migrated")  # a rewind needs the riders seated
        # The server's clock rewinds to the preemption point (or the finish
        # of a still-running batch it was allowed to drain).
        s.free_at[server] = max([time] + finishes[on_server & ~gone].tolist())
        if self.telemetry is not None:
            self.telemetry.catch_up()  # it adds the victims before they go
        if self.tracer is not None:
            self.tracer.settle()  # it traces them before they go
        victims = ledger.remove(np.flatnonzero(gone).tolist())

        migrant_slots: List[int] = []
        for record, slots in victims:
            # Busy time up to the kill point stays billed (wasted work);
            # service the server would have done after it is rewound.
            s.busy[server] -= record.finish - max(record.start, time)
            fraction = checkpointed_fraction(checkpoint, record, time)
            if fraction > 0.0:
                for slot in slots.tolist():
                    done = s.checkpoints.get(slot, 0.0)
                    # Progress compounds: a re-migrated request already
                    # resumed from `done`, so the new checkpoints cover a
                    # fraction of the *residual* work only.
                    s.checkpoints[slot] = done + (1.0 - done) * fraction
            if self.telemetry is not None:
                self.telemetry.unrecord_batch(record, slots, kill_time=time)
            if self.tracer is not None:
                self.tracer.on_preempt(record, slots, time)
            s.store.status[slots] = PENDING
            migrant_slots.extend(slots.tolist())

        rows = np.asarray(migrant_slots, dtype=np.intp)
        deadlines = self._slot_deadlines(s, rows)
        migrants = [
            Migrant(slot, deadline, s.migrations.get(slot, 0))
            for slot, deadline in zip(
                migrant_slots,
                repeat(None) if deadlines is None
                # nan is the column's "no deadline"; a Migrant spells it None.
                else [None if d != d else d for d in deadlines.tolist()],
            )
        ]
        if policy is None:
            keys: List[Optional[float]] = [None] * len(migrants)
        else:
            keys = list(policy.plan(migrants, time))
            if len(keys) != len(migrants):
                raise ValueError(
                    "migration policy returned "
                    f"{len(keys)} keys for {len(migrants)} migrants"
                )
        requeue_keys: List[float] = []
        requeue_slots: List[int] = []
        requeue_priors: List[int] = []
        drop_slots: List[int] = []
        for migrant, key in zip(migrants, keys):
            if key is None:
                drop_slots.append(migrant.slot)
            else:
                # Migration can never serve the past: the requeued request
                # becomes serviceable no earlier than the preemption time.
                requeue_keys.append(max(float(key), time))
                requeue_slots.append(migrant.slot)
                requeue_priors.append(migrant.migrations)
                s.migrations[migrant.slot] = s.migrations.get(migrant.slot, 0) + 1
                s.migrated += 1
        if self.tracer is not None and requeue_slots:
            self.tracer.on_requeue(requeue_slots, requeue_priors, time, server)
        if drop_slots:
            self._drop(s, np.asarray(drop_slots, dtype=np.intp), time)
        # The scheduled path's queue was admitted against a clock the rewind
        # may have turned back: every queued request returns to pending at
        # its pend key, ahead of equal-keyed migrants, to be admitted again
        # against the next batch's start.  The arrival heap goes with it (its
        # stale entries would resurrect a migrant at its original arrival).
        queued = sorted(entry[1:3] for entry in s.queue)
        s.queue, s.arrival_heap = [], []
        pend_keys = [key for key, _ in queued] + requeue_keys
        pend_slots = [slot for _, slot in queued] + requeue_slots
        if pend_slots:
            order = np.argsort(pend_keys, kind="stable")
            self._merge_pending(
                s,
                np.asarray(pend_keys, dtype=np.float64)[order],
                np.asarray(pend_slots, dtype=np.intp)[order],
            )
        return Preemption(
            batches=len(victims),
            migrated=len(requeue_slots),
            dropped=len(drop_slots),
        )

    @staticmethod
    def _slot_deadlines(s: _Session, slots: np.ndarray) -> Optional[np.ndarray]:
        """Absolute deadlines for ``slots`` (``nan`` = none), or ``None``.

        ``None`` when no request of the session carries one, so the common
        paths never pay for the lookup.
        """
        column = s.store.deadlines
        return None if column is None else column[slots]

    @staticmethod
    def _merge_pending(s: _Session, keys: np.ndarray, slots: np.ndarray) -> int:
        """Merge slots, handed in sorted by key, into the unserved pending queue.

        The single place the 'pend arrays stay key-sorted from ``pos`` on'
        invariant lives: streaming :meth:`submit` merges fresh requests by
        arrival time, and preemption merges migrants by their ready key —
        both the FIFO ordering position and the earliest time the slot can
        be admitted to a batch.  Stable sorts keep equal-key cohorts in
        insertion order, behind the equal keys already queued.  Keys at or
        after the last queued one (the streaming case) are appended, O(new);
        otherwise only the queue from the insertion point on is re-sorted.
        Returns that point: positions before it are as they were.
        """
        at = len(s.pend_arrivals)
        if s.pos < at and keys[0] < s.pend_arrivals[-1]:
            at = s.pos + int(
                np.searchsorted(s.pend_arrivals[s.pos:], keys[0], side="right")
            )
            keys = np.concatenate([s.pend_arrivals[at:], keys])
            slots = np.concatenate([s.pend_slots[at:], slots])
            order = np.argsort(keys, kind="stable")
            keys, slots = keys[order], slots[order]
            s.reordered = True
        s.pend_arrivals = grow_column(
            s.buffers, "pend_arrivals", s.pend_arrivals[:at], len(keys)
        )
        s.pend_arrivals[at:] = keys
        s.pend_slots = grow_column(
            s.buffers, "pend_slots", s.pend_slots[:at], len(slots)
        )
        s.pend_slots[at:] = slots
        return at

    def _select_server(
        self, s: _Session, time: float, model: str, arrived: int
    ) -> int:
        """Pick the server for the next batch via the configured placer."""
        context = PlacementContext(  # positionally, in field order
            time, s.free_at, s.active, model,
            max(1, min(arrived, self.batching.max_batch)), self.telemetry,
        )
        server = self.placer.place(context)
        if server not in s.active:  # before int(): 0.5 is no server, not server 0
            raise ValueError(
                f"placer returned server {server}, not in the active set {s.active}"
            )
        return int(server)

    # ------------------------------------------------------------------
    # Columnar sweep (vectorized FIFO dispatch, whole or a batch per step)
    # ------------------------------------------------------------------
    def _fast_eligible(self, s: _Session, stepping: bool) -> Optional[str]:
        """Why the columnar sweep cannot serve this session (``None``: it can).

        Every assumption the sweep bakes in is guarded here, each with a
        short fixed reason; anything else takes the object loops (identical
        results, slower).  Eligible: a columnar-enabled engine, FIFO with the
        seed argmin-free-clock dispatch, one model, stateless modeled
        executors on servers at nominal speed (the sweep prices a batch from
        the model's table alone), a fixed-ratio policy — and, ``stepping`` a
        batch per call, no telemetry bus: the bus reads rows with their
        riders, which a sweep seats when it closes (a whole sweep closes
        before anyone reads).  A tracer reads the same ledger, but a stepped
        sweep seats each row's riders as it goes when traced and hands each
        drop cohort in its place (:meth:`_trace_drops`), so it is no clause.
        """
        if not self.columnar:
            return "columnar=False"
        if not self._fifo:
            return "scheduler"
        if self.placer is not None:
            return "placer"
        model = s.store.single_model
        if model is None:
            return "multi-model"
        ratio, models = _declared(self._endpoints[model])
        if ratio is None:
            return "policy"
        if not all(
            models[server] is not None and s.slowdown[server] == 1.0
            for server in s.active
        ):
            return "executor"
        if stepping and self.telemetry is not None:
            return "telemetry"
        return None

    def _decide_sweep(self, s: _Session, stepping: bool) -> Optional[FifoSweep]:
        """Decide whether the sweep serves the session: at its first dispatch,
        and again when a call can change the answer while it rides (submit:
        another model; set_active_servers: another executor; slow_server: a
        slowed server).  Returns the sweep, or ``None``: the object loops, for
        good."""
        if not len(s.store):
            return None  # nothing to dispatch, nothing to decide yet
        reason = self._fast_eligible(s, stepping)
        if reason is not None:
            if s.sweep is not None:
                return self._leave_sweep(s, reason)
            s.kernel, s.reason = "object", reason
            return None
        model = s.store.single_model
        endpoint = self._endpoints[model]
        ratio, models = _declared(endpoint)
        if s.sweep is None:
            # A fixed ratio, which modeled executors never override: every row
            # the sweep writes is billed to this cohort.
            s.ledger.cohort = (model, endpoint.mode, ratio)
            s.kernel, s.sweep = "sweep", FifoSweep(s.pend_arrivals, s.ledger)
        # Each active server's price table for the cohort's (mode, ratio),
        # holding every batch the requests so far can form.
        _, mode, ratio = s.ledger.cohort
        size_cap = min(int(self.batching.max_batch), len(s.store))
        for server in s.active:
            s.tables[server] = models[server].table(
                mode, ratio, range(1, size_cap + 1)
            )
        return s.sweep

    def _trace_drops(self, s: _Session, sweep: FifoSweep, first: int) -> None:
        """Hand the tracer the sweep's drop cohorts from ``first`` on, each
        behind the rows that went before it (``FifoSweep.drop_rows``); the
        rows are read from the ledger, so their riders must be seated."""
        arrivals, cohorts = s.store.arrivals, []
        for row, lo, hi, time in zip(
            sweep.drop_rows[first:], sweep.drop_los[first:],
            sweep.drop_his[first:], sweep.drop_times[first:],
        ):
            slots = s.pend_slots[lo:hi]
            cohorts.append((row, slots, arrivals[slots], time))
        if cohorts:
            self.tracer.settle(cohorts)

    def _sweep_rows(self, s: _Session, traced: int) -> None:
        """Close the sweep, either way off it: from now on ``pos``, the drops
        (the bus has each cohort, as the object loops hand it theirs; the
        tracer has the first ``traced`` and gets the rest), the store's
        ``status`` and the riders of the rows it wrote are exact."""
        run, s.sweep = s.sweep.close(), None
        s.pos, s.dropped = run.pos, run.dropped
        slots = s.pend_slots[: s.pos]
        status = s.store.status
        # Until a merge reorders the queue a position is its row.
        status[slots if s.reordered else slice(s.pos)] = SERVED
        for lo, hi, time in zip(run.drop_los, run.drop_his, run.drop_times):
            status[slots[lo:hi]] = DROPPED
            if self.telemetry is not None:
                self.telemetry.record_drops(time, slots[lo:hi])
            if s.record_responses:
                s.drops.append((slots[lo:hi].copy(), time))
        if s.reordered:  # the riders are seated by position
            s.ledger.riders = [slots[run.survived]]
        if self.tracer is not None:
            self._trace_drops(s, run, traced)

    def _leave_sweep(self, s: _Session, reason: str) -> None:
        """Take the session off the sweep, for good, for ``reason``: its rows
        are where the object loops append, which dispatch from here."""
        self._sweep_rows(s, len(s.sweep.drop_rows))
        s.kernel, s.reason = "sweep+object", reason

    # ------------------------------------------------------------------
    # FIFO object loop (bit-identical to the seed loop at num_servers=1)
    # ------------------------------------------------------------------
    def _serve_fifo(self, s: _Session, until: float) -> Optional[BatchRecord]:
        """Serve FIFO batches until one starts at or after ``until``; its
        record (``None``: the work ran out first) is the only one built —
        :meth:`_serve_scheduled`'s contract.  The policy and the executor
        are called for every batch (:meth:`_run_called`)."""
        max_batch = self.batching.max_batch
        drop_after = self.batching.drop_after
        store, free_at, arrivals = s.store, s.free_at, s.pend_arrivals
        pend_slots, status, endpoints = s.pend_slots, store.status, self._endpoints
        ledger, busy, slowdown, active = s.ledger, s.busy, s.slowdown, s.active
        placer, num_requests, single = self.placer, len(arrivals), store.single_model

        while True:
            index = s.pos
            if index >= num_requests:
                return None
            # A Python float from here on: the same double, and the clock
            # arithmetic below stays off numpy's scalar path.
            first_arrival = float(arrivals[index])
            server = earliest_free(free_at, active)  # the seed rule
            if placer is not None:
                head_model = store.model_name(pend_slots[index])
                # Size hint: arrivals by the *earliest possible* service
                # start (the earliest-free active clock), not by the head's
                # arrival — under backlog the batch really forms then, and
                # a head-arrival count (usually 1) would under-cost slow
                # servers by up to max_batch x.
                est_start = max(free_at[server], first_arrival)
                arrived = bisect.bisect_right(arrivals, est_start, lo=index) - index
                server = self._select_server(s, first_arrival, head_model, arrived)
            free = free_at[server]  # ``max`` spelled out: the same double
            start = free if free >= first_arrival else first_arrival
            # All requests that have arrived by the time the server starts.
            end_index = bisect.bisect_right(arrivals, start, lo=index)

            if drop_after is not None:
                # Expired requests form a prefix of the arrived window
                # (arrivals are sorted); drop it *before* forming the batch
                # so drops never consume batch slots (backfill).  Restart
                # the dispatch loop afterwards: the head (and possibly its
                # model) changed, so the placer must re-decide.  Bit-
                # identical for the seed rule: drops imply the start was
                # free-clock-dominated, so the re-derived batch is the same.
                fresh = _expired_prefix_end(
                    arrivals, index, end_index, start, drop_after
                )
                if fresh > index:
                    self._drop(s, pend_slots[index:fresh], start)
                    s.pos = fresh
                    continue

            limit = index + max_batch
            if end_index < limit:
                limit = end_index
            if limit == index:
                limit = index + 1  # serve at least the request that triggered us

            head_model = single
            batch_end = limit
            if head_model is None:
                # Same-model batching: a batch is a FIFO run of consecutive
                # requests for one model (batches never mix models).
                model_ids = store.model_ids[pend_slots[index:limit]]
                head_model = store.model_names[model_ids[0]]
                others = np.flatnonzero(model_ids != model_ids[0])
                if len(others):
                    batch_end = index + int(others[0])

            # A copy: a row must not pin a superseded pending array alive.
            slots = pend_slots[index:batch_end].copy()
            endpoint, queue_depth = endpoints[head_model], end_index - index
            ratio, service_time, outputs = self._run_called(
                s, endpoint, None, None, server, start, slots, queue_depth
            )
            s.pos = batch_end
            service_time *= slowdown[server]
            if s.checkpoints:
                service_time *= self._residual(s, slots)
            finish = start + service_time
            status[slots] = SERVED
            ledger.append(head_model, start, finish, batch_end - index, ratio,
                          endpoint.mode, server, queue_depth, slots, outputs)
            busy[server] += service_time
            free_at[server] = finish
            if start >= until:
                return ledger[-1]

    # ------------------------------------------------------------------
    # Scheduled path (EDF / custom disciplines)
    # ------------------------------------------------------------------
    def _serve_scheduled(self, s: _Session, until: float) -> Optional[BatchRecord]:
        """Serve scheduled batches until one starts at or after ``until``; its
        record (``None``: the work ran out first) is the only one built.  A
        batch per :meth:`step` (``-inf``), a segment per :meth:`advance_until`,
        the rest at :meth:`finish` (``inf``).  Nothing else runs during a call,
        so it resolves once what every batch reads (:func:`_declared`, a
        least-work or weighted placer's ``choose``); other plug-ins are called
        (:meth:`_run_called`)."""
        max_batch = self.batching.max_batch
        drop_after = self.batching.drop_after
        store, free_at, pend_arrivals = s.store, s.free_at, s.pend_arrivals
        arrival_heap, status = s.arrival_heap, store.status
        ledger, busy, slowdown, active = s.ledger, s.busy, s.slowdown, s.active
        heappush, heappop = heapq.heappush, heapq.heappop
        placer = self.placer
        scored = type(placer) in (LeastOutstandingWorkPlacer, WeightedSpeedPlacer)
        choose = placer.choose if scored else None
        endpoints = map(self._endpoints.__getitem__, store.model_names)
        plans = [(e, *_declared(e)) for e in endpoints]  # by model id

        while True:
            queue, pos = s.queue, s.pos  # expiry replaces the queue list
            if queue:
                # The earliest queued pend key.  A served or dropped slot's
                # arrival-heap entry is discarded lazily here, or with all
                # the others when admission finds the queue empty (or a
                # rewind empties it): amortized O(log queue), no scan.
                while status[arrival_heap[0][1]] != PENDING:
                    heappop(arrival_heap)
                head_time = arrival_heap[0][0]
            elif pos < len(pend_arrivals):
                head_time = float(pend_arrivals[pos])
            else:
                return None
            # Admission and expiry run against the earliest-free active
            # clock *before* placement: admitting can reorder the queue
            # head (EDF) and expiry can remove it, and the placer
            # must see the head that will actually lead the batch.  With
            # ``placer=None`` the dispatched server IS the earliest-free
            # one, so this is exactly the seed arithmetic (``max`` spelled
            # out: the same double).
            server = earliest_free(free_at, active)
            free = free_at[server]
            start = free if free >= head_time else head_time
            # Admit everything that has arrived by the batch start.  The
            # pend key — the arrival time for fresh requests (bit-identical
            # to the seed), the migration-ready key for requeued migrants —
            # is what queue ordering ties break on and what ``drop_after``
            # waiting is measured from, so a migrant's wait restarts at its
            # migration exactly as it does on the FIFO path.
            end_index = bisect.bisect_right(pend_arrivals, start, lo=pos)
            if end_index > pos:
                chunk_slots = s.pend_slots[pos:end_index]
                keys = self.scheduler.keys(store, chunk_slots)
                chunk_arrivals = pend_arrivals[pos:end_index].tolist()
                model_ids = (
                    repeat(0) if store.model_ids is None
                    else store.model_ids[chunk_slots].tolist()
                )
                # One at a time, in chunk order: the heap's list layout is
                # the order _expire_queued drops in.
                if not queue:
                    arrival_heap.clear()
                for key, arrival, slot, model_id in zip(
                    keys, chunk_arrivals, chunk_slots.tolist(), model_ids
                ):
                    heappush(queue, (key, arrival, slot, model_id))
                    heappush(arrival_heap, (arrival, slot))
                # A chunk is sorted, so its head is its earliest arrival.
                if chunk_arrivals[0] < head_time:
                    head_time = chunk_arrivals[0]
                s.pos = end_index

            # Expiry restarts the loop after dropping: the queue head (and
            # its model) may have changed, so placement must re-decide.
            # Bit-identical for the seed rule: every kept entry arrived by
            # ``start`` and none is expired, so the re-derived
            # start/admissions/batch are unchanged.  ``head_time`` is the
            # earliest queued arrival: when it has not expired, nothing has.
            if drop_after is not None and start - head_time > drop_after:
                self._expire_queued(s, start, drop_after)
                continue

            # The queue head is now final: place the batch's server.  The
            # seed rule re-derives the earliest-free server (``start`` is
            # already its clock, bit-identical); a placer may pick a later-
            # free server, whose service then begins when that server frees
            # (admission stays anchored to the earliest-free clock, so a
            # batch never contains a request that has not arrived by its
            # service start).
            head_id = queue[0][3]
            head_model = store.model_names[head_id]
            if placer is not None:
                if choose is not None:  # the hint _select_server would give
                    server = choose(start, free_at, active, min(len(queue), max_batch))
                else:
                    server = self._select_server(s, start, head_model, len(queue))
                placed = free_at[server]
                if placed > start:
                    # The placed server frees later than the earliest-free
                    # clock the expiry ran against: re-check against the
                    # real service start so drop_after means the same thing
                    # on every path (a request never waits beyond it).
                    if drop_after is not None and placed - head_time > drop_after:
                        self._expire_queued(s, placed, drop_after)
                        continue
                    start = placed

            # Pop same-model requests in scheduler order; requests of other
            # models encountered along the way go back on the heap.
            queue_depth = len(queue)
            take: List[int] = []
            stash = None
            while queue and len(take) < max_batch:
                entry = heappop(queue)
                if entry[3] == head_id:
                    take.append(entry[2])
                elif stash is None:
                    stash = [entry]
                else:
                    stash.append(entry)
            if stash is not None:
                for entry in stash:
                    heappush(queue, entry)
            slots = np.array(take, dtype=np.intp)
            size = len(take)

            # Run the batch: declared answers are read, the rest called.
            endpoint, ratio, models = plans[head_id]
            model, mode = models[server], endpoint.mode
            if ratio is None or model is None:
                ratio, service_time, outputs = self._run_called(
                    s, endpoint, ratio, model, server, start, slots, queue_depth
                )
            else:
                service_time = float(model.batch_latency(size, mode, ratio))
                outputs = None
            service_time *= slowdown[server]
            if s.checkpoints:
                service_time *= self._residual(s, slots)
            finish = start + service_time
            status[slots] = SERVED
            ledger.append(head_model, start, finish, size, ratio, mode, server,
                          queue_depth, slots, outputs)
            busy[server] += service_time
            free_at[server] = finish
            if start >= until:
                return ledger[-1]

    def _expire_queued(self, s: _Session, start: float, drop_after: float) -> None:
        """Drop queued requests that waited beyond ``drop_after`` by ``start``.

        O(queue): callers test the earliest queued arrival (O(1)) first —
        when it has not expired, nothing has — and restart their dispatch
        loop afterwards, because the queue head may have changed.
        """
        expired = [e for e in s.queue if start - e[1] > drop_after]
        kept = [e for e in s.queue if start - e[1] <= drop_after]
        heapq.heapify(kept)
        s.queue = kept
        self._drop(s, np.asarray([e[2] for e in expired], dtype=np.intp), start)

    # ------------------------------------------------------------------
    # The called batch (both object loops)
    # ------------------------------------------------------------------
    def _run_called(
        self, s: _Session, endpoint: _Endpoint, ratio: Optional[float], model,
        server: int, start: float, slots: np.ndarray, queue_depth: int,
    ) -> Tuple[float, float, Optional[Sequence[Any]]]:
        """The work of a batch whose plug-ins are called: the policy's
        ``select`` (unless ``ratio`` is declared), then the executor's
        ``execute`` (unless ``model``, the server's declared service model,
        prices the batch), whose executed ratio overrides the selected one.
        Returns the ratio, the service time before any slowdown or
        checkpoint and the outputs (``None`` unless responses are kept)."""
        mode = endpoint.mode
        if ratio is None:
            # Built positionally, in field order: once per batch, a keyword
            # call costs as much as the policy it feeds.
            ratio = float(endpoint.policy.select(
                PolicyContext(start, queue_depth, server, self.telemetry)
            ))
        if model is not None:
            return ratio, float(model.batch_latency(len(slots), mode, ratio)), None
        execution = endpoint.executors[server].execute(Batch(
            endpoint.name, start, len(slots), slots, LazyRequests(s.store, slots),
            server,
        ), mode, ratio)
        service_time = float(execution.service_time)
        if not 0.0 <= service_time < inf:  # NaN fails both comparisons
            raise ValueError(
                f"the executor of model {endpoint.name!r} on server {server} "
                "returned a service time that is not a finite number >= 0 "
                f"(got {service_time!r})"
            )
        # Record the ratio the batch actually ran at, which executors may
        # override (mode pinning); metrics built on batch_ratios must
        # reflect executed configurations, not requested ones.
        if execution.ratio is not None:
            ratio = check_ratio(execution.ratio)
        return ratio, service_time, execution.outputs if s.record_responses else None

    @staticmethod
    def _residual(s: _Session, slots: np.ndarray) -> float:
        """The share of its service a batch still owes: its riders run their
        remaining steps jointly, so the largest residual (checkpoints are
        consumed either way: a rerun from scratch voids them too)."""
        pop = s.checkpoints.pop
        return max((1.0 - pop(int(slot), 0.0) for slot in slots), default=0.0)

    def _drop(self, s: _Session, slots: np.ndarray, start: float) -> None:
        """Expire ``slots`` (waited beyond ``drop_after``) at time ``start``."""
        s.dropped += len(slots)
        s.store.status[slots] = DROPPED
        if s.checkpoints:
            for slot in slots:
                s.checkpoints.pop(int(slot), None)
        if self.telemetry is not None:
            self.telemetry.record_drops(start, slots)
        if self.tracer is not None:
            self.tracer.on_drop(slots, s.store.arrivals[slots], start)
        if s.record_responses:
            # A copy, as for a row's riders: FIFO-path slots view pend_slots.
            s.drops.append((slots.copy() if slots.base is not None else slots, start))

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def _finalize(self, s: _Session) -> EngineResult:
        duration = s.duration
        if duration is None:
            # Makespan: from time zero until the last accelerator went idle
            # (or the last arrival, if everything after it was dropped).
            arrivals = s.store.arrivals
            last_arrival = float(arrivals[-1]) if len(arrivals) else 0.0
            duration = max(max(s.free_at), last_arrival)
        if s.sweep is not None:
            self._sweep_rows(s, len(s.sweep.drop_rows))
        if self.telemetry is not None:
            self.telemetry.bind()  # the session's last rows, then let it go
        if self.tracer is not None:
            self.tracer.bind()
        served_by = s.ledger.served_by(len(s.store))
        # The same elementwise ``finish - arrival`` whichever loop ran; a
        # dropped slot (-1) reads the nan behind the last finish.
        finishes = np.append(s.ledger.finishes, np.nan)
        request_latencies = finishes[served_by] - s.store.arrivals
        modes = {name: endpoint.mode for name, endpoint in self._endpoints.items()}
        return EngineResult(
            latencies=request_latencies[~np.isnan(request_latencies)],
            request_latencies=request_latencies,
            request_models=(
                None if s.store.model_ids is None else s.store.model_name_list()
            ),
            batch_records=s.ledger,
            dropped=s.dropped,
            duration=duration,
            busy_time=float(sum(s.busy)),
            responses=(
                ResponseView(s, modes, served_by) if s.record_responses else None
            ),
            num_servers=self.num_servers,
            server_busy_times=list(s.busy),
            migrated=s.migrated,
            kernel=s.kernel or "object",
            kernel_reason=s.reason if s.kernel else "empty",
        )
