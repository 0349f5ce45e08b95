"""Telemetry bus: windowed per-server time-series for the cluster control plane.

The engine's :class:`~repro.serving.engine.EngineResult` summarizes a whole
run; control-plane components (autoscalers, per-server ratio policies,
operators reading a timeline) instead need *windowed, per-server* signals
while the run is still in flight.  A :class:`TelemetryBus` attached to a
:class:`~repro.serving.engine.ServingEngine` receives one event per executed
batch and per drop and aggregates them into one :class:`WindowStats` cell per
(server, control window).

The count schema
----------------
What a cell stores is declared once, on :class:`WindowStats`.  The hooks add
to it (an event lands in the window its timestamp falls in — a batch by its
*start*, so its busy seconds sit where the dispatch decision was made), a
rewind subtracts exactly what its hook added, ``ingest_columnar`` fills the
same fields for a whole columnar run, a cluster window is the sum of its
cells, and every reported value (``utilization``, ``mean_queue_depth``,
``executed_ratio``, ``served_rate``, ``slo_attainment``, ``latencies`` and
their percentiles, ``summary()``) is computed from these:

===================  ========  ==============================================
field                unit      added by
===================  ========  ==============================================
``served``           requests  ``record_batch``: batch size
``batches``          batches   ``record_batch``
``busy_time``        seconds   ``record_batch``: finish - start (a rewind
                               leaves the seconds spent before the kill)
``ratio_weight``     requests  ``record_batch``: executed 4-bit ratio x size
``queue_depth_sum``  requests  ``record_batch``: depth when the batch formed
``drops``            requests  ``record_drops`` (the ``CLUSTER`` cell)
``deadline_total``   requests  ``record_batch``, and ``record_drops``: an
                               expired deadline-carrying request is a miss
``deadline_met``     requests  ``record_batch``
``latency_parts``    seconds   ``record_batch``: one sample array per batch
===================  ========  ==============================================

Scale, fault and alert events share one :meth:`TelemetryBus.timeline`.
Ratio policies reach the bus through
:attr:`repro.serving.policies.PolicyContext.telemetry`; it is opt-in — an
engine without one skips every hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.serving.core import FifoSweep, check_integer, check_positive
from repro.serving.metrics import latency_percentile, summarize_latencies

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.engine import BatchRecord
    from repro.serving.resilience import FaultEvent

# Server id used for events not attributable to one server (queue-side drops).
CLUSTER = -1


def fold_rate(forecast: float, rate: float, alpha: float) -> float:
    """One window folded into a served-rate forecast (an EWMA, weight ``alpha``).

    ``rate`` is a :meth:`TelemetryBus.measured_rate` reading: ``nan`` (an
    idle window, no capacity signal) leaves ``forecast`` as it is, and a
    ``nan`` forecast (no history yet) becomes ``rate``.  The one forecast
    :class:`~repro.serving.placement.PredictivePlacer` places by and
    :class:`~repro.serving.cluster.PredictiveFaultAutoscaler` scales by.
    """
    if rate != rate:
        return forecast
    if forecast != forecast:
        return rate
    return alpha * rate + (1 - alpha) * forecast


@dataclass
class ScaleEvent:
    """One elasticity decision applied at a window boundary."""

    time: float
    action: str              # "add" | "remove" | "promote" | "demote"
    server: int              # server id activated / deactivated
    active_after: int        # cluster size after the event
    reason: str = ""


def _count(zero):
    """An additive field: hooks add to it, rewinds subtract, cells sum."""
    return field(default=zero, metadata={"role": "count"})


class Samples:
    """One sample field of a cell: an array per batch, in event order.

    Each array sits under the owner a rewind finds it by (the batch's row
    id; ``None`` once bulk-ingested or joined).  Two
    parallel lists, so recording a batch allocates no container — a tuple
    per batch is one more object for every collector pass to visit.
    """

    __slots__ = ("owners", "arrays")

    def __init__(self, arrays: Sequence[np.ndarray] = ()) -> None:
        self.arrays = list(arrays)
        self.owners: List[object] = [None] * len(self.arrays)

    def record(self, sign: int, owner, values: np.ndarray) -> None:
        """Add (``sign`` +1) or rewind (-1) the samples of one owner."""
        if not len(values):
            return
        if sign > 0:
            self.owners.append(owner)
            self.arrays.append(values)
            return
        for index in range(len(self.owners) - 1, -1, -1):
            if self.owners[index] == owner:
                del self.owners[index], self.arrays[index]
                return
        # The one tolerated miss: a bus attached mid-run never saw the owner.

    def extend(self, other: "Samples") -> None:
        self.owners += other.owners
        self.arrays += other.arrays

    def joined(self) -> np.ndarray:
        if len(self.arrays) > 1:
            return np.concatenate(self.arrays)
        return self.arrays[0] if self.arrays else np.zeros(0, dtype=np.float64)


def _samples():
    return field(default_factory=Samples, metadata={"role": "samples"})


@dataclass
class WindowStats:
    """The counts of one server (or the whole cluster) over one window.

    The bus holds one live record per (server, window); queries hand out
    copies.  ``server == CLUSTER`` marks the queue-side cell and the
    cluster-wide sum, whose ``active_servers`` is the number of servers its
    busy seconds are scoped to (0 on a single server's record).
    """

    server: int
    window: int
    span: float              # control-window length, seconds
    active_servers: int = 0
    served: int = _count(0)
    batches: int = _count(0)
    busy_time: float = _count(0.0)
    ratio_weight: float = _count(0.0)
    queue_depth_sum: int = _count(0)
    drops: int = _count(0)
    deadline_total: int = _count(0)
    deadline_met: int = _count(0)
    latency_parts: Samples = _samples()

    def add(self, other: "WindowStats") -> None:
        """Fold another record's counts and samples into this one."""
        for name in _COUNTS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in _SAMPLES:
            getattr(self, name).extend(getattr(other, name))

    def copy(self) -> "WindowStats":
        """A snapshot later events on the bus do not reach (samples joined)."""
        joined = {name: Samples([getattr(self, name).joined()]) for name in _SAMPLES}
        return replace(self, **joined)

    @property
    def start(self) -> float:
        return self.window * self.span

    @property
    def end(self) -> float:
        return (self.window + 1) * self.span

    @property
    def utilization(self) -> float:
        """Busy seconds over the seconds the record's servers had."""
        return self.busy_time / (max(self.active_servers, 1) * self.span)

    @property
    def mean_queue_depth(self) -> float:
        """Mean depth seen at batch formation (0.0 without batches)."""
        return self.queue_depth_sum / self.batches if self.batches > 0 else 0.0

    @property
    def executed_ratio(self) -> float:
        """Batch-size-weighted 4-bit ratio that ran (nan if nothing did)."""
        return self.ratio_weight / self.served if self.served > 0 else float("nan")

    @property
    def served_rate(self) -> float:
        """Requests served per second of window time."""
        span = self.end - self.start
        return self.served / span if span > 0 else 0.0

    @property
    def slo_attainment(self) -> float:
        """Fraction of deadline-carrying requests served in time (nan if none)."""
        if self.deadline_total == 0:
            return float("nan")
        return self.deadline_met / self.deadline_total

    @property
    def latencies(self) -> np.ndarray:
        """Response times of the window's served requests, in event order."""
        return self.latency_parts.joined()

    def latency_percentile(self, percentile: float) -> float:
        return latency_percentile(self.latencies, percentile)

    def summary(self) -> Dict[str, float]:
        return summarize_latencies(self.latencies)


_COUNTS, _SAMPLES = (
    tuple(f.name for f in fields(WindowStats) if f.metadata.get("role") == role)
    for role in ("count", "samples")
)
# One record type; the names say which query returned it.
ServerWindowStats = ClusterWindowStats = WindowStats


def _add_column(cells, name: str, index: np.ndarray, weights=None) -> None:
    """``cell.name +=`` its share of a column, summed left to right."""
    sums = np.bincount(index, weights=weights, minlength=len(cells)).tolist()
    for cell, value in zip(cells, sums):
        held = getattr(cell, name)
        setattr(cell, name, held + type(held)(value))


class TelemetryBus:
    """Windowed per-server aggregation of serving events.

    ``window`` is the control-window length in simulation seconds; the
    module docstring lists what a cell holds and which hook fills it.
    """

    def __init__(self, window: float = 1.0, num_servers: int = 1) -> None:
        self.window = check_positive("window", window)
        self.num_servers = check_integer("num_servers", num_servers, 1)
        self.scale_events: List[ScaleEvent] = []
        self.fault_events: List["FaultEvent"] = []
        self.alert_events: List[object] = []
        self.reset()

    # ------------------------------------------------------------------
    # Recording (called by the engine / control plane)
    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._cells: Dict[Tuple[int, int], WindowStats] = {}
        for log in (self.scale_events, self.fault_events, self.alert_events):
            log.clear()
        # (time, seq, event) for every scale, fault and alert event, seq the
        # application order; timeline() sorts by (time, seq) and caches the
        # result until the next append.
        self._timeline: List[Tuple[float, int, object]] = []
        self._timeline_sorted: Optional[List[object]] = None
        self.last_window = -1

    def window_index(self, time: float) -> int:
        return int(time / self.window)

    def _cell(self, server: int, window: int) -> WindowStats:
        key = (int(server), int(window))
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = WindowStats(key[0], key[1], self.window)
        if window > self.last_window:
            self.last_window = int(window)
        return cell

    def record_batch(
        self,
        record: "BatchRecord",
        queue_depth: int = 0,
        latencies: Optional[np.ndarray] = None,
        deadline_total: int = 0,
        deadline_met: int = 0,
    ) -> None:
        """Account one executed batch (engine hook)."""
        self._batch(
            1, record, record.start, queue_depth, latencies, deadline_total,
            deadline_met,
        )

    def unrecord_batch(
        self,
        record: "BatchRecord",
        latencies: Optional[np.ndarray] = None,
        deadline_total: int = 0,
        deadline_met: int = 0,
        kill_time: Optional[float] = None,
    ) -> None:
        """Reverse one :meth:`record_batch` (the batch was preempted).

        The exact inverse arithmetic: the queue depth comes from the record
        (``BatchRecord.queue_depth``) and the samples removed are the ones
        recorded under this record's ``row``.  ``kill_time`` is the
        preemption instant: busy seconds the server really spent before it
        ([start, kill_time), wasted work) stay accounted, matching the
        engine's busy-time bill.
        """
        killed_from = (
            record.start if kill_time is None else max(record.start, kill_time)
        )
        self._batch(
            -1, record, killed_from, record.queue_depth, latencies,
            deadline_total, deadline_met,
        )

    def _batch(
        self, sign, record, busy_from, queue_depth, latencies, deadline_total,
        deadline_met,
    ) -> None:
        # Runs once per batch: plain attribute arithmetic.  Multiplying by
        # +-1 is exact, so a rewind is the bit-exact inverse of its record.
        cell = self._cell(record.server, self.window_index(record.start))
        cell.served += sign * record.size
        cell.batches += sign
        cell.busy_time += sign * (record.finish - busy_from)
        cell.ratio_weight += sign * (record.ratio * record.size)
        cell.queue_depth_sum += sign * int(queue_depth)
        cell.deadline_total += sign * int(deadline_total)
        cell.deadline_met += sign * int(deadline_met)
        if latencies is not None:
            cell.latency_parts.record(sign, record.row, latencies)

    def record_drops(
        self, time: float, count: int, deadline_misses: int = 0
    ) -> None:
        """Account expired requests (queue-side, not owned by any server)."""
        cell = self._cell(CLUSTER, self.window_index(time))
        cell.drops += int(count)
        cell.deadline_total += int(deadline_misses)

    def record_scale_event(self, event: ScaleEvent) -> None:
        self._event(self.scale_events, event)

    def record_fault_event(self, event: "FaultEvent") -> None:
        """Append one applied fault injection to the run timeline."""
        self._event(self.fault_events, event)

    def record_alert_event(self, event: object) -> None:
        """Append one SLO burn-rate alert to the run timeline.

        ``event`` is an :class:`repro.obs.slo.AlertEvent` (duck-typed here
        so the serving layer stays import-free of ``repro.obs``); it lands
        next to scale/fault events in :meth:`timeline`.
        """
        self._event(self.alert_events, event)

    def _event(self, log: List, event) -> None:
        log.append(event)
        self._timeline.append((float(event.time), len(self._timeline), event))
        self._timeline_sorted = None

    def timeline(self) -> List[object]:
        """Every scale, fault *and* alert event, in deterministic time order.

        Sorted by ``(time, application order)``: a fault whose strike time
        precedes a window boundary sorts before the scale decision stamped
        at the boundary, and same-instant events keep the order the control
        plane applied them in.  The sorted view is cached until the next
        ``record_*_event`` append (rewinds touch cells, never the timeline),
        so a per-window polling loop pays O(events) per call.
        """
        if self._timeline_sorted is None:
            self._timeline_sorted = [
                event for _, _, event in sorted(self._timeline, key=lambda e: e[:2])
            ]
        return list(self._timeline_sorted)

    # ------------------------------------------------------------------
    # Bulk ingestion (columnar fast path)
    # ------------------------------------------------------------------
    def ingest_columnar(
        self,
        run: FifoSweep,
        arrivals: np.ndarray,
        deadlines: Optional[np.ndarray],
    ) -> None:
        """Bulk-ingest a closed sweep into the same cells the hooks fill.

        Equivalent to :meth:`record_batch` once per batch in chronological
        order followed by :meth:`record_drops` per drop cohort: integer
        counts sum exactly, float ones (busy seconds, ratio weight) in the
        identical left-to-right order (``np.bincount`` sums sequentially),
        so every cell is bit-identical to the per-event hooks'.  ``arrivals``
        and ``deadlines`` (``None``: nobody carries one) are by position, like
        ``run.survived``; a cell's latencies become one owner-less part, in
        batch order.
        """
        ledger = run.ledger
        starts, finishes, sizes = ledger.starts, ledger.finishes, ledger.sizes
        if starts.size:
            windows = (starts / self.window).astype(np.int64)
            codes = (ledger.servers << 32) | windows
            uniq, batch_cell = np.unique(codes, return_inverse=True)
            cells = [
                self._cell(code >> 32, code & 0xFFFFFFFF) for code in uniq.tolist()
            ]
            request_cell = np.repeat(batch_cell, sizes)
            ratios = np.asarray(ledger.ratios, dtype=np.float64)
            _add_column(cells, "served", batch_cell, sizes)
            _add_column(cells, "batches", batch_cell)
            _add_column(cells, "busy_time", batch_cell, finishes - starts)
            _add_column(cells, "ratio_weight", batch_cell, ratios * sizes)
            _add_column(cells, "queue_depth_sum", batch_cell, ledger.queue_depths)
            # The served requests, which is batch order: FIFO serves in
            # arrival order.  Without drops that is everybody, uncopied.
            served = run.survived if run.dropped else slice(None)
            finishes = np.repeat(finishes, sizes)
            if deadlines is not None:
                due = deadlines[served]
                # nan compares False: no deadline is neither carried nor met.
                _add_column(cells, "deadline_total", request_cell, ~np.isnan(due))
                _add_column(cells, "deadline_met", request_cell, finishes <= due)
            ordered = (finishes - arrivals[served])[
                np.argsort(request_cell, kind="stable")
            ]
            ends = np.cumsum(np.bincount(request_cell, minlength=len(cells)))
            for cell, part in zip(cells, np.split(ordered, ends[:-1])):
                cell.latency_parts.record(1, None, part)
        if run.dropped:
            windows = (np.asarray(run.drop_times) / self.window).astype(np.int64)
            los, his = np.asarray(run.drop_los), np.asarray(run.drop_his)
            uniq, drop_cell = np.unique(windows, return_inverse=True)
            cells = [self._cell(CLUSTER, window) for window in uniq.tolist()]
            _add_column(cells, "drops", drop_cell, his - los)
            if deadlines is not None:
                # Each cohort's deadline-carrying members: all of them missed.
                carrying = np.concatenate(([0], np.cumsum(~np.isnan(deadlines))))
                _add_column(
                    cells, "deadline_total", drop_cell,
                    carrying[his] - carrying[los],
                )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def server_window(self, server: int, window: int) -> ServerWindowStats:
        """Stats of one server over one window (zeros when nothing happened)."""
        cell = self._cells.get((int(server), int(window)))
        if cell is None:
            return WindowStats(int(server), int(window), self.window)
        return cell.copy()

    def server_series(self, server: int) -> List[ServerWindowStats]:
        """Per-window time-series of one server, windows 0..last seen."""
        return [
            self.server_window(server, window)
            for window in range(self.last_window + 1)
        ]

    def measured_rate(self, server: int, window: int) -> float:
        """Requests per *busy* second one server sustained during a window.

        The server's demonstrated service capacity, robust to idleness
        (an idle fast server serves 0 req/s of window time but its busy
        seconds still reveal its speed).  ``nan`` when the server ran no
        batch in the window.  A cell read, cheap enough to call per batch
        (:class:`~repro.serving.placement.PredictivePlacer` does).
        """
        cell = self._cells.get((int(server), int(window)))
        if cell is None or cell.busy_time <= 0:
            return float("nan")
        return cell.served / cell.busy_time

    def mean_depth(self, server: int, window: int) -> float:
        """Mean queue depth observed at one server's batch formations.

        0.0 for windows without batches (no congestion signal is no
        congestion).  Cheap like :meth:`measured_rate`.
        """
        cell = self._cells.get((int(server), int(window)))
        return 0.0 if cell is None else cell.mean_queue_depth

    def served_rate(self, server: int, window: int) -> float:
        """Requests/second one server actually served during a window.

        The load signal per-server adaptive ratio controllers read (a
        global rate cannot tell a hot server from an idle one).  Cheap like
        :meth:`measured_rate`.
        """
        cell = self._cells.get((int(server), int(window)))
        return 0.0 if window < 0 or cell is None else cell.served_rate

    def cluster_window(
        self, window: int, active_servers: Optional[Sequence[int]] = None
    ) -> ClusterWindowStats:
        """One window summed across servers (plus queue-side drops).

        ``active_servers`` scopes utilization to the servers that were
        actually available (idle *inactive* servers should not dilute it);
        when omitted, all ``num_servers`` are assumed active.
        """
        window = int(window)
        active = (
            range(self.num_servers)
            if active_servers is None
            else [int(s) for s in active_servers]
        )
        total = WindowStats(CLUSTER, window, self.window, len(active))
        busy = 0.0
        for server in [*range(self.num_servers), CLUSTER]:
            cell = self._cells.get((server, window))
            if cell is None:
                continue
            total.add(cell)
            if server in active:
                busy += cell.busy_time
        # A parked server draining its last batch is not cluster capacity.
        total.busy_time = busy
        return total.copy()

    def cluster_series(self) -> List[ClusterWindowStats]:
        return [
            self.cluster_window(window) for window in range(self.last_window + 1)
        ]
