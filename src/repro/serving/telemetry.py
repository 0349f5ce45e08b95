"""Telemetry bus: windowed per-server time-series for the cluster control plane.

The engine's :class:`~repro.serving.engine.EngineResult` summarizes a whole
run; control-plane components (autoscalers, per-server ratio policies,
operators reading a timeline) instead need *windowed, per-server* signals
while the run is still in flight.  A :class:`TelemetryBus` attached to a
:class:`~repro.serving.engine.ServingEngine` reads the session's
:class:`~repro.serving.core.BatchLedger` and
:class:`~repro.serving.core.RequestStore` (the engine binds them at
``start()``) and aggregates them into one :class:`WindowStats` cell per
(server, control window).  Nothing is pushed per batch: before any query,
any rewind and the session's end the bus *catches up*, ingesting the rows
written since its cursor in bulk, whichever loop wrote them.

The count schema
----------------
What a cell stores is declared once, on :class:`WindowStats`.  A batch lands
in the window its *start* falls in (its busy seconds sit where the dispatch
decision was made), a drop at its time; a rewind subtracts exactly what the
catch-up added, a cluster window is the sum of its cells, and every reported
value (``utilization``, ``mean_queue_depth``, ``executed_ratio``,
``served_rate``, ``slo_attainment``, ``latencies`` and their percentiles,
``summary()``) is computed from these:

===================  ========  ==============================================
field                unit      added by
===================  ========  ==============================================
``served``           requests  ``catch_up``: batch size
``batches``          batches   ``catch_up``
``busy_time``        seconds   ``catch_up``: finish - start (a rewind
                               leaves the seconds spent before the kill)
``ratio_weight``     requests  ``catch_up``: executed 4-bit ratio x size
``queue_depth_sum``  requests  ``catch_up``: depth when the batch formed
``drops``            requests  ``record_drops`` (the ``CLUSTER`` cell)
``deadline_total``   requests  ``catch_up``, and ``record_drops``: an
                               expired deadline-carrying request is a miss
``deadline_met``     requests  ``catch_up``
``latency_parts``    seconds   ``catch_up``: one sample array per cell,
                               each sample beside its row's id
===================  ========  ==============================================

Scale, fault and alert events share one :meth:`TelemetryBus.timeline`.
Ratio policies reach the bus through
:attr:`repro.serving.policies.PolicyContext.telemetry`; it is opt-in — an
engine without one pays nothing for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.checks import check_positive
from repro.serving.core import check_integer
from repro.serving.metrics import latency_percentile, summarize_latencies

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.core import BatchLedger, BatchRecord, RequestStore
    from repro.serving.resilience import FaultEvent

# Server id used for events not attributable to one server (queue-side drops).
CLUSTER = -1


def fold_rate(forecast: float, rate: float, alpha: float) -> float:
    """One window folded into a served-rate forecast (an EWMA, weight ``alpha``).

    ``rate`` is a :meth:`TelemetryBus.measured_rate` reading: ``nan`` (an
    idle window, no capacity signal) leaves ``forecast`` as it is, and a
    ``nan`` forecast (no history yet) becomes ``rate``.  The forecast
    :class:`~repro.serving.placement.PredictivePlacer` places by.
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
    """An additive field: the catch-up adds to it, rewinds subtract, cells sum."""
    return field(default=zero, metadata={"role": "count"})


class Samples:
    """One sample field of a cell: arrays in event order.

    Each array sits beside the owners a rewind finds its samples by: an
    array holding each sample's row id, or ``None`` (a joined snapshot, a
    hand-built cell).  Two parallel lists, one entry per catch-up that
    reached the cell.
    """

    __slots__ = ("owners", "arrays")

    def __init__(self, arrays: Sequence[np.ndarray] = ()) -> None:
        self.arrays = list(arrays)
        self.owners: List[Optional[np.ndarray]] = [None] * len(self.arrays)

    def add(self, owners: np.ndarray, values: np.ndarray) -> None:
        """Append ``values``, sample ``i`` owned by row ``owners[i]``."""
        self.owners.append(owners)
        self.arrays.append(values)

    def cut(self, owner: int) -> None:
        """Remove the samples of row ``owner`` (it was rewound)."""
        for index in range(len(self.owners) - 1, -1, -1):
            held = self.owners[index]
            if held is not None and (gone := held == owner).any():
                keep = ~gone
                self.owners[index] = held[keep]
                self.arrays[index] = self.arrays[index][keep]
                return

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


def _deadline_hits(due: np.ndarray, finish) -> Tuple[np.ndarray, np.ndarray]:
    """Which requests carry a deadline, and which met it by ``finish``: the
    one deadline rule the catch-up adds by and a rewind subtracts by (nan,
    "no deadline", compares False, so it is neither carried nor met)."""
    return ~np.isnan(due), finish <= due


def _add(cells, name: str, index: np.ndarray, values) -> None:
    """``cells[index[i]].name += values[i]`` for each ``i`` in order, from
    what each cell holds: a float field sums in exactly the order of adding
    each row as it ran (``np.add.at`` is unbuffered and sequential)."""
    held = np.array([getattr(cell, name) for cell in cells])
    np.add.at(held, index, values)
    for cell, value in zip(cells, held.tolist()):
        setattr(cell, name, value)


class TelemetryBus:
    """Windowed per-server aggregation of serving events.

    ``window`` is the control-window length in simulation seconds; the
    module docstring lists what a cell holds and which reader fills it.
    """

    def __init__(self, window: float = 1.0, num_servers: int = 1) -> None:
        self.window = check_positive("window", window)
        self.num_servers = check_integer("num_servers", num_servers, 1)
        self.scale_events: List[ScaleEvent] = []
        self.fault_events: List["FaultEvent"] = []
        self.alert_events: List[object] = []
        self.reset()

    # ------------------------------------------------------------------
    # Reading the session (bound by the engine)
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget every cell and event, and the session being read."""
        self._cells: Dict[Tuple[int, int], WindowStats] = {}
        for log in (self.scale_events, self.fault_events, self.alert_events):
            log.clear()
        # (time, seq, event) for every scale, fault and alert event, seq the
        # application order; timeline() sorts by (time, seq) and caches the
        # result until the next append.
        self._timeline: List[Tuple[float, int, object]] = []
        self._timeline_sorted: Optional[List[object]] = None
        self._last_window = -1
        self._ledger: Optional["BatchLedger"] = None
        self._store: Optional["RequestStore"] = None
        self._cursor = self._peeked = 0

    def bind(
        self,
        ledger: Optional["BatchLedger"] = None,
        store: Optional["RequestStore"] = None,
    ) -> None:
        """Catch up with the session being read, then read ``ledger`` (whose
        riders are slots of ``store``) from its next row on; ``bind()``
        only catches up and lets the session go."""
        self.catch_up()
        self._ledger, self._store = ledger, store
        self._cursor = self._peeked = (
            0 if ledger is None else len(ledger) + ledger.removed
        )

    def catch_up(self) -> None:
        """Ingest the rows the bound ledger gained since the cursor (the
        next row id; row ids only grow).  A rewind must come after it: a row
        cut out of the ledger unread would be subtracted, never added."""
        ledger = self._ledger
        if ledger is None or len(ledger.lists[0]) + ledger.removed == self._cursor:
            return
        ids, starts, finishes, sizes, servers, depths, ratios, slots = ledger.since(
            self._cursor
        )
        self._cursor = len(ledger) + ledger.removed
        windows = (starts / self.window).astype(np.int64)
        codes, row_cell = np.unique((servers << 32) | windows, return_inverse=True)
        cells = [self._cell(code >> 32, code & 0xFFFFFFFF) for code in codes.tolist()]
        _add(cells, "served", row_cell, sizes)
        _add(cells, "batches", row_cell, 1)
        _add(cells, "busy_time", row_cell, finishes - starts)
        _add(cells, "ratio_weight", row_cell, ratios * sizes)
        _add(cells, "queue_depth_sum", row_cell, depths)
        request_cell = np.repeat(row_cell, sizes)
        finishes = np.repeat(finishes, sizes)
        deadlines = self._store.deadlines
        if deadlines is not None:
            carried, met = _deadline_hits(deadlines[slots], finishes)
            _add(cells, "deadline_total", request_cell[carried], 1)
            _add(cells, "deadline_met", request_cell[met], 1)
        # Each cell's samples, in row order: one part per cell.
        order = np.argsort(request_cell, kind="stable")
        ends = np.cumsum(np.bincount(request_cell, minlength=len(cells)))[:-1]
        latencies = (finishes - self._store.arrivals[slots])[order]
        owners = np.repeat(ids, sizes)[order]
        for cell, owned, part in zip(
            cells, np.split(owners, ends), np.split(latencies, ends)
        ):
            cell.latency_parts.add(owned, part)

    def window_index(self, time: float) -> int:
        return int(time / self.window)

    def _cell(self, server: int, window: int) -> WindowStats:
        key = (int(server), int(window))
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = WindowStats(key[0], key[1], self.window)
        if window > self._last_window:
            self._last_window = int(window)
        return cell

    @property
    def last_window(self) -> int:
        """The latest window any cell is in (-1: none yet), unread rows
        included: a peek at each row's start once, not a catch-up, since
        :class:`~repro.serving.placement.PredictivePlacer` reads it often."""
        ledger = self._ledger
        if ledger is not None and len(ledger.lists[0]) + ledger.removed != self._peeked:
            starts = ledger.lists[0][ledger.first_at(self._peeked):]
            self._peeked = len(ledger.lists[0]) + ledger.removed
            if len(starts):
                window = int(max(starts) / self.window)
                self._last_window = max(self._last_window, window)
        return self._last_window

    def unrecord_batch(
        self, record: "BatchRecord", slots: np.ndarray,
        kill_time: Optional[float] = None,
    ) -> None:
        """Subtract a preempted batch (``slots`` rode in it) after a
        catch-up: the exact inverse arithmetic, and the samples held under
        its ``row``.  Busy seconds before ``kill_time`` (wasted work) stay
        accounted, matching the engine's busy-time bill."""
        self.catch_up()
        killed_from = (
            record.start if kill_time is None else max(record.start, kill_time)
        )
        cell = self._cell(record.server, self.window_index(record.start))
        cell.served -= record.size
        cell.batches -= 1
        cell.busy_time -= record.finish - killed_from
        cell.ratio_weight -= record.ratio * record.size
        cell.queue_depth_sum -= record.queue_depth
        deadlines = self._store.deadlines
        if deadlines is not None:
            carried, met = _deadline_hits(deadlines[slots], record.finish)
            cell.deadline_total -= int(np.count_nonzero(carried))
            cell.deadline_met -= int(np.count_nonzero(met))
        cell.latency_parts.cut(record.row)

    def record_drops(self, time: float, slots: np.ndarray) -> None:
        """Account the bound store's requests ``slots``, expired at ``time``
        (queue-side, not owned by any server): each deadline it carried is
        a miss."""
        cell = self._cell(CLUSTER, self.window_index(time))
        cell.drops += len(slots)
        deadlines = self._store.deadlines
        if deadlines is not None:
            carried, _ = _deadline_hits(deadlines[slots], time)
            cell.deadline_total += int(np.count_nonzero(carried))

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
    # Queries
    # ------------------------------------------------------------------
    def server_window(self, server: int, window: int) -> ServerWindowStats:
        """Stats of one server over one window (zeros when nothing happened)."""
        self.catch_up()
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
        self.catch_up()
        cell = self._cells.get((int(server), int(window)))
        if cell is None or cell.busy_time <= 0:
            return float("nan")
        return cell.served / cell.busy_time

    def mean_depth(self, server: int, window: int) -> float:
        """Mean queue depth observed at one server's batch formations.

        0.0 for windows without batches (no congestion signal is no
        congestion).  Cheap like :meth:`measured_rate`.
        """
        self.catch_up()
        cell = self._cells.get((int(server), int(window)))
        return 0.0 if cell is None else cell.mean_queue_depth

    def served_rate(self, server: int, window: int) -> float:
        """Requests/second one server actually served during a window.

        The load signal per-server adaptive ratio controllers read (a
        global rate cannot tell a hot server from an idle one).  Cheap like
        :meth:`measured_rate`.
        """
        self.catch_up()
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
        self.catch_up()
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
