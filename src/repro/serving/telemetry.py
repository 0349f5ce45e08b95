"""Telemetry bus: windowed per-server time-series for the cluster control plane.

The engine's :class:`~repro.serving.engine.EngineResult` summarizes a whole
run; control-plane components (autoscalers, per-server ratio policies,
operators reading a timeline) instead need *windowed, per-server* signals
while the run is still in flight.  A :class:`TelemetryBus` attached to a
:class:`~repro.serving.engine.ServingEngine` receives one event per executed
batch and per drop, aggregates them into fixed control windows, and answers
queries per server, per window, or cluster-wide:

* **queue depth** — mean depth observed when batches formed in the window;
* **utilization** — accumulated busy seconds (attributed to the window the
  batch *started* in) over the window length;
* **executed ratio** — batch-size-weighted 4-bit ratio that actually ran;
* **SLO attainment** — deadline-carrying requests finishing in time (drops
  with deadlines count as misses), via :func:`repro.serving.metrics.
  slo_attainment` semantics;
* **drops** — requests expired by ``drop_after``;
* **latencies** — raw response times of the window, for percentile queries
  built on :func:`repro.serving.metrics.latency_percentiles`.

Scale events (:class:`ScaleEvent`) are appended to the same timeline so a
run's elasticity decisions are auditable next to the signals that caused
them; applied fault injections
(:class:`~repro.serving.resilience.FaultEvent`) land in ``fault_events``
the same way, so a crash/slowdown/recovery is auditable next to the windows
it disturbed.  A preempted (migrated) batch is *un*-recorded exactly
(:meth:`TelemetryBus.unrecord_batch`), so windowed series never count work
a failed server did not actually complete.  Ratio policies reach the bus through
:attr:`repro.serving.policies.PolicyContext.telemetry`, which is how the
per-server :class:`~repro.serving.policies.PerServerAdaptiveRatioPolicy`
finally observes per-server rates instead of global window rates.

The bus is opt-in: an engine without one skips every hook, keeping the
seed-identical fast path untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.serving.core import check_positive
from repro.serving.metrics import latency_percentile, summarize_latencies

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.engine import BatchRecord
    from repro.serving.resilience import FaultEvent

# Server id used for events not attributable to one server (queue-side drops).
CLUSTER = -1


@dataclass
class ScaleEvent:
    """One elasticity decision applied at a window boundary."""

    time: float
    action: str              # "add" | "remove" | "promote" | "demote"
    server: int              # server id activated / deactivated
    active_after: int        # cluster size after the event
    reason: str = ""


@dataclass
class _WindowCell:
    """Mutable per-(server, window) accumulator."""

    served: int = 0
    batches: int = 0
    busy: float = 0.0
    ratio_weight: float = 0.0
    queue_depth_sum: int = 0
    drops: int = 0
    deadline_total: int = 0
    deadline_met: int = 0
    latencies: List[float] = field(default_factory=list)
    # Bulk-ingested latency chunks (one array per ingest, batch order
    # preserved): the columnar fast path groups a whole run's latencies
    # per cell in one vectorized pass instead of extending a float list
    # per batch.  Queries concatenate list + chunks.
    latency_chunks: List[np.ndarray] = field(default_factory=list)
    # Streaming-generation signals (zero for one-shot workloads): generated
    # tokens emitted in the window and the TTFT samples of sequences whose
    # first token landed in it (see record_tokens).
    tokens: int = 0
    ttft: List[float] = field(default_factory=list)


@dataclass
class ServerWindowStats:
    """Read-only snapshot of one server over one control window."""

    server: int
    window: int
    start: float
    end: float
    served: int = 0
    batches: int = 0
    busy_time: float = 0.0
    utilization: float = 0.0
    mean_queue_depth: float = 0.0
    executed_ratio: float = float("nan")
    drops: int = 0
    deadline_total: int = 0
    deadline_met: int = 0
    latencies: np.ndarray = field(default_factory=lambda: np.zeros(0))
    tokens: int = 0
    ttft: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def served_rate(self) -> float:
        """Requests served per second of window time."""
        span = self.end - self.start
        return self.served / span if span > 0 else 0.0

    @property
    def tokens_per_sec(self) -> float:
        """Generated tokens per second of window time (0.0 for one-shot)."""
        span = self.end - self.start
        return self.tokens / span if span > 0 else 0.0

    def ttft_percentile(self, percentile: float) -> float:
        """TTFT percentile of sequences whose first token landed here."""
        return latency_percentile(self.ttft, percentile)

    @property
    def slo_attainment(self) -> float:
        """Fraction of deadline-carrying requests served in time (nan if none)."""
        if self.deadline_total == 0:
            return float("nan")
        return self.deadline_met / self.deadline_total

    def latency_percentile(self, percentile: float) -> float:
        return latency_percentile(self.latencies, percentile)

    def summary(self) -> Dict[str, float]:
        return summarize_latencies(self.latencies)


@dataclass
class ClusterWindowStats(ServerWindowStats):
    """One window aggregated across the whole cluster (server == CLUSTER)."""

    active_servers: int = 0


class TelemetryBus:
    """Windowed per-server aggregation of serving events.

    ``window`` is the control-window length in simulation seconds.  Events
    are attributed to the window their timestamp falls in (batches by their
    *start* time, so a long batch's busy seconds land where the dispatch
    decision was made).
    """

    def __init__(self, window: float = 1.0, num_servers: int = 1) -> None:
        self.window = check_positive("window", window)
        self.num_servers = int(num_servers)
        self._cells: Dict[Tuple[int, int], _WindowCell] = {}
        self.scale_events: List[ScaleEvent] = []
        self.fault_events: List["FaultEvent"] = []
        self.alert_events: List[object] = []
        # Unified event timeline: (time, seq, event) for every scale *and*
        # fault event, in application order (seq).  timeline() sorts by
        # (time, seq), so interleaved events come back in deterministic
        # time order even when a fault's strike time precedes the boundary
        # a scale decision was stamped with.
        self._timeline: List[Tuple[float, int, object]] = []
        # Sorted-timeline cache with dirty-flag invalidation: appends mark
        # it stale, timeline() re-sorts at most once per batch of appends.
        self._timeline_sorted: Optional[List[object]] = None
        self.last_window = -1

    # ------------------------------------------------------------------
    # Recording (called by the engine / control plane)
    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._cells.clear()
        self.scale_events.clear()
        self.fault_events.clear()
        self.alert_events.clear()
        self._timeline.clear()
        self._timeline_sorted = None
        self.last_window = -1

    def window_index(self, time: float) -> int:
        return int(time / self.window)

    def _cell(self, server: int, window: int) -> _WindowCell:
        key = (int(server), int(window))
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = _WindowCell()
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
        cell = self._cell(record.server, self.window_index(record.start))
        cell.served += record.size
        cell.batches += 1
        cell.busy += record.finish - record.start
        cell.ratio_weight += record.ratio * record.size
        cell.queue_depth_sum += int(queue_depth)
        cell.deadline_total += int(deadline_total)
        cell.deadline_met += int(deadline_met)
        if latencies is not None:
            cell.latencies.extend(latencies.tolist())

    def unrecord_batch(
        self,
        record: "BatchRecord",
        latencies: Optional[np.ndarray] = None,
        deadline_total: int = 0,
        deadline_met: int = 0,
        kill_time: Optional[float] = None,
    ) -> None:
        """Reverse one :meth:`record_batch` (the batch was preempted).

        A crashed server's unfinished batch was already accounted when it
        was (optimistically) executed; migration rewinds the engine state,
        and this hook rewinds the telemetry cell with the exact inverse
        arithmetic — the queue depth comes from the record itself
        (``BatchRecord.queue_depth``), latencies are removed by value.
        ``kill_time`` is the preemption instant: busy seconds the server
        really spent before it ([start, kill_time), wasted work) stay
        accounted, matching the engine's busy-time bill.
        """
        cell = self._cell(record.server, self.window_index(record.start))
        cell.served -= record.size
        cell.batches -= 1
        killed_from = (
            record.start if kill_time is None else max(record.start, kill_time)
        )
        cell.busy -= record.finish - killed_from
        cell.ratio_weight -= record.ratio * record.size
        cell.queue_depth_sum -= int(record.queue_depth)
        cell.deadline_total -= int(deadline_total)
        cell.deadline_met -= int(deadline_met)
        if latencies is not None:
            # Remove-by-value needs the raw list: fold bulk-ingested chunks
            # back in first (rare path — preemption after a columnar run).
            if cell.latency_chunks:
                for chunk in cell.latency_chunks:
                    cell.latencies.extend(chunk.tolist())
                cell.latency_chunks.clear()
            for value in latencies:
                try:
                    cell.latencies.remove(float(value))
                except ValueError:
                    pass  # never recorded (bus attached mid-run)

    def record_tokens(
        self,
        server: int,
        time: float,
        tokens: int,
        ttfts: Sequence[float] = (),
    ) -> None:
        """Account generated tokens (iteration-scheduler hook).

        ``time`` is the iteration start (the same attribution rule as
        batches); ``tokens`` the tokens it emitted (prefill first tokens +
        decode tokens); ``ttfts`` the TTFT samples of sequences whose first
        token it produced.  One-shot engines never call this, so the
        signals stay zero unless a generation loop is running.
        """
        cell = self._cell(server, self.window_index(time))
        cell.tokens += int(tokens)
        cell.ttft.extend(float(value) for value in ttfts)

    def unrecord_tokens(
        self,
        server: int,
        time: float,
        tokens: int,
        ttfts: Sequence[float] = (),
    ) -> None:
        """Reverse one :meth:`record_tokens` (the iteration was preempted)."""
        cell = self._cell(server, self.window_index(time))
        cell.tokens -= int(tokens)
        for value in ttfts:
            try:
                cell.ttft.remove(float(value))
            except ValueError:
                pass  # never recorded (bus attached mid-run)

    def token_rate(self, server: int, window: int) -> float:
        """Generated tokens/second one server sustained during a window.

        The decode-pressure signal for ratio policies and autoscalers; 0.0
        for windows without token traffic (one-shot workloads included).
        Cheap like :meth:`measured_rate` — no arrays are materialized.
        """
        if window < 0:
            return 0.0
        cell = self._cells.get((int(server), int(window)))
        if cell is None or cell.tokens <= 0:
            return 0.0
        return cell.tokens / self.window

    def record_drops(
        self, time: float, count: int, deadline_misses: int = 0
    ) -> None:
        """Account expired requests (queue-side, not owned by any server)."""
        cell = self._cell(CLUSTER, self.window_index(time))
        cell.drops += int(count)
        cell.deadline_total += int(deadline_misses)

    def record_scale_event(self, event: ScaleEvent) -> None:
        self.scale_events.append(event)
        self._timeline.append((float(event.time), len(self._timeline), event))
        self._timeline_sorted = None

    def record_fault_event(self, event: "FaultEvent") -> None:
        """Append one applied fault injection to the run timeline."""
        self.fault_events.append(event)
        self._timeline.append((float(event.time), len(self._timeline), event))
        self._timeline_sorted = None

    def record_alert_event(self, event: object) -> None:
        """Append one SLO burn-rate alert to the run timeline.

        ``event`` is an :class:`repro.obs.slo.AlertEvent` (duck-typed here
        so the serving layer stays import-free of ``repro.obs``); it lands
        next to scale/fault events in :meth:`timeline`.
        """
        self.alert_events.append(event)
        self._timeline.append((float(event.time), len(self._timeline), event))
        self._timeline_sorted = None

    def timeline(self) -> List[object]:
        """Every scale, fault *and* alert event, in deterministic time order.

        Sorted by ``(time, application order)``: a fault whose strike time
        precedes a window boundary sorts before the scale decision stamped
        at the boundary, and same-instant events keep the order the control
        plane applied them in — so two runs of the same deterministic
        workload return the identical interleaving.  The sorted view is
        cached and invalidated on append, so per-window polling loops pay
        O(events) per call instead of O(events log events).

        Cache-invalidation audit (PR 8 cache vs PR 5/7 rewind paths): the
        only mutators of ``_timeline`` are the three ``record_*_event``
        appends above, each of which clears ``_timeline_sorted``.  The
        preemption rewind paths — :meth:`unrecord_batch` and
        :meth:`unrecord_tokens` — mutate per-(server, window) cells only
        and never touch the timeline, so a cached sorted view stays valid
        across any number of rewinds by construction; events themselves
        are immutable records that are never retracted.  Pinned by
        regression tests in ``tests/test_observability.py``.
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
        *,
        ratio: float,
        starts: np.ndarray,
        finishes: np.ndarray,
        sizes: np.ndarray,
        servers: np.ndarray,
        queue_depths: np.ndarray,
        latencies: Optional[np.ndarray] = None,
        deadline_flags: Optional[np.ndarray] = None,
        deadline_met: Optional[np.ndarray] = None,
        drop_times: Optional[np.ndarray] = None,
        drop_counts: Optional[np.ndarray] = None,
        drop_misses: Optional[np.ndarray] = None,
    ) -> None:
        """Bulk-ingest a columnar run into the same cells the hooks fill.

        Equivalent to :meth:`record_batch` once per batch in chronological
        order followed by :meth:`record_drops` per drop cohort: integer
        counters sum exactly; float accumulators (busy seconds, ratio
        weight) accumulate in the identical left-to-right order
        (``np.bincount`` sums its input sequentially), so the per-cell
        float sums are bit-identical to the per-event hooks; per-request
        ``latencies`` (aligned with ``repeat(batch, sizes)``) group into
        per-cell chunks preserving batch order.  ``deadline_flags`` /
        ``deadline_met`` are per-request booleans (deadline-carrying, met).
        """
        starts = np.asarray(starts, dtype=np.float64)
        nbatches = starts.size
        if nbatches:
            sizes = np.asarray(sizes, dtype=np.int64)
            finishes = np.asarray(finishes, dtype=np.float64)
            servers_col = np.asarray(servers, dtype=np.int64)
            depths = np.asarray(queue_depths, dtype=np.int64)
            windows = (starts / self.window).astype(np.int64)
            codes = (servers_col << 32) | windows
            uniq, inverse = np.unique(codes, return_inverse=True)
            nbins = len(uniq)
            served = np.bincount(inverse, weights=sizes, minlength=nbins)
            batch_counts = np.bincount(inverse, minlength=nbins)
            busy = np.bincount(inverse, weights=finishes - starts, minlength=nbins)
            ratio_weight = np.bincount(
                inverse, weights=float(ratio) * sizes.astype(np.float64),
                minlength=nbins,
            )
            depth_sums = np.bincount(inverse, weights=depths, minlength=nbins)
            req_cell = None
            if latencies is not None or deadline_flags is not None:
                req_cell = np.repeat(inverse, sizes)
            if deadline_flags is not None:
                dtotals = np.bincount(
                    req_cell, weights=deadline_flags, minlength=nbins
                )
                dmets = np.bincount(req_cell, weights=deadline_met, minlength=nbins)
            chunks: List[Optional[np.ndarray]] = [None] * nbins
            if latencies is not None:
                lat = np.asarray(latencies, dtype=np.float64)
                order = np.argsort(req_cell, kind="stable")
                sorted_lat = lat[order]
                counts = np.bincount(req_cell, minlength=nbins)
                offsets = np.zeros(nbins + 1, dtype=np.int64)
                np.cumsum(counts, out=offsets[1:])
                for b in range(nbins):
                    chunks[b] = sorted_lat[offsets[b]:offsets[b + 1]]
            for b, code in enumerate(uniq.tolist()):
                server = code >> 32
                window = code & 0xFFFFFFFF
                cell = self._cell(server, window)
                cell.served += int(served[b])
                cell.batches += int(batch_counts[b])
                cell.busy += float(busy[b])
                cell.ratio_weight += float(ratio_weight[b])
                cell.queue_depth_sum += int(depth_sums[b])
                if deadline_flags is not None:
                    cell.deadline_total += int(dtotals[b])
                    cell.deadline_met += int(dmets[b])
                chunk = chunks[b]
                if chunk is not None and chunk.size:
                    cell.latency_chunks.append(chunk)
        if drop_times is not None and len(drop_times):
            drop_windows = (
                np.asarray(drop_times, dtype=np.float64) / self.window
            ).astype(np.int64)
            uniq_d, inverse_d = np.unique(drop_windows, return_inverse=True)
            counts_d = np.bincount(
                inverse_d, weights=np.asarray(drop_counts, dtype=np.float64),
                minlength=len(uniq_d),
            )
            if drop_misses is not None:
                misses_d = np.bincount(
                    inverse_d, weights=np.asarray(drop_misses, dtype=np.float64),
                    minlength=len(uniq_d),
                )
            for b, window in enumerate(uniq_d.tolist()):
                cell = self._cell(CLUSTER, window)
                cell.drops += int(counts_d[b])
                if drop_misses is not None:
                    cell.deadline_total += int(misses_d[b])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _stats_from(
        self, cell: _WindowCell, server: int, window: int
    ) -> ServerWindowStats:
        ratio = (
            cell.ratio_weight / cell.served if cell.served > 0 else float("nan")
        )
        depth = (
            cell.queue_depth_sum / cell.batches if cell.batches > 0 else 0.0
        )
        if cell.latency_chunks:
            parts: List[np.ndarray] = []
            if cell.latencies:
                parts.append(np.asarray(cell.latencies, dtype=np.float64))
            parts.extend(cell.latency_chunks)
            latencies = parts[0] if len(parts) == 1 else np.concatenate(parts)
        else:
            latencies = np.asarray(cell.latencies, dtype=np.float64)
        return ServerWindowStats(
            server=server,
            window=window,
            start=window * self.window,
            end=(window + 1) * self.window,
            served=cell.served,
            batches=cell.batches,
            busy_time=cell.busy,
            utilization=cell.busy / self.window,
            mean_queue_depth=depth,
            executed_ratio=ratio,
            drops=cell.drops,
            deadline_total=cell.deadline_total,
            deadline_met=cell.deadline_met,
            latencies=latencies,
            tokens=cell.tokens,
            ttft=np.asarray(cell.ttft, dtype=np.float64),
        )

    def server_window(self, server: int, window: int) -> ServerWindowStats:
        """Stats of one server over one window (zeros when nothing happened)."""
        cell = self._cells.get((int(server), int(window)), _WindowCell())
        return self._stats_from(cell, int(server), int(window))

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
        batch in the window.  A cheap cell read — no latency arrays are
        materialized — so placers may call it per batch
        (:class:`~repro.serving.placement.PredictivePlacer` does).
        """
        cell = self._cells.get((int(server), int(window)))
        if cell is None or cell.busy <= 0:
            return float("nan")
        return cell.served / cell.busy

    def mean_depth(self, server: int, window: int) -> float:
        """Mean queue depth observed at one server's batch formations.

        0.0 for windows without batches (no congestion signal is no
        congestion).  Cheap like :meth:`measured_rate`.
        """
        cell = self._cells.get((int(server), int(window)))
        if cell is None or cell.batches <= 0:
            return 0.0
        return cell.queue_depth_sum / cell.batches

    def served_rate(self, server: int, window: int) -> float:
        """Requests/second one server actually served during a window.

        The per-server load signal the cluster control plane feeds to
        per-server adaptive ratio controllers (the global-rate signal the
        seed controller consumed cannot distinguish a hot server from an
        idle one).
        """
        if window < 0:
            return 0.0
        return self.server_window(server, window).served_rate

    def cluster_window(
        self, window: int, active_servers: Optional[Sequence[int]] = None
    ) -> ClusterWindowStats:
        """One window aggregated across servers (plus queue-side drops).

        ``active_servers`` scopes utilization to the servers that were
        actually available (idle *inactive* servers should not dilute it);
        when omitted, all ``num_servers`` are assumed active.
        """
        window = int(window)
        active = (
            list(range(self.num_servers))
            if active_servers is None
            else [int(s) for s in active_servers]
        )
        merged = _WindowCell()
        for server in list(range(self.num_servers)) + [CLUSTER]:
            cell = self._cells.get((server, window))
            if cell is None:
                continue
            merged.served += cell.served
            merged.batches += cell.batches
            merged.ratio_weight += cell.ratio_weight
            merged.queue_depth_sum += cell.queue_depth_sum
            merged.drops += cell.drops
            merged.deadline_total += cell.deadline_total
            merged.deadline_met += cell.deadline_met
            merged.latencies.extend(cell.latencies)
            merged.latency_chunks.extend(cell.latency_chunks)
            merged.tokens += cell.tokens
            merged.ttft.extend(cell.ttft)
            if server in active:
                merged.busy += cell.busy
        stats = self._stats_from(merged, CLUSTER, window)
        busy_capacity = max(len(active), 1) * self.window
        return ClusterWindowStats(
            server=CLUSTER,
            window=window,
            start=stats.start,
            end=stats.end,
            served=stats.served,
            batches=stats.batches,
            busy_time=stats.busy_time,
            utilization=merged.busy / busy_capacity,
            mean_queue_depth=stats.mean_queue_depth,
            executed_ratio=stats.executed_ratio,
            drops=stats.drops,
            deadline_total=stats.deadline_total,
            deadline_met=stats.deadline_met,
            latencies=stats.latencies,
            tokens=stats.tokens,
            ttft=stats.ttft,
            active_servers=len(active),
        )

    def cluster_series(self) -> List[ClusterWindowStats]:
        return [
            self.cluster_window(window) for window in range(self.last_window + 1)
        ]
