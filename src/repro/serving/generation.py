"""Iteration-level scheduling for autoregressive generation (continuous batching).

The one-shot engine (:mod:`repro.serving.engine`) admits a batch once and
runs it to completion — the right model for classification, the wrong one
for token-by-token generation, where a batch member that finishes early
leaves its slot padded until the *longest* member completes and a newly
arrived prompt waits out the whole batch before its first token.  This
module adds the vLLM/Orca-style alternative: an :class:`IterationScheduler`
whose scheduling quantum is one *decode iteration*, not one batch.  At
every iteration boundary finished sequences retire from the running batch
and queued requests join it (continuous batching), under a pluggable
:class:`AdmissionPolicy`:

* :class:`FcfsAdmission` — join in queue order (discipline key, then
  arrival, then slot: the engine's queue order);
* :class:`PrefillPriorityAdmission` — shortest prompt first, minimizing
  the prefill time the running batch stalls for (TTFT-greedy);
* :class:`TokenBudgetAdmission` — cap the batch's token footprint
  (prompt + generated tokens per sequence), the KV-cache-bound regime.

The iteration loop costs O(running batch + queue depth) per iteration,
whatever the length of the trace.  A sequence that has not reached its
ready time sits on a heap of ``(ready, slot)`` pairs; each
iteration pops the heads with ``ready <= start`` into the *arrived queue*,
which is kept sorted on ``(discipline key, arrival, slot)`` and handed to the
admission policy as it stands.  A session holds its requests as one
:class:`~repro.serving.core.RequestStore`: every discipline key comes from one
:meth:`~repro.serving.schedulers.Scheduler.keys` call at :meth:`IterationScheduler.
start`, and deadlines are read from the store's column (``nan``: none).
Joiners leave the queue, migrants go back on the heap at their new
ready time, and the next iteration is the earliest over the server clocks,
the queue and the heap's head.  The specification this is tested against
is the naive one: scan every waiting sequence, keep ``ready <= start``,
sort (``tests/test_serving_generation.py``).

Requests opt in through the :class:`~repro.serving.engine.Request`
generation profile: ``prefill_tokens`` (prompt length) and
``max_new_tokens`` (tokens to generate, counting the one the prefill
emits — ``max_new_tokens=1`` is a prefill-only request with zero decode
steps).  Costs come from a :class:`GenerationBackend`:
:class:`ModeledGenerationBackend` uses the
:class:`~repro.serving.simulator.ServiceTimeModel` prefill/decode split
(prefill scales with prompt tokens, decode with batch width per step);
:class:`RuntimeGenerationBackend` drives real prepared-kernel forwards
through :meth:`~repro.serving.executors.RuntimeExecutor.execute_step`, so
the same loop runs against measured wall-clock step latencies — and a
per-step ratio change stays an O(1) prepared-kernel variable update.

Ratio policies see a :class:`~repro.serving.policies.GenerationStepContext`
on every iteration (via ``PolicyContext.generation``), so precision can
switch *mid-sequence* in response to decode pressure (see
:class:`~repro.serving.policies.DecodePressureRatioPolicy`).  A
:class:`~repro.serving.telemetry.TelemetryBus` receives one
:meth:`~repro.serving.telemetry.TelemetryBus.record_batch` per iteration,
its tokens and TTFT samples included, giving placers and autoscalers
windowed tokens/sec and TTFT signals.

Resilience composes: :meth:`IterationScheduler.preempt_server` rewinds the
killed server's in-flight iteration exactly (tokens from *completed*
iterations are natural checkpoints and always survive) and requeues its
sequences with their generated-token progress; a
:class:`~repro.serving.resilience.StepCheckpoint` optionally salvages
partial prefill work from the killed iteration and prices the state
transfer each migrant pays before resuming elsewhere.

:func:`run_to_completion` is the static baseline the headline comparison
runs against: admit-once FIFO batches, full-width padded decode until the
longest member finishes — the classic inefficiency continuous batching
removes (see ``examples/continuous_batching.py``).
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

from repro.data.traces import RequestTrace
from repro.serving.core import (
    RequestStore,
    check_arrivals,
    check_integer,
    check_positive,
)
from repro.serving.engine import Batch, Request
from repro.serving.metrics import streaming_summary
from repro.serving.policies import (
    FixedRatioPolicy,
    GenerationStepContext,
    PolicyContext,
)
from repro.serving.resilience import checkpointed_fraction
from repro.serving.schedulers import FifoScheduler, Scheduler


# ----------------------------------------------------------------------
# Sequence state
# ----------------------------------------------------------------------
@dataclass(slots=True)
class SequenceState:
    """One generating request's progress through the iteration loop.

    ``generated`` counts emitted tokens (the prefill's first token
    included); ``token_times`` timestamps each of them.
    ``prefill_progress`` is the fraction of the prefill already done (> 0
    only for checkpoint-salvaged migrants); ``ready`` gates re-admission
    after a migration (fresh sequences are ready at arrival).
    """

    request: Request
    slot: int
    arrival: float
    prompt_tokens: int
    max_new_tokens: int
    ready: float
    generated: int = 0
    prefill_progress: float = 0.0
    token_times: List[float] = field(default_factory=list)
    migrations: int = 0
    server: int = -1
    finish_time: Optional[float] = None

    @property
    def footprint(self) -> int:
        """Token footprint in the running batch (prompt + generated)."""
        return self.prompt_tokens + self.generated


# ----------------------------------------------------------------------
# Admission policies (who joins the running batch at a boundary)
# ----------------------------------------------------------------------
class AdmissionPolicy(Protocol):
    """Picks which waiting sequences join the running batch this iteration.

    ``waiting`` is the arrived-and-ready queue in admission order
    (discipline key, arrival, slot); ``running`` the current batch
    members; ``slots`` the free batch slots.  Return at most ``slots``
    members of ``waiting``; the returned *order* is the prefill order.
    When the running batch is empty and nothing is admitted, the
    scheduler force-admits the queue head (a starving server serves at
    least the sequence that woke it, mirroring the engine's batch rule).
    """

    def admit(
        self,
        waiting: Sequence[SequenceState],
        running: Sequence[SequenceState],
        slots: int,
    ) -> Sequence[SequenceState]:
        ...


class FcfsAdmission:
    """Join in queue order: the first ``slots`` waiting sequences."""

    def admit(
        self,
        waiting: Sequence[SequenceState],
        running: Sequence[SequenceState],
        slots: int,
    ) -> Sequence[SequenceState]:
        return list(waiting[:slots])


class PrefillPriorityAdmission:
    """Shortest prompt joins (and prefills) first.

    Prefills stall the whole running batch, so admitting the cheapest
    prompts first bounds the stall each boundary adds — the TTFT-greedy
    discipline.  Queue position breaks prompt-length ties, so equal
    prompts keep FIFO fairness.
    """

    def admit(
        self,
        waiting: Sequence[SequenceState],
        running: Sequence[SequenceState],
        slots: int,
    ) -> Sequence[SequenceState]:
        if slots <= 0:
            return []
        ranked = heapq.nsmallest(
            int(slots),
            range(len(waiting)),
            key=lambda i: (waiting[i].prompt_tokens, i),
        )
        return [waiting[i] for i in ranked]


class TokenBudgetAdmission:
    """Cap the running batch's token footprint at ``budget_tokens``.

    The KV-cache-bound regime: every running sequence occupies
    ``prompt_tokens + generated`` tokens of state, and a joiner is
    admitted only while the batch's total footprint (with the joiner's
    prompt plus its first token) stays within budget.  Admission stops at
    the first candidate that does not fit (head-blocking, preserving the
    inner ordering's fairness).  ``within`` supplies the candidate order —
    FCFS by default, composable with :class:`PrefillPriorityAdmission`.
    The scheduler's force-admit still applies: a prompt larger than the
    whole budget serves alone rather than starving forever.
    """

    def __init__(
        self, budget_tokens: int, within: Optional[AdmissionPolicy] = None
    ) -> None:
        if budget_tokens < 1:
            raise ValueError("budget_tokens must be >= 1")
        self.budget_tokens = int(budget_tokens)
        self.within = within if within is not None else FcfsAdmission()

    def admit(
        self,
        waiting: Sequence[SequenceState],
        running: Sequence[SequenceState],
        slots: int,
    ) -> Sequence[SequenceState]:
        ordered = self.within.admit(waiting, running, slots)
        in_flight = sum(seq.footprint for seq in running)
        chosen: List[SequenceState] = []
        for seq in ordered:
            cost = seq.prompt_tokens + max(1, seq.generated)
            if in_flight + cost > self.budget_tokens:
                break
            in_flight += cost
            chosen.append(seq)
        return chosen


# ----------------------------------------------------------------------
# Generation backends (what one iteration costs)
# ----------------------------------------------------------------------
class GenerationBackend(Protocol):
    """Cost model of the two generation phases, per server."""

    def prefill_seconds(self, prompt_tokens: int, mode: str, ratio: float) -> float:
        """Seconds to prefill one ``prompt_tokens``-token prompt."""
        ...

    def decode_seconds(self, width: int, mode: str, ratio: float) -> float:
        """Seconds for one decode step over ``width`` live sequences."""
        ...


class ModeledGenerationBackend:
    """Analytic prefill/decode costs from a :class:`ServiceTimeModel`."""

    def __init__(self, service_model) -> None:
        self.service_model = service_model

    def prefill_seconds(self, prompt_tokens: int, mode: str, ratio: float) -> float:
        return self.service_model.prefill_latency(prompt_tokens, mode, ratio)

    def decode_seconds(self, width: int, mode: str, ratio: float) -> float:
        return self.service_model.decode_latency(width, mode, ratio)


class RuntimeGenerationBackend:
    """Measured step costs from real prepared-kernel forwards.

    Maps generation phases onto the
    :meth:`~repro.serving.executors.RuntimeExecutor.execute_step` hook: a
    prefill is one stacked forward of ``ceil(prompt_tokens /
    tokens_per_forward)`` samples (prompt tokens processed in parallel), a
    decode step one forward at the batch width (one token-equivalent
    sample per live sequence).  The executor needs a ``default_input``
    (one sample to replicate).  Per-step ratio changes flow through the
    prepared runtime's O(1) ``set_ratio`` — observable via the executor's
    ``ratio_switches``/``steps_executed`` counters.
    """

    def __init__(self, executor, tokens_per_forward: int = 64) -> None:
        if tokens_per_forward < 1:
            raise ValueError("tokens_per_forward must be >= 1")
        self.executor = executor
        self.tokens_per_forward = int(tokens_per_forward)

    def _step(self, size: int, mode: str, ratio: float) -> float:
        batch = Batch(
            model="generation",
            start_time=0.0,
            size=int(size),
            indices=np.arange(int(size), dtype=np.intp),
        )
        return float(self.executor.execute_step(batch, mode, ratio).service_time)

    def prefill_seconds(self, prompt_tokens: int, mode: str, ratio: float) -> float:
        if prompt_tokens <= 0:
            return 0.0
        size = -(-int(prompt_tokens) // self.tokens_per_forward)
        return self._step(size, mode, ratio)

    def decode_seconds(self, width: int, mode: str, ratio: float) -> float:
        if width <= 0:
            return 0.0
        return self._step(width, mode, ratio)


# ----------------------------------------------------------------------
# Records, responses, results
# ----------------------------------------------------------------------
@dataclass
class IterationRecord:
    """One executed iteration: prefills + one decode step on one server.

    Field-compatible with :class:`~repro.serving.engine.BatchRecord` where
    telemetry reads it (``start``/``finish``/``size``/``ratio``/``server``/
    ``queue_depth``), so iteration events flow through the same
    :class:`~repro.serving.telemetry.TelemetryBus` hooks as batches.
    ``size`` counts sequence-iterations (prefills + decode width — a
    joiner that prefills and decodes counts in both).  ``row`` is what
    telemetry and the tracer know the iteration by, as for a batch: the count
    of iterations the session started before it (a rewind reuses none).
    """

    model: str
    start: float
    finish: float
    size: int
    ratio: float
    mode: str
    server: int = 0
    queue_depth: int = 0
    iteration: int = 0
    prefills: int = 0
    decode_width: int = 0
    tokens: int = 0
    row: int = -1


@dataclass
class GenerationResponse:
    """Outcome of one generating request: its full token-time stream."""

    request_id: int
    model: str
    arrival_time: float
    prompt_tokens: int
    max_new_tokens: int
    token_times: List[float]
    finish_time: float
    server: int = 0
    migrations: int = 0

    @property
    def tokens(self) -> int:
        return len(self.token_times)

    @property
    def ttft(self) -> float:
        """Time to first token (``nan`` if none was emitted)."""
        if not self.token_times:
            return float("nan")
        return self.token_times[0] - self.arrival_time

    @property
    def latency(self) -> float:
        """Arrival to last token (``nan`` while unfinished)."""
        return self.finish_time - self.arrival_time

    @property
    def finished(self) -> bool:
        return len(self.token_times) >= self.max_new_tokens


@dataclass
class GenerationPreemption:
    """Report of one :meth:`IterationScheduler.preempt_server` call."""

    iterations: int
    migrated: int


@dataclass
class GenerationResult:
    """Outcome of one generation run (continuous or run-to-completion)."""

    responses: List[GenerationResponse]
    iterations: List[IterationRecord]
    duration: float
    server_busy_times: List[float]
    migrated: int = 0

    @property
    def busy_time(self) -> float:
        return float(sum(self.server_busy_times))

    @property
    def tokens(self) -> int:
        return sum(response.tokens for response in self.responses)

    @property
    def tokens_per_sec(self) -> float:
        """Generated tokens per second of run duration."""
        if self.duration <= 0:
            return 0.0
        return self.tokens / self.duration

    def streaming(self, percentiles: Sequence[float] = (50, 99)) -> Dict[str, float]:
        """TTFT / inter-token percentiles + token throughput of the run."""
        return streaming_summary(
            [response.token_times for response in self.responses],
            [response.arrival_time for response in self.responses],
            duration=self.duration,
            percentiles=percentiles,
        )

    def ttft_percentile(self, percentile: float) -> float:
        return self.streaming((percentile,))[f"ttft_p{percentile:g}"]


def _check_arrivals(requests: Sequence[Request]) -> None:
    """Refuse a NaN/inf arrival: it sorts anywhere and is never ready."""
    check_arrivals([request.arrival_time for request in requests])


def _generation_profile(request: Request) -> Tuple[int, int]:
    """``(prompt tokens, max_new_tokens)`` of one request, or ``ValueError``.

    Both are whole numbers; the prompt may be empty and at least one token
    is generated (``max_new_tokens=1`` is prefill-only).
    """
    return (
        check_integer("prefill_tokens", request.prefill_tokens, 0),
        check_integer("max_new_tokens", request.max_new_tokens, 1),
    )


# ----------------------------------------------------------------------
# Session state
# ----------------------------------------------------------------------
@dataclass
class _IterationUndo:
    """Exact inverse of one iteration (for preemption rewind)."""

    record: IterationRecord
    free_at: float  # the server's clock before the iteration
    prefilled: List[Tuple[int, float]]  # (slot, prior prefill_progress)
    decoded: List[int]
    retired: List[int]
    ttfts: List[float]
    latencies: List[float]
    deadline_total: int
    deadline_met: int


class _GenSession:
    """Mutable state of one generation run.

    A sequence that is neither running nor finished is in exactly one of
    two places:

    * ``ready_heap`` — the *future* sequences, a heap of ``(ready, slot)``
      pairs (``ready`` is the arrival for a fresh request, ``time + delay +
      transfer`` for a migrant; slots are unique, so a tie never compares
      further);
    * ``arrived`` — the sequences an iteration start has reached, as
      ``((key, arrival, slot), sequence)`` entries sorted in admission order,
      the engine's queue order.  ``keys[slot]`` is the slot's discipline
      key, computed once per session; a migrant keeps its key.

    Each iteration drains the heap's heads with ``ready <= start`` into
    ``arrived`` and hands that queue to the admission policy, so one
    iteration costs O(running batch + queue depth) whatever the length of
    the trace.  Joiners leave ``arrived`` when they join.  A migrant was
    running, so it is in neither place until ``preempt_server`` pushes it
    at its new ready time: nothing is ever held twice and the heap has no
    stale entries.

    ``preempt_server``/``activate_server`` can make an iteration start
    *before* an earlier one, so ``arrived`` may hold entries with ``ready >
    start``.  Readers compare ``ready`` with the start at hand instead of
    assuming that every drained entry has arrived.
    """

    def __init__(
        self,
        sequences: List[SequenceState],
        keys: List[Tuple],
        deadlines: Optional[List[float]],
        num_servers: int,
    ) -> None:
        self.sequences = sequences
        self.keys = keys
        # Absolute deadline per slot (nan: none); None when no request has one.
        self.deadlines = deadlines
        self.ready_heap = [(seq.ready, seq.slot) for seq in sequences]
        heapq.heapify(self.ready_heap)
        self.arrived: List[Tuple[Tuple, SequenceState]] = []
        self.running: List[List[int]] = [[] for _ in range(num_servers)]
        self.free_at: List[float] = [0.0] * num_servers
        self.busy: List[float] = [0.0] * num_servers
        self.active: List[int] = list(range(num_servers))
        self.iterations: List[IterationRecord] = []
        self.started = 0  # iterations ever started: the next record's ``row``
        # Each server's latest iteration: the only one preempt_server can
        # still find in flight (it refuses any earlier time).
        self.undo: List[Optional[_IterationUndo]] = [None] * num_servers
        self.iter_count: List[int] = [0] * num_servers
        # When each server last crashed (preempt_server refuses to go back
        # past it).
        self.crashed_at: List[float] = [-math.inf] * num_servers
        self.migrated = 0


# ----------------------------------------------------------------------
# The iteration scheduler
# ----------------------------------------------------------------------
class IterationScheduler:
    """Continuous batching: a decode loop with per-iteration admission.

    ``backend`` is one :class:`GenerationBackend` shared by every server
    or a list of exactly ``num_servers`` backends (one prepared runtime
    each, like the engine's per-server executors).  ``admission`` picks
    the joiners at each boundary (default :class:`FcfsAdmission`);
    ``scheduler`` orders the waiting queue (default FIFO — EDF/priority
    disciplines carry over through the same ``keys`` the engine queues
    on).  ``policy`` selects the 4-bit ratio once per
    iteration and receives the generation step context, so precision can
    switch mid-sequence.  A ``telemetry`` bus receives per-iteration
    batch and token events.

    Drive it like the engine: :meth:`run` for a whole request list, or
    :meth:`start` / :meth:`step` / :meth:`finish` to interleave control
    actions (e.g. :meth:`preempt_server`) between iterations.
    """

    def __init__(
        self,
        backend: Union[GenerationBackend, Sequence[GenerationBackend]],
        max_batch: int = 8,
        admission: Optional[AdmissionPolicy] = None,
        policy=None,
        mode: str = "flexiq",
        model: str = "default",
        scheduler: Optional[Scheduler] = None,
        telemetry=None,
        num_servers: int = 1,
        tracer=None,
    ) -> None:
        self.num_servers = check_integer("num_servers", num_servers, 1)
        if isinstance(backend, (list, tuple)):
            backends = list(backend)
            if len(backends) != self.num_servers:
                raise ValueError(
                    f"got {len(backends)} backends for {self.num_servers} servers; "
                    "pass one per server (or a single shared backend)"
                )
        else:
            backends = [backend] * self.num_servers
        self.backends = backends
        self.max_batch = check_integer("max_batch", max_batch, 1)
        self.admission: AdmissionPolicy = (
            admission if admission is not None else FcfsAdmission()
        )
        self.policy = policy if policy is not None else FixedRatioPolicy(0.0)
        self.mode = mode
        self.model = model
        self.scheduler: Scheduler = (
            scheduler if scheduler is not None else FifoScheduler()
        )
        self.telemetry = telemetry
        # Optional request-lifecycle tracer (duck-typed; see repro.obs):
        # iteration spans, per-sequence terminals, preemption/migration hops.
        self.tracer = tracer
        self._session: Optional[_GenSession] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, requests: Sequence[Request]) -> None:
        """Open a generation session over ``requests`` (admitted up front)."""
        if self._session is not None:
            raise RuntimeError("a generation session is already open; finish() it")
        _check_arrivals(requests)
        # Each profile is refused by its own message before the store casts
        # the columns, which are exact after it.
        for request in requests:
            _generation_profile(request)
        store = RequestStore.from_requests(requests)  # slots in arrival order
        count = len(store)

        def column(name: str) -> list:
            values = getattr(store, name)
            return [0] * count if values is None else values.tolist()

        arrivals = store.arrivals
        sequences = [
            SequenceState(store.request(slot), slot, arrival, prompt, new, arrival)
            for slot, (arrival, prompt, new) in enumerate(zip(
                arrivals.tolist(), column("prefill_tokens"), column("max_new_tokens")
            ))
        ]
        horizon = float(arrivals[-1]) if count else 0.0
        self.policy.on_run_start(RequestTrace(arrivals, horizon))
        self._session = _GenSession(
            sequences,
            self.scheduler.keys(store, np.arange(count)),
            None if store.deadlines is None else store.deadlines.tolist(),
            self.num_servers,
        )

    def step(self) -> Optional[IterationRecord]:
        """Run the next iteration (earliest server); ``None`` when done."""
        s = self._require_session()
        placed = self._next_server(s)
        if placed is None:
            return None
        server, start = placed
        return self._iterate(s, server, start)

    def finish(self) -> GenerationResult:
        """Drain every sequence, close the session, return the result."""
        s = self._require_session()
        try:
            while self.step() is not None:
                pass
        finally:
            self._session = None
        return self._finalize(s)

    def run(self, requests: Sequence[Request]) -> GenerationResult:
        """Serve ``requests`` to completion (start + finish)."""
        self.start(requests)
        return self.finish()

    def _require_session(self) -> _GenSession:
        if self._session is None:
            raise RuntimeError("no generation session open; call start() (or run())")
        return self._session

    # ------------------------------------------------------------------
    # Elasticity / resilience hooks
    # ------------------------------------------------------------------
    @property
    def active_servers(self) -> List[int]:
        return list(self._require_session().active)

    def activate_server(
        self, server: int, available_from: Optional[float] = None
    ) -> None:
        """(Re-)admit a server to the iteration loop."""
        s = self._require_session()
        server = int(server)
        if not 0 <= server < self.num_servers:
            raise ValueError(f"server {server} out of range")
        if server not in s.active:
            s.active = sorted(s.active + [server])
        if available_from is not None:
            s.free_at[server] = max(
                s.free_at[server],
                check_positive("available_from", available_from, allow_zero=True),
            )

    def preempt_server(
        self,
        server: int,
        time: float,
        delay: float = 0.0,
        checkpoint=None,
    ) -> GenerationPreemption:
        """Crash ``server`` at ``time``: migrate its sequences, tokens intact.

        The in-flight iteration (if any) is rewound exactly — its tokens,
        retirements, record and telemetry contribution undone; busy time
        up to the kill point stays billed (wasted work is still work).
        Tokens from *completed* iterations are natural checkpoints: every
        victim keeps its generated-token progress and re-enters the
        waiting queue ready at ``time + delay`` (its decode resumes on
        whichever server admits it — no prefill is repeated).

        ``checkpoint`` (e.g. :class:`~repro.serving.resilience.
        StepCheckpoint`) composes two ways: its ``completed_fraction`` of
        the killed iteration salvages that fraction of any prefill that
        ran in it (the victim resumes paying only the residual prefill),
        and its ``restore_seconds`` — when present — prices each migrant's
        state transfer (KV cache scales with generated progress), added
        to the migrant's ready time.  The server leaves the active set;
        :meth:`activate_server` re-admits it after recovery.
        """
        s = self._require_session()
        server = int(server)
        time = check_positive("preemption time", time, allow_zero=True)
        if not 0 <= server < self.num_servers:
            raise ValueError(f"server {server} out of range")
        check_positive("delay", delay, allow_zero=True)
        # Only the server's latest iteration can still be in flight: its
        # history up to the previous one's finish, and up to its previous
        # crash, is settled — those sequences have since moved on, and
        # rewinding them would corrupt their token counts.
        mine = (
            index
            for index in range(len(s.iterations) - 1, -1, -1)
            if s.iterations[index].server == server
        )
        latest = next(mine, None)  # the one that may be in flight
        previous = next(mine, None)
        settled = max(
            s.crashed_at[server],
            -math.inf if previous is None else s.iterations[previous].finish,
        )
        if time < settled:
            raise ValueError(
                f"server {server} cannot be preempted at {time!r}: its history "
                f"is settled up to {settled!r} (the finish of its previous "
                "iteration, or its previous crash)"
            )
        s.crashed_at[server] = time

        killed = 0
        free_at = time
        # Iterations are sequential per server, so at most one is in
        # flight at ``time`` — the last one this server started.
        undo = s.undo[server]
        if undo is not None and undo.record.finish > time:
            record = undo.record
            fraction = checkpointed_fraction(checkpoint, record, time)
            for slot in undo.retired:
                seq = s.sequences[slot]
                seq.finish_time = None
                s.running[server].append(slot)
            for slot in undo.decoded:
                seq = s.sequences[slot]
                seq.generated -= 1
                seq.token_times.pop()
            for slot, prior in undo.prefilled:
                seq = s.sequences[slot]
                seq.generated -= 1
                seq.token_times.pop()
                # Checkpoint salvage: the killed iteration's prefill work
                # survives up to the checkpointed fraction (compounding
                # over what an earlier migration had already salvaged).
                seq.prefill_progress = prior + (1.0 - prior) * fraction
            s.busy[server] -= record.finish - max(record.start, time)
            if self.telemetry is not None:
                self.telemetry.unrecord_batch(
                    record,
                    latencies=np.asarray(undo.latencies, dtype=np.float64),
                    deadline_total=undo.deadline_total,
                    deadline_met=undo.deadline_met,
                    kill_time=time,
                    tokens=record.tokens,
                    ttfts=undo.ttfts,
                )
            if self.tracer is not None:
                # The rewound iteration's span becomes `preempted`; the
                # un-retired sequences' terminals are retracted (they will
                # re-terminate when their decode resumes elsewhere).
                self.tracer.on_preempt(record, undo.retired, time)
            del s.iterations[latest]
            s.undo[server] = None
            s.iter_count[server] -= 1
            killed = 1
            # The clock the killed iteration started from (every earlier
            # iteration of this server finished by then).
            free_at = max(time, undo.free_at)
        s.free_at[server] = free_at

        restore = getattr(checkpoint, "restore_seconds", None)
        victims = list(s.running[server])
        if self.tracer is not None and victims:
            self.tracer.on_requeue(
                victims,
                [s.sequences[slot].migrations for slot in victims],
                time,
                server,
            )
        for slot in victims:
            seq = s.sequences[slot]
            seq.migrations += 1
            seq.server = -1
            transfer = 0.0
            if restore is not None:
                progress = (
                    seq.generated / seq.max_new_tokens
                    if seq.generated > 0
                    else seq.prefill_progress
                )
                transfer = float(restore(progress))
            seq.ready = time + delay + transfer
            s.migrated += 1
            # A victim was running, so neither the heap nor the arrived
            # queue holds it: this is its only entry.
            heapq.heappush(s.ready_heap, (seq.ready, slot))
        s.running[server] = []
        if server in s.active:
            s.active.remove(server)
        return GenerationPreemption(iterations=killed, migrated=len(victims))

    # ------------------------------------------------------------------
    # The iteration loop
    # ------------------------------------------------------------------
    def _min_ready(self, s: _GenSession) -> Optional[float]:
        """Earliest ready time over the arrived queue and the heap."""
        ready = [seq.ready for _, seq in s.arrived]
        if s.ready_heap:
            ready.append(s.ready_heap[0][0])
        return min(ready, default=None)

    def _next_server(self, s: _GenSession) -> Optional[Tuple[int, float]]:
        """(server, iteration start) of the earliest next iteration.

        A busy server starts at its own clock; only an idle one waits for the
        earliest ready sequence, so the queue is scanned only when some
        server is idle.  ``s.active`` is ascending, so a strict ``<`` keeps
        the lowest server on a tie.
        """
        best: Optional[Tuple[int, float]] = None
        unscanned = True
        for server in s.active:
            start = s.free_at[server]
            if not s.running[server]:
                if unscanned:
                    min_ready, unscanned = self._min_ready(s), False
                if min_ready is None:
                    continue
                if min_ready > start:  # max(), keeping its tie result
                    start = min_ready
            if best is None or start < best[1]:
                best = (server, start)
        return best

    def _candidates(self, s: _GenSession, start: float) -> List[SequenceState]:
        """The sequences ready by ``start``, in admission order.

        Drains the heap up to ``start`` into the arrived queue first.
        The ``ready`` filter matters only when ``start`` is earlier than a
        previous iteration's (see :class:`_GenSession`).
        """
        keys, heap = s.keys, s.ready_heap
        while heap and heap[0][0] <= start:
            seq = s.sequences[heapq.heappop(heap)[1]]
            # The rank tuple is built here, at the drain, not once per session:
            # holding one per slot for the whole run measured ~7 % slower on
            # bench/gen.py's day (2-vCPU Xeon), for the same calls.
            insort(s.arrived, ((keys[seq.slot], seq.arrival, seq.slot), seq))
        return [seq for _, seq in s.arrived if seq.ready <= start]

    def _iterate(
        self, s: _GenSession, server: int, start: float
    ) -> IterationRecord:
        backend = self.backends[server]
        mode = self.mode
        candidates = self._candidates(s, start)
        running = [s.sequences[slot] for slot in s.running[server]]
        free_slots = self.max_batch - len(running)
        joiners: List[SequenceState] = []
        if free_slots > 0 and candidates:
            joiners = list(self.admission.admit(candidates, running, free_slots))
            allowed = {seq.slot for seq in candidates}
            seen: set = set()
            for seq in joiners:
                if seq.slot not in allowed or seq.slot in seen:
                    raise ValueError(
                        "admission policy returned a sequence outside the "
                        "waiting set (or a duplicate)"
                    )
                seen.add(seq.slot)
            if len(joiners) > free_slots:
                raise ValueError(
                    f"admission policy admitted {len(joiners)} sequences "
                    f"into {free_slots} free slots"
                )
        if not running and not joiners and candidates:
            # Starvation guard: an idle server always serves the queue
            # head, exactly like the engine's at-least-one batch rule.
            joiners = [candidates[0]]

        # One pass on each side of the boundary feeds the policy: the
        # running batch's token footprint, then the joiners' prefills and
        # how many of them decode this iteration.
        in_flight = 0
        for seq in running:
            in_flight += seq.prompt_tokens + seq.generated
        prefillers: List[SequenceState] = []
        prefill_tokens = 0
        decode_width = len(running)
        for seq in joiners:
            if seq.generated == 0:
                prefillers.append(seq)
                prefill_tokens += seq.prompt_tokens
                decode_width += seq.max_new_tokens > 1
            else:  # a migrant already past its prefill
                decode_width += seq.generated < seq.max_new_tokens
        iteration = s.iter_count[server]
        queue_depth = len(candidates)
        # Both built positionally, in field order, as ServingEngine._execute
        # builds its context: once per iteration, keywords cost as much as
        # the policy they feed.
        context = PolicyContext(
            start, queue_depth, len(running) + len(joiners), self.model, server,
            self.telemetry, len(s.active),
            GenerationStepContext(
                iteration, decode_width, len(prefillers), prefill_tokens, in_flight,
                queue_depth - len(joiners),
            ),
        )
        ratio = float(self.policy.select(context))

        if joiners:
            joined = {seq.slot for seq in joiners}
            s.arrived = [entry for entry in s.arrived if entry[1].slot not in joined]
            for seq in joiners:
                seq.server = server
            running = running + joiners  # the batch, in running order

        t = start
        ttfts: List[float] = []
        prefilled: List[Tuple[int, float]] = []
        for seq in prefillers:
            prefilled.append((seq.slot, seq.prefill_progress))
            t += backend.prefill_seconds(seq.prompt_tokens, mode, ratio) * (
                1.0 - seq.prefill_progress
            )
            seq.prefill_progress = 1.0
            seq.generated = 1
            seq.token_times.append(t)
            ttfts.append(t - seq.arrival)

        decoders = [seq for seq in running if seq.generated < seq.max_new_tokens]
        if decoders:
            t += backend.decode_seconds(len(decoders), mode, ratio)
            for seq in decoders:
                seq.generated += 1
                seq.token_times.append(t)

        # One retire scan, in running order: the survivors are the new batch.
        survivors: List[int] = []
        retired: List[int] = []
        latencies: List[float] = []
        deadlines = s.deadlines
        deadline_total = deadline_met = 0
        for seq in running:
            if seq.generated < seq.max_new_tokens:
                survivors.append(seq.slot)
                continue
            finish = seq.finish_time = seq.token_times[-1]
            retired.append(seq.slot)
            latencies.append(finish - seq.arrival)
            if deadlines is not None:
                deadline = deadlines[seq.slot]
                if deadline == deadline:  # false only for nan, "no deadline"
                    deadline_total += 1
                    if finish <= deadline:
                        deadline_met += 1
        s.running[server] = survivors

        size = len(prefilled) + len(decoders)
        record = IterationRecord(  # positionally, in field order, as the undo
            self.model, start, t, size, ratio, mode, server, queue_depth, iteration,
            len(prefilled), len(decoders), size, s.started,
        )
        s.started += 1
        s.iterations.append(record)
        s.undo[server] = _IterationUndo(
            record, s.free_at[server], prefilled, [seq.slot for seq in decoders],
            retired, ttfts, latencies, deadline_total, deadline_met,
        )
        s.iter_count[server] += 1
        s.busy[server] += t - start
        s.free_at[server] = t
        if self.telemetry is not None:
            self.telemetry.record_batch(
                record,
                queue_depth=record.queue_depth,
                latencies=np.asarray(latencies, dtype=np.float64),
                deadline_total=deadline_total,
                deadline_met=deadline_met,
                tokens=record.tokens,
                ttfts=ttfts,
            )
        if self.tracer is not None:
            self.tracer.on_iteration(record)
            if retired:
                self.tracer.on_served(
                    retired,
                    [s.sequences[slot].arrival for slot in retired],
                    [s.sequences[slot].finish_time for slot in retired],
                    server,
                    deadlines=(
                        [deadlines[slot] for slot in retired]
                        if deadlines is not None and self.tracer.wants_deadlines
                        else None
                    ),
                )
        return record

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def _finalize(self, s: _GenSession) -> GenerationResult:
        responses = []
        for seq in s.sequences:
            responses.append(
                GenerationResponse(
                    request_id=(
                        seq.request.request_id
                        if seq.request.request_id >= 0
                        else seq.slot
                    ),
                    model=self.model,
                    arrival_time=seq.arrival,
                    prompt_tokens=seq.prompt_tokens,
                    max_new_tokens=seq.max_new_tokens,
                    token_times=list(seq.token_times),
                    finish_time=(
                        seq.finish_time
                        if seq.finish_time is not None
                        else float("nan")
                    ),
                    server=seq.server,
                    migrations=seq.migrations,
                )
            )
        last_arrival = max((seq.arrival for seq in s.sequences), default=0.0)
        duration = max([last_arrival] + s.free_at)
        return GenerationResult(
            responses=responses,
            iterations=s.iterations,
            duration=duration,
            server_busy_times=list(s.busy),
            migrated=s.migrated,
        )


# ----------------------------------------------------------------------
# Static baseline
# ----------------------------------------------------------------------
def run_to_completion(
    requests: Sequence[Request],
    backend: GenerationBackend,
    max_batch: int = 8,
    policy=None,
    mode: str = "flexiq",
    model: str = "default",
    num_servers: int = 1,
) -> GenerationResult:
    """Static (admit-once) generation: the baseline continuous batching beats.

    Classic run-to-completion semantics: a FIFO batch of up to
    ``max_batch`` arrived requests is admitted once; every member is
    prefilled, then the batch decodes at its **full width** until the
    longest member finishes — members that finish early pad their slots
    (their steps still cost full width), and newly arrived prompts wait
    for the *whole* batch to complete before their prefill starts.  Both
    inefficiencies are what iteration-level scheduling removes: padding
    costs tokens/sec, head-of-line blocking costs TTFT.
    """
    check_integer("max_batch", max_batch, 1)
    check_integer("num_servers", num_servers, 1)
    policy = policy if policy is not None else FixedRatioPolicy(0.0)
    _check_arrivals(requests)
    ordered = sorted(requests, key=lambda request: request.arrival_time)
    for request in ordered:
        _generation_profile(request)
    arrivals = np.asarray(
        [request.arrival_time for request in ordered], dtype=np.float64
    )
    horizon = float(arrivals[-1]) if len(arrivals) else 0.0
    policy.on_run_start(RequestTrace(arrivals, horizon))

    free_at = [0.0] * num_servers
    busy = [0.0] * num_servers
    responses: List[GenerationResponse] = []
    iterations: List[IterationRecord] = []
    pos = 0
    batch_index = 0
    while pos < len(ordered):
        server = min(range(num_servers), key=free_at.__getitem__)
        start = max(free_at[server], float(arrivals[pos]))
        end = pos + 1
        while end < len(ordered) and end - pos < max_batch and arrivals[end] <= start:
            end += 1
        members = ordered[pos:end]
        width = len(members)
        steps = max(request.max_new_tokens for request in members) - 1
        context = PolicyContext(
            time=start,
            queue_depth=len(ordered) - pos,
            batch_size=width,
            model=model,
            server=server,
            generation=GenerationStepContext(
                iteration=batch_index,
                decode_width=width,
                prefill_requests=width,
                prefill_tokens=sum(r.prefill_tokens for r in members),
                tokens_in_flight=0,
                waiting=len(ordered) - end,
            ),
        )
        ratio = float(policy.select(context))

        t = start
        token_times: List[List[float]] = [[] for _ in members]
        tokens = 0
        for position, request in enumerate(members):
            t += backend.prefill_seconds(request.prefill_tokens, mode, ratio)
            token_times[position].append(t)
            tokens += 1
        for _ in range(steps):
            # Padded decode: the step runs at full batch width even when
            # members have finished — the run-to-completion inefficiency.
            t += backend.decode_seconds(width, mode, ratio)
            for position, request in enumerate(members):
                if len(token_times[position]) < request.max_new_tokens:
                    token_times[position].append(t)
                    tokens += 1
        for position, request in enumerate(members):
            responses.append(
                GenerationResponse(
                    request_id=(
                        request.request_id
                        if request.request_id >= 0
                        else pos + position
                    ),
                    model=model,
                    arrival_time=float(request.arrival_time),
                    prompt_tokens=int(request.prefill_tokens),
                    max_new_tokens=int(request.max_new_tokens),
                    token_times=token_times[position],
                    finish_time=token_times[position][-1],
                    server=server,
                )
            )
        iterations.append(
            IterationRecord(
                model=model,
                start=start,
                finish=t,
                size=width * (1 + steps),
                ratio=ratio,
                mode=mode,
                server=server,
                queue_depth=len(ordered) - pos,
                iteration=batch_index,
                prefills=width,
                decode_width=width,
                tokens=tokens,
            )
        )
        busy[server] += t - start
        free_at[server] = t
        pos = end
        batch_index += 1

    last_arrival = float(arrivals[-1]) if len(arrivals) else 0.0
    duration = max([last_arrival] + free_at)
    return GenerationResult(
        responses=responses,
        iterations=iterations,
        duration=duration,
        server_busy_times=busy,
    )
