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

* :class:`FcfsAdmission` — join in queue order (arrival, then slot: the
  engine's FIFO queue order);
* :class:`PrefillPriorityAdmission` — shortest prompt first, minimizing
  the prefill time the running batch stalls for (TTFT-greedy);
* :class:`TokenBudgetAdmission` — cap the batch's token footprint
  (prompt + generated tokens per sequence), the KV-cache-bound regime.

One FIFO server serves the session.  Its requests are held as one
:class:`~repro.serving.core.RequestStore`, whose slots are in arrival order,
and a cursor marks the first sequence no iteration start has reached yet.
Iteration starts never move backwards, so each iteration advances the
cursor past the sequences that have arrived by its start onto the *arrived
queue*, a list in slot order — which is queue order — and hands that list
to the admission policy as it stands; joiners leave it.  The loop costs
O(running batch + queue depth) per iteration, whatever the length of the
trace.  The specification this is tested against is the naive one: scan
every waiting sequence, keep the arrived ones, sort
(``tests/test_serving_generation.py``).

Requests opt in through the :class:`~repro.serving.engine.Request`
generation profile: ``prefill_tokens`` (prompt length) and
``max_new_tokens`` (tokens to generate, counting the one the prefill
emits — ``max_new_tokens=1`` is a prefill-only request with zero decode
steps).  Costs come from :class:`ModeledGenerationBackend`, which uses the
:class:`~repro.serving.simulator.ServiceTimeModel` prefill/decode split
(prefill scales with prompt tokens, decode with batch width per step).

Ratio policies see a :class:`~repro.serving.policies.GenerationStepContext`
on every iteration (via ``PolicyContext.generation``), so precision can
switch *mid-sequence* in response to decode pressure (see
:class:`~repro.serving.policies.DecodePressureRatioPolicy`).

:func:`run_to_completion` is the static baseline the headline comparison
runs against: admit-once FIFO batches, full-width padded decode until the
longest member finishes — the classic inefficiency continuous batching
removes (see ``examples/continuous_batching.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.data.traces import RequestTrace
from repro.serving.core import RequestStore, check_arrivals, check_integer
from repro.serving.engine import Request
from repro.serving.metrics import streaming_summary
from repro.serving.policies import (
    FixedRatioPolicy,
    GenerationStepContext,
    PolicyContext,
)

#: The execution mode every generation cost is priced in.
_MODE = "flexiq"


# ----------------------------------------------------------------------
# Sequence state
# ----------------------------------------------------------------------
@dataclass(slots=True)
class SequenceState:
    """One generating request's progress through the iteration loop.

    ``generated`` counts emitted tokens (the prefill's first token
    included); ``token_times`` timestamps each of them.
    """

    request: Request
    slot: int
    arrival: float
    prompt_tokens: int
    max_new_tokens: int
    generated: int = 0
    token_times: List[float] = field(default_factory=list)
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

    ``waiting`` is the arrived queue in admission order (arrival, slot);
    ``running`` the current batch members; ``slots`` the free batch slots.
    Both are the scheduler's own lists: read them, do not modify them.
    Return at most ``slots`` members of ``waiting``; the returned *order*
    is the prefill order.  When the running batch is empty and nothing is
    admitted, the scheduler force-admits the queue head (a starving server
    serves at least the sequence that woke it, mirroring the engine's
    batch rule).
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
        self.budget_tokens = check_integer("budget_tokens", budget_tokens, 1)
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
# Generation backend (what one iteration costs)
# ----------------------------------------------------------------------
class ModeledGenerationBackend:
    """Analytic prefill/decode costs from a :class:`ServiceTimeModel`."""

    def __init__(self, service_model) -> None:
        self.service_model = service_model

    def prefill_seconds(self, prompt_tokens: int, mode: str, ratio: float) -> float:
        return self.service_model.prefill_latency(prompt_tokens, mode, ratio)

    def decode_seconds(self, width: int, mode: str, ratio: float) -> float:
        return self.service_model.decode_latency(width, mode, ratio)


# ----------------------------------------------------------------------
# Records, responses, results
# ----------------------------------------------------------------------
@dataclass
class IterationRecord:
    """One executed iteration: prefills + one decode step.

    ``size`` counts sequence-iterations (prefills + decode width — a
    joiner that prefills and decodes counts in both).
    """

    start: float
    finish: float
    size: int
    ratio: float
    queue_depth: int = 0
    iteration: int = 0
    prefills: int = 0
    decode_width: int = 0
    tokens: int = 0


@dataclass
class GenerationResponse:
    """Outcome of one generating request: its full token-time stream."""

    request_id: int
    arrival_time: float
    prompt_tokens: int
    max_new_tokens: int
    token_times: List[float]
    finish_time: float

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
class GenerationResult:
    """Outcome of one generation run (continuous or run-to-completion)."""

    responses: List[GenerationResponse]
    iterations: List[IterationRecord]
    duration: float
    server_busy_times: List[float]

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
class _GenSession:
    """Mutable state of one generation run.

    ``sequences`` is in slot order, which is arrival order.  A sequence
    that is neither running nor finished is in exactly one of two places:

    * ``sequences[pos:]`` — the sequences no iteration start has reached;
    * ``arrived`` — the ones an iteration start has reached, in slot order,
      the engine's FIFO queue order.

    Each iteration moves ``pos`` past the sequences that arrived by its
    start, appending them to ``arrived``, and hands that queue to the
    admission policy; joiners leave it.  Starts never move backwards, so
    every sequence in ``arrived`` has arrived by the start at hand.
    """

    def __init__(self, sequences: List[SequenceState]) -> None:
        self.sequences = sequences
        self.pos = 0
        self.arrived: List[SequenceState] = []
        self.running: List[SequenceState] = []
        self.free_at = 0.0
        self.busy = 0.0
        self.iterations: List[IterationRecord] = []


# ----------------------------------------------------------------------
# The iteration scheduler
# ----------------------------------------------------------------------
class IterationScheduler:
    """Continuous batching: a decode loop with per-iteration admission.

    ``backend`` prices each iteration (a :class:`ModeledGenerationBackend`);
    ``admission`` picks the joiners at each boundary (default
    :class:`FcfsAdmission`) from the arrived queue in FIFO order.
    ``policy`` selects the 4-bit ratio once per iteration and receives the
    generation step context, so precision can switch mid-sequence.

    Drive it like the engine: :meth:`run` for a whole request list, or
    :meth:`start` / :meth:`step` / :meth:`finish` to read the session
    between iterations.
    """

    def __init__(
        self,
        backend: ModeledGenerationBackend,
        max_batch: int = 8,
        admission: Optional[AdmissionPolicy] = None,
        policy=None,
    ) -> None:
        self.backend = backend
        self.max_batch = check_integer("max_batch", max_batch, 1)
        self.admission: AdmissionPolicy = (
            admission if admission is not None else FcfsAdmission()
        )
        self.policy = policy if policy is not None else FixedRatioPolicy(0.0)
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
            SequenceState(store.request(slot), slot, arrival, prompt, new)
            for slot, (arrival, prompt, new) in enumerate(zip(
                arrivals.tolist(), column("prefill_tokens"), column("max_new_tokens")
            ))
        ]
        horizon = float(arrivals[-1]) if count else 0.0
        self.policy.on_run_start(RequestTrace(arrivals, horizon))
        self._session = _GenSession(sequences)

    def step(self) -> Optional[IterationRecord]:
        """Run the next iteration; ``None`` when done.

        A busy server starts at its own clock; an idle one with an empty
        queue waits for the next arrival.
        """
        s = self._require_session()
        start = s.free_at
        if not s.running and not s.arrived:
            if s.pos == len(s.sequences):
                return None
            ready = s.sequences[s.pos].arrival
            if ready > start:  # max(), keeping its tie result
                start = ready
        return self._iterate(s, start)

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
    # The iteration loop
    # ------------------------------------------------------------------
    def _candidates(self, s: _GenSession, start: float) -> List[SequenceState]:
        """The sequences arrived by ``start``, in admission order: the
        arrived queue, after moving the cursor past ``start``."""
        sequences, pos, arrived = s.sequences, s.pos, s.arrived
        while pos < len(sequences) and sequences[pos].arrival <= start:
            arrived.append(sequences[pos])
            pos += 1
        s.pos = pos
        return arrived

    def _iterate(self, s: _GenSession, start: float) -> IterationRecord:
        backend = self.backend
        candidates = self._candidates(s, start)
        running = s.running
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
        prefill_tokens = 0
        decode_width = len(running)
        for seq in joiners:
            prefill_tokens += seq.prompt_tokens
            decode_width += seq.max_new_tokens > 1
        iteration = len(s.iterations)
        queue_depth = len(candidates)
        # Both built positionally, in field order, as ServingEngine._execute
        # builds its context: once per iteration, keywords cost as much as
        # the policy they feed.  No model name, server 0, no bus, one server.
        context = PolicyContext(
            start, queue_depth, len(running) + len(joiners), "", 0, None, 1,
            GenerationStepContext(
                iteration, decode_width, len(joiners), prefill_tokens, in_flight,
                queue_depth - len(joiners),
            ),
        )
        ratio = float(self.policy.select(context))

        if joiners:
            joined = {seq.slot for seq in joiners}
            s.arrived = [seq for seq in s.arrived if seq.slot not in joined]
            running = running + joiners  # the batch, in running order

        t = start
        for seq in joiners:
            t += backend.prefill_seconds(seq.prompt_tokens, _MODE, ratio)
            seq.generated = 1
            seq.token_times.append(t)

        decoders = [seq for seq in running if seq.generated < seq.max_new_tokens]
        if decoders:
            t += backend.decode_seconds(len(decoders), _MODE, ratio)
            for seq in decoders:
                seq.generated += 1
                seq.token_times.append(t)

        # One retire scan, in running order: the survivors are the new batch.
        survivors: List[SequenceState] = []
        for seq in running:
            if seq.generated < seq.max_new_tokens:
                survivors.append(seq)
            else:
                seq.finish_time = seq.token_times[-1]
        s.running = survivors

        size = len(joiners) + len(decoders)
        record = IterationRecord(  # positionally, in field order
            start, t, size, ratio, queue_depth, iteration, len(joiners),
            len(decoders), size,
        )
        s.iterations.append(record)
        s.busy += t - start
        s.free_at = t
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
                    arrival_time=seq.arrival,
                    prompt_tokens=seq.prompt_tokens,
                    max_new_tokens=seq.max_new_tokens,
                    token_times=list(seq.token_times),
                    finish_time=(
                        seq.finish_time
                        if seq.finish_time is not None
                        else float("nan")
                    ),
                )
            )
        last_arrival = max((seq.arrival for seq in s.sequences), default=0.0)
        return GenerationResult(
            responses=responses,
            iterations=s.iterations,
            duration=max(last_arrival, s.free_at),
            server_busy_times=[s.busy],
        )


# ----------------------------------------------------------------------
# Static baseline
# ----------------------------------------------------------------------
def run_to_completion(
    requests: Sequence[Request],
    backend: ModeledGenerationBackend,
    max_batch: int = 8,
) -> GenerationResult:
    """Static (admit-once) generation: the baseline continuous batching beats.

    Classic run-to-completion semantics on one server at ratio 0.0: a FIFO
    batch of up to ``max_batch`` arrived requests is admitted once; every
    member is prefilled, then the batch decodes at its **full width** until
    the longest member finishes — members that finish early pad their
    slots (their steps still cost full width), and newly arrived prompts
    wait for the *whole* batch to complete before their prefill starts.
    Both inefficiencies are what iteration-level scheduling removes:
    padding costs tokens/sec, head-of-line blocking costs TTFT.
    """
    check_integer("max_batch", max_batch, 1)
    _check_arrivals(requests)
    ordered = sorted(requests, key=lambda request: request.arrival_time)
    for request in ordered:
        _generation_profile(request)
    arrivals = np.asarray(
        [request.arrival_time for request in ordered], dtype=np.float64
    )
    ratio = 0.0

    free_at = 0.0
    busy = 0.0
    responses: List[GenerationResponse] = []
    iterations: List[IterationRecord] = []
    pos = 0
    batch_index = 0
    while pos < len(ordered):
        start = max(free_at, float(arrivals[pos]))
        end = pos + 1
        while end < len(ordered) and end - pos < max_batch and arrivals[end] <= start:
            end += 1
        members = ordered[pos:end]
        width = len(members)
        steps = max(request.max_new_tokens for request in members) - 1

        t = start
        token_times: List[List[float]] = [[] for _ in members]
        tokens = 0
        for position, request in enumerate(members):
            t += backend.prefill_seconds(request.prefill_tokens, _MODE, ratio)
            token_times[position].append(t)
            tokens += 1
        for _ in range(steps):
            # Padded decode: the step runs at full batch width even when
            # members have finished — the run-to-completion inefficiency.
            t += backend.decode_seconds(width, _MODE, ratio)
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
                    arrival_time=float(request.arrival_time),
                    prompt_tokens=int(request.prefill_tokens),
                    max_new_tokens=int(request.max_new_tokens),
                    token_times=token_times[position],
                    finish_time=token_times[position][-1],
                )
            )
        iterations.append(
            IterationRecord(
                start=start,
                finish=t,
                size=width * (1 + steps),
                ratio=ratio,
                queue_depth=len(ordered) - pos,
                iteration=batch_index,
                prefills=width,
                decode_width=width,
                tokens=tokens,
            )
        )
        busy += t - start
        free_at = t
        pos = end
        batch_index += 1

    last_arrival = float(arrivals[-1]) if len(arrivals) else 0.0
    return GenerationResult(
        responses=responses,
        iterations=iterations,
        duration=max(last_arrival, free_at),
        server_busy_times=[busy],
    )
