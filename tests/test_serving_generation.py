"""Tests for the iteration-level generation subsystem (continuous batching).

Covers the prefill/decode cost split on :class:`ServiceTimeModel`, the
:class:`IterationScheduler` loop (join/retire at iteration boundaries,
admission policies, starvation guard), the run-to-completion baseline and
the headline continuous-beats-static claim, mid-sequence precision
switching through the generation policy context, and the
``streaming_summary`` edge cases (prefill-only, single-token, all-dropped,
empty percentile lists).

The arrived queue (a cursor over the arrival-sorted sequences plus the
queue in slot order) is checked against its specification, the naive scan
of the whole waiting set, on generated runs (``TestReadyQueueAgainstSpec``),
and each iteration those runs execute against a naive restatement of it
(joiners, prefill costs in joiner order, one decode, retirees in running
order); its cost is gated by counted calls, not wall-clock
(``tests/test_complexity.py``).  ``TestIterationRecords`` checks the
records a run keeps and the backend's price memo.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.traces import PoissonTrace
from repro.serving import (
    DecodePressureRatioPolicy,
    FcfsAdmission,
    FifoScheduler,
    IterationScheduler,
    ModeledExecutor,
    ModeledGenerationBackend,
    PolicyContext,
    PrefillPriorityAdmission,
    Request,
    RequestStore,
    ServiceTimeModel,
    ServingEngine,
    requests_from_trace,
    run_to_completion,
    streaming_summary,
)
from repro.serving.generation import SequenceState
from repro.serving.metrics import latency_percentiles
from repro.serving.policies import FixedRatioPolicy, GenerationStepContext
from test_examples import load_example


class TokenBudgetAdmission:
    """A test admission that can admit fewer sequences than there are free
    slots, or none: candidates in ``within``'s order (FCFS by default)
    join while the running batch's token footprint, with the joiner's
    prompt plus its first token, stays within ``budget_tokens``.  Admission
    stops at the first candidate that does not fit."""

    def __init__(self, budget_tokens, within=None):
        self.budget_tokens = budget_tokens
        self.within = within if within is not None else FcfsAdmission()

    def admit(self, waiting, running, slots):
        in_flight = sum(seq.prompt_tokens + seq.generated for seq in running)
        chosen = []
        for seq in self.within.admit(waiting, running, slots):
            cost = seq.prompt_tokens + max(1, seq.generated)
            if in_flight + cost > self.budget_tokens:
                break
            in_flight += cost
            chosen.append(seq)
        return chosen


@pytest.fixture(scope="module")
def gen_model():
    return ServiceTimeModel(
        "vit_base",
        gpu="a6000",
        anchor_batches=(1, 8, 16, 32),
        decode_token_fraction=0.05,
    )


@pytest.fixture(scope="module")
def backend(gen_model):
    return ModeledGenerationBackend(gen_model)


def gen_requests(profiles, model="m"):
    """Requests from (arrival, prompt_tokens, max_new_tokens) triples."""
    return [
        Request(
            request_id=i,
            model=model,
            arrival_time=float(arrival),
            prefill_tokens=int(prompt),
            max_new_tokens=int(new),
        )
        for i, (arrival, prompt, new) in enumerate(profiles)
    ]


def mixed_trace(rate=120, duration=1.5, seed=7):
    trace = PoissonTrace(rate, duration=duration, seed=seed).generate()
    return requests_from_trace(
        trace,
        model="m",
        prefill_tokens=[32, 512, 96, 256],
        max_new_tokens=[96, 8, 160, 16],
    )


def decode_widths(result):
    """Each iteration's decode width, read off the token streams: a decoding
    sequence emits one token at its iteration's finish (a stream's first
    token is its prefill's)."""
    stamps = Counter(t for response in result.responses for t in response.token_times[1:])
    return [stamps[record.finish] for record in result.iterations]


# ----------------------------------------------------------------------
# Prefill/decode cost split on the service-time model
# ----------------------------------------------------------------------
class TestPrefillDecodeSplit:
    def test_prefill_scales_with_prompt_tokens(self, gen_model):
        one_shot = gen_model.batch_latency(1, "int8")
        assert gen_model.prefill_latency(0, "int8") == 0.0
        # tokens_per_sample tokens cost exactly one batch-1 forward.
        assert gen_model.prefill_latency(64, "int8") == one_shot
        assert gen_model.prefill_latency(1, "int8") == one_shot  # ceil
        assert gen_model.prefill_latency(512, "int8") == gen_model.batch_latency(
            8, "int8"
        )
        # Partial chunks round up, so 65 tokens pay the 2-sample forward.
        assert gen_model.prefill_latency(65, "int8") == gen_model.batch_latency(
            2, "int8"
        )

    def test_decode_scales_with_width(self, gen_model):
        assert gen_model.decode_latency(0, "int8") == 0.0
        for width in (1, 4, 8):
            assert gen_model.decode_latency(width, "int8") == pytest.approx(
                gen_model.batch_latency(width, "int8") * 0.05
            )
        # A decode step is much cheaper than the equally wide one-shot.
        assert gen_model.decode_latency(8, "int8") < gen_model.batch_latency(
            8, "int8"
        )

    def test_decode_fraction_defaults_to_token_share(self):
        model = ServiceTimeModel("vit_base", gpu="a6000")
        assert model.decode_token_fraction == 1.0 / 64
        # A prompt of 64 tokens costs one batch-1 forward, 65 cost two.
        assert model.prefill_latency(64, "int8") == model.batch_latency(1, "int8")
        assert model.prefill_latency(65, "int8") == model.batch_latency(2, "int8")

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceTimeModel("vit_base", decode_token_fraction=0.0)
        # Each refused in the constructor, not at the first batch.
        with pytest.raises(ValueError, match="decode_token_fraction"):
            ServiceTimeModel("vit_base", decode_token_fraction=float("nan"))
        with pytest.raises(ValueError, match="anchor_batches"):
            ServiceTimeModel("vit_base", anchor_batches=())
        with pytest.raises(ValueError, match="anchor batch"):
            ServiceTimeModel("vit_base", anchor_batches=(0, 8))
        with pytest.raises(ValueError, match="anchor batch"):
            ServiceTimeModel("vit_base", anchor_batches=(1, 1.5))


# ----------------------------------------------------------------------
# The iteration loop
# ----------------------------------------------------------------------
class TestIterationScheduler:
    def test_single_sequence_token_stream(self, backend, gen_model):
        requests = gen_requests([(0.0, 64, 5)])
        result = IterationScheduler(backend, max_batch=4).run(requests)
        (response,) = result.responses
        assert response.tokens == 5
        assert response.finished
        # First token lands at the prefill's end; the rest one decode
        # step apart (width 1 throughout).
        prefill = gen_model.prefill_latency(64, "flexiq", 0.0)
        step = gen_model.decode_latency(1, "flexiq", 0.0)
        assert response.ttft == pytest.approx(prefill)
        assert response.token_times[0] == pytest.approx(prefill)
        gaps = np.diff(response.token_times)
        assert gaps == pytest.approx([step] * 4)
        assert response.finish_time == pytest.approx(result.duration)

    def test_prefill_only_request_has_zero_decode_steps(self, backend):
        requests = gen_requests([(0.0, 128, 1)])
        result = IterationScheduler(backend).run(requests)
        (response,) = result.responses
        assert response.tokens == 1
        assert response.finished
        (record,) = result.iterations
        # One prefill and no decode step: the only token is the prefill's.
        assert record.size == 1
        assert response.token_times == [record.finish]

    def test_finished_leave_and_queued_join_at_boundaries(self, backend):
        # A short sequence retires mid-run and a late arrival takes its
        # place while the long sequence keeps decoding — the continuous-
        # batching property itself.
        requests = gen_requests(
            [(0.0, 64, 3), (0.0, 64, 200), (0.005, 64, 3)]
        )
        scheduler = IterationScheduler(backend, max_batch=2)
        result = scheduler.run(requests)
        assert all(r.finished for r in result.responses)
        late = result.responses[2]
        long = result.responses[1]
        # The late arrival finished long before the long sequence did:
        # it joined a running batch instead of waiting behind it.
        assert late.finish_time < long.finish_time
        widths = decode_widths(result)
        assert max(widths) == 2
        assert 1 in widths  # the batch really shrank when members left

    def test_token_conservation_and_determinism(self, backend):
        requests = mixed_trace(rate=80, duration=1.0)
        expected = sum(r.max_new_tokens for r in requests)
        first = IterationScheduler(backend, max_batch=8).run(requests)
        second = IterationScheduler(backend, max_batch=8).run(requests)
        assert first.tokens == expected
        assert all(r.finished for r in first.responses)
        for a, b in zip(first.responses, second.responses):
            assert a.token_times == b.token_times

    @pytest.mark.parametrize("loop", ["continuous", "static"])
    @pytest.mark.parametrize(
        "field, value",
        [("prefill_tokens", -64), ("prefill_tokens", 32.5),
         ("max_new_tokens", 2.5), ("max_new_tokens", 0)],
    )
    def test_impossible_profile_rejected(self, backend, loop, field, value):
        # Both loops refuse what the other would: the static baseline used
        # to bill a negative prompt 0 s, truncate 32.5 to 32 and fail on
        # max_new_tokens=2.5 with a TypeError.
        profile = {"prefill_tokens": 64, "max_new_tokens": 4, field: value}
        requests = [
            Request(0.0, "m", request_id=0, prefill_tokens=64, max_new_tokens=4),
            Request(0.001, "m", request_id=1, **profile),
        ]
        serve = {
            "continuous": IterationScheduler(backend).run,
            "static": lambda requests: run_to_completion(requests, backend),
        }[loop]
        with pytest.raises(ValueError, match=rf"{field} .*\(got {value!r}\)"):
            serve(requests)

    @pytest.mark.parametrize("arrival", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_arrival_rejected(self, backend, arrival):
        # A NaN arrival used to be silently never served: run() returned
        # with that response at 0 tokens and no error.
        requests = gen_requests([(0.0, 64, 2), (arrival, 64, 2), (0.1, 64, 2)])
        scheduler = IterationScheduler(backend)
        with pytest.raises(ValueError, match="request 1 .*arrival_time"):
            scheduler.start(requests)
        # The refused start left no session behind.
        assert scheduler.run(gen_requests([(0.0, 64, 2)])).responses[0].finished
        with pytest.raises(ValueError, match="request 1 .*arrival_time"):
            run_to_completion(requests, backend)

    def test_run_to_completion_pads_full_width(self, backend, gen_model):
        # Static batching decodes at full width until the longest member
        # finishes; the 2-token member's slot is padded for the rest.
        requests = gen_requests([(0.0, 64, 2), (0.0, 64, 10)])
        result = run_to_completion(requests, backend, max_batch=2)
        (record,) = result.iterations
        step2 = gen_model.decode_latency(2, "flexiq", 0.0)
        prefill = gen_model.prefill_latency(64, "flexiq", 0.0)
        # 2 prefills + 9 full-width decode steps, padding included.
        assert record.finish - record.start == pytest.approx(
            2 * prefill + 9 * step2
        )
        continuous = IterationScheduler(backend, max_batch=2).run(requests)
        assert continuous.duration < result.duration

    def test_run_to_completion_blocks_arrivals_behind_the_whole_batch(self, backend):
        # Handed over latest first: batches are cut from the arrival order,
        # at ratio 0.0, and a request arriving mid-batch waits for its end.
        requests = gen_requests([(0.001, 32, 2), (0.0, 64, 6), (0.0, 32, 2)])
        result = run_to_completion(requests, backend, max_batch=2)
        first, second = result.iterations
        assert (first.start, second.start) == (0.0, first.finish)
        # Requests 1 and 2 prefilled in the first batch, request 0 in the second.
        assert [response.token_times[0] < first.finish for response in result.responses] == [
            True, True, False,
        ]
        assert [record.ratio for record in result.iterations] == [0.0, 0.0]
        assert [response.request_id for response in result.responses] == [1, 2, 0]
        assert result.responses[2].token_times[0] > first.finish

    def test_continuous_beats_static_on_both_axes(self, backend):
        # The headline claim, on the mixed trace shape of the example.
        requests = mixed_trace()
        static = run_to_completion(requests, backend, max_batch=8)
        continuous = IterationScheduler(backend, max_batch=8).run(requests)
        static_stream = static.streaming((99,))
        continuous_stream = continuous.streaming((99,))
        assert continuous_stream["ttft_p99"] < static_stream["ttft_p99"]
        assert (
            continuous_stream["tokens_per_sec"] > static_stream["tokens_per_sec"]
        )
        assert continuous.tokens == static.tokens


# ----------------------------------------------------------------------
# Admission policies
# ----------------------------------------------------------------------
class TestAdmission:
    def test_prefill_priority_admits_short_prompt_first(self, backend):
        requests = gen_requests([(0.0, 512, 4), (0.0, 32, 4)])
        fcfs = IterationScheduler(
            backend, max_batch=1, admission=FcfsAdmission()
        ).run(requests)
        spf = IterationScheduler(
            backend, max_batch=1, admission=PrefillPriorityAdmission()
        ).run(requests)
        # FCFS serves the long prompt first; prefill-priority flips it.
        assert fcfs.responses[0].ttft < fcfs.responses[1].ttft
        assert spf.responses[1].ttft < spf.responses[0].ttft
        # The short prompt's first token arrives far earlier under SPF.
        assert spf.responses[1].ttft < fcfs.responses[1].ttft

    def test_prefill_priority_ranks_only_the_free_slots(self):
        def seq(slot, prompt):
            return SequenceState(
                request=None, slot=slot, arrival=0.0, prompt_tokens=prompt,
                max_new_tokens=2,
            )

        waiting = [seq(slot, prompt) for slot, prompt in enumerate([96, 32, 512, 32, 96, 8])]
        policy = PrefillPriorityAdmission()
        full = sorted(range(len(waiting)), key=lambda i: (waiting[i].prompt_tokens, i))
        for slots in range(1, len(waiting) + 2):
            # Same (prompt_tokens, queue position) order as a full sort.
            assert [s.slot for s in policy.admit(waiting, [], slots)] == full[:slots]
        assert policy.admit(waiting, [], 0) == []
        assert policy.admit(waiting, [], -3) == []

    def test_a_short_admission_leaves_slots_free(self, backend):
        # The budget fits one 64-token sequence (+ its generated tokens) but
        # not two, so the second waits for the first to retire even
        # though a batch slot is free.
        requests = gen_requests([(0.0, 64, 4), (0.0, 64, 4)])
        result = IterationScheduler(
            backend, max_batch=8, admission=TokenBudgetAdmission(100)
        ).run(requests)
        assert all(r.finished for r in result.responses)
        assert max(decode_widths(result)) == 1
        first, second = result.responses
        assert second.token_times[0] > first.finish_time

    def test_an_empty_batch_force_admits_the_queue_head(self, backend):
        # A prompt larger than the whole budget still serves (alone): the
        # starvation guard admits the queue head into an empty batch.
        requests = gen_requests([(0.0, 512, 2)])
        result = IterationScheduler(
            backend, admission=TokenBudgetAdmission(100)
        ).run(requests)
        assert result.responses[0].finished

    def test_bad_admission_policy_rejected(self, backend):
        class Overcommit:
            def admit(self, waiting, running, slots):
                return list(waiting)  # ignores the slot cap

        requests = gen_requests([(0.0, 64, 2)] * 3)
        with pytest.raises(ValueError, match="admitted"):
            IterationScheduler(
                backend, max_batch=1, admission=Overcommit()
            ).run(requests)


# ----------------------------------------------------------------------
# Mid-sequence precision switching
# ----------------------------------------------------------------------
class TestMidSequenceRatio:
    def test_decode_pressure_switches_mid_sequence(self, backend):
        requests = mixed_trace()
        policy = DecodePressureRatioPolicy(
            pressure_threshold=900, waiting_weight=64.0
        )
        result = IterationScheduler(
            backend, max_batch=8, policy=policy
        ).run(requests)
        assert policy.switches > 0
        ratios = [record.ratio for record in result.iterations]
        assert set(ratios) == {0.0, 1.0}
        # Mid-sequence, literally: some response's tokens were generated
        # under both precisions (its lifetime spans a ratio change).
        spans = {
            (record.start, record.finish): record.ratio
            for record in result.iterations
        }

        def ratios_of(response):
            seen = set()
            for t in response.token_times:
                for (start, finish), ratio in spans.items():
                    if start < t <= finish or t == start == finish:
                        seen.add(ratio)
                        break
            return seen

        assert any(
            len(ratios_of(response)) == 2 for response in result.responses
        )

    def test_policy_reset_between_runs(self, backend):
        requests = mixed_trace(rate=60, duration=0.5)
        policy = DecodePressureRatioPolicy(pressure_threshold=10**9)
        IterationScheduler(backend, policy=policy).run(requests)
        assert policy.switches == 0  # threshold unreachable: no switches

    def test_a_batch_without_generation_context_is_refused(self, gen_model):
        """The policy reads decode pressure; a one-shot engine's batch has
        none, and its queue depth used to stand in for it."""
        policy = DecodePressureRatioPolicy(pressure_threshold=100)
        with pytest.raises(ValueError, match="generation runs only"):
            policy.select(PolicyContext(time=0.0, queue_depth=9))
        engine = ServingEngine()
        engine.register("m", ModeledExecutor(gen_model), policy=policy)
        with pytest.raises(ValueError, match="no generation context"):
            engine.run(requests=[Request(0.0, "m")])

    def test_pressure_at_the_threshold_runs_all_4bit(self):
        """Pressure is in-flight plus prefill tokens plus weighted waiters;
        reaching the threshold presses, one token below does not."""
        policy = DecodePressureRatioPolicy(pressure_threshold=100, waiting_weight=10.0)
        policy.on_run_start(None)

        def select(tokens_in_flight, prefill_tokens=0, waiting=0):
            generation = GenerationStepContext(
                prefill_tokens=prefill_tokens,
                tokens_in_flight=tokens_in_flight,
                waiting=waiting,
            )
            return policy.select(PolicyContext(time=0.0, generation=generation))

        assert select(99) == DecodePressureRatioPolicy.BASE_RATIO == 0.0
        assert select(60, prefill_tokens=20, waiting=2) == 1.0
        assert select(60, prefill_tokens=20, waiting=1) == 0.0
        assert select(100) == DecodePressureRatioPolicy.PRESSED_RATIO == 1.0
        assert policy.switches == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            DecodePressureRatioPolicy(pressure_threshold=0)

    @pytest.mark.parametrize("weight", [float("nan"), -1.0, float("inf")])
    def test_a_waiting_weight_that_is_no_pressure_is_refused(self, weight):
        # A NaN weight never reaches the threshold (the policy would pin
        # BASE_RATIO); a negative one makes a longer queue less pressure.
        with pytest.raises(ValueError, match="waiting_weight"):
            DecodePressureRatioPolicy(pressure_threshold=900, waiting_weight=weight)
        assert DecodePressureRatioPolicy(900, waiting_weight=0).waiting_weight == 0.0

    @pytest.mark.parametrize("ratio", [math.nan, 1.5, -0.1])
    def test_an_unpriced_ratio_is_refused(self, backend, ratio):
        # An empty prompt that emits only its prefill token costs nothing, so
        # no price is read: the ratio is refused all the same.
        scheduler = IterationScheduler(backend, policy=_Answering(ratio))
        with pytest.raises(ValueError, match="ratio"):
            scheduler.run(gen_requests([(0.0, 0, 1)]))


class _Answering(FixedRatioPolicy):
    """Answers ``answer``, whatever it is."""

    def __init__(self, answer):
        super().__init__(0.0)
        self.answer = answer

    def select(self, context):
        return self.answer


# ----------------------------------------------------------------------
# Derived progress: a sequence's tokens are read, never stored
# ----------------------------------------------------------------------
class TestDerivedProgress:
    def test_a_response_owns_its_token_times(self, backend):
        requests = gen_requests([(0.0, 64, 5), (0.0, 32, 5), (0.01, 96, 3)])
        result = IterationScheduler(backend, max_batch=4).run(requests)
        before = [list(r.token_times) for r in result.responses]
        stream = result.streaming()
        result.responses[0].token_times.append(99.0)
        assert [r.token_times for r in result.responses[1:]] == before[1:]
        result.responses[0].token_times.pop()
        assert result.streaming() == stream

    def test_every_read_of_token_times_is_a_new_list(self, backend):
        scheduler = IterationScheduler(backend, max_batch=4)
        scheduler.start(gen_requests([(0.0, 64, 5), (0.0, 32, 3)]))
        scheduler.step()
        scheduler.step()
        for seq in scheduler._session.sequences:
            first, second = seq.token_times, seq.token_times
            assert first == second and first is not second
            first.append(99.0)
            assert seq.token_times == second
        scheduler.finish()

    def test_a_sequence_that_never_joined_reads_nothing(self, backend):
        seq = SequenceState(
            request=None, slot=0, arrival=0.0, prompt_tokens=8, max_new_tokens=3,
        )
        assert (seq.generated, seq.token_times, seq.finish_time) == (0, [], None)
        scheduler = IterationScheduler(backend, max_batch=1)
        scheduler.start(gen_requests([(0.0, 64, 5), (0.0, 32, 3)]))
        scheduler.step()
        waiting = scheduler._session.sequences[1]
        assert (waiting.generated, waiting.token_times, waiting.finish_time) == (0, [], None)
        scheduler.finish()


# ----------------------------------------------------------------------
# Iteration records and the backend's price memo
# ----------------------------------------------------------------------
def pressure_scheduler(backend, max_batch=4):
    return IterationScheduler(
        backend, max_batch=max_batch, admission=PrefillPriorityAdmission(),
        policy=DecodePressureRatioPolicy(pressure_threshold=900, waiting_weight=64.0),
    )


def outcome_bytes(result):
    """Every iteration, response, duration and busy time, as exact text."""
    return repr((
        result.iterations, result.responses, result.duration,
        result.server_busy_times,
    ))


class TestIterationRecords:
    def test_the_result_keeps_the_records_step_returned(self, backend):
        scheduler = pressure_scheduler(backend)
        scheduler.start(mixed_trace(rate=200, duration=0.5))
        stepped = [scheduler.step() for _ in range(7)]
        iterations = scheduler.finish().iterations
        assert type(iterations) is list and len(iterations) > 7
        assert all(kept is record for kept, record in zip(iterations, stepped))

    def test_run_to_completion_returns_a_list(self, backend):
        result = run_to_completion(mixed_trace(duration=0.5), backend, max_batch=4)
        assert type(result.iterations) is list and result.iterations

    def test_a_warm_backend_asks_the_model_nothing(self, gen_model, monkeypatch):
        backend = ModeledGenerationBackend(gen_model)
        requests = mixed_trace(duration=0.5)
        cold = pressure_scheduler(backend).run(requests)

        def unpriced(*args):
            raise AssertionError(f"a warm backend priced {args} again")

        monkeypatch.setattr(gen_model, "prefill_latency", unpriced)
        monkeypatch.setattr(gen_model, "decode_latency", unpriced)
        warm = pressure_scheduler(backend).run(requests)
        assert outcome_bytes(warm) == outcome_bytes(cold)

    def test_every_price_goes_through_the_backend_methods(self, gen_model):
        # A wrapper on the instance's methods sees every price an iteration
        # pays, memoized or not: one per prefill, one per decode step.
        backend = ModeledGenerationBackend(gen_model)
        seen = {"prefill_seconds": 0, "decode_seconds": 0}
        for name in seen:
            method = getattr(backend, name)

            def counted(*args, name=name, method=method):
                seen[name] += 1
                return method(*args)

            setattr(backend, name, counted)
        result = pressure_scheduler(backend).run(mixed_trace(duration=0.5))
        assert seen == {
            "prefill_seconds": len(result.responses),
            "decode_seconds": sum(1 for width in decode_widths(result) if width),
        }

    def test_the_service_model_is_read_only(self, gen_model):
        backend = ModeledGenerationBackend(gen_model)
        assert backend.service_model is gen_model
        with pytest.raises(AttributeError):
            backend.service_model = ServiceTimeModel("vit_base", gpu="a6000")


# ----------------------------------------------------------------------
# The arrived queue against its specification (the naive scan)
# ----------------------------------------------------------------------
class _WatchedScheduler(IterationScheduler):
    """Remembers the candidate list each iteration handed to admission."""

    def _candidates(self, s, start):
        candidates = super()._candidates(s, start)
        self.candidates = list(candidates)
        return candidates


def spec_waiting(session):
    """Every sequence that is neither finished nor running, by full scan."""
    running = {seq.slot for seq in session.running}
    return [
        seq for seq in session.sequences
        if seq.finish_time is None and seq.slot not in running
    ]


def spec_next_start(session):
    """The next iteration's start, from the whole waiting set."""
    if session.running:
        return session.free_at
    first = min((seq.arrival for seq in spec_waiting(session)), default=None)
    return None if first is None else max(session.free_at, first)


def queue_ranks(requests):
    """Each slot's ``(FIFO key, arrival, slot)``: the order the engine
    queues on, from ``FifoScheduler.keys`` over the requests' store."""
    store = RequestStore.from_requests(requests)
    keys = FifoScheduler().keys(store, np.arange(len(store)))
    return [(key, arrival, slot) for slot, (key, arrival) in enumerate(
        zip(keys, store.arrivals.tolist())
    )]


def spec_candidates(session, ranks, start):
    """The specification: filter the whole waiting set, then sort it."""
    return sorted(
        (seq for seq in spec_waiting(session) if seq.arrival <= start),
        key=lambda seq: ranks[seq.slot],
    )


def spec_iteration(session, scheduler, candidates):
    """What the next iteration must do, restated naively.

    Returns the members in running order after the joins, the prefillers,
    the decoders, every member's generated count after the prefills, and
    the context the ratio policy must see.
    """
    running = list(session.running)
    free = scheduler.max_batch - len(running)
    in_flight = sum(seq.prompt_tokens + seq.generated for seq in running)
    joiners = []
    if free > 0 and candidates:
        joiners = list(scheduler.admission.admit(candidates, running, free))
    if not running and not joiners and candidates:
        joiners = [candidates[0]]  # the starvation guard
    members = running + joiners
    prefilled = {seq.slot: max(seq.generated, 1) for seq in members}
    decoders = [seq for seq in members if prefilled[seq.slot] < seq.max_new_tokens]
    context = (
        len(candidates),
        GenerationStepContext(
            prefill_tokens=sum(seq.prompt_tokens for seq in joiners),
            tokens_in_flight=in_flight,
            waiting=len(candidates) - len(joiners),
        ),
    )
    return members, joiners, decoders, prefilled, context


class _ContextKeeper(FixedRatioPolicy):
    """Ratio 0, keeping the context the latest iteration asked with."""

    def select(self, context):
        self.context = context
        return self.ratio


def check_iteration(record, policy, backend, expected):
    """The executed iteration against :func:`spec_iteration`'s restatement;
    returns the survivors' slots in running order."""
    members, prefillers, decoders, prefilled, context = expected
    seen = policy.context
    assert (seen.queue_depth, seen.generation) == context
    assert (seen.time, seen.server, seen.telemetry) == (record.start, 0, None)
    finish = record.start
    for seq in prefillers:
        finish += backend.prefill_seconds(seq.prompt_tokens, "flexiq", record.ratio)
    if decoders:
        finish += backend.decode_seconds(len(decoders), "flexiq", record.ratio)
    assert record.size == len(prefillers) + len(decoders)
    assert record.finish == finish
    decoding = {seq.slot for seq in decoders}
    for seq in members:
        assert seq.generated == prefilled[seq.slot] + (seq.slot in decoding)
    assert all(seq.token_times[-1] == finish for seq in decoders)
    retired = [seq.generated == seq.max_new_tokens for seq in members]
    for seq, done in zip(members, retired):
        assert seq.finish_time == (seq.token_times[-1] if done else None)
    return [seq.slot for seq, done in zip(members, retired) if not done]


ADMISSIONS = {
    "fcfs": FcfsAdmission,
    "prefill": PrefillPriorityAdmission,
    "budget": lambda: TokenBudgetAdmission(700),
    "budget_prefill": lambda: TokenBudgetAdmission(700, within=PrefillPriorityAdmission()),
}


def run_against_spec(backend, profiles, max_batch, admission):
    """Step a run, checking every iteration against the naive scan.

    ``profiles`` are (arrival, prompt, new tokens).  Returns the result.
    """
    requests = [
        Request(float(arrival), "m", request_id=i, prefill_tokens=prompt,
                max_new_tokens=new)
        for i, (arrival, prompt, new) in enumerate(profiles)
    ]
    watched = _WatchedScheduler(
        backend, max_batch=max_batch, admission=ADMISSIONS[admission](),
        policy=_ContextKeeper(),
    )
    watched.start(requests)
    session = watched._session
    ranks = queue_ranks(requests)
    latest_start = -math.inf
    while True:
        start = spec_next_start(session)
        if start is None:
            assert watched.step() is None
            break
        candidates = spec_candidates(session, ranks, start)
        iteration = spec_iteration(session, watched, candidates)
        record = watched.step()
        assert record.start == start >= latest_start
        latest_start = start
        assert [seq.slot for seq in watched.candidates] == [seq.slot for seq in candidates]
        survivors = check_iteration(record, watched.policy, watched.backend, iteration)
        # The survivors kept their running order.
        assert [seq.slot for seq in session.running] == survivors
        # Held once, in slot order: the arrived queue, then the sequences
        # the cursor has not reached.
        held = [seq.slot for seq in session.arrived] + [
            seq.slot for seq in session.sequences[session.pos:]
        ]
        assert held == [seq.slot for seq in spec_waiting(session)]
    result = watched.finish()
    assert all(response.finished for response in result.responses)
    assert result.tokens == sum(request.max_new_tokens for request in requests)
    return result


@st.composite
def generation_runs(draw):
    count = draw(st.integers(1, 40))
    if draw(st.booleans()):  # Poisson
        arrivals = PoissonTrace(
            400, duration=1.0, seed=draw(st.integers(0, 2**16))
        ).generate().arrival_times[:count]
        arrivals = list(arrivals) or [0.0]
        if draw(st.booleans()):  # snapped to a 5 ms grid: arrival ties
            arrivals = [math.floor(arrival / 0.005) * 0.005 for arrival in arrivals]
    else:  # bursts: several requests at the same instant
        gaps = draw(st.lists(
            st.sampled_from([0.0, 0.0, 0.0, 0.002, 0.03]), min_size=count, max_size=count,
        ))
        arrivals = list(np.cumsum(gaps))
    profile = st.tuples(st.sampled_from([0, 32, 96, 512]), st.sampled_from([1, 2, 6, 20]))
    shapes = draw(st.lists(profile, min_size=len(arrivals), max_size=len(arrivals)))
    return dict(
        profiles=[(arrival, *shape) for arrival, shape in zip(arrivals, shapes)],
        max_batch=draw(st.integers(1, 4)),
    )


class TestReadyQueueAgainstSpec:
    # One case per admission policy, so each is stepped on its own runs.
    @pytest.mark.parametrize("admission", sorted(ADMISSIONS))
    @settings(max_examples=75, deadline=None, derandomize=True, database=None)
    @given(run=generation_runs())
    def test_every_iteration_matches_the_naive_scan(self, backend, admission, run):
        run_against_spec(backend, admission=admission, **run)


@st.composite
def keyed_requests(draw):
    """Requests in a shuffled caller order, mixing no, nan and finite
    deadlines, priorities and equal arrivals: none of which FIFO reads."""
    count = draw(st.integers(1, 24))
    fields = st.tuples(
        st.sampled_from([0.0, 0.0, 0.001, 0.002, 0.01, 0.05]),
        st.sampled_from([0, 0, 1, 3]),
        st.sampled_from([None, float("nan"), 0.004, 0.03, 0.03, 1.0]),
        st.sampled_from([0, 8, 64, 200]),
        st.sampled_from([1, 2, 5]),
        st.booleans(),
    )
    drawn = draw(st.lists(fields, min_size=count, max_size=count))
    order = draw(st.permutations(range(count)))
    return [
        Request(
            arrival, "m", request_id=i if named else -1, priority=priority,
            deadline=deadline, prefill_tokens=prompt, max_new_tokens=new,
        )
        for i, (arrival, priority, deadline, prompt, new, named) in (
            (i, drawn[i]) for i in order
        )
    ]


class _RecordingAdmission(FcfsAdmission):
    """FCFS, remembering every joiner's slot in join order."""

    def __init__(self):
        self.joined = []

    def admit(self, waiting, running, slots):
        joiners = super().admit(waiting, running, slots)
        self.joined.extend(seq.slot for seq in joiners)
        return joiners


def queue_order_reference(requests, backend):
    """Prefill-only requests on one server, one at a time: each batch start
    takes the arrived request with the smallest queue rank, plain Python."""
    ranks = queue_ranks(requests)
    store = RequestStore.from_requests(requests)
    prompts = [store.request(slot).prefill_tokens for slot in range(len(store))]
    waiting = set(range(len(ranks)))
    clock, order = 0.0, []
    while waiting:
        start = max(clock, min(ranks[slot][1] for slot in waiting))
        slot = min((s for s in waiting if ranks[s][1] <= start), key=ranks.__getitem__)
        order.append(slot)
        waiting.remove(slot)
        clock = start + backend.prefill_seconds(prompts[slot], "flexiq", 0.0)
    return order


class TestOneQueueOrder:
    """Generation's queue order and request fields are the engine's: FIFO
    by ``FifoScheduler.keys``, fields read through the store."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(requests=keyed_requests(), max_batch=st.integers(1, 3))
    def test_generation_serves_the_engine_queue_order(self, backend, requests, max_batch):
        # The admission order, on prefill-only copies served one at a time.
        single = [
            Request(r.arrival_time, r.model, request_id=r.request_id,
                    priority=r.priority, deadline=r.deadline,
                    prefill_tokens=r.prefill_tokens, max_new_tokens=1)
            for r in requests
        ]
        admission = _RecordingAdmission()
        IterationScheduler(backend, max_batch=1, admission=admission).run(single)
        assert admission.joined == queue_order_reference(single, backend)

        generation = IterationScheduler(backend, max_batch=max_batch)
        generation.start(requests)
        session = generation._session
        result = generation.finish()
        store = RequestStore.from_requests(requests)
        # Every field the session reads is the caller's own request's.
        for slot, seq in enumerate(session.sequences):
            request = store.request(slot)
            assert seq.request is request
            assert (seq.slot, seq.arrival) == (slot, float(request.arrival_time))
            assert (seq.prompt_tokens, seq.max_new_tokens) == (
                request.prefill_tokens, request.max_new_tokens
            )
            response = result.responses[slot]
            assert response.request_id == (
                request.request_id if request.request_id >= 0 else slot
            )
            assert response.tokens == request.max_new_tokens


class TestOneServerCursor:
    """The cursor's cases on one FIFO server, each stepped against the naive
    scan: slots are the stable arrival sort, so the cursor meets the
    sequences in queue order and a start never moves back."""

    def test_caller_order_is_not_queue_order(self, backend):
        # Handed over latest first, the requests are still served by arrival.
        profiles = [(0.02, 32, 2), (0.01, 32, 2), (0.0, 32, 2)]
        result = run_against_spec(backend, profiles, max_batch=1, admission="fcfs")
        assert [response.request_id for response in result.responses] == [2, 1, 0]
        firsts = [response.token_times[0] for response in result.responses]
        assert firsts == sorted(firsts)

    def test_a_burst_joins_in_caller_order(self, backend):
        # Equal arrivals keep the caller's order: the store's sort is stable.
        profiles = [(0.0, prompt, 3) for prompt in (512, 32, 96, 256, 0, 64)]
        admission = _RecordingAdmission()
        IterationScheduler(backend, max_batch=2, admission=admission).run(
            gen_requests(profiles)
        )
        assert admission.joined == [0, 1, 2, 3, 4, 5]
        run_against_spec(backend, profiles, max_batch=2, admission="fcfs")

    def test_an_arrival_mid_iteration_joins_at_the_next_start(self, backend):
        profiles = [(0.0, 512, 3), (0.001, 32, 2)]
        result = run_against_spec(backend, profiles, max_batch=2, admission="fcfs")
        first, second = result.iterations[:2]
        assert first.finish > 0.001  # it arrived while the first one ran
        # One prefill and its first decode, then the arrival's prefill and
        # two decoders.
        assert first.size == 2
        assert (second.start, second.size) == (first.finish, 3)

    def test_an_idle_server_starts_at_the_next_arrival(self, backend):
        profiles = [(0.0, 32, 1), (5.0, 32, 1)]
        result = run_against_spec(backend, profiles, max_batch=4, admission="fcfs")
        first, second = result.iterations
        assert first.finish < 5.0
        assert (second.start, second.size) == (5.0, 1)
        assert result.duration == second.finish

    def test_a_rerun_starts_from_a_fresh_cursor(self, backend):
        scheduler = IterationScheduler(
            backend, max_batch=3, admission=PrefillPriorityAdmission()
        )
        requests = mixed_trace(rate=150, duration=0.5)
        first = scheduler.run(requests)
        scheduler.run(gen_requests([(0.0, 64, 4)]))
        again = scheduler.run(requests)
        assert again.iterations == first.iterations
        assert [r.token_times for r in again.responses] == [
            r.token_times for r in first.responses
        ]


class TestScaleIndependence:
    def test_far_future_requests_leave_the_horizon_untouched(self, backend):
        base = mixed_trace(rate=200, duration=0.5)
        policy = dict(pressure_threshold=900, waiting_weight=64.0)

        def run(requests):
            return IterationScheduler(
                backend, max_batch=4, admission=PrefillPriorityAdmission(),
                policy=DecodePressureRatioPolicy(**policy),
            ).run(requests)

        alone = run(base)
        tail = [
            Request(1000.0 + i, "m", prefill_tokens=64, max_new_tokens=2)
            for i in range(10 * len(base))
        ]
        longer = run(list(base) + tail)
        horizon = len(alone.iterations)
        assert longer.iterations[:horizon] == alone.iterations
        assert longer.iterations[horizon].start >= 1000.0
        for before, after in zip(alone.responses, longer.responses):
            assert after.token_times == before.token_times


# ----------------------------------------------------------------------
# streaming_summary edge cases (satellite: metrics robustness)
# ----------------------------------------------------------------------
class TestStreamingSummary:
    def test_prefill_only_requests_have_no_gaps(self):
        summary = streaming_summary(
            [[0.5], [1.0]], [0.0, 0.2], percentiles=(50, 99)
        )
        assert summary["ttft_p50"] == pytest.approx(0.65)
        assert math.isnan(summary["inter_token_p50"])
        assert math.isnan(summary["inter_token_p99"])
        assert summary["tokens"] == 2.0
        assert summary["tokens_per_sec"] == pytest.approx(2.0)  # last=1.0

    def test_single_token_mixed_with_streams(self):
        summary = streaming_summary(
            [[0.1], [0.2, 0.3, 0.4]], [0.0, 0.0], percentiles=(50,)
        )
        # Only the 3-token stream contributes gaps.
        assert summary["inter_token_p50"] == pytest.approx(0.1)
        assert summary["ttft_p50"] == pytest.approx(0.15)
        assert summary["tokens"] == 4.0

    def test_all_dropped_batch_reports_nan_and_zero_rate(self):
        summary = streaming_summary([[], [], []], [0.0, 0.1, 0.2])
        assert summary["requests"] == 3.0
        assert summary["tokens"] == 0.0
        assert summary["tokens_per_sec"] == 0.0
        assert math.isnan(summary["ttft_p50"])
        assert math.isnan(summary["inter_token_p99"])

    def test_dropped_requests_excluded_from_samples_only(self):
        served = streaming_summary([[0.5, 0.6]], [0.0], percentiles=(50,))
        with_drop = streaming_summary(
            [[0.5, 0.6], []], [0.0, 0.3], percentiles=(50,)
        )
        assert with_drop["ttft_p50"] == served["ttft_p50"]
        assert with_drop["requests"] == 2.0
        assert with_drop["tokens"] == served["tokens"]

    def test_empty_percentiles_yield_rates_only(self):
        summary = streaming_summary([[0.5]], [0.0], percentiles=())
        assert set(summary) == {"tokens_per_sec", "tokens", "requests"}

    def test_explicit_duration_overrides_last_token(self):
        summary = streaming_summary([[1.0, 2.0]], [0.0], duration=10.0)
        assert summary["tokens_per_sec"] == pytest.approx(0.2)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            streaming_summary([[0.5]], [0.0, 1.0])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        streams=st.lists(
            st.lists(st.floats(0.0, 50.0), max_size=6).map(sorted), max_size=8
        ),
        duration=st.one_of(st.none(), st.sampled_from([0.0, 2.5, 60.0])),
        percentiles=st.sampled_from([(), (50,), (50, 99), (0, 99.9, 100)]),
        data=st.data(),
    )
    def test_equals_the_per_gap_loop(self, streams, duration, percentiles, data):
        arrivals = data.draw(
            st.lists(st.floats(0.0, 50.0), min_size=len(streams), max_size=len(streams))
        )
        got = streaming_summary(streams, arrivals, duration, percentiles)
        want = per_gap_streaming_summary(streams, arrivals, duration, percentiles)
        # Every value bit for bit (nan included).
        assert {key: value.hex() for key, value in got.items()} == {
            key: value.hex() for key, value in want.items()
        }


def per_gap_streaming_summary(token_times, arrivals, duration, percentiles):
    """``streaming_summary`` as it was before it vectorized: one Python
    subtraction per inter-token gap.  The reference for the rewrite."""
    ttfts, gaps = [], []
    total_tokens = 0
    last = 0.0
    for times, arrival in zip(token_times, arrivals):
        if not len(times):
            continue
        total_tokens += len(times)
        ttfts.append(float(times[0]) - float(arrival))
        last = max(last, float(times[-1]))
        for earlier, later in zip(times, times[1:]):
            gaps.append(float(later) - float(earlier))
    if duration is None:
        duration = last
    summary = {}
    for label, values in (("ttft", ttfts), ("inter_token", gaps)):
        for key, value in latency_percentiles(values, percentiles).items():
            summary[f"{label}_{key}"] = value
    summary["tokens_per_sec"] = (
        total_tokens / float(duration) if duration and duration > 0 else 0.0
    )
    summary["tokens"] = float(total_tokens)
    summary["requests"] = float(len(arrivals))
    return summary


# ----------------------------------------------------------------------
# Acceptance: the example scenario
# ----------------------------------------------------------------------
class TestExampleScenario:
    def test_continuous_beats_static_and_switches_precision_mid_sequence(self):
        """The headline claim on the exact trace examples/continuous_batching.py
        shows: modeled costs and a fixed seed, so every comparison is exact."""
        example = load_example("continuous_batching")
        outcomes = example.generation_scenario()
        static = outcomes["run-to-completion"]
        continuous = outcomes["continuous (fcfs)"]
        static_stream = static.streaming((99,))
        continuous_stream = continuous.streaming((99,))
        assert continuous_stream["ttft_p99"] < static_stream["ttft_p99"]
        assert continuous_stream["tokens_per_sec"] > static_stream["tokens_per_sec"]
        # Both schedules generate every requested token of every request.
        assert continuous.tokens == static.tokens > 0
        assert len(continuous.responses) == len(static.responses) > 0
        # Many small iterations, not a few big batches.
        assert len(continuous.iterations) > len(static.iterations)
        # The decode-pressure policy really changes the ratio between
        # iterations of sequences already in flight.
        adaptive = outcomes["continuous (decode-pressure int4)"]
        assert example.ratio_switches(adaptive) >= 1
