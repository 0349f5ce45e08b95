"""Tests for the iteration-level generation subsystem (continuous batching).

Covers the PR 7 tentpole end to end: the prefill/decode cost split on
:class:`ServiceTimeModel`, the :class:`IterationScheduler` loop (join/retire
at iteration boundaries, admission policies, starvation guard), the
run-to-completion baseline and the headline continuous-beats-static claim,
mid-sequence precision switching through the generation policy context,
streaming token telemetry (tokens/sec + TTFT windows), preemption of
in-flight sequences with generated-token progress (composing with
``StepCheckpoint`` salvage and transfer pricing), real execution through
``RuntimeExecutor.execute_step``, and the ``streaming_summary`` edge cases
(prefill-only, single-token, all-dropped, empty percentile lists).

The ready queue (calendar of future sequences + arrived queue in admission
order) is checked against its specification, the naive scan of the whole
waiting set, on generated configurations (``TestReadyQueueAgainstSpec``),
and each iteration those runs execute against a naive restatement of it
(joiners, prefill costs in joiner order, one decode, retirees in running
order); its cost is gated by counts, not wall-clock
(``TestScaleIndependence``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.traces import PoissonTrace
from repro.serving import (
    DecodePressureRatioPolicy,
    EdfScheduler,
    FcfsAdmission,
    FifoScheduler,
    IterationScheduler,
    ModeledExecutor,
    ModeledGenerationBackend,
    PolicyContext,
    PrefillPriorityAdmission,
    PriorityScheduler,
    Request,
    RequestStore,
    RuntimeExecutor,
    RuntimeGenerationBackend,
    ServiceTimeModel,
    ServingEngine,
    StepCheckpoint,
    TelemetryBus,
    TokenBudgetAdmission,
    requests_from_trace,
    run_to_completion,
    streaming_summary,
)
from repro.serving.generation import SequenceState
from repro.serving.metrics import latency_percentiles
from repro.serving.policies import FixedRatioPolicy, GenerationStepContext
from test_examples import load_example


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
        model = ServiceTimeModel(
            "vit_base", gpu="a6000", prefill_tokens_per_sample=32
        )
        assert model.decode_token_fraction == pytest.approx(1.0 / 32)

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceTimeModel("vit_base", prefill_tokens_per_sample=0)
        with pytest.raises(ValueError):
            ServiceTimeModel("vit_base", decode_token_fraction=0.0)


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
        assert len(result.iterations) == 1
        assert result.iterations[0].prefills == 1
        assert result.iterations[0].decode_width == 0

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
        widths = [record.decode_width for record in result.iterations]
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
    def test_fcfs_respects_scheduler_discipline(self, backend):
        # With a priority scheduler, the high-priority late sequence is
        # admitted ahead of earlier low-priority ones (discipline key, then
        # arrival, then slot — the engine's queue ordering).
        requests = [
            Request(0.0, "m", request_id=0, priority=0, prefill_tokens=64, max_new_tokens=4),
            Request(0.0, "m", request_id=1, priority=0, prefill_tokens=64, max_new_tokens=4),
            Request(0.0, "m", request_id=2, priority=5, prefill_tokens=64, max_new_tokens=4),
        ]
        result = IterationScheduler(
            backend, max_batch=1, scheduler=PriorityScheduler()
        ).run(requests)
        by_id = {r.request_id: r for r in result.responses}
        assert by_id[2].ttft < by_id[0].ttft < by_id[1].ttft

    def test_edf_ranks_a_nan_deadline_as_no_deadline(self):
        # nan is the store's "no deadline"; admission must rank it last, as
        # it ranks None, not first.
        def run(first_deadline):
            requests = [
                Request(0.0, "m", request_id=i, deadline=deadline,
                        prefill_tokens=8, max_new_tokens=1)
                for i, deadline in enumerate((first_deadline, 0.5, 0.2, None))
            ]
            return IterationScheduler(
                ModeledGenerationBackend(ServiceTimeModel()), max_batch=1,
                scheduler=EdfScheduler(),
            ).run(requests)

        with_nan, with_none = run(float("nan")), run(None)
        assert [r.token_times for r in with_nan.responses] == [
            r.token_times for r in with_none.responses
        ]
        assert with_nan.iterations == with_none.iterations
        ttfts = [r.ttft for r in with_nan.responses]
        assert ttfts[2] < ttfts[1] < ttfts[0]

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
                max_new_tokens=2, ready=0.0,
            )

        waiting = [seq(slot, prompt) for slot, prompt in enumerate([96, 32, 512, 32, 96, 8])]
        policy = PrefillPriorityAdmission()
        full = sorted(range(len(waiting)), key=lambda i: (waiting[i].prompt_tokens, i))
        for slots in range(1, len(waiting) + 2):
            # Same (prompt_tokens, queue position) order as a full sort.
            assert [s.slot for s in policy.admit(waiting, [], slots)] == full[:slots]
        assert policy.admit(waiting, [], 0) == []
        assert policy.admit(waiting, [], -3) == []

    def test_token_budget_caps_batch_footprint(self, backend):
        # Budget fits one 64-token sequence (+ its generated tokens) but
        # not two, so the second waits for the first to retire even
        # though a batch slot is free.
        requests = gen_requests([(0.0, 64, 4), (0.0, 64, 4)])
        result = IterationScheduler(
            backend, max_batch=8, admission=TokenBudgetAdmission(100)
        ).run(requests)
        assert all(r.finished for r in result.responses)
        assert max(record.decode_width for record in result.iterations) == 1
        first, second = result.responses
        assert second.token_times[0] > first.finish_time

    def test_token_budget_force_admits_oversized_prompt(self, backend):
        # A prompt larger than the whole budget still serves (alone): the
        # starvation guard admits the queue head into an empty batch.
        requests = gen_requests([(0.0, 512, 2)])
        result = IterationScheduler(
            backend, admission=TokenBudgetAdmission(100)
        ).run(requests)
        assert result.responses[0].finished

    def test_token_budget_composes_with_prefill_priority(self, backend):
        policy = TokenBudgetAdmission(200, within=PrefillPriorityAdmission())
        requests = gen_requests([(0.0, 150, 4), (0.0, 32, 4)])
        result = IterationScheduler(
            backend, max_batch=8, admission=policy
        ).run(requests)
        by_id = {r.request_id: r for r in result.responses}
        # The short prompt is ordered first by the inner policy and fits;
        # the 150-token one would blow the budget alongside it and waits.
        assert by_id[1].ttft < by_id[0].ttft

    def test_token_budget_validation(self):
        with pytest.raises(ValueError):
            TokenBudgetAdmission(0)

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

    def test_queue_depth_fallback_without_generation_context(self):
        policy = DecodePressureRatioPolicy(
            pressure_threshold=100, queue_depth_fallback=4
        )
        assert policy.select(PolicyContext(time=0.0, queue_depth=2)) == 0.0
        assert policy.select(PolicyContext(time=0.0, queue_depth=9)) == 1.0
        assert policy.switches == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            DecodePressureRatioPolicy(pressure_threshold=0)


# ----------------------------------------------------------------------
# Streaming telemetry
# ----------------------------------------------------------------------
class TestStreamingTelemetry:
    def test_token_windows_account_every_token(self, backend):
        requests = mixed_trace(rate=80, duration=1.0)
        bus = TelemetryBus(window=0.1)
        result = IterationScheduler(
            backend, max_batch=8, telemetry=bus
        ).run(requests)
        windowed = sum(
            bus.token_rate(0, w) * bus.window
            for w in range(bus.last_window + 1)
        )
        assert windowed == pytest.approx(result.tokens)
        assert bus.token_rate(0, -1) == 0.0

    def test_window_stats_expose_token_rate_and_ttft(self, backend):
        requests = gen_requests([(0.0, 64, 8), (0.0, 64, 8)])
        bus = TelemetryBus(window=10.0)  # one window covers the run
        result = IterationScheduler(backend, telemetry=bus).run(requests)
        stats = bus.server_window(0, 0)
        assert stats.tokens == result.tokens
        assert stats.tokens_per_sec == pytest.approx(result.tokens / 10.0)
        expected_ttft = max(r.ttft for r in result.responses)
        assert stats.ttft_percentile(100) == pytest.approx(expected_ttft)
        cluster = bus.cluster_window(0)
        assert cluster.tokens == result.tokens
        assert cluster.ttft_percentile(100) == pytest.approx(expected_ttft)

    @pytest.mark.parametrize("loop", ["generation", "engine"])
    def test_a_nan_deadline_is_no_deadline(self, loop):
        # nan is the store's "no deadline".  Generation telemetry used to
        # count it as a deadline carried and missed: window 0 read
        # deadline_total 3, deadline_met 0, slo_attainment 0.0, where the
        # engine read 0, 0, nan.
        def window_zero(deadline):
            bus = TelemetryBus(window=1.0)
            requests = [
                Request(0.0, "m", request_id=i, deadline=deadline,
                        prefill_tokens=8, max_new_tokens=3)
                for i in range(3)
            ]
            if loop == "generation":
                IterationScheduler(
                    ModeledGenerationBackend(ServiceTimeModel()), max_batch=4,
                    telemetry=bus,
                ).run(requests)
            else:
                engine = ServingEngine(telemetry=bus)
                engine.register("m", ModeledExecutor(ServiceTimeModel()))
                engine.run(requests=requests)
            stats = bus.server_window(0, 0)
            return stats.deadline_total, stats.deadline_met, stats.slo_attainment

        with_nan, with_none = window_zero(float("nan")), window_zero(None)
        assert with_nan[:2] == with_none[:2] == (0, 0)
        assert math.isnan(with_nan[2]) and math.isnan(with_none[2])

    def test_one_shot_windows_report_zero_tokens(self):
        bus = TelemetryBus(window=1.0)
        assert bus.token_rate(0, 0) == 0.0
        assert bus.server_window(0, 0).tokens_per_sec == 0.0


# ----------------------------------------------------------------------
# Preemption: migrating in-flight sequences with their progress
# ----------------------------------------------------------------------
class TestGenerationPreemption:
    def _run_with_preemption(self, backend, checkpoint=None, delay=0.0):
        requests = gen_requests(
            [(0.0, 64, 40), (0.0, 64, 40), (0.0, 64, 40), (0.0, 64, 40)]
        )
        scheduler = IterationScheduler(backend, max_batch=2, num_servers=2)
        scheduler.start(requests)
        records = []
        for _ in range(12):
            record = scheduler.step()
            assert record is not None
            records.append(record)
        # Kill server 0 halfway through its latest (in-flight) iteration.
        last = [r for r in records if r.server == 0][-1]
        kill_time = (last.start + last.finish) / 2.0
        report = scheduler.preempt_server(
            0, kill_time, delay=delay, checkpoint=checkpoint
        )
        result = scheduler.finish()
        return report, result, kill_time

    def test_victims_keep_generated_tokens(self, backend):
        report, result, kill_time = self._run_with_preemption(backend)
        assert report.migrated == 2
        assert result.migrated == 2
        assert all(r.finished for r in result.responses)
        assert result.tokens == 4 * 40
        migrants = [r for r in result.responses if r.migrations > 0]
        assert len(migrants) == 2
        for migrant in migrants:
            # Natural checkpoints: tokens from completed iterations
            # survived the crash; the rest were generated after it.
            survived = [t for t in migrant.token_times if t <= kill_time]
            resumed = [t for t in migrant.token_times if t > kill_time]
            assert survived and resumed
            assert migrant.tokens == 40
            assert list(migrant.token_times) == sorted(migrant.token_times)
            assert migrant.server == 1  # finished on the survivor

    def test_in_flight_iteration_rewound_exactly(self, backend):
        report, result, kill_time = self._run_with_preemption(backend)
        assert report.iterations == 1
        # No record of the dead server's killed iteration remains.
        for record in result.iterations:
            if record.server == 0:
                assert record.finish <= kill_time

    def test_checkpoint_restore_prices_migration(self, backend):
        # The transfer is priced large enough to outlast the survivor's
        # own backlog, so the migrants' resume time is transfer-bound.
        checkpoint = StepCheckpoint(
            steps=4, transfer_cost=0.05, transfer_per_step=0.01
        )
        _, priced, kill_time = self._run_with_preemption(
            backend, checkpoint=checkpoint
        )
        _, free, _ = self._run_with_preemption(backend)
        priced_migrants = [r for r in priced.responses if r.migrations > 0]
        free_migrants = [r for r in free.responses if r.migrations > 0]
        for migrant in priced_migrants:
            resumed = min(t for t in migrant.token_times if t > kill_time)
            # The migrant cannot resume before its state transfer lands.
            assert resumed >= kill_time + checkpoint.transfer_cost
        # Transfer pricing delays the migrants relative to the free run.
        assert max(r.finish_time for r in priced_migrants) > max(
            r.finish_time for r in free_migrants
        )

    def test_checkpoint_salvages_partial_prefill(self, backend, gen_model):
        # Kill the server mid-prefill: with a StepCheckpoint the victim
        # resumes paying only the residual prefill, so its first token
        # lands earlier than under the checkpoint-free rerun.
        prefill = gen_model.prefill_latency(512, "flexiq", 0.0)

        def run(checkpoint):
            scheduler = IterationScheduler(backend, num_servers=2)
            scheduler.start(gen_requests([(0.0, 512, 4)]))
            assert scheduler.step() is not None
            scheduler.preempt_server(0, prefill * 0.9, checkpoint=checkpoint)
            return scheduler.finish().responses[0]

        salvaged = run(StepCheckpoint(steps=4))
        lost = run(None)
        assert salvaged.finished and lost.finished
        assert salvaged.migrations == 1 and lost.migrations == 1
        assert salvaged.ttft < lost.ttft

    def test_preemption_telemetry_stays_consistent(self, backend):
        requests = gen_requests([(0.0, 64, 30)] * 4)
        bus = TelemetryBus(window=0.02, num_servers=2)
        scheduler = IterationScheduler(
            backend, max_batch=2, num_servers=2, telemetry=bus
        )
        scheduler.start(requests)
        for _ in range(10):
            assert scheduler.step() is not None
        scheduler.preempt_server(0, 0.04)
        result = scheduler.finish()
        windowed = sum(
            bus.token_rate(server, w) * bus.window
            for server in (0, 1)
            for w in range(bus.last_window + 1)
        )
        # Exact inverse accounting: rewound iterations left no residue.
        assert windowed == pytest.approx(result.tokens)

    def test_preemption_restores_the_server_clock(self, backend):
        # Server 1 crashes, recovers at 0.05 and starts an iteration there.
        # A second crash reported for an earlier time rewinds that
        # iteration; the clock goes back to what it was before it (the
        # recovery time), not to the crash time.
        def step_to(server):
            for record in iter(scheduler.step, None):
                if record.server == server:
                    return record
            raise AssertionError(f"server {server} took no iteration")

        scheduler = IterationScheduler(backend, max_batch=1, num_servers=2)
        scheduler.start(gen_requests([(0.0, 64, 400), (0.0, 64, 400)]))
        session = scheduler._session
        first = step_to(1)
        scheduler.preempt_server(1, first.finish)
        scheduler.activate_server(1, available_from=0.05)
        record = step_to(1)
        assert record.start == 0.05
        report = scheduler.preempt_server(1, 0.025)
        assert report.iterations == 1
        assert session.free_at[1] == 0.05
        # A crash after the iteration started moves the clock to the crash.
        scheduler.activate_server(1)
        record = step_to(1)
        kill_time = (record.start + record.finish) / 2
        scheduler.preempt_server(1, kill_time)
        assert session.free_at[1] == kill_time
        scheduler.activate_server(1)
        result = scheduler.finish()
        assert all(r.finished for r in result.responses)
        assert result.tokens == 800

    def test_inactive_server_takes_no_more_iterations(self, backend):
        scheduler = IterationScheduler(backend, num_servers=2)
        scheduler.start(gen_requests([(0.0, 64, 10)] * 2))
        assert scheduler.step() is not None
        scheduler.preempt_server(0, 0.001)
        assert scheduler.active_servers == [1]
        result = scheduler.finish()
        post_kill = [r for r in result.iterations if r.start > 0.001]
        assert post_kill and all(r.server == 1 for r in post_kill)


# ----------------------------------------------------------------------
# The ready queue against its specification (the naive scan)
# ----------------------------------------------------------------------
class _WatchedScheduler(IterationScheduler):
    """Remembers the candidate list each iteration handed to admission."""

    def _candidates(self, s, start):
        self.candidates = super()._candidates(s, start)
        return self.candidates


def spec_waiting(session):
    """Every sequence that is neither finished nor running, by full scan."""
    running = {slot for members in session.running for slot in members}
    return [
        seq for seq in session.sequences
        if seq.finish_time is None and seq.slot not in running
    ]


def spec_next_iteration(session):
    """(server, start) of the next iteration, from the whole waiting set."""
    min_ready = min((seq.ready for seq in spec_waiting(session)), default=None)
    starts = []
    for server in session.active:
        if session.running[server]:
            starts.append((session.free_at[server], server))
        elif min_ready is not None:
            starts.append((max(session.free_at[server], min_ready), server))
    if not starts:
        return None
    start, server = min(starts)
    return server, start


def queue_ranks(requests, scheduler):
    """Each slot's ``(discipline key, arrival, slot)``: the order the engine
    queues on, from ``scheduler.keys`` over the requests' store."""
    store = RequestStore.from_requests(requests)
    keys = scheduler.keys(store, np.arange(len(store)))
    return [(key, arrival, slot) for slot, (key, arrival) in enumerate(
        zip(keys, store.arrivals.tolist())
    )]


def spec_candidates(session, ranks, start):
    """The specification: filter the whole waiting set, then sort it."""
    return sorted(
        (seq for seq in spec_waiting(session) if seq.ready <= start),
        key=lambda seq: ranks[seq.slot],
    )


def spec_iteration(session, scheduler, server, candidates):
    """What the next iteration on ``server`` must do, restated naively.

    Returns the members in running order after the joins, the prefillers
    with their prior prefill progress, the decoders, every member's
    generated count after the prefills, and the context the ratio policy
    must see.
    """
    running = [session.sequences[slot] for slot in session.running[server]]
    free = scheduler.max_batch - len(running)
    joiners = []
    if free > 0 and candidates:
        joiners = list(scheduler.admission.admit(candidates, running, free))
    if not running and not joiners and candidates:
        joiners = [candidates[0]]  # the starvation guard
    members = running + joiners
    prefillers = [(seq, seq.prefill_progress) for seq in joiners if seq.generated == 0]
    prefilled = {seq.slot: max(seq.generated, 1) for seq in members}
    decoders = [seq for seq in members if prefilled[seq.slot] < seq.max_new_tokens]
    context = (
        len(candidates), len(members), len(session.active),
        GenerationStepContext(
            iteration=session.iter_count[server],
            decode_width=len(decoders),
            prefill_requests=len(prefillers),
            prefill_tokens=sum(seq.prompt_tokens for seq, _ in prefillers),
            tokens_in_flight=sum(seq.prompt_tokens + seq.generated for seq in running),
            waiting=len(candidates) - len(joiners),
        ),
    )
    return members, prefillers, decoders, prefilled, context


class _ContextKeeper(FixedRatioPolicy):
    """Ratio 0, keeping the context the latest iteration asked with."""

    def select(self, context):
        self.context = context
        return self.ratio


def check_iteration(record, policy, backend, mode, expected):
    """The executed iteration against :func:`spec_iteration`'s restatement."""
    members, prefillers, decoders, prefilled, context = expected
    seen = policy.context
    assert (seen.queue_depth, seen.batch_size, seen.num_active, seen.generation) == context
    assert (seen.time, seen.server) == (record.start, record.server)
    finish = record.start
    for seq, progress in prefillers:
        finish += backend.prefill_seconds(seq.prompt_tokens, mode, record.ratio) * (
            1.0 - progress
        )
    if decoders:
        finish += backend.decode_seconds(len(decoders), mode, record.ratio)
    assert (record.prefills, record.decode_width) == (len(prefillers), len(decoders))
    assert record.size == record.tokens == len(prefillers) + len(decoders)
    assert record.finish == finish
    decoding = {seq.slot for seq in decoders}
    for seq in members:
        assert seq.generated == prefilled[seq.slot] + (seq.slot in decoding)
    assert all(seq.token_times[-1] == finish for seq in decoders)
    retired = [seq.generated == seq.max_new_tokens for seq in members]
    for seq, done in zip(members, retired):
        assert seq.finish_time == (seq.token_times[-1] if done else None)
    return (
        [seq.slot for seq, done in zip(members, retired) if done],
        [seq.slot for seq, done in zip(members, retired) if not done],
    )


ADMISSIONS = {
    "fcfs": FcfsAdmission,
    "prefill": PrefillPriorityAdmission,
    "budget": lambda: TokenBudgetAdmission(700),
    "budget_prefill": lambda: TokenBudgetAdmission(700, within=PrefillPriorityAdmission()),
}
SCHEDULERS = {"fifo": FifoScheduler, "priority": PriorityScheduler, "edf": EdfScheduler}


def run_against_spec(backend, profiles, num_servers, max_batch, admission, scheduler, actions):
    """Step a run, checking every iteration against the naive scan.

    ``profiles`` are (arrival, prompt, new tokens, priority, slo or None);
    ``actions`` are (steps before it, kind, server pick, time pick, delay,
    checkpointed) control calls made between steps.  Returns the result and
    whether some iteration started before an earlier one.
    """
    requests = [
        Request(
            float(arrival), "m", request_id=i, priority=priority,
            deadline=None if slo is None else float(arrival) + slo,
            prefill_tokens=prompt, max_new_tokens=new,
        )
        for i, (arrival, prompt, new, priority, slo) in enumerate(profiles)
    ]
    discipline = SCHEDULERS[scheduler]()
    watched = _WatchedScheduler(
        backend, max_batch=max_batch, num_servers=num_servers,
        admission=ADMISSIONS[admission](), scheduler=discipline, policy=_ContextKeeper(),
    )
    watched.start(requests)
    session = watched._session
    ranks = queue_ranks(requests, discipline)
    crashed_at = {}
    latest_start = -math.inf
    went_back = False

    def step():
        nonlocal latest_start, went_back
        expected = spec_next_iteration(session)
        if expected is None:
            assert watched.step() is None
            return None
        server, start = expected
        candidates = spec_candidates(session, ranks, start)
        iteration = spec_iteration(session, watched, server, candidates)
        record = watched.step()
        assert (record.server, record.start) == (server, start)
        assert [seq.slot for seq in watched.candidates] == [seq.slot for seq in candidates]
        assert record.queue_depth == len(candidates)
        retirees, survivors = check_iteration(
            record, watched.policy, watched.backends[server], watched.mode, iteration
        )
        # The retirees left in running order; the survivors kept theirs.
        assert session.undo[server].retired == retirees
        assert session.running[server] == survivors
        # Held once: nothing both arrived and still on the ready heap.
        held = [seq.slot for _, seq in session.arrived] + [
            slot for _, slot in session.ready_heap
        ]
        assert sorted(held) == sorted(seq.slot for seq in spec_waiting(session))
        went_back = went_back or start < latest_start
        latest_start = max(latest_start, start)
        return record

    for steps, kind, pick, when, delay, checkpointed in actions:
        for _ in range(steps):
            if step() is None:
                break
        down = [k for k in range(num_servers) if k not in session.active]
        if kind == "activate" and down:
            server = down[pick % len(down)]
            mine = [r for r in session.iterations if r.server == server]
            available = {
                "settled": 0.0,
                "before": 0.0,
                "during": None,
                "after": mine[-1].finish + 0.01 if mine else None,
                "arrival": requests[-1].arrival_time,
            }[when]
            watched.activate_server(server, available_from=available)
        elif kind == "preempt" and session.active:
            server = session.active[pick % len(session.active)]
            mine = [r for r in session.iterations if r.server == server]
            # At most the server's latest iteration can be in flight: up
            # to its previous one's finish, and up to its previous crash,
            # the server's history is settled, and a crash time before
            # that is refused with nothing changed.
            floor = max(
                crashed_at.get(server, 0.0), mine[-2].finish if len(mine) > 1 else 0.0
            )
            if when == "settled":
                if floor > 0.0:
                    clocks = list(session.free_at), len(session.iterations)
                    with pytest.raises(ValueError, match=f"settled up to {floor!r}"):
                        watched.preempt_server(server, floor / 2, delay=delay)
                    assert (list(session.free_at), len(session.iterations)) == clocks
                    assert server in session.active
                continue
            if when == "arrival":
                # The victims become ready exactly when a later request
                # arrives (no checkpoint transfer): a tie on the ready heap.
                since = max(floor, mine[-1].start) if mine else floor
                time = min(
                    (r.arrival_time - delay for r in requests if r.arrival_time - delay >= since),
                    default=floor,
                )
                checkpointed = False
            elif not mine:
                time = floor
            else:
                time = {
                    "before": max(floor, mine[-1].start / 2),
                    "during": max(floor, (mine[-1].start + mine[-1].finish) / 2),
                    "after": max(floor, mine[-1].finish + 0.01),
                }[when]
            crashed_at[server] = time
            checkpoint = (
                StepCheckpoint(steps=4, transfer_cost=0.004, transfer_per_step=0.001)
                if checkpointed else None
            )
            watched.preempt_server(server, time, delay=delay, checkpoint=checkpoint)
    for server in range(num_servers):
        watched.activate_server(server)
    while step() is not None:
        pass
    result = watched.finish()
    assert all(response.finished for response in result.responses)
    assert result.tokens == sum(request.max_new_tokens for request in requests)
    return result, went_back


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
    profile = st.tuples(
        st.sampled_from([0, 32, 96, 512]),
        st.sampled_from([1, 2, 6, 20]),
        st.integers(0, 2),
        st.one_of(st.none(), st.sampled_from([0.01, 0.05, 0.5])),
    )
    shapes = draw(st.lists(profile, min_size=len(arrivals), max_size=len(arrivals)))
    action = st.tuples(
        st.integers(0, 25),
        st.sampled_from(["preempt", "activate"]),
        st.integers(0, 2),
        st.sampled_from(["settled", "before", "during", "after", "arrival"]),
        st.sampled_from([0.0, 0.02]),
        st.booleans(),
    )
    return dict(
        profiles=[(arrival, *shape) for arrival, shape in zip(arrivals, shapes)],
        num_servers=draw(st.integers(1, 3)),
        max_batch=draw(st.integers(1, 4)),
        admission=draw(st.sampled_from(sorted(ADMISSIONS))),
        scheduler=draw(st.sampled_from(sorted(SCHEDULERS))),
        actions=draw(st.lists(action, max_size=3)),
    )


class TestReadyQueueAgainstSpec:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(run=generation_runs())
    def test_every_iteration_matches_the_naive_scan(self, backend, run):
        run_against_spec(backend, **run)

    def test_start_that_moves_backwards(self, backend):
        # Server 1 is down while server 0 runs ahead and drains arrivals up
        # to its own clock.  Reactivated, server 1 starts *before* server
        # 0's latest iteration: sequences already in the arrived queue with
        # a later ready time are not candidates for it.
        profiles = [(0.002 * i, 96, 6, 0, None) for i in range(30)]
        _, went_back = run_against_spec(
            backend, profiles, num_servers=2, max_batch=1,
            admission="fcfs", scheduler="fifo",
            actions=[
                (3, "preempt", 1, "before", 0.0, False),
                (12, "activate", 0, "before", 0.0, False),
            ],
        )
        assert went_back

    def test_earliest_ready_is_not_the_queue_head(self, backend):
        # Shrunk from the generated test against a variant that read the
        # earliest ready time off the head of the arrived queue: under a
        # priority discipline the head is the most urgent entry, not the
        # one that has waited longest, and an idle server starts from the
        # earliest ready time of the whole queue.
        profiles = [
            (0.0017, 512, 1, 0, None), (0.0042, 0, 1, 0, None), (0.0043, 0, 1, 0, None),
            (0.0044, 0, 6, 0, None), (0.0057, 0, 1, 0, None), (0.0098, 0, 1, 1, None),
        ]
        run_against_spec(
            backend, profiles, num_servers=2, max_batch=1,
            admission="budget", scheduler="priority",
            actions=[
                (0, "preempt", 0, "before", 0.0, False),
                (6, "preempt", 0, "before", 0.0, False),
            ],
        )

    def test_migrant_is_queued_once(self, backend):
        # A victim that was admitted from the arrived queue, rewound and
        # requeued with a delay re-enters through the calendar only.
        profiles = [(0.0, 32, 20, p % 3, 0.05) for p in range(12)]
        result, _ = run_against_spec(
            backend, profiles, num_servers=3, max_batch=2,
            admission="budget_prefill", scheduler="edf",
            actions=[
                (4, "preempt", 0, "during", 0.02, True),
                (2, "preempt", 1, "after", 0.0, False),
                (5, "activate", 0, "during", 0.0, False),
            ],
        )
        assert result.migrated >= 2


@st.composite
def keyed_requests(draw):
    """Requests in a shuffled caller order, mixing no, nan and finite
    deadlines, equal keys and equal arrivals."""
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


def queue_order_reference(requests, scheduler, backend):
    """Prefill-only requests on one server, one at a time: each batch start
    takes the arrived request with the smallest queue rank, plain Python."""
    ranks = queue_ranks(requests, scheduler)
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
    """Generation's queue order, deadline counts and request fields are the
    engine's: read from ``scheduler.keys`` and the store's columns."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        requests=keyed_requests(),
        discipline=st.sampled_from(sorted(SCHEDULERS)),
        num_servers=st.integers(1, 2),
        max_batch=st.integers(1, 3),
        crash_after=st.one_of(st.none(), st.integers(1, 12)),
    )
    def test_generation_serves_the_engine_queue_order(
        self, backend, requests, discipline, num_servers, max_batch, crash_after
    ):
        scheduler = SCHEDULERS[discipline]()
        # The admission order, on prefill-only copies served one at a time.
        single = [
            Request(r.arrival_time, r.model, request_id=r.request_id,
                    priority=r.priority, deadline=r.deadline,
                    prefill_tokens=r.prefill_tokens, max_new_tokens=1)
            for r in requests
        ]
        admission = _RecordingAdmission()
        IterationScheduler(
            backend, max_batch=1, admission=admission, scheduler=scheduler
        ).run(single)
        assert admission.joined == queue_order_reference(single, scheduler, backend)

        # The retire loop's deadline counts, through a crash and its rewind.
        bus = TelemetryBus(window=0.01, num_servers=num_servers)
        generation = IterationScheduler(
            backend, max_batch=max_batch, num_servers=num_servers,
            scheduler=scheduler, telemetry=bus,
        )
        generation.start(requests)
        session = generation._session
        for _ in range(crash_after or 0):
            generation.step()
        if crash_after is not None and session.iterations:
            last = session.iterations[-1]
            generation.preempt_server(last.server, (last.start + last.finish) / 2)
            generation.activate_server(last.server)
        result = generation.finish()
        store = RequestStore.from_requests(requests)
        finishes = [response.finish_time for response in result.responses]
        column = (
            [float("nan")] * len(store) if store.deadlines is None
            else store.deadlines.tolist()
        )
        carried = [(f, d) for f, d in zip(finishes, column) if not math.isnan(d)]
        windows = [bus.cluster_window(w) for w in range(bus.last_window + 1)]
        assert sum(stats.deadline_total for stats in windows) == len(carried)
        assert sum(stats.deadline_met for stats in windows) == sum(f <= d for f, d in carried)

        # Every field the session reads is the caller's own request's.
        for slot, seq in enumerate(session.sequences):
            request = store.request(slot)
            assert seq.request is request
            assert (seq.slot, seq.arrival) == (slot, float(request.arrival_time))
            assert (seq.prompt_tokens, seq.max_new_tokens) == (
                request.prefill_tokens, request.max_new_tokens
            )
            deadline = store.value("deadlines", slot)
            assert deadline == request.deadline or (
                deadline is None and math.isnan(request.deadline)
            )
            assert store.value("priorities", slot) == request.priority
            response = result.responses[slot]
            assert response.request_id == (
                request.request_id if request.request_id >= 0 else slot
            )
            assert response.tokens == request.max_new_tokens


class _CountingScheduler(PriorityScheduler):
    """Counts the keys it computes, one per slot asked for."""

    def __init__(self):
        self.calls = 0

    def keys(self, store, slots):
        self.calls += len(slots)
        return super().keys(store, slots)


class TestScaleIndependence:
    """Cost gates by counting, so they hold on any machine."""

    def test_discipline_key_computed_once_per_queue_entry(self, backend):
        # Once per slot per session: migrants keep the key they got at start.
        requests = [
            Request(r.arrival_time, "m", request_id=i, priority=i % 3,
                    prefill_tokens=r.prefill_tokens, max_new_tokens=r.max_new_tokens)
            for i, r in enumerate(mixed_trace(rate=300, duration=1.0))
        ]
        counting = _CountingScheduler()
        scheduler = IterationScheduler(
            backend, max_batch=4, num_servers=2, scheduler=counting
        )
        scheduler.start(requests)
        for _ in range(200):
            scheduler.step()
        scheduler.preempt_server(1, scheduler._session.free_at[1] - 1e-4)
        for _ in range(200):
            scheduler.step()
        scheduler.activate_server(1)
        result = scheduler.finish()
        assert result.migrated > 0
        # The queue was deep enough for a per-iteration sort to show.
        assert max(record.queue_depth for record in result.iterations) > 10
        assert counting.calls == len(requests)

    def test_far_future_requests_leave_the_horizon_untouched(self, backend):
        base = mixed_trace(rate=200, duration=0.5)
        policy = dict(pressure_threshold=900, waiting_weight=64.0)

        def run(requests):
            counting = _CountingScheduler()
            result = IterationScheduler(
                backend, max_batch=4, scheduler=counting,
                admission=PrefillPriorityAdmission(),
                policy=DecodePressureRatioPolicy(**policy),
            ).run(requests)
            return result, counting.calls

        alone, alone_calls = run(base)
        tail = [
            Request(1000.0 + i, "m", prefill_tokens=64, max_new_tokens=2)
            for i in range(10 * len(base))
        ]
        longer, longer_calls = run(list(base) + tail)
        horizon = len(alone.iterations)
        assert longer.iterations[:horizon] == alone.iterations
        assert longer.iterations[horizon].start >= 1000.0
        for before, after in zip(alone.responses, longer.responses):
            assert after.token_times == before.token_times
        assert longer_calls == alone_calls + len(tail)


# ----------------------------------------------------------------------
# Real execution through RuntimeExecutor.execute_step
# ----------------------------------------------------------------------
class TestRuntimeGenerationBackend:
    def test_generation_runs_on_real_forwards(self, flexiq_runtime, mlp_dataset):
        executor = RuntimeExecutor(
            flexiq_runtime, default_input=mlp_dataset.test_images[0]
        )
        backend = RuntimeGenerationBackend(executor, tokens_per_forward=16)
        requests = gen_requests([(0.0, 32, 3), (0.0, 16, 2), (0.0, 16, 4)])
        result = IterationScheduler(backend, max_batch=4).run(requests)
        assert all(r.finished for r in result.responses)
        assert result.tokens == 9
        # Steps counted separately from one-shot batches: generation
        # forwards are iterations, not engine batches.
        assert executor.steps_executed > 0
        assert executor.batches_executed == 0
        assert executor.requests_executed == 0
        expected_steps = sum(
            record.prefills + (1 if record.decode_width else 0)
            for record in result.iterations
        )
        assert executor.steps_executed == expected_steps
        assert executor.tokens_emitted > 0

    def test_per_step_ratio_switch_is_o1(self, flexiq_runtime, mlp_dataset):
        from repro.core.prepared import PreparedKernel
        from repro.serving.policies import RoundRobinRatioPolicy

        executor = RuntimeExecutor(
            flexiq_runtime, default_input=mlp_dataset.test_images[0]
        )
        backend = RuntimeGenerationBackend(executor, tokens_per_forward=16)
        builds_before = PreparedKernel.build_count
        planes_before = PreparedKernel.plane_build_count
        result = IterationScheduler(
            backend,
            max_batch=4,
            policy=RoundRobinRatioPolicy([0.25, 0.75]),
        ).run(gen_requests([(0.0, 16, 4), (0.0, 16, 4)]))
        assert all(r.finished for r in result.responses)
        assert executor.ratio_switches > 0
        # The mid-sequence precision switches rebuilt nothing.
        assert PreparedKernel.build_count == builds_before
        assert PreparedKernel.plane_build_count == planes_before

    def test_tokens_per_forward_validation(self, flexiq_runtime):
        with pytest.raises(ValueError):
            RuntimeGenerationBackend(
                RuntimeExecutor(flexiq_runtime), tokens_per_forward=0
            )


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
