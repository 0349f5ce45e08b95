"""Tests for modeled serving on the engine, metrics and adaptive ratio control."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.controller import AdaptiveRatioController, build_profile_from_latency_fn
from repro.data.traces import FluctuatingTrace, PoissonTrace, RequestTrace
from repro.hardware.gpu import GpuLatencyModel
from repro.hardware.workloads import model_ops
from repro.serving.adaptation import _effective_accuracy
from repro.serving.cluster import ClusterEngine, ServerSpec
from repro.serving.engine import BatchingConfig, ServingEngine, requests_from_trace
from repro.serving.generation import IterationScheduler, ModeledGenerationBackend
from repro.serving.executors import ModeledExecutor
from repro.serving.metrics import (
    attainment_within,
    latency_percentiles,
    slo_attainment,
    summarize_latencies,
)
from repro.serving.policies import FixedRatioPolicy, RatioSchedulePolicy
from repro.serving.simulator import ServiceTimeModel


@pytest.fixture(scope="module")
def service_model():
    return ServiceTimeModel("vit_base", gpu="a6000", anchor_batches=(1, 16, 64, 128))


def serve(service_model, trace, mode, ratio=0.0, policy=None, batching=None):
    """One accelerator, FIFO batching, modeled service times (Figure 8)."""
    engine = ServingEngine(batching or BatchingConfig(max_batch=128))
    engine.register(
        service_model.model_name,
        ModeledExecutor(service_model),
        policy=policy or FixedRatioPolicy(ratio),
        mode=mode,
    )
    return engine.run(trace)


class TestMetrics:
    def test_percentiles(self):
        values = np.arange(1, 101) / 1000.0
        p = latency_percentiles(values, percentiles=(50, 90))
        assert p["p50"] == pytest.approx(0.0505, abs=1e-3)
        assert p["p90"] == pytest.approx(0.0901, abs=1e-3)

    def test_empty_sample(self):
        assert np.isnan(latency_percentiles([])["p50"])
        assert np.isnan(summarize_latencies([])["median"])

    def test_summary_keys(self):
        summary = summarize_latencies([0.01, 0.02, 0.03])
        assert {"median", "p90", "p99", "mean", "max", "count"} <= set(summary)
        assert summary["count"] == 3


class TestServiceTimeModel:
    def test_monotone_in_batch_size(self, service_model):
        small = service_model.batch_latency(8, "int8")
        large = service_model.batch_latency(64, "int8")
        assert small < large

    def test_interpolates_between_anchors(self, service_model):
        mid = service_model.batch_latency(40, "int8")
        assert service_model.batch_latency(16, "int8") < mid < service_model.batch_latency(64, "int8")

    def test_mode_ordering(self, service_model):
        batch = 32
        int8 = service_model.batch_latency(batch, "int8")
        int4 = service_model.batch_latency(batch, "int4")
        flexi_half = service_model.batch_latency(batch, "flexiq", ratio=0.5)
        assert int4 < flexi_half < int8

    def test_zero_batch(self, service_model):
        assert service_model.batch_latency(0, "int8") == 0.0

    def test_caching_returns_same_values(self, service_model):
        a = service_model.batch_latency(32, "flexiq", 0.5)
        b = service_model.batch_latency(32, "flexiq", 0.5)
        assert a == b


class TestServingSimulator:  # the id the tier-1 floor knows these tests by
    def test_latency_at_least_service_time(self, service_model):
        trace = PoissonTrace(100, duration=3.0, seed=0).generate()
        result = serve(service_model, trace, "int8")
        min_service = service_model.batch_latency(1, "int8")
        assert result.latencies.min() >= min_service * 0.99
        assert len(result.latencies) == len(trace)

    def test_latency_grows_with_request_rate(self, service_model):
        results = {
            rate: serve(
                service_model, PoissonTrace(rate, 3.0, seed=0).generate(), "int8"
            )
            for rate in (200.0, 2000.0)
        }
        assert results[2000.0].median_latency > results[200.0].median_latency

    def test_int8_saturates_before_int4(self, service_model):
        """The Figure 8 effect: at high rates INT8 queues blow up, INT4 holds."""
        trace = PoissonTrace(2500, duration=4.0, seed=1).generate()
        int8 = serve(service_model, trace, "int8")
        int4 = serve(service_model, trace, "int4")
        assert int8.median_latency > 3 * int4.median_latency

    def test_flexiq_ratio_improves_latency_under_load(self, service_model):
        trace = PoissonTrace(2200, duration=4.0, seed=2).generate()
        low = serve(service_model, trace, "flexiq", ratio=0.25)
        high = serve(service_model, trace, "flexiq", ratio=1.0)
        assert high.median_latency < low.median_latency

    def test_batch_cap_respected(self, service_model):
        trace = PoissonTrace(2000, duration=2.0, seed=3).generate()
        result = serve(
            service_model, trace, "int4", batching=BatchingConfig(max_batch=16)
        )
        assert max(result.batch_sizes) <= 16

    def test_drop_after_discards_stale_requests(self, service_model):
        trace = PoissonTrace(3000, duration=2.0, seed=4).generate()
        result = serve(
            service_model, trace, "int8",
            batching=BatchingConfig(max_batch=8, drop_after=0.05),
        )
        assert result.dropped > 0
        assert len(result.latencies) + result.dropped == len(trace)

    def test_throughput_reported(self, service_model):
        trace = PoissonTrace(500, duration=3.0, seed=5).generate()
        result = serve(service_model, trace, "int8")
        assert result.throughput == pytest.approx(len(trace) / trace.duration, rel=1e-6)

    def test_ratio_schedule_used(self, service_model):
        trace = PoissonTrace(1500, duration=3.0, seed=6).generate()
        always_full = serve(
            service_model, trace, "flexiq", policy=RatioSchedulePolicy(lambda t: 1.0)
        )
        always_high_precision = serve(
            service_model, trace, "flexiq", policy=RatioSchedulePolicy(lambda t: 0.0)
        )
        assert always_full.median_latency < always_high_precision.median_latency

    def test_summary_consistent(self, service_model):
        trace = PoissonTrace(300, duration=2.0, seed=7).generate()
        result = serve(service_model, trace, "int8")
        summary = result.summary()
        assert summary["median"] == pytest.approx(result.median_latency)
        assert summary["p90"] == pytest.approx(result.p90_latency)


class TestAdaptiveServing:
    def _controller(self, service_model, threshold=0.05):
        rates = [200, 600, 1000, 1600, 2200, 2800]

        def latency_fn(ratio, rate):
            trace = PoissonTrace(max(rate, 1), duration=2.0, seed=11).generate()
            return serve(service_model, trace, "flexiq", ratio=ratio).median_latency

        profile = build_profile_from_latency_fn(rates, [0.0, 0.25, 0.5, 0.75, 1.0], latency_fn)
        return AdaptiveRatioController(profile, latency_threshold=threshold)

    def test_adaptive_raises_ratio_at_peak_and_tracks_latency(self, service_model):
        policy = self._controller(service_model).as_policy(control_window=1.0)
        trace = FluctuatingTrace(min_rate=800, peak_ratio=3.0, duration=20.0, seed=5).generate()
        result = serve(
            service_model, trace, "flexiq", policy=policy, batching=BatchingConfig()
        )
        # The controller must have used higher ratios during the peak.
        assert policy.average_ratio > 0.0
        ratios_used = {entry["ratio"] for entry in policy.timeline}
        assert len(ratios_used) > 1
        # Effective accuracy sits between the 100% 4-bit and 8-bit accuracies.
        effective_accuracy = _effective_accuracy(
            policy.window_ratios,
            {0.0: 84.7, 0.25: 84.6, 0.5: 84.5, 0.75: 84.4, 1.0: 83.8},
        )
        assert 83.8 <= effective_accuracy <= 84.7
        # Latency stays far below a fixed INT8 deployment at the same trace.
        int8 = serve(service_model, trace, "int8")
        assert result.median_latency < int8.median_latency

    def test_without_accuracy_table(self, service_model):
        policy = self._controller(service_model).as_policy()
        trace = FluctuatingTrace(min_rate=300, peak_ratio=2.0, duration=5.0, seed=6).generate()
        result = serve(
            service_model, trace, "flexiq", policy=policy, batching=BatchingConfig()
        )
        assert result.duration == pytest.approx(5.0)


class TestServiceTimeModelRegressions:
    def test_batch_above_largest_anchor_not_clamped(self, service_model):
        """PR 3 bugfix: ``np.interp`` silently clamped batch sizes above the
        largest anchor (128) to the 128-anchor latency, under-reporting
        service time for ``max_batch > 128`` runs."""
        at_anchor = service_model.batch_latency(128, "int8")
        beyond = service_model.batch_latency(256, "int8")
        assert beyond > at_anchor  # seed returned beyond == at_anchor
        # The out-of-range value is the exact hardware-model latency.
        from repro.hardware.workloads import model_ops

        expected = service_model.latency_model.model_latency(
            model_ops(service_model.model_name, 256), "int8", four_bit_ratio=0.0
        )
        assert beyond == pytest.approx(expected, rel=0, abs=0)
        # And it is cached: same value on repeat lookups.
        assert service_model.batch_latency(256, "int8") == beyond
        # Monotone through the anchor boundary.
        assert at_anchor < service_model.batch_latency(129, "int8") < beyond

    def test_close_ratios_do_not_collide_in_cache(self, service_model):
        """PR 3 bugfix: the anchor cache keyed on ``f"{ratio:.3f}"``, so
        ratios within 5e-4 collided and returned each other's latencies."""
        a = service_model.batch_latency(32, "flexiq", 0.5)
        b = service_model.batch_latency(32, "flexiq", 0.5003)
        assert a != b  # seed: identical (cache collision)
        assert b < a   # more 4-bit channels -> faster
        # Exactly equal ratios still share one cache entry.
        assert service_model.batch_latency(32, "flexiq", 0.5) == a

    def test_batch_latency_interpolates_once_per_distinct_lookup(self, monkeypatch):
        # The anchors never change once built, so a latency is a pure
        # function of (batch_size, mode, ratio): repeated lookups (one per
        # generation step, one per modeled batch) must not pay np.interp.
        model = ServiceTimeModel("vit_base", gpu="a6000")
        calls = []
        interp = np.interp

        def counting(x, xp, fp):
            calls.append(x)
            return interp(x, xp, fp)

        monkeypatch.setattr(np, "interp", counting)
        lookups = [
            (batch, mode, ratio)
            for batch in (1, 3, 8, 100)
            for mode, ratio in (("int8", 0.0), ("flexiq", 0.5), ("flexiq", 0.5003))
        ]
        first = [model.batch_latency(*lookup) for lookup in lookups]
        assert len(calls) == len(lookups)
        for _ in range(3):
            assert [model.batch_latency(*lookup) for lookup in lookups] == first
            assert [model.decode_latency(b, m, r) for b, m, r in lookups] == [
                value * model.decode_token_fraction for value in first
            ]
        assert len(calls) == len(lookups)
        # Ratios within 5e-4 stay apart in the memo, as in the anchor cache.
        by_lookup = dict(zip(lookups, first))
        for batch in (1, 3, 8, 100):
            assert by_lookup[batch, "flexiq", 0.5003] < by_lookup[batch, "flexiq", 0.5]
        # Bit-identical to a model that has never memoised anything.
        monkeypatch.setattr(np, "interp", interp)
        for lookup, value in by_lookup.items():
            assert ServiceTimeModel("vit_base", gpu="a6000").batch_latency(*lookup) == value


class CountingLatency(GpuLatencyModel):
    """An A6000 latency model that records what it computes: (the
    batch's MACs, which name its size, mode, ratio) per evaluation."""

    def __init__(self):
        super().__init__("a6000")
        self.computed = []

    def model_latency(self, ops, mode, four_bit_ratio=0.0, **kwargs):
        self.computed.append((sum(op.macs for op in ops), mode, four_bit_ratio))
        return super().model_latency(ops, mode, four_bit_ratio=four_bit_ratio, **kwargs)


class TestOnePriceTable:
    """Every reader of a model's prices reads its one table per (mode,
    ratio): the sweep, the object loop, the cluster's placer and executors
    and generation.  Anchors (1, 4) and batches up to 8, so sizes 5-8 are
    exact hardware-model latencies, computed per size."""

    ANCHORS = (1, 4)
    TRACE = PoissonTrace(1500, duration=0.4, seed=3).generate()

    def _engine_run(self, model, columnar, tables=None):
        engine = ServingEngine(
            BatchingConfig(max_batch=8), num_servers=2, columnar=columnar
        )
        engine.register(
            "m", ModeledExecutor(model), policy=FixedRatioPolicy(0.5), mode="flexiq"
        )
        engine.start(self.TRACE)
        engine.step()
        if tables is not None:
            tables.update(engine._session.tables)
        return engine.finish()

    def _cluster_run(self, model):
        cluster = ClusterEngine(
            [ServerSpec(f"s{i}", speed=1.0, service_model=model) for i in range(2)],
            batching=BatchingConfig(max_batch=8),
            placer="least_work",
        )
        cluster.register("m", mode="flexiq", policy=FixedRatioPolicy(0.5))
        return cluster.run(self.TRACE)

    def _generation_run(self, model):
        requests = requests_from_trace(
            PoissonTrace(60, duration=0.5, seed=4).generate(), model="m",
            prefill_tokens=[32, 300, 96], max_new_tokens=[3, 6, 2],
        )
        return IterationScheduler(
            ModeledGenerationBackend(model), max_batch=8,
            policy=FixedRatioPolicy(0.25),
        ).run(requests)

    @staticmethod
    def _outcome(sweep, objects, cluster, generation):
        return (
            sweep.request_latencies.tolist(), list(sweep.batch_records),
            objects.request_latencies.tolist(), list(objects.batch_records),
            cluster.to_json(), generation.iterations, generation.responses,
        )

    def test_four_readers_share_one_table_and_compute_each_price_once(self):
        latency = CountingLatency()
        shared = ServiceTimeModel(anchor_batches=self.ANCHORS, latency_model=latency)
        tables = {}
        sweep = self._engine_run(shared, columnar=True, tables=tables)
        objects = self._engine_run(shared, columnar=False)
        cluster = self._cluster_run(shared)
        generation = self._generation_run(shared)
        assert (sweep.kernel, objects.kernel) == ("sweep", "object")

        # The sweep holds the model's table, not a copy of it.
        assert set(tables) == {0, 1}
        assert all(table is shared.table("flexiq", 0.5) for table in tables.values())

        # Each price was computed once over all four readers: every anchor
        # set once per (mode, ratio), every exact size once.
        computed = latency.computed
        assert len(computed) == len(set(computed))
        macs = {
            sum(op.macs for op in model_ops("vit_base", size)): size
            for size in range(1, 9)
        }
        by_cohort = {}
        for work, mode, ratio in computed:
            by_cohort.setdefault((mode, ratio), []).append(macs[work])
        # Placement scores at ratio 0.0; the executors serve at 0.5 and
        # generation at 0.25.  A prompt of 300 tokens is an exact size 5.
        assert set(by_cohort) == {("flexiq", 0.5), ("flexiq", 0.0), ("flexiq", 0.25)}
        for cohort, sizes in by_cohort.items():
            assert sizes[:2] == [1, 4]  # the anchors, first and once
            assert sizes[2:] and all(size > 4 for size in sizes[2:])
            assert set(sizes[2:]) <= set(shared.table(*cohort))

        # And every reader saw what it sees on a model of its own.
        fresh = [ServiceTimeModel(anchor_batches=self.ANCHORS) for _ in range(4)]
        alone = self._outcome(
            self._engine_run(fresh[0], columnar=True),
            self._engine_run(fresh[1], columnar=False),
            self._cluster_run(fresh[2]),
            self._generation_run(fresh[3]),
        )
        assert self._outcome(sweep, objects, cluster, generation) == alone


class TestMetricsRegressions:
    def test_empty_sample_count_is_zero(self):
        summary = summarize_latencies([])
        assert summary["count"] == 0.0  # seed reported nan
        for key in ("median", "p90", "p99", "mean", "max"):
            assert np.isnan(summary[key])

    def test_fractional_percentile_keys_do_not_collide(self):
        values = np.arange(1, 1001) / 1000.0
        p = latency_percentiles(values, percentiles=(99, 99.9))
        assert set(p) == {"p99", "p99.9"}  # seed collapsed both onto "p99"
        assert p["p99.9"] > p["p99"]
        empty = latency_percentiles([], percentiles=(99, 99.9))
        assert set(empty) == {"p99", "p99.9"}
        assert all(np.isnan(v) for v in empty.values())

    def test_integer_labels_unchanged(self):
        p = latency_percentiles([0.1, 0.2], percentiles=(50, 90.0))
        assert set(p) == {"p50", "p90"}

    def test_empty_percentile_list(self):
        """No requested percentiles -> empty dict, for empty or non-empty
        samples alike (never a KeyError or a default sneaking in)."""
        assert latency_percentiles([0.1, 0.2], percentiles=()) == {}
        assert latency_percentiles([], percentiles=()) == {}


class TestSloAttainmentEdgeCases:
    def test_all_dropped_requests_attain_zero(self):
        """Every deadline-carrying request dropped (nan finish) -> 0.0, not
        nan: the population exists, it just all missed."""
        finishes = [float("nan")] * 4
        deadlines = [0.1, 0.2, 0.3, 0.4]
        assert slo_attainment(finishes, deadlines) == 0.0

    def test_mixed_none_and_nan_deadlines_excluded(self):
        """``None`` and ``nan`` deadlines both mean "no SLO" and leave the
        population; only real deadlines are scored."""
        finishes = [1.0, 1.0, 1.0, float("nan")]
        deadlines = [2.0, None, float("nan"), 0.5]
        # Population: entries 0 (met) and 3 (dropped with a deadline: miss).
        assert slo_attainment(finishes, deadlines) == pytest.approx(0.5)

    def test_no_deadlines_at_all_is_nan(self):
        assert np.isnan(slo_attainment([1.0, 2.0], [None, float("nan")]))
        assert np.isnan(slo_attainment([], []))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            slo_attainment([1.0], [0.5, 0.6])

    def test_boundary_finish_counts_as_met(self):
        assert slo_attainment([1.0], [1.0]) == 1.0

    def test_attainment_within_latency_slo(self):
        """The shared-budget twin: nan latencies (drops) are misses, the
        boundary counts as met, empty samples are nan."""
        assert attainment_within([0.1, 0.5, 0.9, float("nan")], 0.5) == pytest.approx(0.5)
        assert attainment_within([0.2], 0.2) == 1.0
        assert np.isnan(attainment_within([], 0.5))
        assert attainment_within([float("nan")] * 3, 0.5) == 0.0

    @pytest.mark.parametrize("slo", [float("nan"), -0.1, -float("inf")])
    def test_attainment_within_refuses_a_nan_or_negative_slo(self, slo):
        """No latency is ever <= nan: a NaN budget scored every request a
        miss instead of being refused."""
        with pytest.raises(ValueError, match="slo_seconds must be a number >= 0"):
            attainment_within([0.1, 0.2], slo)


def _reference_percentiles(values, percentiles):
    """One ``np.percentile`` call per percentile: the reference."""
    return {f"p{p:g}": float(np.percentile(values, p)) for p in percentiles}


def _hexed(summary):
    return {key: float(value).hex() for key, value in summary.items()}


class TestOnePartitionEqualsOnePerPercentile:
    """The helpers take every percentile from one ``np.percentile`` call; the
    doubles must be those of one call per percentile, bit for bit."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        ticks=st.lists(st.integers(0, 12), min_size=1, max_size=40),  # ties common
        scale=st.sampled_from([1e-3, 0.37, 1.0]),
        nan_at=st.lists(st.integers(0, 39), max_size=3),
        percentiles=st.lists(
            st.one_of(
                st.integers(0, 100),
                st.floats(0.0, 100.0, allow_nan=False),
                st.sampled_from([0.5, 99.9, 99.99, 33.3]),
            ),
            max_size=6,  # duplicates allowed, () included
        ),
    )
    def test_one_call_equals_one_call_per_percentile(
        self, ticks, scale, nan_at, percentiles
    ):
        values = np.asarray(ticks, dtype=np.float64) * scale
        values[[i for i in nan_at if i < len(values)]] = np.nan
        assert _hexed(latency_percentiles(values, percentiles)) == _hexed(
            _reference_percentiles(values, percentiles)
        )
        assert _hexed(latency_percentiles(list(values), tuple(percentiles))) == _hexed(
            _reference_percentiles(values, percentiles)
        )
        reference = _reference_percentiles(values, (50, 90, 99))
        want = {
            "median": reference["p50"], "p90": reference["p90"],
            "p99": reference["p99"], "mean": float(values.mean()),
            "max": float(values.max()), "count": float(values.size),
        }
        got = summarize_latencies(values)
        assert list(got) == list(want) and _hexed(got) == _hexed(want)


class TestExecutedRatioReporting:
    def test_fixed_ratio_reported_verbatim(self, service_model):
        trace = PoissonTrace(500, duration=1.0, seed=8).generate()
        result = serve(service_model, trace, "flexiq", ratio=0.25)
        assert result.mean_executed_ratio == 0.25

    def test_schedule_reports_batch_weighted_executed_ratio(self, service_model):
        """PR 3 bugfix: the seed reported the (unused) fixed ``ratio``
        argument even when ``ratio_schedule`` overrode it on every batch."""
        trace = PoissonTrace(1500, duration=2.0, seed=8).generate()
        result = serve(
            service_model, trace, "flexiq", policy=RatioSchedulePolicy(lambda t: 1.0)
        )
        assert result.mean_executed_ratio == pytest.approx(1.0)  # seed reported 0.0

        mixed = serve(
            service_model, trace, "flexiq",
            policy=RatioSchedulePolicy(lambda t: 1.0 if t > 1.0 else 0.0),
        )
        assert 0.0 < mixed.mean_executed_ratio < 1.0
