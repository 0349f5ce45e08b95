"""Tests for synthetic datasets, calibration sampling, text corpus and traces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.calibration import CalibrationSampler
from repro.data.synthetic import (
    DATASET_REGISTRY,
    DatasetConfig,
    SyntheticImageDataset,
    build_dataset,
)
from repro.data.text import SyntheticTextCorpus, TextCorpusConfig
from repro.data.traces import (
    DiurnalTrace,
    FluctuatingTrace,
    PoissonTrace,
    RequestTrace,
    SpikeTrace,
    merge_traces,
)


class TestSyntheticImages:
    def test_registry_entries(self):
        assert {"synthetic-cifar10", "synthetic-cifar100", "synthetic-imagenet"}.issubset(
            DATASET_REGISTRY
        )

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            build_dataset("synthetic-nothing")

    def test_shapes_and_dtypes(self):
        ds = SyntheticImageDataset(
            DatasetConfig(name="t", num_classes=5, image_size=8, train_size=64, test_size=32)
        )
        assert ds.train_images.shape == (64, 3, 8, 8)
        assert ds.test_images.shape == (32, 3, 8, 8)
        assert ds.train_images.dtype == np.float32
        assert ds.train_labels.dtype == np.int64

    def test_labels_in_range_and_all_classes_present(self):
        ds = build_dataset("synthetic-cifar10")
        assert ds.train_labels.min() >= 0
        assert ds.train_labels.max() < ds.num_classes
        assert len(np.unique(ds.train_labels)) == ds.num_classes

    def test_deterministic_given_seed(self):
        cfg = DatasetConfig(name="d", num_classes=3, image_size=8, train_size=32, test_size=16)
        a = SyntheticImageDataset(cfg)
        b = SyntheticImageDataset(cfg)
        np.testing.assert_array_equal(a.train_images, b.train_images)
        np.testing.assert_array_equal(a.test_labels, b.test_labels)

    def test_different_seed_differs(self):
        a = SyntheticImageDataset(DatasetConfig(name="a", seed=1, train_size=32, test_size=16))
        b = SyntheticImageDataset(DatasetConfig(name="b", seed=2, train_size=32, test_size=16))
        assert not np.array_equal(a.train_images, b.train_images)

    def test_normalised_statistics(self):
        ds = build_dataset("synthetic-imagenet")
        assert abs(float(ds.train_images.mean())) < 0.1
        assert 0.7 < float(ds.train_images.std()) < 1.3

    def test_class_structure_is_learnable_signal(self):
        """Per-class means must be more separated than the noise floor."""
        ds = build_dataset("synthetic-cifar10")
        means = np.stack(
            [ds.train_images[ds.train_labels == c].mean(axis=0) for c in range(ds.num_classes)]
        )
        between_class = np.linalg.norm(means[0] - means[1])
        within_class = float(
            np.linalg.norm(
                ds.train_images[ds.train_labels == 0][0]
                - ds.train_images[ds.train_labels == 0][1]
            )
        )
        assert between_class > 0.1 * within_class

    def test_train_batches_cover_all_and_shuffle(self):
        ds = build_dataset("synthetic-cifar10")
        batches = list(ds.train_batches(100, rng=np.random.default_rng(0)))
        total = sum(len(labels) for _, labels in batches)
        assert total == len(ds.train_labels)
        first_pass = list(ds.train_batches(100, rng=np.random.default_rng(1)))[0][1]
        second_pass = list(ds.train_batches(100, rng=np.random.default_rng(2)))[0][1]
        assert not np.array_equal(first_pass, second_pass)

    def test_test_batches_in_order(self):
        ds = build_dataset("synthetic-cifar10")
        images, labels = next(iter(ds.test_batches(16)))
        np.testing.assert_array_equal(labels, ds.test_labels[:16])

    def test_build_dataset_cached(self):
        assert build_dataset("synthetic-cifar10") is build_dataset("synthetic-cifar10")


class TestCalibrationSampler:
    def test_sample_size_and_determinism(self):
        images = np.random.default_rng(0).normal(size=(100, 3, 4, 4)).astype(np.float32)
        a = CalibrationSampler(images, size=32, seed=1)
        b = CalibrationSampler(images, size=32, seed=1)
        assert len(a) == 32
        np.testing.assert_array_equal(a.all(), b.all())

    def test_batches_and_limit(self):
        images = np.zeros((50, 3, 4, 4), dtype=np.float32)
        sampler = CalibrationSampler(images, size=40, batch_size=16)
        batches = list(sampler.batches())
        assert [len(b) for b in batches] == [16, 16, 8]
        assert sum(len(b) for b in sampler.batches(limit=20)) == 20

    def test_size_larger_than_data_clamped(self):
        images = np.zeros((10, 3, 4, 4), dtype=np.float32)
        assert len(CalibrationSampler(images, size=100)) == 10

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            CalibrationSampler(np.zeros((4, 1)), size=0)


class TestTextCorpus:
    def test_token_ranges_and_split_sizes(self):
        corpus = SyntheticTextCorpus(TextCorpusConfig(vocab_size=16, train_tokens=2000,
                                                      test_tokens=400, seq_len=8))
        assert corpus.train_tokens.max() < 16
        assert corpus.train_sequences().shape == (250, 8)
        assert corpus.test_sequences().shape == (50, 8)

    def test_deterministic(self):
        a = SyntheticTextCorpus(TextCorpusConfig(seed=9))
        b = SyntheticTextCorpus(TextCorpusConfig(seed=9))
        np.testing.assert_array_equal(a.train_tokens, b.train_tokens)

    def test_corpus_has_structure(self):
        """Phrase reuse must make bigram distribution far from uniform."""
        corpus = SyntheticTextCorpus(TextCorpusConfig(vocab_size=32, train_tokens=8000))
        tokens = corpus.train_tokens
        pairs = tokens[:-1] * 32 + tokens[1:]
        counts = np.bincount(pairs, minlength=32 * 32)
        top_mass = np.sort(counts)[-32:].sum() / counts.sum()
        assert top_mass > 0.15  # uniform would give ~0.03

    def test_train_batches(self):
        corpus = SyntheticTextCorpus(TextCorpusConfig(train_tokens=2000, seq_len=10))
        batches = corpus.train_batches(batch_size=16, rng=np.random.default_rng(0))
        assert all(batch.shape[1] == 10 for batch in batches)


class TestTraces:
    def test_poisson_rate_matches(self):
        trace = PoissonTrace(rate_per_second=200, duration=20, seed=0).generate()
        assert trace.average_rate == pytest.approx(200, rel=0.15)
        assert trace.arrival_times.max() < 20

    def test_poisson_sorted_and_deterministic(self):
        a = PoissonTrace(100, 5, seed=2).generate()
        b = PoissonTrace(100, 5, seed=2).generate()
        assert np.all(np.diff(a.arrival_times) >= 0)
        np.testing.assert_array_equal(a.arrival_times, b.arrival_times)

    def test_poisson_invalid_args(self):
        with pytest.raises(ValueError):
            PoissonTrace(0, 10)
        with pytest.raises(ValueError):
            PoissonTrace(10, 0)

    def test_rate_in_window(self):
        trace = RequestTrace(arrival_times=np.array([0.1, 0.2, 0.3, 1.5]), duration=2.0)
        assert trace.rate_in_window(0.0, 1.0) == pytest.approx(3.0)
        assert trace.rate_in_window(1.0, 2.0) == pytest.approx(1.0)
        assert trace.rate_in_window(1.0, 1.0) == 0.0

    def test_fluctuating_trace_peak_ratio(self):
        gen = FluctuatingTrace(min_rate=100, peak_ratio=3.0, duration=60, num_phases=12, seed=1)
        rates = gen.phase_rates()
        assert max(rates) / min(rates) == pytest.approx(3.0, rel=0.35)
        trace = gen.generate()
        assert trace.average_rate > 100
        assert np.all(np.diff(trace.arrival_times) >= 0)

    def test_fluctuating_rate_varies_over_time(self):
        trace = FluctuatingTrace(min_rate=200, peak_ratio=3.0, duration=30, seed=2).generate()
        window = 30 / 10
        rates = [trace.rate_in_window(i * window, (i + 1) * window) for i in range(10)]
        assert max(rates) > 1.8 * min(rates)

    def test_fluctuating_phase_rates_cache_invalidated_on_mutation(self):
        """Regression: the memoized phase rates were never invalidated, so
        mutating seed/num_phases/min_rate after the first phase_rates() call
        silently returned rates for the old parameters."""
        gen = FluctuatingTrace(min_rate=100, peak_ratio=3.0, duration=60, num_phases=12, seed=1)
        first = gen.phase_rates()
        gen.seed = 2
        assert gen.phase_rates() != first          # seed: identical (stale cache)
        gen.num_phases = 6
        assert len(gen.phase_rates()) == 6         # seed: still 12 entries
        gen.min_rate = 500
        assert min(gen.phase_rates()) >= 500 * 0.9  # seed: rates for min_rate=100
        # Unchanged parameters still hit the cache (same values back).
        again = gen.phase_rates()
        assert again == gen.phase_rates()

    def test_fluctuating_generate_follows_mutated_parameters(self):
        gen = FluctuatingTrace(min_rate=100, peak_ratio=2.0, duration=10, seed=1)
        low = gen.generate()
        gen.min_rate = 1000
        high = gen.generate()
        assert high.average_rate > 5 * low.average_rate


class TestDiurnalTrace:
    def test_rate_cycle_floor_and_peak(self):
        gen = DiurnalTrace(night_rate=100, peak_rate=900, duration=60, period=60, seed=0)
        assert gen.rate_at(0.0) == pytest.approx(100.0)
        assert gen.rate_at(30.0) == pytest.approx(900.0)   # midday, half a period in
        assert gen.rate_at(60.0) == pytest.approx(100.0, abs=1e-6)
        rates = gen.phase_rates()
        assert len(rates) == gen.num_phases
        assert max(rates) > 5 * min(rates)

    def test_generated_trace_tracks_the_cycle(self):
        trace = DiurnalTrace(
            night_rate=200, peak_rate=1200, duration=40, period=40, num_phases=40, seed=3
        ).generate()
        assert np.all(np.diff(trace.arrival_times) >= 0)
        assert trace.arrival_times.max() < 40
        night = trace.rate_in_window(0.0, 5.0)
        midday = trace.rate_in_window(17.5, 22.5)
        assert midday > 3 * night

    def test_multiple_periods(self):
        gen = DiurnalTrace(night_rate=100, peak_rate=500, duration=40, period=20, seed=0)
        assert gen.rate_at(10.0) == pytest.approx(gen.rate_at(30.0))

    def test_deterministic_and_frozen(self):
        a = DiurnalTrace(night_rate=100, peak_rate=300, duration=10, seed=5).generate()
        b = DiurnalTrace(night_rate=100, peak_rate=300, duration=10, seed=5).generate()
        np.testing.assert_array_equal(a.arrival_times, b.arrival_times)
        gen = DiurnalTrace(night_rate=100, peak_rate=300)
        with pytest.raises(Exception):
            gen.seed = 9  # frozen: no stale-cache class of bugs

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalTrace(night_rate=0, peak_rate=100)
        with pytest.raises(ValueError):
            DiurnalTrace(night_rate=200, peak_rate=100)
        with pytest.raises(ValueError):
            DiurnalTrace(night_rate=100, peak_rate=200, period=0)


class TestSpikeTrace:
    def test_spike_window_rate(self):
        trace = SpikeTrace(
            base_rate=200, spike_rate=2000, spike_start=4.0, spike_duration=2.0,
            duration=10.0, seed=1,
        ).generate()
        assert np.all(np.diff(trace.arrival_times) >= 0)
        before = trace.rate_in_window(0.0, 4.0)
        during = trace.rate_in_window(4.0, 6.0)
        after = trace.rate_in_window(6.0, 10.0)
        assert during == pytest.approx(2000, rel=0.15)
        assert before == pytest.approx(200, rel=0.35)
        assert after == pytest.approx(200, rel=0.35)

    def test_rate_at(self):
        gen = SpikeTrace(
            base_rate=100, spike_rate=900, spike_start=5.0, spike_duration=1.0,
            duration=10.0,
        )
        assert gen.rate_at(4.9) == 100.0
        assert gen.rate_at(5.0) == 900.0
        assert gen.rate_at(5.999) == 900.0
        assert gen.rate_at(6.0) == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SpikeTrace(base_rate=100, spike_rate=50, spike_start=1.0, spike_duration=1.0)
        with pytest.raises(ValueError):
            SpikeTrace(base_rate=100, spike_rate=200, spike_start=99.0,
                       spike_duration=1.0, duration=10.0)

    def test_no_spike_degenerates_to_base(self):
        gen = SpikeTrace(
            base_rate=300, spike_rate=300, spike_start=2.0, spike_duration=1.0,
            duration=10.0, seed=2,
        )
        trace = gen.generate()
        assert trace.average_rate == pytest.approx(300, rel=0.15)


NAN, INF = float("nan"), float("inf")


class TestTraceArgumentsAreRefused:
    """NaN, inf, zero and a negative are refused at construction with a
    ``ValueError`` that names the field, not deep inside ``generate()``."""

    @pytest.mark.parametrize("make, field", [
        (lambda: PoissonTrace(100, duration=NAN), "duration"),
        (lambda: PoissonTrace(100, duration=INF), "duration"),
        (lambda: PoissonTrace(NAN, duration=10), "rate_per_second"),
        (lambda: FluctuatingTrace(min_rate=100, num_phases=0), "num_phases"),
        (lambda: FluctuatingTrace(min_rate=100, peak_ratio=NAN), "peak_ratio"),
        (lambda: FluctuatingTrace(min_rate=INF), "min_rate"),
        (lambda: FluctuatingTrace(min_rate=100, duration=-1.0), "duration"),
        (lambda: DiurnalTrace(night_rate=NAN, peak_rate=100), "night_rate"),
        (lambda: DiurnalTrace(night_rate=100, peak_rate=NAN), "peak_rate"),
        (lambda: DiurnalTrace(night_rate=100, peak_rate=200, duration=NAN), "duration"),
        (lambda: DiurnalTrace(night_rate=100, peak_rate=200, period=INF), "period"),
        (lambda: SpikeTrace(base_rate=NAN, spike_rate=200, spike_start=1.0,
                            spike_duration=1.0), "base_rate"),
        (lambda: SpikeTrace(base_rate=100, spike_rate=NAN, spike_start=1.0,
                            spike_duration=1.0), "spike_rate"),
        (lambda: SpikeTrace(base_rate=100, spike_rate=200, spike_start=1.0,
                            spike_duration=NAN), "spike_duration"),
        (lambda: SpikeTrace(base_rate=100, spike_rate=200, spike_start=1.0,
                            spike_duration=1.0, duration=INF), "duration"),
    ])
    def test_the_error_names_the_field(self, make, field):
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            make()

    def test_a_valid_fluctuating_trace_still_generates(self):
        trace = FluctuatingTrace(min_rate=50, num_phases=1, duration=2.0, seed=3).generate()
        assert trace.duration == 2.0 and len(trace) > 0


class TestMergeTraces:
    def test_rates_add(self):
        a = PoissonTrace(200, duration=10, seed=1).generate()
        b = PoissonTrace(300, duration=10, seed=2).generate()
        merged = merge_traces(a, b)
        assert len(merged) == len(a) + len(b)
        assert merged.duration == 10
        assert np.all(np.diff(merged.arrival_times) >= 0)
        assert merged.average_rate == pytest.approx(500, rel=0.15)

    def test_duration_and_description(self):
        a = PoissonTrace(100, duration=5, seed=1).generate()
        b = PoissonTrace(100, duration=8, seed=2).generate()
        assert merge_traces(a, b).duration == 8
        assert " + " in merge_traces(a, b).description

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_traces()
