"""Tests for the metrics primitives (they live in ``repro.obs.registry``;
this file keeps its path so the test ids stay stable)."""

import pytest

from repro.obs.registry import Counter, Gauge, Histogram


class TestCounter:
    def test_inc(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_reset(self):
        counter = Counter()
        counter.inc(3)
        counter.reset()
        assert counter.value == 0


class TestGauge:
    def test_set(self):
        gauge = Gauge()
        gauge.set(2.5)
        assert gauge.value == 2.5


class TestHistogram:
    def test_empty_stats(self):
        histogram = Histogram()
        assert histogram.mean() == 0.0
        assert histogram.percentile(99) == 0.0
        assert histogram.minimum() == 0.0
        assert histogram.maximum() == 0.0

    def test_basic_stats(self):
        histogram = Histogram()
        for value in (1, 2, 3, 4):
            histogram.record(value)
        assert histogram.count == 4
        assert histogram.mean() == 2.5
        assert histogram.minimum() == 1
        assert histogram.maximum() == 4

    def test_percentiles(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.record(value)
        assert histogram.percentile(50) == 50
        assert histogram.percentile(99) == 99
        assert histogram.percentile(100) == 100
        assert histogram.percentile(0) == 1

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            Histogram().percentile(101)
        with pytest.raises(ValueError):
            Histogram().percentile(-1)

    def test_single_sample_boundaries(self):
        # Nearest-rank at the reservoir boundaries: one sample answers
        # every percentile, including p=0 and p=100 (ISSUE 4 satellite).
        histogram = Histogram()
        histogram.record(7.5)
        for p in (0, 0.1, 50, 99.9, 100):
            assert histogram.percentile(p) == 7.5

    def test_fractional_percentiles_nearest_rank(self):
        histogram = Histogram()
        for value in range(1, 11):
            histogram.record(value)
        assert histogram.percentile(0.1) == 1  # ceil(0.001*10) = rank 1
        assert histogram.percentile(10) == 1
        assert histogram.percentile(10.1) == 2
        assert histogram.percentile(99.9) == 10

    def test_quantiles_bulk_matches_percentile(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.record(value)
        ps = (0, 25, 50, 90, 99, 100)
        assert histogram.quantiles(ps) == [
            histogram.percentile(p) for p in ps
        ]

    def test_quantiles_empty(self):
        assert Histogram().quantiles((50, 99)) == [0.0, 0.0]

    def test_reservoir_small_returns_all_sorted(self):
        histogram = Histogram()
        for value in (3, 1, 2):
            histogram.record(value)
        assert histogram.reservoir(size=64) == [1, 2, 3]

    def test_reservoir_strided_keeps_extremes_ordered(self):
        histogram = Histogram()
        for value in range(1000):
            histogram.record(value)
        reservoir = histogram.reservoir(size=64)
        assert len(reservoir) == 64
        assert reservoir == sorted(reservoir)
        assert reservoir[0] == 0
        assert reservoir[-1] == 999

    def test_sort_cache_invalidation(self):
        histogram = Histogram()
        histogram.record(5)
        assert histogram.percentile(50) == 5
        histogram.record(1)  # must invalidate the cached sort
        assert histogram.percentile(0) == 1

    def test_max_samples_drops(self):
        histogram = Histogram(max_samples=2)
        for value in range(5):
            histogram.record(value)
        assert histogram.count == 2
        assert histogram.dropped == 3

    def test_reset(self):
        histogram = Histogram()
        histogram.record(1)
        histogram.reset()
        assert histogram.count == 0
