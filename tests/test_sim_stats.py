"""Tests for counters, ratios, latency stats and the registry."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import Counter, LatencyStats, RatioStat, StatRegistry


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_add_default_one(self):
        counter = Counter("c")
        counter.add()
        assert counter.value == 1

    def test_add_amount(self):
        counter = Counter("c")
        counter.add(5)
        counter.add(3)
        assert counter.value == 8

    def test_negative_add_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").add(-1)

    def test_int_conversion(self):
        counter = Counter("c")
        counter.add(4)
        assert int(counter) == 4


class TestRatioStat:
    def test_empty_ratio_is_zero(self):
        assert RatioStat("r").ratio == 0.0

    def test_all_hits(self):
        ratio = RatioStat("r")
        for _ in range(4):
            ratio.record(True)
        assert ratio.ratio == 1.0

    def test_mixed(self):
        ratio = RatioStat("r")
        ratio.record(True)
        ratio.record(False)
        ratio.record(False)
        ratio.record(True)
        assert ratio.ratio == pytest.approx(0.5)
        assert ratio.misses == 2


class TestLatencyStats:
    def test_mean_of_samples(self):
        stats = LatencyStats("l")
        stats.extend([100, 200, 300])
        assert stats.mean == pytest.approx(200.0)

    def test_count_and_total(self):
        stats = LatencyStats("l")
        stats.extend([10, 20])
        assert stats.count == 2
        assert stats.total == 30

    def test_min_max(self):
        stats = LatencyStats("l")
        stats.extend([5, 1, 9])
        assert stats.minimum == 1
        assert stats.maximum == 9

    def test_min_on_empty_raises(self):
        with pytest.raises(ValueError):
            LatencyStats("l").minimum

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats("l").record(-1)

    def test_percentile_nearest_rank(self):
        stats = LatencyStats("l")
        stats.extend(range(1, 101))  # 1..100
        assert stats.percentile(50) == 50
        assert stats.p99 == 99
        assert stats.percentile(100) == 100

    def test_percentile_single_sample(self):
        stats = LatencyStats("l")
        stats.record(42)
        assert stats.p50 == 42
        assert stats.p99 == 42

    def test_percentile_bounds(self):
        stats = LatencyStats("l")
        stats.record(1)
        with pytest.raises(ValueError):
            stats.percentile(0)
        with pytest.raises(ValueError):
            stats.percentile(101)

    def test_percentile_without_samples_raises(self):
        with pytest.raises(ValueError):
            LatencyStats("l").p99

    def test_streaming_mode_keeps_mean_not_percentiles(self):
        stats = LatencyStats("l", keep_samples=False)
        stats.extend([10, 30])
        assert stats.mean == pytest.approx(20.0)
        with pytest.raises(ValueError):
            stats.p50

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1))
    def test_percentile_is_a_sample_and_bounded(self, samples):
        stats = LatencyStats("l")
        stats.extend(samples)
        for pct in (1, 50, 99, 100):
            value = stats.percentile(pct)
            assert value in samples
            assert stats.minimum <= value <= stats.maximum

    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=2))
    def test_percentiles_monotone(self, samples):
        stats = LatencyStats("l")
        stats.extend(samples)
        assert stats.percentile(25) <= stats.percentile(75) <= stats.percentile(100)

    @pytest.mark.parametrize("keep_samples", [True, False])
    @given(
        before=st.lists(st.integers(min_value=0, max_value=10**9), max_size=5),
        samples=st.lists(st.integers(min_value=0, max_value=10**9)),
    )
    def test_extend_equals_one_record_per_sample(self, keep_samples, before, samples):
        extended = LatencyStats("l", keep_samples=keep_samples)
        recorded = LatencyStats("l", keep_samples=keep_samples)
        for latency in before:
            extended.record(latency)
            recorded.record(latency)
        extended.extend(samples)
        for latency in samples:
            recorded.record(latency)

        def summary(stats):
            bounds = (stats.minimum, stats.maximum) if stats.count else None
            return stats.count, stats.total, stats.mean, bounds, stats.samples

        assert summary(extended) == summary(recorded)

    def test_extend_rejects_a_negative_sample_before_recording(self):
        stats = LatencyStats("l")
        stats.record(7)
        with pytest.raises(ValueError):
            stats.extend([5, -1, 9])
        assert (stats.count, stats.total, stats.samples) == (1, 7, [7])


class TestStatRegistry:
    def test_counter_is_memoized(self):
        registry = StatRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_snapshot_contains_all_kinds(self):
        registry = StatRegistry()
        registry.counter("c").add(2)
        registry.ratio("r").record(True)
        registry.latency("l").record(100)
        snapshot = registry.as_dict()
        assert snapshot["c"] == 2
        assert snapshot["r.ratio"] == 1.0
        assert snapshot["l.count"] == 1

    def test_counters_view(self):
        registry = StatRegistry()
        registry.counter("a").add(3)
        assert registry.counters() == {"a": 3}
