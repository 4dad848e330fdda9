"""Tests for the shared percentile toolkit (repro.analysis)."""

import random

import pytest

from repro.analysis import LatencyHistogram, TAIL_PERCENTILES, percentile


class TestExactPercentile:
    """The exact finite-sample percentile function."""

    def test_single_sample(self):
        assert percentile([42.0], 0.0) == 42.0
        assert percentile([42.0], 50.0) == 42.0
        assert percentile([42.0], 100.0) == 42.0

    def test_endpoints_are_min_and_max(self):
        xs = [5.0, 1.0, 9.0, 3.0]
        assert percentile(xs, 0.0) == 1.0
        assert percentile(xs, 100.0) == 9.0

    def test_median_interpolates_between_middle_samples(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5

    def test_linear_interpolation_matches_hand_computation(self):
        # rank = 0.9 * (5 - 1) = 3.6 -> 4 + 0.6 * (5 - 4)
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90.0) == pytest.approx(4.6)

    def test_input_order_is_irrelevant(self):
        xs = [7.0, 1.0, 4.0, 9.0, 2.0]
        assert percentile(xs, 75.0) == percentile(sorted(xs), 75.0)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)


class TestLatencyHistogram:
    """The streaming geometric-bucket histogram."""

    def test_percentiles_within_growth_bound_of_exact(self):
        rng = random.Random(5)
        hist = LatencyHistogram("t")
        samples = [rng.random() * 1000.0 + 0.5 for _ in range(5000)]
        hist.extend(samples)
        for p in TAIL_PERCENTILES:
            exact = percentile(samples, p)
            approx = hist.percentile(p)
            # one bucket of slack in each direction around the exact value
            assert exact / hist._growth <= approx <= exact * hist._growth

    def test_min_max_mean_are_exact(self):
        hist = LatencyHistogram("t")
        hist.extend([3.0, 1.0, 2.0])
        assert hist.min == 1.0 and hist.max == 3.0
        assert hist.mean == pytest.approx(2.0)
        assert hist.percentile(0.0) == 1.0
        assert hist.percentile(100.0) == 3.0

    def test_merge_equals_recording_everything_in_one(self):
        a, b, both = (LatencyHistogram(n) for n in "ab1")
        xs = [0.5, 1.5, 80.0, 2.25]
        ys = [12.0, 0.0, 7.5]
        a.extend(xs)
        b.extend(ys)
        both.extend(xs + ys)
        a.merge(b)
        assert a.count == both.count
        assert a.min == both.min and a.max == both.max
        for p in TAIL_PERCENTILES:
            assert a.percentile(p) == both.percentile(p)

    def test_merge_rejects_mismatched_geometry(self):
        a = LatencyHistogram("a")
        b = LatencyHistogram("b", growth=1.5)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_empty_histogram_raises(self):
        hist = LatencyHistogram("empty")
        with pytest.raises(ValueError):
            hist.percentile(50.0)
        with pytest.raises(ValueError):
            hist.mean

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError):
            LatencyHistogram("t").record(-1.0)

    def test_tiny_values_land_in_resolution_bucket(self):
        hist = LatencyHistogram("t", resolution=0.01)
        hist.extend([0.0, 0.001, 0.01])
        assert hist.percentile(99.0) <= 0.01

    def test_summary_mentions_count_and_percentiles(self):
        hist = LatencyHistogram("ops")
        hist.extend(float(i) for i in range(1, 101))
        text = hist.summary()
        assert "ops" in text and "100" in text

