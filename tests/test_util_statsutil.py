"""Tests for descriptive-statistics helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.statsutil import (
    Cdf,
    empirical_cdf,
    mean,
    percentile,
)


class TestMean:
    def test_mean_basic(self):
        assert mean([1, 2, 3, 4]) == 2.5

    def test_mean_empty_is_zero(self):
        assert mean([]) == 0.0


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_interpolation(self):
        assert percentile([0, 10], 25) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5, 1, 9]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestEmpiricalCdf:
    def test_last_probability_is_one(self):
        cdf = empirical_cdf([3, 1, 2])
        assert cdf.ps[-1] == pytest.approx(1.0)

    def test_duplicates_collapse(self):
        cdf = empirical_cdf([1, 1, 2])
        assert cdf.xs == (1, 2)
        assert cdf.ps == (pytest.approx(2 / 3), pytest.approx(1.0))

    def test_quantile_inverse(self):
        cdf = empirical_cdf([10, 20, 30, 40])
        assert cdf.quantile(0.5) == 20
        assert cdf.quantile(1.0) == 40

    def test_quantile_out_of_range(self):
        cdf = empirical_cdf([1])
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_max(self):
        cdf = empirical_cdf([5, -1, 3])
        assert cdf.maximum == 5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_series_aligned(self):
        cdf = empirical_cdf([1, 2])
        assert cdf.series() == [(1, 0.5), (2, 1.0)]

    def test_misaligned_construction_rejected(self):
        with pytest.raises(ValueError):
            Cdf((1.0, 2.0), (0.5,))


class TestPercentileMatchesNumpy:
    """``percentile`` is numpy's default (linear) interpolation."""

    @pytest.mark.parametrize(
        "values, q",
        [
            ([7], 0),
            ([7], 63),
            ([3, 1], 50),
            ([1, 2, 3, 4], 25),
            ([1, 2, 3, 4], 90),
            ([10, -4, 2.5, 8, 8, 0], 33.3),
            ([0.1, 0.2, 0.3, 0.4, 0.5], 99.9),
            (list(range(101)), 37),
        ],
    )
    def test_equals_numpy_linear(self, values, q):
        import numpy as np

        assert percentile(values, q) == pytest.approx(np.percentile(values, q))

    @pytest.mark.parametrize("q", [-0.001, 100.001, float("nan")])
    def test_q_outside_unit_range_rejected(self, q):
        with pytest.raises(ValueError):
            percentile([1, 2, 3], q)

    def test_input_order_irrelevant(self):
        assert percentile([9, 1, 5, 3], 60) == percentile([1, 3, 5, 9], 60)


class TestCdfQuantileSteps:
    """``quantile`` is the left-continuous inverse of the step function."""

    @pytest.mark.parametrize(
        "p, expected",
        [(0.0, 10), (0.25, 10), (0.26, 20), (0.5, 20), (0.75, 30), (0.99, 40)],
    )
    def test_smallest_x_reaching_p(self, p, expected):
        assert empirical_cdf([40, 10, 30, 20]).quantile(p) == expected

    @settings(deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=40))
    def test_probabilities_count_samples_at_or_below(self, samples):
        cdf = empirical_cdf(samples)
        assert list(cdf.xs) == sorted(set(samples))
        for x, p in zip(cdf.xs, cdf.ps):
            at_or_below = sum(1 for s in samples if s <= x)
            assert p == pytest.approx(at_or_below / len(samples))


class TestMeanValues:
    @pytest.mark.parametrize(
        "values, expected",
        [([5], 5.0), ([-1, 1], 0.0), ((0.5, 0.25, 0.25), 1 / 3), (iter([2, 4]), 3.0)],
    )
    def test_arithmetic_mean(self, values, expected):
        assert mean(values) == pytest.approx(expected)
