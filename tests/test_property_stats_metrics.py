"""Property-based tests for statistics and visual metrics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abtest.stats import (
    binomial_test_p,
    proportion_confidence_interval,
    two_proportion_z,
)
from repro.html.parser import parse_html
from repro.render.metrics import compute_visual_metrics
from repro.render.paint import build_paint_timeline
from repro.render.replay import UniformRandomSchedule
from repro.util.statsutil import empirical_cdf

sizes = st.integers(1, 200)
# (successes, trials) with successes <= trials, drawn directly rather than
# filtered so hypothesis never discards an example.
proportions = sizes.flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n)))


class TestStatsProperties:
    @given(proportions, proportions)
    @settings(max_examples=200)
    def test_p_value_in_unit_interval(self, first, second):
        (s1, n1), (s2, n2) = first, second
        for pooled in (True, False):
            for two_sided in (True, False):
                result = two_proportion_z(s1, n1, s2, n2, pooled, two_sided)
                assert 0.0 <= result.p_value <= 1.0

    @given(proportions)
    @settings(max_examples=100)
    def test_symmetry_two_sided(self, proportion):
        s, n = proportion
        forward = two_proportion_z(s, n, n - s, n, two_sided=True)
        backward = two_proportion_z(n - s, n, s, n, two_sided=True)
        assert forward.p_value == pytest.approx(backward.p_value, abs=1e-12)

    @given(proportions)
    @settings(max_examples=100)
    def test_binomial_p_in_unit_interval(self, proportion):
        s, n = proportion
        assert 0.0 <= binomial_test_p(s, n) <= 1.0
        assert 0.0 <= binomial_test_p(s, n, two_sided=False) <= 1.0

    @given(proportions)
    @settings(max_examples=100)
    def test_wilson_interval_ordered_and_bounded(self, proportion):
        s, n = proportion
        low, high = proportion_confidence_interval(s, n)
        assert 0.0 <= low <= high <= 1.0
        # Point estimate inside the interval.
        assert low <= s / n <= high

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_cdf_monotone_normalized(self, samples):
        cdf = empirical_cdf(samples)
        assert list(cdf.ps) == sorted(cdf.ps)
        assert list(cdf.xs) == sorted(cdf.xs)
        assert cdf.ps[-1] == pytest.approx(1.0)

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=50),
        st.floats(0, 1),
    )
    @settings(max_examples=100)
    def test_cdf_quantile_inverse_bound(self, samples, p):
        cdf = empirical_cdf(samples)
        x = cdf.quantile(p)
        assert cdf.evaluate(x) >= p - 1e-12


PAGE = parse_html(
    "<div><p>alpha content line</p><p>beta content line</p>"
    "<img src='x' width='50' height='40'></div>"
)


class TestMetricInvariants:
    @given(st.floats(0, 30_000, allow_nan=False), st.integers(0, 2**31))
    @settings(max_examples=150)
    def test_metric_ordering_invariants(self, duration, seed):
        timeline = build_paint_timeline(PAGE, UniformRandomSchedule(duration), seed=seed)
        metrics = compute_visual_metrics(timeline)
        assert 0 <= metrics.time_to_first_paint_ms <= metrics.page_load_time_ms
        assert metrics.above_the_fold_ms <= metrics.page_load_time_ms
        assert metrics.time_to_first_paint_ms <= metrics.speed_index + 1e-9
        assert metrics.speed_index <= metrics.above_the_fold_ms + 1e-9
        assert metrics.visually_ready_ms <= metrics.page_load_time_ms

    @given(st.integers(0, 2**31))
    @settings(max_examples=50)
    def test_completeness_curve_monotone(self, seed):
        timeline = build_paint_timeline(PAGE, UniformRandomSchedule(5000), seed=seed)
        curve = timeline.completeness_curve()
        times = [t for t, _ in curve]
        fractions = [f for _, f in curve]
        assert times == sorted(times)
        assert fractions == sorted(fractions)
