"""Tests for the statistical tests (cross-checked against scipy)."""

import math

import pytest
import scipy.stats

from repro.abtest.stats import required_sample_size_two_proportion, two_proportion_z
from repro.errors import ValidationError


class TestTwoProportionZ:
    def test_paper_kaleidoscope_p_value(self):
        """46 vs 14 of 100: the paper's 6.8e-8 (one-sided, unpooled)."""
        result = two_proportion_z(46, 100, 14, 100, pooled=False, two_sided=False)
        assert result.p_value == pytest.approx(6.8e-8, rel=0.05)

    def test_paper_ab_p_value(self):
        """6/49 vs 3/51: the paper's 0.133 (VWO one-sided, pooled)."""
        result = two_proportion_z(6, 49, 3, 51, pooled=True, two_sided=False)
        assert result.p_value == pytest.approx(0.133, abs=0.005)

    def test_equal_proportions_p_one(self):
        result = two_proportion_z(10, 100, 10, 100)
        assert result.z == 0.0
        assert result.p_value == pytest.approx(1.0)

    def test_two_sided_doubles_one_sided(self):
        one = two_proportion_z(30, 100, 20, 100, two_sided=False)
        two = two_proportion_z(30, 100, 20, 100, two_sided=True)
        assert two.p_value == pytest.approx(2 * one.p_value)

    def test_against_scipy_normal(self):
        result = two_proportion_z(40, 90, 25, 110, pooled=False)
        expected = 2 * scipy.stats.norm.sf(abs(result.z))
        assert result.p_value == pytest.approx(expected)

    def test_zero_variance_infinite_z(self):
        result = two_proportion_z(5, 5, 0, 5, pooled=False)
        assert result.p_value == pytest.approx(0.0)

    def test_significance_flags(self):
        strong = two_proportion_z(46, 100, 14, 100, pooled=False, two_sided=False)
        weak = two_proportion_z(6, 49, 3, 51, pooled=True, two_sided=False)
        assert strong.significant_95
        assert not weak.significant_95

    def test_validation(self):
        with pytest.raises(ValidationError):
            two_proportion_z(-1, 10, 0, 10)
        with pytest.raises(ValidationError):
            two_proportion_z(11, 10, 0, 10)
        with pytest.raises(ValidationError):
            two_proportion_z(0, 0, 0, 10)


class TestPowerAnalysis:
    def test_paper_ab_test_underpowered(self):
        """Detecting 6% vs 12% at 80% power needs far more than 50/arm."""
        needed = required_sample_size_two_proportion(0.06, 0.12)
        assert needed > 300

    def test_bigger_effect_needs_fewer(self):
        small = required_sample_size_two_proportion(0.10, 0.12)
        large = required_sample_size_two_proportion(0.10, 0.40)
        assert large < small / 10

    def test_validation(self):
        with pytest.raises(ValidationError):
            required_sample_size_two_proportion(0.5, 0.5)
        with pytest.raises(ValidationError):
            required_sample_size_two_proportion(0.0, 0.5)


#: (successes1, n1, successes2, n2) tables covering small, unbalanced and
#: near-boundary arms, including the paper's two experiments.
TABLES = [
    (46, 100, 14, 100),
    (6, 49, 3, 51),
    (1, 10, 9, 10),
    (50, 500, 70, 480),
    (0, 30, 4, 25),
    (199, 200, 180, 200),
]


class TestTwoProportionZOracles:
    @pytest.mark.parametrize("table", TABLES)
    def test_pooled_two_sided_equals_chi_square(self, table):
        """The pooled z-test squared is Pearson's 2x2 chi-square."""
        s1, n1, s2, n2 = table
        chi2, p, _, _ = scipy.stats.chi2_contingency(
            [[s1, n1 - s1], [s2, n2 - s2]], correction=False
        )
        result = two_proportion_z(s1, n1, s2, n2, pooled=True, two_sided=True)
        assert result.z ** 2 == pytest.approx(chi2)
        assert result.p_value == pytest.approx(p)

    @pytest.mark.parametrize("table", TABLES)
    def test_unpooled_equals_wald_statistic(self, table):
        s1, n1, s2, n2 = table
        p1, p2 = s1 / n1, s2 / n2
        z = (p1 - p2) / ((p1 * (1 - p1) / n1 + p2 * (1 - p2) / n2) ** 0.5)
        result = two_proportion_z(s1, n1, s2, n2, pooled=False, two_sided=False)
        assert result.z == pytest.approx(z)
        assert result.p_value == pytest.approx(scipy.stats.norm.sf(z))

    @pytest.mark.parametrize("pooled", [True, False])
    @pytest.mark.parametrize("table", TABLES[:3])
    def test_one_sided_tails_sum_to_one(self, table, pooled):
        s1, n1, s2, n2 = table
        forward = two_proportion_z(s1, n1, s2, n2, pooled=pooled, two_sided=False)
        backward = two_proportion_z(s2, n2, s1, n1, pooled=pooled, two_sided=False)
        assert forward.p_value + backward.p_value == pytest.approx(1.0)
        assert forward.z == pytest.approx(-backward.z)

    def test_zero_variance_one_sided_sides(self):
        ahead = two_proportion_z(5, 5, 0, 5, pooled=False, two_sided=False)
        behind = two_proportion_z(0, 5, 5, 5, pooled=False, two_sided=False)
        assert (ahead.p_value, behind.p_value) == (0.0, 1.0)

    @pytest.mark.parametrize(
        "args", [(0, 10, -1, 10), (0, 10, 11, 10), (0, 10, 0, 0), (0, -5, 0, 10)]
    )
    def test_invalid_counts_rejected(self, args):
        with pytest.raises(ValidationError):
            two_proportion_z(*args)


class TestSampleSizeFormula:
    @pytest.mark.parametrize(
        "p1, p2, alpha, power",
        [(0.06, 0.12, 0.05, 0.8), (0.10, 0.40, 0.05, 0.8), (0.5, 0.6, 0.01, 0.9),
         (0.3, 0.2, 0.1, 0.5)],
    )
    def test_matches_scipy_quantiles(self, p1, p2, alpha, power):
        """The bisection inverse-normal gives the textbook formula's n."""
        norm = scipy.stats.norm
        p_bar = (p1 + p2) / 2
        numerator = (
            norm.ppf(1 - alpha / 2) * (2 * p_bar * (1 - p_bar)) ** 0.5
            + norm.ppf(power) * (p1 * (1 - p1) + p2 * (1 - p2)) ** 0.5
        ) ** 2
        expected = numerator / (p1 - p2) ** 2
        needed = required_sample_size_two_proportion(p1, p2, alpha, power)
        assert needed == math.ceil(expected)

    def test_symmetric_in_the_two_proportions(self):
        assert required_sample_size_two_proportion(
            0.2, 0.35
        ) == required_sample_size_two_proportion(0.35, 0.2)

    @pytest.mark.parametrize("power", [0.0, 1.0])
    def test_degenerate_power_rejected(self, power):
        with pytest.raises(ValidationError):
            required_sample_size_two_proportion(0.2, 0.3, power=power)
