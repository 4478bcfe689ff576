"""Tests for table/series formatting."""

import pytest

from repro.core.analysis import QuestionTally, RankingDistribution
from repro.core.reporting import (
    format_cdf,
    format_question_tally,
    format_ranking_distribution,
    format_series,
    format_table,
)
from repro.util.statsutil import empirical_cdf


class TestFormatTable:
    def test_aligned_columns(self):
        table = format_table(["name", "count"], [["alpha", 1], ["b", 22]])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert lines[1].startswith("-")
        assert len(lines) == 4

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "y"]])

    def test_small_floats_scientific(self):
        table = format_table(["p"], [[6.8e-8]])
        assert "6.80e-08" in table

    def test_integral_floats_compact(self):
        table = format_table(["v"], [[12.0]])
        assert "12" in table


class TestDomainFormatters:
    def test_ranking_distribution_table(self):
        distribution = RankingDistribution(
            version_ids=["a", "b"],
            matrix={"a": [75.0, 25.0], "b": [25.0, 75.0]},
            participants=4,
        )
        text = format_ranking_distribution(distribution, title="Fig 4(a)")
        assert "Fig 4(a)" in text
        assert "rank A (%)" in text
        assert "75" in text

    def test_question_tally_includes_p_value(self):
        tally = QuestionTally("q", "a", "b", left_count=14, right_count=46, same_count=40)
        text = format_question_tally(tally, "Original (A)", "Variant (B)")
        assert "Original (A)" in text
        assert "6.8" in text  # the p-value
        assert "46" in text

    def test_cdf_sampled(self):
        cdf = empirical_cdf(list(range(100)))
        text = format_cdf(cdf, "minutes", points=5)
        assert len(text.splitlines()) == 7  # header + rule + 5 rows

    def test_series_downsampled(self):
        series = [(i, i * 2) for i in range(100)]
        text = format_series(series, ["x", "y"], max_rows=10)
        assert len(text.splitlines()) == 12
