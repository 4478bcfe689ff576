"""Tests for Experiment 2 (Kaleidoscope vs A/B testing)."""

import pytest

from repro.experiments.expand_button import (
    QUESTION_A,
    QUESTION_B,
    QUESTION_C,
    UTILITY_GAPS,
    ExpandButtonExperiment,
    build_parameters,
)


class TestSetup:
    def test_three_questions(self):
        params = build_parameters()
        assert len(params.question) == 3
        assert params.webpage_num == 2

    def test_gap_ordering_matches_edit_magnitude(self):
        assert (
            UTILITY_GAPS[QUESTION_A.question_id]
            < UTILITY_GAPS[QUESTION_B.question_id]
            < UTILITY_GAPS[QUESTION_C.question_id]
        )


class TestSmallScaleRun:
    @pytest.fixture(scope="class")
    def outcome(self):
        return ExpandButtonExperiment(seed=13).run(participants=60)

    def test_kaleidoscope_much_faster_than_ab(self, outcome):
        """Paper: >12x faster to reach the participant quota."""
        assert outcome.speedup > 4

    def test_ab_inconclusive(self, outcome):
        """Paper: p = 0.133 — not significant at 95%."""
        assert outcome.ab_p_value > 0.05
        assert outcome.ab_result.winner == "inconclusive"

    def test_visibility_question_significant(self, outcome):
        """Paper: p = 6.8e-8 — B more visible at 99% confidence."""
        assert outcome.tallies[QUESTION_C.question_id].preference_p_value() < 0.01
        tally = outcome.tallies[QUESTION_C.question_id]
        assert tally.right_count > tally.left_count

    def test_appeal_question_mostly_same(self, outcome):
        """Paper: 50% answered Same for overall appeal."""
        tally = outcome.tallies[QUESTION_A.question_id]
        assert tally.percentages["same"] > max(
            tally.percentages["left"], tally.percentages["right"]
        )

    def test_looks_question_intermediate(self, outcome):
        """Paper: Same (45%) narrowly edges B (42%); A far behind."""
        tally = outcome.tallies[QUESTION_B.question_id]
        assert tally.right_count > tally.left_count
        assert tally.percentages["left"] < 30

    def test_arrival_series_shapes(self, outcome):
        assert outcome.kaleidoscope_arrival_days[-1] < outcome.ab_arrival_days[-1]
        assert outcome.kaleidoscope_arrival_days == sorted(
            outcome.kaleidoscope_arrival_days
        )

    def test_ab_clicks_low_counts(self, outcome):
        """Low-traffic site: single-digit clicks per arm, as in the paper."""
        assert outcome.ab_result.arm_a.clicks <= 12
        assert outcome.ab_result.arm_b.clicks <= 15
