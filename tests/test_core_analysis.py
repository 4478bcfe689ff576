"""Tests for response analysis (tallies, rankings, behaviour CDFs)."""

import pytest

from repro.core.analysis import (
    analyze_responses,
    behavior_cdfs,
    participant_ranking,
    preference_log_evidence,
    ranking_distribution,
    tally_question,
)
from repro.core.extension import Answer, ParticipantResult
from repro.crowd.behavior import BehaviorTrace
from repro.errors import ValidationError

TRACE = BehaviorTrace(0.5, 0, 2)


def result_with_answers(worker_id, pairs_and_answers, question_id="q1"):
    """pairs_and_answers: [(left, right, answer), ...]"""
    answers = [
        Answer(f"pg-{i}", question_id, answer, left, right, False, TRACE)
        for i, (left, right, answer) in enumerate(pairs_and_answers)
    ]
    return ParticipantResult("t", worker_id, {}, answers)


class TestTallyQuestion:
    def test_counts(self):
        results = [
            result_with_answers("w1", [("a", "b", "left")]),
            result_with_answers("w2", [("a", "b", "right")]),
            result_with_answers("w3", [("a", "b", "same")]),
            result_with_answers("w4", [("a", "b", "right")]),
        ]
        tally = tally_question(results, "q1", "a", "b")
        assert (tally.left_count, tally.same_count, tally.right_count) == (1, 1, 2)
        assert tally.total == 4

    def test_mirrored_pairs_folded(self):
        results = [
            result_with_answers("w1", [("a", "b", "left")]),
            result_with_answers("w2", [("b", "a", "right")]),  # same preference
        ]
        tally = tally_question(results, "q1", "a", "b")
        assert tally.left_count == 2

    def test_percentages_sum_to_100(self):
        results = [result_with_answers("w1", [("a", "b", "left")])]
        tally = tally_question(results, "q1", "a", "b")
        assert sum(tally.percentages.values()) == pytest.approx(100.0)

    def test_empty_tally(self):
        tally = tally_question([], "q1", "a", "b")
        assert tally.total == 0
        assert tally.preference_p_value() == 1.0
        assert tally.percentages == {"left": 0.0, "same": 0.0, "right": 0.0}

    def test_winner(self):
        results = [
            result_with_answers(f"w{i}", [("a", "b", "right")]) for i in range(3)
        ] + [result_with_answers("wx", [("a", "b", "left")])]
        assert tally_question(results, "q1", "a", "b").winner == "right"

    def test_paper_p_value_reproduced(self):
        """46 B vs 14 A (40 Same) of 100 must give ~6.8e-8."""
        results = (
            [result_with_answers(f"b{i}", [("a", "b", "right")]) for i in range(46)]
            + [result_with_answers(f"a{i}", [("a", "b", "left")]) for i in range(14)]
            + [result_with_answers(f"s{i}", [("a", "b", "same")]) for i in range(40)]
        )
        tally = tally_question(results, "q1", "a", "b")
        assert tally.preference_p_value() == pytest.approx(6.8e-8, rel=0.05)

    def test_other_questions_ignored(self):
        results = [
            result_with_answers("w1", [("a", "b", "left")], question_id="q2"),
        ]
        assert tally_question(results, "q1", "a", "b").total == 0


class TestPreferenceLogEvidence:
    @pytest.mark.parametrize(
        "left,right", [(0, 0), (3, 0), (0, 7), (5, 5), (14, 46), (120, 80)]
    )
    def test_matches_the_mixture_integral(self, left, right):
        """ln of 2^(L+R) times the integral of p^L (1-p)^R over [0, 1]."""
        from math import log

        from scipy.integrate import quad

        integral, _ = quad(lambda p: p**left * (1 - p) ** right, 0, 1)
        expected = (left + right) * log(2) + log(integral)
        assert preference_log_evidence(left, right) == pytest.approx(
            expected, rel=1e-6, abs=1e-9
        )

    def test_symmetric_and_zero_without_decided_answers(self):
        assert preference_log_evidence(0, 0) == 0.0
        assert preference_log_evidence(9, 2) == pytest.approx(preference_log_evidence(2, 9))
        assert preference_log_evidence(6, 5) < 0 < preference_log_evidence(12, 0)

    def test_false_stop_chance_within_alpha_at_every_look(self):
        """Exact over every path of 400 fair left/right answers: the chance
        the ratio ever reaches 1/alpha, checking after each answer."""
        from math import log

        alpha = 0.01
        threshold = log(1 / alpha)
        alive = {0: 1.0}  # left count -> probability of not having stopped
        stopped = 0.0
        for decided in range(1, 401):
            step = {}
            for left, mass in alive.items():
                for moved in (left, left + 1):
                    step[moved] = step.get(moved, 0.0) + mass / 2
            alive = {}
            for left, mass in step.items():
                if preference_log_evidence(left, decided - left) >= threshold:
                    stopped += mass
                else:
                    alive[left] = mass
        assert 0.001 < stopped <= alpha


class TestParticipantRanking:
    def test_full_pairwise_ranking(self):
        # b beats everyone, a beats c, so b > a > c.
        result = result_with_answers(
            "w1",
            [("a", "b", "right"), ("a", "c", "left"), ("b", "c", "left")],
        )
        assert participant_ranking(result, "q1", ["a", "b", "c"]) == ["b", "a", "c"]

    def test_same_answers_keep_input_order(self):
        result = result_with_answers(
            "w1", [("a", "b", "same"), ("a", "c", "same"), ("b", "c", "same")]
        )
        assert participant_ranking(result, "q1", ["a", "b", "c"]) == ["a", "b", "c"]

    def test_unknown_versions_ignored(self):
        result = result_with_answers("w1", [("zz", "a", "left")])
        ranking = participant_ranking(result, "q1", ["a", "b"])
        assert sorted(ranking) == ["a", "b"]


class TestRankingDistribution:
    def test_percentages_per_rank_sum_to_100(self):
        results = [
            result_with_answers(
                f"w{i}",
                [("a", "b", "left"), ("a", "c", "left"), ("b", "c", "left")],
            )
            for i in range(4)
        ]
        distribution = ranking_distribution(results, "q1", ["a", "b", "c"])
        for rank_index in range(3):
            total = sum(
                distribution.matrix[v][rank_index] for v in ["a", "b", "c"]
            )
            assert total == pytest.approx(100.0)

    def test_unanimous_top_choice(self):
        results = [
            result_with_answers(
                f"w{i}",
                [("a", "b", "left"), ("a", "c", "left"), ("b", "c", "left")],
            )
            for i in range(5)
        ]
        distribution = ranking_distribution(results, "q1", ["a", "b", "c"])
        assert distribution.percentage("a", "A") == 100.0
        assert distribution.modal_version_at_rank("A") == "a"

    def test_empty_results(self):
        distribution = ranking_distribution([], "q1", ["a", "b"])
        assert distribution.participants == 0
        assert distribution.matrix["a"] == [0.0, 0.0]

    def test_too_many_versions_rejected(self):
        with pytest.raises(ValidationError):
            ranking_distribution([], "q1", [f"v{i}" for i in range(9)])

    def test_rows_shape(self):
        results = [result_with_answers("w", [("a", "b", "left")])]
        distribution = ranking_distribution(results, "q1", ["a", "b"])
        rows = distribution.rows()
        assert len(rows) == 2
        assert len(rows[0][1]) == 2


class TestBehaviorCdfs:
    def test_one_trace_per_comparison(self):
        # Two questions on the same page share one trace; count once.
        answers = [
            Answer("pg", "q1", "left", "a", "b", False, TRACE),
            Answer("pg", "q2", "left", "a", "b", False, TRACE),
        ]
        result = ParticipantResult("t", "w", {}, answers)
        cdfs = behavior_cdfs([result])
        assert len(cdfs.time_on_task_minutes.xs) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            behavior_cdfs([])

    def test_cdf_fields(self):
        result = result_with_answers("w", [("a", "b", "left")])
        cdfs = behavior_cdfs([result])
        assert cdfs.active_tabs.maximum >= 2
        assert cdfs.created_tabs.xs[0] >= 0
        assert cdfs.time_on_task_minutes.maximum == 0.5


class TestAnalyzeResponses:
    def test_bundle_contents(self):
        results = [
            result_with_answers(
                f"w{i}",
                [("a", "b", "left"), ("a", "c", "same"), ("b", "c", "right")],
            )
            for i in range(3)
        ]
        bundle = analyze_responses(results, ["q1"], ["a", "b", "c"])
        assert bundle.participants == 3
        assert ("q1", "a", "b") in bundle.tallies
        assert len(bundle.tallies) == 3
        assert "q1" in bundle.rankings

    def test_explicit_pairs(self):
        results = [result_with_answers("w", [("a", "b", "left")])]
        bundle = analyze_responses(results, ["q1"], ["a", "b", "c"], pairs=[("a", "b")])
        assert set(bundle.tallies) == {("q1", "a", "b")}
