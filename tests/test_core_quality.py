"""Tests for the quality-control stack."""

import math

import pytest

from repro.core.extension import Answer, ParticipantResult
from repro.core.quality import (
    ENGAGEMENT_VIOLATION_FRACTION,
    MAJORITY_DEVIATION_FRACTION,
    MAJORITY_MIN_CELLS,
    MAX_ACTIVE_TAB_SWITCHES,
    MAX_COMPARISON_MINUTES,
    MAX_CREATED_TABS,
    MIN_COMPARISON_MINUTES,
    QualityConfig,
    QualityControl,
    REASON_CONTROL,
    REASON_INCOMPLETE,
    REASON_MAJORITY,
    REASON_TAB_CHURN,
    REASON_TOO_FAST,
    REASON_TOO_SLOW,
)
from repro.crowd.behavior import BehaviorTrace

GOOD_TRACE = BehaviorTrace(0.8, 0, 3)


def make_result(
    worker_id="w1",
    answers=None,
    pages=("p0", "p1", "p2", "p3"),
    answer_value="left",
    trace=GOOD_TRACE,
    control=("ctrl", "a", "a", "same"),
):
    """A complete, well-behaved submission by default."""
    if answers is None:
        answers = [
            Answer(page, "q1", answer_value, "a", "b", False, trace) for page in pages
        ]
        if control is not None:
            cid, left, right, response = control
            answers.append(Answer(cid, "q1", response, left, right, True, trace))
    return ParticipantResult(
        test_id="t", worker_id=worker_id, demographics={}, answers=answers
    )


EXPECTED = 5  # 4 comparison pages + 1 control, one question


class TestHardRules:
    def test_complete_submission_kept(self):
        report = QualityControl().apply([make_result()], EXPECTED)
        assert report.kept_ids == ["w1"]

    def test_incomplete_dropped(self):
        result = make_result(answers=[Answer("p0", "q1", "left", "a", "b", False, GOOD_TRACE)])
        report = QualityControl().apply([result], EXPECTED)
        assert report.dropped[0].reason == REASON_INCOMPLETE

    def test_invalid_answer_value_dropped(self):
        result = make_result()
        result.answers[0] = Answer("p0", "q1", "banana", "a", "b", False, GOOD_TRACE)
        report = QualityControl().apply([result], EXPECTED)
        assert report.dropped[0].reason == REASON_INCOMPLETE

    def test_disabled_hard_rules(self):
        config = QualityConfig(enable_hard_rules=False, enable_majority_vote=False)
        result = make_result(answers=[Answer("p0", "q1", "left", "a", "b", False, GOOD_TRACE)])
        report = QualityControl(config).apply([result], EXPECTED)
        assert report.kept_ids == ["w1"]


class TestEngagement:
    def test_rushed_worker_dropped(self):
        rushed = make_result(trace=BehaviorTrace(0.02, 0, 2))
        report = QualityControl().apply([rushed], EXPECTED)
        assert report.dropped[0].reason == REASON_TOO_FAST

    def test_single_overlong_comparison_drops(self):
        answers = [
            Answer("p0", "q1", "left", "a", "b", False, BehaviorTrace(3.3, 0, 2)),
        ] + [
            Answer(p, "q1", "left", "a", "b", False, GOOD_TRACE)
            for p in ("p1", "p2", "p3")
        ] + [Answer("ctrl", "q1", "same", "a", "a", True, GOOD_TRACE)]
        result = make_result(answers=answers)
        report = QualityControl().apply([result], EXPECTED)
        assert report.dropped[0].reason == REASON_TOO_SLOW

    def test_tab_churn_dropped(self):
        churny = make_result(trace=BehaviorTrace(0.8, 6, 12))
        report = QualityControl().apply([churny], EXPECTED)
        assert report.dropped[0].reason == REASON_TAB_CHURN

    def test_few_fast_pairs_tolerated(self):
        answers = [
            Answer("p0", "q1", "left", "a", "b", False, BehaviorTrace(0.02, 0, 2)),
        ] + [
            Answer(p, "q1", "left", "a", "b", False, GOOD_TRACE)
            for p in ("p1", "p2", "p3")
        ] + [Answer("ctrl", "q1", "same", "a", "a", True, GOOD_TRACE)]
        report = QualityControl().apply([make_result(answers=answers)], EXPECTED)
        assert report.kept_ids == ["w1"]

    def test_engagement_can_be_disabled(self):
        config = QualityConfig(enable_engagement=False, enable_majority_vote=False)
        rushed = make_result(trace=BehaviorTrace(0.02, 0, 2))
        report = QualityControl(config).apply([rushed], EXPECTED)
        assert report.kept_ids == ["w1"]


class TestEngagementBoundaries:
    """Each threshold is exclusive: a value exactly at it passes."""

    @pytest.mark.parametrize(
        "trace, reason",
        [
            (BehaviorTrace(MIN_COMPARISON_MINUTES, 0, 3), None),
            (
                BehaviorTrace(math.nextafter(MIN_COMPARISON_MINUTES, 0.0), 0, 3),
                REASON_TOO_FAST,
            ),
            (BehaviorTrace(MAX_COMPARISON_MINUTES, 0, 3), None),
            (
                BehaviorTrace(math.nextafter(MAX_COMPARISON_MINUTES, 10.0), 0, 3),
                REASON_TOO_SLOW,
            ),
            (BehaviorTrace(0.8, MAX_CREATED_TABS, 3), None),
            (BehaviorTrace(0.8, MAX_CREATED_TABS + 1, 3), REASON_TAB_CHURN),
            (BehaviorTrace(0.8, 0, MAX_ACTIVE_TAB_SWITCHES), None),
            (BehaviorTrace(0.8, 0, MAX_ACTIVE_TAB_SWITCHES + 1), REASON_TAB_CHURN),
        ],
    )
    def test_every_comparison_at_or_past_a_threshold(self, trace, reason):
        report = QualityControl().apply([make_result(trace=trace)], EXPECTED)
        if reason is None:
            assert report.kept_ids == ["w1"]
        else:
            assert [d.reason for d in report.dropped] == [reason]

    @pytest.mark.parametrize("extra, kept", [(0, True), (1, False)])
    def test_rushed_fraction_at_the_limit_is_tolerated(self, extra, kept):
        # EXPECTED answers, control included; rushing on exactly the
        # tolerated fraction of them passes, one more does not.
        rushed = int(ENGAGEMENT_VIOLATION_FRACTION * EXPECTED) + extra
        traces = [BehaviorTrace(0.02, 0, 2)] * rushed + [GOOD_TRACE] * EXPECTED
        pages = ("p0", "p1", "p2", "p3")
        answers = [
            Answer(p, "q1", "left", "a", "b", False, trace)
            for p, trace in zip(pages, traces)
        ] + [Answer("ctrl", "q1", "same", "a", "a", True, traces[len(pages)])]
        report = QualityControl().apply([make_result(answers=answers)], EXPECTED)
        assert report.kept_ids == (["w1"] if kept else [])


class TestControlQuestions:
    def test_failed_identical_control_drops(self):
        cheat = make_result(control=("ctrl", "a", "a", "left"))
        report = QualityControl().apply([cheat], EXPECTED)
        assert report.dropped[0].reason == REASON_CONTROL

    def test_failed_contrast_control_drops(self):
        cheat = make_result(control=("ctrl", "__contrast__", "a", "left"))
        report = QualityControl().apply([cheat], EXPECTED)
        assert report.dropped[0].reason == REASON_CONTROL

    def test_passed_contrast_control_kept(self):
        honest = make_result(control=("ctrl", "__contrast__", "a", "right"))
        report = QualityControl().apply([honest], EXPECTED)
        assert report.kept_ids == ["w1"]

    def test_controls_can_be_disabled(self):
        config = QualityConfig(
            enable_control_questions=False, enable_majority_vote=False
        )
        cheat = make_result(control=("ctrl", "a", "a", "left"))
        report = QualityControl(config).apply([cheat], EXPECTED)
        assert report.kept_ids == ["w1"]


class TestMajorityVote:
    def test_deviant_dropped(self):
        majority = [make_result(worker_id=f"w{i}", answer_value="left") for i in range(5)]
        deviant = make_result(worker_id="dev", answer_value="right")
        report = QualityControl().apply(majority + [deviant], EXPECTED)
        assert "dev" in report.dropped_ids
        assert set(report.kept_ids) == {f"w{i}" for i in range(5)}
        assert report.drop_reasons()[REASON_MAJORITY] == 1

    def test_needs_minimum_cells(self):
        # One comparison page only: no majority verdict possible.
        majority = [
            make_result(worker_id=f"w{i}", pages=("p0",), answer_value="left")
            for i in range(5)
        ]
        deviant = make_result(worker_id="dev", pages=("p0",), answer_value="right")
        report = QualityControl().apply(majority + [deviant], 2)
        assert "dev" in report.kept_ids

    def test_tied_cells_carry_no_consensus(self):
        group_a = [make_result(worker_id=f"a{i}", answer_value="left") for i in range(3)]
        group_b = [make_result(worker_id=f"b{i}", answer_value="right") for i in range(3)]
        report = QualityControl().apply(group_a + group_b, EXPECTED)
        assert len(report.kept) == 6

    def test_majority_votes_helper(self):
        results = [make_result(worker_id=f"w{i}", answer_value="left") for i in range(3)]
        votes = QualityControl.majority_votes(results)
        assert votes[("p0", "q1")] == "left"

    def test_fewer_than_three_participants_skipped(self):
        results = [
            make_result(worker_id="w1", answer_value="left"),
            make_result(worker_id="w2", answer_value="right"),
        ]
        report = QualityControl().apply(results, EXPECTED)
        assert len(report.kept) == 2


def deviating_worker(cells, deviations, worker_id="edge"):
    """A worker answering ``cells`` comparison pages, ``deviations`` of them
    against the "left" majority."""
    answers = [
        Answer(f"p{i}", "q1", "right" if i < deviations else "left", "a", "b", False, GOOD_TRACE)
        for i in range(cells)
    ] + [Answer("ctrl", "q1", "same", "a", "a", True, GOOD_TRACE)]
    return make_result(worker_id=worker_id, answers=answers)


class TestMajorityBoundaries:
    @pytest.mark.parametrize("extra, kept", [(0, True), (1, False)])
    def test_deviating_on_exactly_the_fraction_is_kept(self, extra, kept):
        cells = 2 * MAJORITY_MIN_CELLS
        deviations = int(MAJORITY_DEVIATION_FRACTION * cells) + extra
        assert MAJORITY_DEVIATION_FRACTION * cells == int(MAJORITY_DEVIATION_FRACTION * cells)
        majority = [deviating_worker(cells, 0, f"w{i}") for i in range(5)]
        report = QualityControl().apply(
            majority + [deviating_worker(cells, deviations)], cells + 1
        )
        assert ("edge" in report.kept_ids) is kept

    @pytest.mark.parametrize(
        "cells, kept", [(MAJORITY_MIN_CELLS, False), (MAJORITY_MIN_CELLS - 1, True)]
    )
    def test_verdict_needs_the_minimum_cells(self, cells, kept):
        majority = [deviating_worker(cells, 0, f"w{i}") for i in range(5)]
        report = QualityControl().apply(
            majority + [deviating_worker(cells, cells)], cells + 1
        )
        assert ("edge" in report.kept_ids) is kept
