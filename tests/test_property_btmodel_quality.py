"""Property-based tests for Bradley-Terry fitting and quality control."""

import string

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.btmodel import PairwiseCounts, fit_bradley_terry
from repro.core.extension import Answer, ParticipantResult
from repro.core.quality import QualityConfig, QualityControl
from repro.crowd.behavior import BehaviorTrace
from repro.store import StreamingCampaignState

version_sets = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=3),
    min_size=2,
    max_size=5,
    unique=True,
)


@st.composite
def win_tables(draw):
    versions = draw(version_sets)
    counts = PairwiseCounts(versions)
    pairs = [(a, b) for i, a in enumerate(versions) for b in versions[i + 1 :]]
    total = 0
    for a, b in pairs:
        ab = draw(st.integers(0, 15))
        ba = draw(st.integers(0, 15))
        if ab:
            counts.add_win(a, b, ab)
        if ba:
            counts.add_win(b, a, ba)
        total += ab + ba
    assume(total > 0)
    return counts


class TestBradleyTerryProperties:
    @given(win_tables())
    @settings(max_examples=80, deadline=None)
    def test_scores_are_a_distribution(self, counts):
        fit = fit_bradley_terry(counts)
        assert all(s > 0 for s in fit.scores.values())
        assert sum(fit.scores.values()) == pytest.approx(1.0)

    @given(win_tables())
    @settings(max_examples=60, deadline=None)
    def test_win_probabilities_consistent(self, counts):
        fit = fit_bradley_terry(counts)
        versions = counts.version_ids
        for a in versions:
            for b in versions:
                if a == b:
                    continue
                assert fit.win_probability(a, b) + fit.win_probability(b, a) == pytest.approx(1.0)

    @given(win_tables(), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_version_label_permutation_invariance(self, counts, random_source):
        """Relabelling versions permutes the scores, nothing else."""
        fit = fit_bradley_terry(counts)
        shuffled = list(counts.version_ids)
        random_source.shuffle(shuffled)
        renamed = PairwiseCounts(shuffled)
        renamed.wins = dict(counts.wins)
        refit = fit_bradley_terry(renamed)
        for version in counts.version_ids:
            assert refit.scores[version] == pytest.approx(fit.scores[version], rel=1e-6)

    @given(st.integers(1, 30), st.integers(1, 30))
    @settings(max_examples=60)
    def test_two_player_ordering_matches_wins(self, ab, ba):
        assume(ab != ba)
        counts = PairwiseCounts(["a", "b"])
        counts.add_win("a", "b", ab)
        counts.add_win("b", "a", ba)
        fit = fit_bradley_terry(counts)
        expected_winner = "a" if ab > ba else "b"
        assert fit.ranking()[0] == expected_winner


TRACE_GOOD = BehaviorTrace(0.8, 0, 3)
durations = st.floats(0.03, 3.4, allow_nan=False)
tabs = st.integers(0, 8)
answers_strategy = st.sampled_from(["left", "right", "same"])


@st.composite
def participant_results(draw, worker_id="w"):
    count = draw(st.integers(1, 5))
    answers = []
    for index in range(count):
        trace = BehaviorTrace(
            draw(durations), draw(tabs), 2 + draw(st.integers(0, 10))
        )
        answers.append(
            Answer(f"p{index}", "q1", draw(answers_strategy), "a", "b", False, trace)
        )
    return ParticipantResult("t", worker_id, {}, answers)


class TestQualityControlProperties:
    @given(st.lists(participant_results(), min_size=1, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_kept_plus_dropped_partitions(self, results):
        for index, result in enumerate(results):
            result.worker_id = f"w{index}"
        report = QualityControl().apply(results, expected_answers_per_page=1)
        assert len(report.kept) + len(report.dropped) == len(results)
        assert set(report.kept_ids).isdisjoint(report.dropped_ids)

    @given(st.lists(participant_results(), min_size=1, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_more_layers_never_keep_more(self, results):
        """Enabling a filter layer can only shrink the kept set."""
        for index, result in enumerate(results):
            result.worker_id = f"w{index}"
        nothing = QualityConfig(
            enable_hard_rules=False,
            enable_engagement=False,
            enable_control_questions=False,
            enable_majority_vote=False,
        )
        everything = QualityConfig()
        kept_nothing = QualityControl(nothing).apply(results, 1).kept_ids
        kept_everything = QualityControl(everything).apply(results, 1).kept_ids
        assert set(kept_everything) <= set(kept_nothing)

    @given(st.lists(participant_results(), min_size=3, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_idempotent_on_kept_set(self, results):
        """Re-filtering the survivors drops nobody new (engagement and
        control layers are per-individual; majority vote re-evaluated on
        the survivor set can only agree more)."""
        for index, result in enumerate(results):
            result.worker_id = f"w{index}"
        config = QualityConfig(enable_majority_vote=False)
        first = QualityControl(config).apply(results, 1)
        second = QualityControl(config).apply(first.kept, 1)
        assert second.kept_ids == first.kept_ids

    @given(st.lists(participant_results(), min_size=1, max_size=10), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_upload_fold_matches_batch_pass(self, results, engagement):
        """Folding each upload, then concluding, makes the batch pass's
        decisions: the same kept ids and the same drops, in order."""
        for index, result in enumerate(results):
            result.worker_id = f"w{index}"
        config = QualityConfig(enable_engagement=engagement)
        batch = QualityControl(config).apply(results, 1)
        state = StreamingCampaignState(
            "t", ["q1"], ["a", "b"], [("a", "b")], 1, quality=config
        )
        for result in results:
            state.ingest(result)
        folded = state.conclude().report
        assert folded.kept_ids == batch.kept_ids
        assert [(d.worker_id, d.reason, d.detail) for d in folded.dropped] == [
            (d.worker_id, d.reason, d.detail) for d in batch.dropped
        ]
