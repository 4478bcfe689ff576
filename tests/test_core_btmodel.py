"""Tests for Bradley-Terry model fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.btmodel import (
    BradleyTerryFit,
    PairwiseCounts,
    counts_from_results,
    fit_bradley_terry,
    fit_from_results,
)
from repro.core.extension import Answer, ParticipantResult
from repro.crowd.behavior import BehaviorTrace
from repro.errors import ValidationError
from repro.obs import MetricsRegistry

TRACE = BehaviorTrace(0.5, 0, 2)


def result_with(worker_id, triples):
    answers = [
        Answer(f"p{i}", "q1", answer, left, right, False, TRACE)
        for i, (left, right, answer) in enumerate(triples)
    ]
    return ParticipantResult("t", worker_id, {}, answers)


class TestPairwiseCounts:
    def test_wins_accumulate(self):
        counts = PairwiseCounts(["a", "b"])
        counts.add_win("a", "b")
        counts.add_win("a", "b")
        counts.add_win("b", "a")
        assert counts.wins == {("a", "b"): 2, ("b", "a"): 1}
        assert counts.matchups("a", "b") == 3

    def test_tie_splits(self):
        counts = PairwiseCounts(["a", "b"])
        counts.add_tie("a", "b")
        assert counts.wins == {("a", "b"): 0.5, ("b", "a"): 0.5}

    def test_unknown_version_rejected(self):
        counts = PairwiseCounts(["a", "b"])
        with pytest.raises(ValidationError):
            counts.add_win("a", "z")

    def test_from_results(self):
        results = [
            result_with("w1", [("a", "b", "left"), ("b", "c", "same")]),
            result_with("w2", [("a", "b", "right")]),
        ]
        counts = counts_from_results(results, "q1", ["a", "b", "c"])
        assert counts.wins == {("a", "b"): 1, ("b", "a"): 1, ("b", "c"): 0.5, ("c", "b"): 0.5}

    def test_unknown_versions_in_answers_skipped(self):
        results = [result_with("w1", [("a", "__contrast__", "left")])]
        counts = counts_from_results(results, "q1", ["a", "b"])
        assert counts.total_comparisons() == 0


class TestFitting:
    def test_dominant_version_scores_highest(self):
        counts = PairwiseCounts(["a", "b", "c"])
        for _ in range(20):
            counts.add_win("a", "b")
            counts.add_win("a", "c")
            counts.add_win("b", "c")
        fit = fit_bradley_terry(counts)
        assert fit.ranking() == ["a", "b", "c"]
        assert fit.converged

    def test_scores_normalized(self):
        counts = PairwiseCounts(["a", "b"])
        counts.add_win("a", "b", 3)
        counts.add_win("b", "a", 1)
        fit = fit_bradley_terry(counts)
        assert sum(fit.scores.values()) == pytest.approx(1.0)

    def test_abilities_mean_centred(self):
        counts = PairwiseCounts(["a", "b", "c"])
        counts.add_win("a", "b", 5)
        counts.add_win("b", "c", 5)
        counts.add_win("a", "c", 5)
        counts.add_win("c", "a", 1)
        fit = fit_bradley_terry(counts)
        assert sum(fit.abilities.values()) == pytest.approx(0.0, abs=1e-9)

    def test_win_probability_matches_observed_ratio(self):
        counts = PairwiseCounts(["a", "b"])
        counts.add_win("a", "b", 30)
        counts.add_win("b", "a", 10)
        fit = fit_bradley_terry(counts, regularization=0.0)
        assert fit.win_probability("a", "b") == pytest.approx(0.75, abs=0.02)

    def test_total_shutout_finite_with_regularization(self):
        counts = PairwiseCounts(["a", "b"])
        counts.add_win("a", "b", 10)
        fit = fit_bradley_terry(counts)
        assert 0 < fit.scores["b"] < fit.scores["a"]

    def test_symmetric_data_gives_equal_scores(self):
        counts = PairwiseCounts(["a", "b", "c"])
        for x, y in (("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"), ("a", "c"), ("c", "a")):
            counts.add_win(x, y, 5)
        fit = fit_bradley_terry(counts)
        values = list(fit.scores.values())
        assert max(values) - min(values) < 1e-6

    def test_needs_two_versions(self):
        with pytest.raises(ValidationError):
            fit_bradley_terry(PairwiseCounts(["only"]))

    def test_needs_comparisons(self):
        with pytest.raises(ValidationError):
            fit_bradley_terry(PairwiseCounts(["a", "b"]))


class TestRecoveryOfLatentUtilities:
    def test_recovers_thurstone_ordering_from_noisy_crowd(self):
        """BT fitted on simulated crowd answers recovers the true order."""
        from repro.crowd.judgment import FontReadabilityModel, ThurstoneChoiceModel
        from repro.crowd.workers import FIGURE_EIGHT_TRUSTWORTHY_MIX, generate_population
        from repro.core.scheduling import all_pairs

        rng = np.random.default_rng(8)
        model = FontReadabilityModel()
        choice = ThurstoneChoiceModel()
        sizes = {"v10": 10, "v12": 12, "v14": 14, "v18": 18, "v22": 22}
        versions = list(sizes)
        population = generate_population(80, FIGURE_EIGHT_TRUSTWORTHY_MIX, rng=rng)
        results = []
        for worker in population:
            triples = []
            for left, right in all_pairs(versions):
                answer = choice.choose(
                    model.utility(sizes[left]), model.utility(sizes[right]), worker, rng=rng
                )
                triples.append((left, right, answer))
            results.append(result_with(worker.worker_id, triples))
        fit = fit_from_results(results, "q1", versions)
        truth = sorted(versions, key=lambda v: -model.utility(sizes[v]))
        assert fit.ranking() == truth
        # Ability gaps should be monotone with utility gaps.
        assert fit.abilities["v12"] > fit.abilities["v18"] > fit.abilities["v22"]


def max_gradient(counts, fit, regularization):
    """``max_i |W_i - sum_j m_ij sigma(theta_i - theta_j)|`` at the fit."""
    versions = counts.version_ids
    index = {v: i for i, v in enumerate(versions)}
    wins = np.full((len(versions),) * 2, regularization)
    np.fill_diagonal(wins, 0.0)
    for (winner, loser), weight in counts.wins.items():
        wins[index[winner], index[loser]] += weight
    theta = np.array([fit.abilities[v] for v in versions])
    win_prob = 1.0 / (1.0 + np.exp(theta[None, :] - theta[:, None]))
    gradient = wins.sum(axis=1) - ((wins + wins.T) * win_prob).sum(axis=1)
    return float(np.abs(gradient).max())


SHAPES = ("mixed", "one-sided", "all-ties", "single-edge", "near-disconnected")


@st.composite
def tallies(draw):
    """A tally over 2-10 versions in one of the shapes that stress a solver:
    mixed evidence, a strict order (every pair unanimous), nothing but ties,
    one compared pair, and two clusters joined by a single answer."""
    n = draw(st.integers(2, 10))
    versions = [f"v{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(versions) for b in versions[i + 1:]]
    shape = draw(st.sampled_from(SHAPES))
    wins = {}

    def add(winner, loser, weight):
        wins[(winner, loser)] = wins.get((winner, loser), 0.0) + weight

    if shape == "single-edge":
        a, b = draw(st.sampled_from(pairs))
        add(a, b, draw(st.integers(1, 20)))
        if draw(st.booleans()):
            add(b, a, draw(st.integers(1, 20)))
    elif shape == "all-ties":
        for a, b in pairs:
            ties = draw(st.integers(0, 4))
            if ties:
                add(a, b, 0.5 * ties)
                add(b, a, 0.5 * ties)
    elif shape == "one-sided":
        for a, b in pairs:
            count = draw(st.integers(0, 5))
            if count:
                add(a, b, count)
    else:
        split = draw(st.integers(1, n - 1)) if shape == "near-disconnected" else n
        for a, b in pairs:
            if (versions.index(a) < split) != (versions.index(b) < split):
                continue
            for winner, loser in ((a, b), (b, a)):
                count = draw(st.integers(0, 8))
                if count:
                    add(winner, loser, count)
        if split < n:
            add(draw(st.sampled_from(versions[:split])),
                draw(st.sampled_from(versions[split:])), 1.0)
    if not wins:
        add(versions[0], versions[1], 1.0)
    return versions, wins


class TestNewtonSolver:
    @given(
        tallies(),
        st.sampled_from([0.001, 0.1]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_converges_to_the_optimum_whatever_the_insertion_order(
        self, tally, regularization, random_source
    ):
        versions, wins = tally
        counts = PairwiseCounts(versions, dict(wins))
        fit = fit_bradley_terry(counts, regularization=regularization)
        assert fit.converged
        assert max_gradient(counts, fit, regularization) <= (
            1e-6 * counts.total_comparisons()
        )
        items = list(wins.items())
        random_source.shuffle(items)
        refit = fit_bradley_terry(
            PairwiseCounts(versions, dict(items)), regularization=regularization
        )
        assert refit.scores == fit.scores
        assert refit.abilities == fit.abilities

    def test_overshoot_tally_reaches_the_optimum(self):
        """A captured adaptive tally on which warm-started full Newton
        steps once parked v0 at -84 against an optimum near -28."""
        versions = [f"v{i}" for i in range(8)]
        counts = PairwiseCounts(versions)
        for winner, loser, weight in (
            (1, 0, 1), (3, 2, 1), (5, 4, 1), (7, 6, 1), (3, 1, 1), (2, 1, 1),
            (7, 5, 1), (5, 6, 0.5), (6, 5, 0.5), (5, 3, 1), (4, 3, 1),
        ):
            counts.add_win(f"v{winner}", f"v{loser}", weight)
        fit = fit_bradley_terry(counts, regularization=0.001)
        assert fit.converged
        assert fit.iterations <= 15
        assert max_gradient(counts, fit, 0.001) <= 1e-6 * counts.total_comparisons()
        assert fit.abilities["v7"] - fit.abilities["v0"] == pytest.approx(
            27.6, abs=0.05
        )
        assert fit.ranking()[0] == "v7" and fit.ranking()[-1] == "v0"

    def test_metrics_count_refits_iterations_and_unconverged(self):
        counts = PairwiseCounts(["a", "b", "c"])
        counts.add_win("a", "b", 3)
        counts.add_win("b", "c", 2)
        metrics = MetricsRegistry()
        fit = fit_bradley_terry(counts, metrics=metrics)
        fit_bradley_terry(counts, max_iterations=1, metrics=metrics)
        assert metrics.counter("btmodel.refits") == 2
        assert metrics.counter("btmodel.iterations") == fit.iterations + 1
        assert metrics.counter("btmodel.unconverged") == 1
