"""The Newton fit is bit-identical to numpy's wrapped reductions and lstsq.

``fit_bradley_terry`` reduces with ``np.add.reduce`` / ``np.maximum.reduce``
and solves each step through the LAPACK gufunc behind ``np.linalg.lstsq``.
Every float operation must stay the one the wrapped calls made, in the same
order: the conclusion digests depend on the fitted scores. The oracle below
is the fit written with the wrappers (``.sum()``, ``.mean()``, ``.max()``,
``np.diag``, ``np.linalg.lstsq``); a numpy upgrade that changes what the
gufunc computes shows up here first.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.btmodel import (
    _EPS,
    BradleyTerryFit,
    PairwiseCounts,
    _least_squares,
    _surprisal,
    fit_bradley_terry,
)
from repro.errors import ValidationError


def oracle_fit_bradley_terry(
    counts: PairwiseCounts,
    max_iterations: int = 100,
    tolerance: float = 1e-9,
    regularization: float = 0.1,
    metrics=None,
) -> BradleyTerryFit:
    versions = counts.version_ids
    if len(versions) < 2:
        raise ValidationError("Bradley-Terry needs at least 2 versions")
    if counts.total_comparisons() <= 0:
        raise ValidationError("no comparisons to fit")

    n = len(versions)
    index = {v: i for i, v in enumerate(versions)}
    wins_matrix = np.full((n, n), regularization, dtype=float)
    np.fill_diagonal(wins_matrix, 0.0)
    for (winner, loser), weight in counts.wins.items():
        wins_matrix[index[winner], index[loser]] += weight
    win_totals = wins_matrix.sum(axis=1)
    matchups = wins_matrix + wins_matrix.T  # zero diagonal

    theta = np.zeros(n)
    surprisal = _surprisal(theta)
    log_likelihood = -float((wins_matrix * surprisal).sum())
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        win_prob = np.exp(-surprisal)
        gradient = win_totals - (matchups * win_prob).sum(axis=1)
        weights = matchups * win_prob * win_prob.T
        laplacian = np.diag(weights.sum(axis=1)) - weights
        step = np.linalg.lstsq(laplacian, gradient, rcond=None)[0]
        step -= step.mean()
        floor = log_likelihood - n * n * _EPS * abs(log_likelihood)
        while True:
            step_size = float(np.abs(step).max())
            candidate = theta + step
            surprisal = _surprisal(candidate)
            candidate_likelihood = -float((wins_matrix * surprisal).sum())
            if candidate_likelihood >= floor or step_size < tolerance:
                break
            step *= 0.5
        theta = candidate
        log_likelihood = candidate_likelihood
        if step_size < tolerance:
            converged = True
            break

    theta -= theta.mean()
    p = np.exp(theta - theta.max())
    p /= p.sum()
    scores = dict(zip(versions, p.tolist()))
    abilities = dict(zip(versions, theta.tolist()))
    if metrics is not None:
        metrics.add("btmodel.refits")
        metrics.add("btmodel.iterations", iteration)
        metrics.add("btmodel.unconverged", 0 if converged else 1)
    return BradleyTerryFit(
        scores=scores, abilities=abilities, iterations=iteration,
        converged=converged,
    )


@st.composite
def tallies(draw):
    """Tallies over 2..8 versions: dense or sparse, whole or half wins."""
    n = draw(st.integers(2, 8))
    versions = [f"v{i}" for i in range(n)]
    density = draw(st.sampled_from([0.2, 0.5, 1.0]))
    halves = draw(st.booleans())
    counts = PairwiseCounts(versions)
    for a in versions:
        for b in versions:
            if a == b or draw(st.floats(0.0, 1.0)) >= density:
                continue
            weight = draw(st.integers(0, 12)) * (0.5 if halves else 1.0)
            if weight:
                counts.add_win(a, b, weight)
    if not counts.wins:
        counts.add_win(versions[0], versions[1])
    return counts


class TestFitEqualsOracle:
    @given(tallies(), st.sampled_from([0.001, 0.1]))
    @settings(max_examples=300, deadline=None)
    def test_fit_is_bit_identical(self, counts, regularization):
        assert fit_bradley_terry(
            counts, regularization=regularization
        ) == oracle_fit_bradley_terry(counts, regularization=regularization)

    def test_unconverged_fit_is_bit_identical(self):
        counts = PairwiseCounts(["a", "b", "c"])
        counts.add_win("a", "b", 3)
        counts.add_win("b", "c", 2)
        counts.add_tie("a", "c")
        fit = fit_bradley_terry(counts, max_iterations=2, regularization=0.001)
        assert not fit.converged
        assert fit == oracle_fit_bradley_terry(
            counts, max_iterations=2, regularization=0.001
        )


def laplacian_of(rng, n, density):
    """A weighted graph Laplacian: singular along the all-ones direction."""
    weights = rng.random((n, n)) * (rng.random((n, n)) < density)
    weights = np.triu(weights, 1)
    weights = weights + weights.T
    return np.diag(weights.sum(axis=1)) - weights


class TestLeastSquares:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_bits_as_lstsq_on_singular_laplacians(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        laplacian = laplacian_of(rng, n, density=[0.3, 1.0][seed % 2])
        gradient = rng.normal(size=n)
        expected = np.linalg.lstsq(laplacian, gradient, rcond=None)[0]
        got = _least_squares(laplacian, gradient, _EPS * n)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_nan_matrix_raises_like_lstsq(self):
        laplacian = np.full((3, 3), np.nan)
        gradient = np.ones(3)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.lstsq(laplacian, gradient, rcond=None)
        with pytest.raises(np.linalg.LinAlgError):
            _least_squares(laplacian, gradient, _EPS * 3)
