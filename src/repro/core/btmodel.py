"""Bradley–Terry model fitting: pairwise answers -> latent quality scores.

The core server's last duty is to "conclude the final Web QoE measurement
results". Raw tallies answer "which of this pair won"; the Bradley–Terry
model answers the stronger question the experimenter actually has: *on a
common scale, how good is each version?* Under BT, version ``i`` beats
``j`` with probability ``p_i / (p_i + p_j)``; fitting the ``p`` vector to
the observed pairwise wins yields a full ranking with meaningful gaps,
robust to intransitive noise in individual participants.

Ties ("Same" answers) count half a win each way — the standard reduction.
Fitting maximizes the log-likelihood over mean-centred log-abilities
``theta`` by damped Newton steps from ``theta = 0``: the negative Hessian
is the comparison graph's Laplacian weighted by ``m_ij p_ij p_ji``, each
step backtracks until the likelihood does not fall, and the fit stops
when no ability moves by more than ``tolerance``. On the adaptive
scheduler's tallies that takes about eight steps. Each step calls LAPACK's
least squares (the gufunc behind ``np.linalg.lstsq``) and numpy's reduce
ufuncs directly, without their Python-level wrappers but with the same
float operations in the same order. Scores are returned
normalized to sum to 1, plus the log-scale ("ability") form whose
differences are comparable to the Thurstone utility gaps used by the
judgment models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np
from numpy.linalg import _umath_linalg

from repro.core.extension import ParticipantResult
from repro.errors import ValidationError


@dataclass
class PairwiseCounts:
    """Win counts between every ordered pair of versions."""

    version_ids: List[str]
    wins: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def add_win(self, winner: str, loser: str, weight: float = 1.0) -> None:
        if winner not in self.version_ids or loser not in self.version_ids:
            raise ValidationError(f"unknown version in ({winner!r}, {loser!r})")
        key = (winner, loser)
        self.wins[key] = self.wins.get(key, 0.0) + weight

    def add_tie(self, a: str, b: str) -> None:
        """A "Same" answer: half a win each way."""
        self.add_win(a, b, 0.5)
        self.add_win(b, a, 0.5)

    def total_comparisons(self) -> float:
        return sum(self.wins.values())

    def matchups(self, a: str, b: str) -> float:
        """Total decisions (either direction) between a pair."""
        return self.wins.get((a, b), 0.0) + self.wins.get((b, a), 0.0)


def counts_from_results(
    results: Sequence[ParticipantResult],
    question_id: str,
    version_ids: Sequence[str],
) -> PairwiseCounts:
    """Aggregate every participant's answers into pairwise win counts."""
    counts = PairwiseCounts(list(version_ids))
    known = set(version_ids)
    for result in results:
        for answer in result.answers_for(question_id):
            left, right = answer.left_version, answer.right_version
            if left not in known or right not in known:
                continue
            if answer.answer == "left":
                counts.add_win(left, right)
            elif answer.answer == "right":
                counts.add_win(right, left)
            else:
                counts.add_tie(left, right)
    return counts


@dataclass(frozen=True)
class BradleyTerryFit:
    """A fitted BT model."""

    scores: Dict[str, float]       # normalized to sum to 1
    abilities: Dict[str, float]    # log scores, mean-centred
    iterations: int
    converged: bool

    def ranking(self) -> List[str]:
        """Version ids best-first."""
        return sorted(self.scores, key=lambda v: -self.scores[v])

    def win_probability(self, a: str, b: str) -> float:
        """Model probability that ``a`` beats ``b``."""
        pa, pb = self.scores[a], self.scores[b]
        return pa / (pa + pb)


_EPS = float(np.finfo(float).eps)


def _raise_svd_failure(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _least_squares(a: np.ndarray, b: np.ndarray, rcond: float) -> np.ndarray:
    """``np.linalg.lstsq(a, b, rcond)[0]`` for float64 ``a`` (n×n) and
    ``b`` (n,), bit for bit, without the wrapper's Python-level checks.

    Calls the LAPACK ``gelsd`` gufunc the wrapper calls, under the same
    floating-point error state: a failed SVD raises ``LinAlgError``.
    """
    with np.errstate(call=_raise_svd_failure, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.lstsq(a, b[:, None], rcond)[0][:, 0]


def _surprisal(theta: np.ndarray) -> np.ndarray:
    """``-log sigma(theta_i - theta_j)``: how unlikely "i beats j" is."""
    return np.logaddexp(0.0, theta[None, :] - theta[:, None])


def fit_bradley_terry(
    counts: PairwiseCounts,
    max_iterations: int = 100,
    tolerance: float = 1e-9,
    regularization: float = 0.1,
    metrics=None,
) -> BradleyTerryFit:
    """Fit BT log-abilities by damped Newton from a cold start.

    ``regularization`` adds a pseudo-draw between every pair, which keeps
    the MLE finite when one version wins (or loses) every comparison —
    exactly what happens against the 4pt contrast control.

    Every fit starts from ``theta = 0``, so the answer depends only on the
    tally: a refit after crash-resume or snapshot replay is bit-identical
    to the live one. ``metrics`` (a :class:`repro.obs.MetricsRegistry`)
    receives ``btmodel.refits`` / ``btmodel.iterations`` /
    ``btmodel.unconverged`` counters so refit cost and convergence are
    observable; ``btmodel.refits`` counts fits computed (the adaptive
    scheduler reuses its fit on an unchanged tally).
    """
    versions = counts.version_ids
    if len(versions) < 2:
        raise ValidationError("Bradley-Terry needs at least 2 versions")
    if counts.total_comparisons() <= 0:
        raise ValidationError("no comparisons to fit")

    # Dense regularized win matrix, indexed by the (stable) version order.
    # Indexing by position — not by wins-dict iteration order — keeps every
    # float reduction in a canonical order, so a refit on a checkpoint-
    # restored tally (whose dict insertion order differs from the live
    # run's) is bit-identical despite non-associative float addition.
    n = len(versions)
    index = {v: i for i, v in enumerate(versions)}
    wins_matrix = np.full((n, n), regularization, dtype=float)
    np.fill_diagonal(wins_matrix, 0.0)
    for (winner, loser), weight in counts.wins.items():
        wins_matrix[index[winner], index[loser]] += weight
    win_totals = np.add.reduce(wins_matrix, axis=1)
    matchups = wins_matrix + wins_matrix.T  # zero diagonal
    laplacian = np.empty((n, n))
    diagonal = laplacian.reshape(-1)[:: n + 1]  # a view: the matrix's diagonal
    rcond = _EPS * n  # np.linalg.lstsq's rcond=None

    theta = np.zeros(n)
    surprisal = _surprisal(theta)
    log_likelihood = -float(np.add.reduce(wins_matrix * surprisal, axis=None))
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        win_prob = np.exp(-surprisal)
        gradient = win_totals - np.add.reduce(matchups * win_prob, axis=1)
        # The negative Hessian is the Laplacian of the comparison graph
        # weighted by m_ij p_ij p_ji: singular along the all-ones direction
        # (abilities are defined up to a shift), so solve by least squares
        # and keep the step mean-centred. (0 - w) + d rounds exactly as
        # d - w, so this is np.diag(degree) - weights bit for bit.
        weights = matchups * win_prob * win_prob.T
        np.subtract(0.0, weights, out=laplacian)
        np.add(diagonal, np.add.reduce(weights, axis=1), out=diagonal)
        step = _least_squares(laplacian, gradient, rcond)
        step -= np.add.reduce(step) / n
        # Backtrack while the log-likelihood falls by more than the
        # rounding of its n² summed terms: near the optimum a full step
        # changes it by less than that, and halving such a step would only
        # stop the fit short of the optimum.
        floor = log_likelihood - n * n * _EPS * abs(log_likelihood)
        while True:
            step_size = float(np.maximum.reduce(np.abs(step)))
            candidate = theta + step
            surprisal = _surprisal(candidate)
            candidate_likelihood = -float(
                np.add.reduce(wins_matrix * surprisal, axis=None)
            )
            if candidate_likelihood >= floor or step_size < tolerance:
                break
            step *= 0.5
        theta = candidate
        log_likelihood = candidate_likelihood
        if step_size < tolerance:
            converged = True
            break

    theta -= np.add.reduce(theta) / n
    p = np.exp(theta - np.maximum.reduce(theta))
    p /= np.add.reduce(p)
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


def fit_from_results(
    results: Sequence[ParticipantResult],
    question_id: str,
    version_ids: Sequence[str],
    regularization: float = 0.1,
) -> BradleyTerryFit:
    """Convenience: aggregate and fit in one call."""
    counts = counts_from_results(results, question_id, version_ids)
    return fit_bradley_terry(counts, regularization=regularization)
