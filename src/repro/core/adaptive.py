"""Information-gain comparison scheduling over a shared Bradley-Terry posterior.

The paper's sort schedulers cut per-participant cost from C(N, 2) to
O(N log N), but every participant still re-sorts from scratch: evidence is
never pooled until conclude time. :class:`AdaptiveScheduler` pools it
*while scheduling*. One instance serves the whole campaign, maintaining a
shared cross-participant :class:`~repro.core.btmodel.PairwiseCounts` tally;
after every ``refit_every`` absorbed answers it refits the Bradley-Terry
model (a cold-started Newton fit of well under a millisecond at N = 8,
which depends on the tally alone) and serves each participant the
currently most informative pair. A refit on the tally the current fit
came from reuses that fit, so the ``btmodel.refits`` counter counts fits
computed while :attr:`AdaptiveScheduler.refits` counts refit events.

**Phases.** A fresh scheduler first serves a shared merge-sort schedule
(~N log N answers locates the approximate order; posterior-only
refinement moves a misplaced version one neighbourhood per refit — a
bubble-sort-like O(N²)). Once the sort completes, information-gain
scoring repairs residual noise and gathers the evidence the stopping
rule needs.

**Pair scoring.** For candidate pair (a, b) with ``forward`` /
``backward`` direct wins (``total`` answers, Laplace rate
``p̂ = (forward + 1) / (total + 2)``) and current-ranking distance
``gap``, the score is::

    score = (p̂ (1 - p̂) + W · flip_risk) / ((1 + total) · gap)

``p̂ (1 - p̂)`` is the empirical outcome uncertainty (0.25 for a fresh
pair, decaying as unanimous evidence accumulates); ``flip_risk`` is the
exact probability that the early-stopping bootstrap resamples the pair
onto the other side of 50 %; the denominator spreads evidence across
fresh pairs and concentrates it on adjacent-in-ranking boundaries, the
only pairs that can change the exact ranking directly. Once the
scheduler reaches *certification posture* (seeding done, ``min_answers``
reached, ranking settled) an additional undiscounted flip-risk term
hammers every still-contested pair until decisive — see
:meth:`AdaptiveScheduler._best_pair` for why both the term and its
gating are load-bearing.

**Early stopping.** After each refit the ranking is compared to the
previous refit's ranking; when unchanged (and at least ``min_answers``
answers are in), two checks run. Every adjacent boundary must carry at
least two direct answers whose net direction does not contradict the
ranking (:meth:`AdaptiveScheduler._boundaries_certified` — the guard
against bootstrap-blind unanimous-wrong single answers). Then the tally
is bootstrap-perturbed ``perturbations`` times — each pair's win split
redrawn from a binomial conditioned on its observed total, on a
deterministic seed sequence — and refit. If every perturbed ranking
matches, the round counts as *stable*; after ``stability_rounds``
consecutive stable rounds the scheduler stops and exposes a structured
:class:`EarlyStoppedConclusion`. A hard ``max_answers`` budget bounds
pathological (e.g. coin-flip judge) campaigns, concluding with
``reason="budget"``.

**Sessions.** A participant is served at most ``session_pairs`` pairs,
each at most once: when the best pair is one the participant has already
compared, their session ends and the pair goes to the next participant.

**Determinism and checkpointing.** All scheduling state — tally, fit,
per-participant served pairs, stability streak — is plain JSON-able
data; perturbation randomness comes from ``default_rng([seed, refit, r])``
so it depends only on the (seed, refit-counter) coordinates, never on call
history. Absorbing the same answers in the same order therefore yields
bit-identical pair choices and conclusions, whether or not the run was
checkpointed and resumed in the middle, and retracting a quality-dropped
answer is an exact inverse on the evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.btmodel import BradleyTerryFit, PairwiseCounts, fit_bradley_terry
from repro.core.scheduling import (
    MergeSortScheduler,
    Scheduler,
    SchedulerConfig,
    all_pairs,
)
from repro.errors import ValidationError

STOP_STABLE = "stable"
STOP_BUDGET = "budget"

#: Weight of the bootstrap flip risk in pair scoring, relative to the
#: Bernoulli-variance exploration term (which is at most 0.25).
FLIP_RISK_WEIGHT = 4.0

#: Weight of the *undiscounted* flip-risk term that takes over once the
#: scheduler is in certification posture (see ``_best_pair``).
CERTIFY_RISK_WEIGHT = 8.0


@lru_cache(maxsize=8192)
def _flip_risk(won: float, lost: float) -> float:
    """Probability the outcome bootstrap reverses (or ties) this pair.

    The early-stopping check resamples each pair's win split from
    ``Binomial(total, p̂)``; a pair whose resample lands on the wrong side
    of 50 % flips direction in the perturbed fit and fails the stability
    round. This is that tail mass, computed exactly (ties count half — a
    resampled dead heat leaves the perturbed order to fit noise).
    Unanimous pairs have zero risk: conditioning on observed totals means
    they can never flip, which is exactly why the scheduler must hammer
    *mixed* pairs until one side is decisive — a 4-1 boundary fails a
    perturbation ~6 % of the time, forever, unless it gets more evidence.
    """
    total = int(round(won + lost))
    if total <= 0 or won <= 0.0 or lost <= 0.0:
        return 0.0
    p = max(won, lost) / (won + lost)
    risk = 0.0
    for k in range(total // 2 + 1):
        mass = comb(total, k) * (p ** k) * ((1.0 - p) ** (total - k))
        if 2 * k < total:
            risk += mass
        elif 2 * k == total:
            risk += 0.5 * mass
    return risk


@dataclass(frozen=True)
class EarlyStoppedConclusion:
    """The adaptive scheduler's structured verdict.

    ``reason`` is ``"stable"`` when the ranking survived
    ``stable_rounds`` consecutive bootstrap-perturbation checks, or
    ``"budget"`` when the hard ``max_answers`` cap fired first.
    """

    ranking: List[str]
    scores: Dict[str, float]
    abilities: Dict[str, float]
    answers_used: int
    comparisons_served: int
    refits: int
    stable_rounds: int
    perturbations: int
    reason: str

    @property
    def stable(self) -> bool:
        return self.reason == STOP_STABLE

    def to_dict(self) -> dict:
        return {
            "ranking": list(self.ranking),
            "scores": dict(self.scores),
            "abilities": dict(self.abilities),
            "answers_used": self.answers_used,
            "comparisons_served": self.comparisons_served,
            "refits": self.refits,
            "stable_rounds": self.stable_rounds,
            "perturbations": self.perturbations,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EarlyStoppedConclusion":
        return cls(
            ranking=list(payload["ranking"]),
            scores=dict(payload["scores"]),
            abilities=dict(payload["abilities"]),
            answers_used=int(payload["answers_used"]),
            comparisons_served=int(payload["comparisons_served"]),
            refits=int(payload["refits"]),
            stable_rounds=int(payload["stable_rounds"]),
            perturbations=int(payload["perturbations"]),
            reason=str(payload["reason"]),
        )

    def summary(self) -> str:
        n = len(self.ranking)
        full = n * (n - 1) // 2
        lines = [
            f"Adaptive campaign stopped ({self.reason}) after "
            f"{self.answers_used} answers "
            f"({self.answers_used / full:.0%} of one full C(N,2) pass)",
            f"  refits: {self.refits}, stable rounds: {self.stable_rounds} "
            f"x{self.perturbations} perturbations",
            "  ranking (best first): " + " > ".join(self.ranking),
        ]
        return "\n".join(lines)


class AdaptiveScheduler(Scheduler):
    """Shared active scheduler: most-informative pair next, stop when stable."""

    name = "adaptive"
    shared = True
    wants_metrics = True

    def __init__(self, version_ids, config: Optional[SchedulerConfig] = None,
                 metrics=None):
        super().__init__(version_ids, config)
        self.metrics = metrics
        n = len(self.version_ids)
        cfg = self.config
        full = n * (n - 1) // 2
        #: Per-participant session budget: by default what a sort costs.
        self.session_pairs = (
            cfg.session_pairs if cfg.session_pairs is not None else max(2, n - 1)
        )
        # Frequent refits keep the ranking-position discount in _best_pair
        # current, so a misplaced version is moved (and its new neighborhood
        # probed) within a few answers instead of a few dozen; a Newton
        # refit converges in about eight steps, so the cadence is cheap.
        self.refit_every = (
            cfg.refit_every if cfg.refit_every is not None else max(2, n // 10)
        )
        self.min_answers = (
            cfg.min_answers if cfg.min_answers is not None else 4 * n
        )
        self.max_answers = (
            cfg.max_answers if cfg.max_answers is not None else 3 * full
        )
        self._candidates = all_pairs(self.version_ids)
        # Seeding phase: one shared merge-sort schedule (~N log N answers)
        # finds the approximate order far faster than posterior refinement
        # alone, which moves a misplaced version only past its current
        # neighbors per refit (a bubble-sort-like O(N^2) total). The sort's
        # comparisons feed the shared tally like any others; once it
        # completes, information-gain scoring takes over to repair noise and
        # certify stability. Cleared (and snapshotted as such) when done.
        self._seed_sort: Optional[MergeSortScheduler] = MergeSortScheduler(
            list(self.version_ids)
        )
        #: Pairs served in each participant's session, in serving order.
        self._served: Dict[str, List[Tuple[str, str]]] = {}
        self._fit: Optional[BradleyTerryFit] = None
        #: The tally ``_fit`` was computed from; a refit on an equal tally
        #: reuses the fit. Not snapshotted: a resumed run fits afresh.
        self._fit_wins: Optional[Dict[Tuple[str, str], float]] = None
        self._answers = 0
        self._since_refit = 0
        self.refits = 0
        self._streak = 0
        self._last_ranking: Optional[List[str]] = None
        self._stop_reason: Optional[str] = None

    # -- serving -----------------------------------------------------------

    def _advance(self, participant_id: str) -> Optional[Tuple[str, str]]:
        if self._stop_reason is not None:
            return None
        served = self._served.get(participant_id, [])
        if len(served) >= self.session_pairs:
            return None
        pair = None
        if self._seed_sort is not None:
            if self._seed_sort.done:
                self._seed_sort = None
            else:
                # Re-serving is idempotent on the seed sort, so a pair
                # abandoned by one participant is offered to the next.
                pair = self._seed_sort.next_pair()
        if pair is None:
            pair = self._best_pair()
        if pair is None:
            return None
        if pair in served or pair[::-1] in served:
            # A session shows each page once (the server's upload screen
            # rejects a repeated page), so the pair goes to the next
            # participant instead.
            return None
        self._served[participant_id] = served + [pair]
        return pair

    def _best_pair(self) -> Optional[Tuple[str, str]]:
        """Deterministic argmax of the information score over all pairs.

        The score combines three factors, all computed from the pair's
        *direct* evidence (not the fitted model, whose probabilities
        saturate near 0/1 at low regularization and would starve
        once-sampled pairs):

        - ``p̂ (1 - p̂)`` with Laplace-smoothed ``p̂`` — the empirical
          outcome uncertainty; 0.25 for a fresh pair, decaying as a
          unanimous record accumulates;
        - ``FLIP_RISK_WEIGHT * flip_risk`` — the probability the
          early-stopping bootstrap reverses the pair. Mixed evidence
          (a noise-flipped answer against the true order) keeps failing
          stability checks until outvoted, so contested pairs are served
          with priority until decisive;
        - a ``1 / ((1 + total) * gap)`` discount — spread evidence over
          fresh pairs, and concentrate on adjacent-in-ranking boundaries:
          distant pairs are implied by transitivity through the chain
          between them, so the budget goes to the boundaries the
          stability bootstrap actually has to certify.

        Once the scheduler is in *certification posture* — seeding done,
        ``min_answers`` reached, ranking unchanged since the last refit —
        an extra **undiscounted** flip-risk term takes over. At that point
        every remaining mixed pair is a standing tax on the stability
        check (a 6-2 pair flips ~14 % of perturbations, forever), and
        with ~15 such pairs the probability that ``stability_rounds *
        perturbations`` consecutive resamples all hold is negligible: the
        run would stall at the answer budget waiting for luck. Hammering
        contested pairs until decisive makes the bootstrap pass by
        construction instead of by chance. The gating matters — applying
        the undiscounted term during the repair phase starves the
        migration of misplaced versions and costs far more than it saves.
        """
        order = (
            self._fit.ranking() if self._fit is not None
            else list(self.version_ids)
        )
        position = {v: i for i, v in enumerate(order)}
        certifying = (
            self._seed_sort is None
            and self._answers >= self.min_answers
            and self._last_ranking == order
        )
        best: Optional[Tuple[str, str]] = None
        best_score = -1.0
        for a, b in self._candidates:
            forward = self.tally.wins.get((a, b), 0.0)
            backward = self.tally.wins.get((b, a), 0.0)
            total = forward + backward
            p = (forward + 1.0) / (total + 2.0)
            gap = abs(position[a] - position[b])
            risk = _flip_risk(forward, backward)
            score = (
                p * (1.0 - p) + FLIP_RISK_WEIGHT * risk
            ) / ((1.0 + total) * gap)
            if certifying:
                score += CERTIFY_RISK_WEIGHT * risk
            if score > best_score:
                best_score = score
                best = (a, b)
        return best

    # -- evidence ----------------------------------------------------------

    def _absorb(self, left: str, right: str, answer: str) -> None:
        if (
            self._seed_sort is not None
            and not self._seed_sort.done
            and self._seed_sort.pending() == (left, right)
        ):
            self._seed_sort.report(answer)
            if self._seed_sort.done:
                self._seed_sort = None
        self._answers += 1
        self._since_refit += 1
        if self._since_refit >= self.refit_every:
            self._refit()
        if (
            self._stop_reason is None
            and self._answers >= self.max_answers
        ):
            if self._fit is None:
                self._refit()
            self._stop_reason = STOP_BUDGET

    def _retract(self, left: str, right: str, answer: str) -> None:
        self._answers -= 1
        # Retraction invalidates the posterior and any stability credit
        # earned from it: refit immediately from the corrected tally.
        self._streak = 0
        self._last_ranking = None
        if self.tally.total_comparisons() > 0:
            self._refit(check_stability=False)
        else:
            self._fit = None

    def _refit(self, check_stability: bool = True) -> None:
        self.refits += 1
        self._since_refit = 0
        # The fit is a pure function of the tally (cold start, matrix built
        # by position), so an unchanged tally -- most often a retraction
        # putting back one an earlier refit saw -- keeps the current fit.
        if self._fit is None or self.tally.wins != self._fit_wins:
            self._fit = fit_bradley_terry(
                self.tally,
                regularization=self.config.regularization,
                metrics=self.metrics,
            )
            self._fit_wins = dict(self.tally.wins)
        ranking = self._fit.ranking()
        if not check_stability:
            self._last_ranking = ranking
            return
        if (
            self._seed_sort is None
            and self._last_ranking == ranking
            and self._answers >= self.min_answers
            and self._boundaries_certified(ranking)
            and self._perturbed_rankings_match(ranking)
        ):
            self._streak += 1
        else:
            self._streak = 0
        self._last_ranking = ranking
        if self._streak >= self.config.stability_rounds:
            self._stop_reason = STOP_STABLE

    def _boundaries_certified(self, ranking: List[str]) -> bool:
        """Direct-evidence guard the bootstrap cannot provide.

        The outcome bootstrap conditions on observed totals, so a
        unanimous pair can never flip — including a unanimously *wrong*
        1-0 boundary created by a single noisy answer. Without this
        guard the scheduler can bootstrap-certify a misranking whose
        every error is backed by exactly one bad answer. Require each
        adjacent pair in the candidate ranking to carry at least two
        direct answers whose net direction does not contradict the
        ranking: a lone noise answer then forces a second sample, which
        either confirms (2-0) or contests (1-1, high flip risk — the
        scoring loop hammers it until decisive). Equal ``forward ==
        backward`` evidence is allowed through: genuinely identical
        versions answer "Same" forever, and their relative order is
        arbitrary by construction.
        """
        for upper, lower in zip(ranking, ranking[1:]):
            forward = self.tally.wins.get((upper, lower), 0.0)
            backward = self.tally.wins.get((lower, upper), 0.0)
            if forward + backward < 2.0 or forward < backward:
                return False
        return True

    def _perturbed_rankings_match(self, ranking: List[str]) -> bool:
        """Bootstrap check: does the ranking survive outcome resampling?

        Each pair's win split is redrawn from a binomial with the pair's
        *observed* total and empirical win rate — the outcome-level
        parametric bootstrap for Bradley-Terry data. Conditioning on the
        totals matters: resampling the totals themselves (a Poisson
        bootstrap) perturbs the win-count asymmetries that anchor a
        chain-shaped evidence graph, and the refit then swaps neighbors
        against unanimous direct evidence. Here a unanimous pair can never
        flip; only genuinely mixed evidence can, which is exactly the
        uncertainty the early-stopping rule has to certify against.

        Seeded by (scheduler seed, refit counter, perturbation index) only,
        so the draw is independent of when checkpoints happened.
        """
        assert self._fit is not None
        pairs = sorted(
            {tuple(sorted(pair)) for pair in self.tally.wins}
        )
        for r in range(self.config.perturbations):
            rng = np.random.default_rng([self.config.seed, self.refits, r])
            perturbed = PairwiseCounts(list(self.version_ids))
            for a, b in pairs:
                forward = self.tally.wins.get((a, b), 0.0)
                backward = self.tally.wins.get((b, a), 0.0)
                total = int(round(forward + backward))
                if total <= 0:
                    continue
                won = int(rng.binomial(total, forward / (forward + backward)))
                if won > 0:
                    perturbed.wins[(a, b)] = float(won)
                if total - won > 0:
                    perturbed.wins[(b, a)] = float(total - won)
            if perturbed.total_comparisons() <= 0:
                return False
            fit = fit_bradley_terry(
                perturbed,
                regularization=self.config.regularization,
            )
            if fit.ranking() != ranking:
                return False
        return True

    # -- completion --------------------------------------------------------

    def _exhausted(self) -> bool:
        return self._stop_reason is not None

    @property
    def stop_reason(self) -> Optional[str]:
        return self._stop_reason

    def ranking(self) -> List[str]:
        if self._fit is not None:
            return self._fit.ranking()
        if self.tally.total_comparisons() > 0:
            return fit_bradley_terry(
                self.tally, regularization=self.config.regularization
            ).ranking()
        return list(self.version_ids)

    def conclusion(self) -> Optional[EarlyStoppedConclusion]:
        """The structured verdict once the scheduler has stopped."""
        if self._stop_reason is None:
            return None
        fit = self._fit
        if fit is None:
            # Stopped before any refit (tiny max_answers): fit on demand.
            fit = fit_bradley_terry(
                self.tally, regularization=self.config.regularization
            )
        return EarlyStoppedConclusion(
            ranking=fit.ranking(),
            scores=dict(fit.scores),
            abilities=dict(fit.abilities),
            answers_used=self._answers,
            comparisons_served=self.comparisons_used,
            refits=self.refits,
            stable_rounds=self._streak,
            perturbations=self.config.perturbations,
            reason=self._stop_reason,
        )

    # -- checkpointing -----------------------------------------------------

    def _snapshot_state(self) -> dict:
        return {
            "seed_sort": (
                None if self._seed_sort is None or self._seed_sort.done
                else self._seed_sort.snapshot()
            ),
            "served": {
                pid: [list(pair) for pair in pairs]
                for pid, pairs in sorted(self._served.items())
            },
            "answers": self._answers,
            "since_refit": self._since_refit,
            "refits": self.refits,
            "streak": self._streak,
            "last_ranking": self._last_ranking,
            "stop_reason": self._stop_reason,
            "fit": (
                None if self._fit is None else {
                    "scores": dict(self._fit.scores),
                    "abilities": dict(self._fit.abilities),
                    "iterations": self._fit.iterations,
                    "converged": self._fit.converged,
                }
            ),
        }

    def _restore_state(self, state: dict) -> None:
        seed = state.get("seed_sort")
        if seed is None:
            self._seed_sort = None
        else:
            self._seed_sort = MergeSortScheduler(list(self.version_ids))
            self._seed_sort.restore(seed)
        if not all(isinstance(pairs, list) for pairs in state["served"].values()):
            raise ValidationError(
                "snapshot predates per-session served pairs (it holds a "
                "count per participant) and cannot be resumed"
            )
        self._served = {
            pid: [(left, right) for left, right in pairs]
            for pid, pairs in state["served"].items()
        }
        self._answers = int(state["answers"])
        self._since_refit = int(state["since_refit"])
        self.refits = int(state["refits"])
        self._streak = int(state["streak"])
        self._last_ranking = (
            None if state["last_ranking"] is None
            else list(state["last_ranking"])
        )
        self._stop_reason = state["stop_reason"]
        self._fit_wins = None
        fit = state["fit"]
        self._fit = None if fit is None else BradleyTerryFit(
            scores={v: float(s) for v, s in fit["scores"].items()},
            abilities={v: float(s) for v, s in fit["abilities"].items()},
            iterations=int(fit["iterations"]),
            converged=bool(fit["converged"]),
        )
