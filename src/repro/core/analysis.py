"""Result analysis: from uploaded responses to the paper's figures.

Converts batches of :class:`~repro.core.extension.ParticipantResult` into the
quantities the evaluation reports:

* per-question **tallies** (Left / Same / Right shares and significance —
  Figures 7(c), 8 and 9);
* per-participant **rankings** of the N versions derived from their own
  pairwise answers (Copeland scoring), aggregated into the percentage-of-
  participants-per-rank matrix of Figure 4;
* **behaviour CDFs** (time on task, created tabs, active tabs — Figure 5).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import lgamma, log
from typing import Dict, List, Optional, Sequence, Tuple

from repro.abtest.stats import two_proportion_z
from repro.core.extension import ParticipantResult
from repro.errors import ValidationError
from repro.util.statsutil import Cdf, empirical_cdf

RANK_LABELS = ("A", "B", "C", "D", "E", "F", "G", "H")


@dataclass(frozen=True)
class QuestionTally:
    """Left/Same/Right counts for one question on one version pair."""

    question_id: str
    left_version: str
    right_version: str
    left_count: int
    right_count: int
    same_count: int

    @property
    def total(self) -> int:
        return self.left_count + self.right_count + self.same_count

    @property
    def percentages(self) -> Dict[str, float]:
        """{'left': %, 'same': %, 'right': %} of all responses."""
        if self.total == 0:
            return {"left": 0.0, "same": 0.0, "right": 0.0}
        return {
            "left": 100.0 * self.left_count / self.total,
            "same": 100.0 * self.same_count / self.total,
            "right": 100.0 * self.right_count / self.total,
        }

    def preference_p_value(self) -> float:
        """One-sided unpooled two-proportion z on the decided answers.

        This is the test behind the paper's 6.8e-8: it asks whether the
        preferred side's share of *all* participants exceeds the other
        side's.
        """
        if self.total == 0:
            return 1.0
        high, low = max(self.left_count, self.right_count), min(
            self.left_count, self.right_count
        )
        result = two_proportion_z(
            high, self.total, low, self.total, pooled=False, two_sided=False
        )
        return result.p_value

    @property
    def winner(self) -> str:
        """'left', 'right' or 'same' by plurality."""
        ranked = sorted(
            (
                (self.left_count, "left"),
                (self.right_count, "right"),
                (self.same_count, "same"),
            ),
            reverse=True,
        )
        return ranked[0][1]


def preference_log_evidence(left: int, right: int) -> float:
    """ln of the Beta(1,1)-mixture likelihood ratio for a preference.

    Weighs ``left`` against ``right`` decided answers (Same answers carry no
    evidence either way) against an even split, p = 1/2. Under that null
    the ratio is a nonnegative martingale with mean 1, so by Ville's
    inequality the chance it ever reaches ``1/alpha`` is at most ``alpha``,
    however often it is checked: an always-valid sequential test, unlike
    :meth:`QuestionTally.preference_p_value`, which holds for one look.
    """
    decided = left + right
    return (
        lgamma(left + 1) + lgamma(right + 1) - lgamma(decided + 2) + decided * log(2)
    )


def tally_question(
    results: Sequence[ParticipantResult],
    question_id: str,
    left_version: str,
    right_version: str,
) -> QuestionTally:
    """Count answers for one question on one ordered pair.

    Answers recorded with the pair mirrored (right_version shown on the
    left) are folded in with sides swapped, so the tally is orientation-
    independent.
    """
    counts = Counter()
    for result in results:
        for answer in result.answers_for(question_id):
            if (answer.left_version, answer.right_version) == (left_version, right_version):
                counts[answer.answer] += 1
            elif (answer.left_version, answer.right_version) == (right_version, left_version):
                mirrored = {"left": "right", "right": "left", "same": "same"}[answer.answer]
                counts[mirrored] += 1
    return QuestionTally(
        question_id=question_id,
        left_version=left_version,
        right_version=right_version,
        left_count=counts.get("left", 0),
        right_count=counts.get("right", 0),
        same_count=counts.get("same", 0),
    )


# -- rankings (Figure 4) -----------------------------------------------------


def participant_ranking(
    result: ParticipantResult, question_id: str, version_ids: Sequence[str]
) -> List[str]:
    """One participant's best-to-worst ranking from their pairwise answers.

    Copeland scoring: +1 to the side they preferred, -1 to the other, 0 for
    "Same". Stable on the supplied version order for ties.
    """
    score: Dict[str, float] = {v: 0.0 for v in version_ids}
    for answer in result.answers_for(question_id):
        if answer.left_version not in score or answer.right_version not in score:
            continue
        if answer.answer == "left":
            score[answer.left_version] += 1.0
            score[answer.right_version] -= 1.0
        elif answer.answer == "right":
            score[answer.right_version] += 1.0
            score[answer.left_version] -= 1.0
    order = {v: i for i, v in enumerate(version_ids)}
    return sorted(version_ids, key=lambda v: (-score[v], order[v]))


@dataclass
class RankingDistribution:
    """Percentage of participants assigning each rank to each version.

    ``matrix[version][rank_index]`` is the percentage of participants who
    put ``version`` at rank ``rank_index`` (0 = "A" = best) — exactly the
    data behind each Figure 4 panel.
    """

    version_ids: List[str]
    matrix: Dict[str, List[float]] = field(default_factory=dict)
    participants: int = 0

    def percentage(self, version_id: str, rank_label: str) -> float:
        index = RANK_LABELS.index(rank_label)
        return self.matrix[version_id][index]

    def modal_version_at_rank(self, rank_label: str) -> str:
        """The version most often assigned a given rank."""
        index = RANK_LABELS.index(rank_label)
        return max(self.version_ids, key=lambda v: self.matrix[v][index])

    def rows(self) -> List[Tuple[str, List[float]]]:
        """(version, [percent per rank]) rows for printing."""
        return [(v, list(self.matrix[v])) for v in self.version_ids]


def ranking_distribution(
    results: Sequence[ParticipantResult],
    question_id: str,
    version_ids: Sequence[str],
) -> RankingDistribution:
    """Aggregate per-participant rankings into the Figure 4 matrix."""
    version_ids = list(version_ids)
    if len(version_ids) > len(RANK_LABELS):
        raise ValidationError(
            f"at most {len(RANK_LABELS)} versions supported, got {len(version_ids)}"
        )
    counts: Dict[str, List[int]] = {v: [0] * len(version_ids) for v in version_ids}
    participants = 0
    for result in results:
        ranking = participant_ranking(result, question_id, version_ids)
        participants += 1
        for rank_index, version in enumerate(ranking):
            counts[version][rank_index] += 1
    distribution = RankingDistribution(version_ids=version_ids, participants=participants)
    for version in version_ids:
        if participants:
            distribution.matrix[version] = [
                100.0 * c / participants for c in counts[version]
            ]
        else:
            distribution.matrix[version] = [0.0] * len(version_ids)
    return distribution


# -- behaviour (Figure 5) ------------------------------------------------------


@dataclass(frozen=True)
class BehaviorCdfs:
    """The three Figure 5 CDFs, computed per side-by-side comparison."""

    active_tabs: Cdf
    created_tabs: Cdf
    time_on_task_minutes: Cdf


def behavior_cdfs(results: Sequence[ParticipantResult]) -> BehaviorCdfs:
    """Build the Figure 5 CDFs from the uploaded behaviour traces."""
    durations: List[float] = []
    created: List[float] = []
    active: List[float] = []
    for result in results:
        seen_pages = set()
        for answer in result.answers:
            if answer.integrated_id in seen_pages:
                continue  # one trace per comparison, not per question
            seen_pages.add(answer.integrated_id)
            durations.append(answer.behavior.duration_minutes)
            created.append(float(answer.behavior.created_tabs))
            active.append(float(answer.behavior.active_tab_switches))
    if not durations:
        raise ValidationError("no behaviour traces to aggregate")
    return BehaviorCdfs(
        active_tabs=empirical_cdf(active),
        created_tabs=empirical_cdf(created),
        time_on_task_minutes=empirical_cdf(durations),
    )


# -- agreement & breakdowns ------------------------------------------------------


def fleiss_kappa(results: Sequence[ParticipantResult], question_id: str) -> float:
    """Fleiss' kappa over the (pair, question) cells — inter-rater agreement.

    Each comparison cell is a "subject" rated into the three categories
    Left/Same/Right. Kappa near 0 means answers are indistinguishable from
    chance (a spammy crowd); values above ~0.4 indicate the moderate
    agreement a usable QoE panel shows. Cells must share a common rater
    count, so the computation uses the minimum raters across cells and
    subsamples deterministically (first n answers in worker order).
    """
    cells: Dict[Tuple[str, str], List[str]] = {}
    for result in sorted(results, key=lambda r: r.worker_id):
        for answer in result.answers_for(question_id):
            key = (answer.integrated_id, answer.question_id)
            cells.setdefault(key, []).append(answer.answer)
    if not cells:
        raise ValidationError("no answers to compute agreement over")
    raters = min(len(answers) for answers in cells.values())
    if raters < 2:
        raise ValidationError("agreement needs at least 2 raters per cell")
    categories = ("left", "same", "right")
    subjects = []
    for answers in cells.values():
        trimmed = answers[:raters]
        subjects.append([trimmed.count(c) for c in categories])
    n_subjects = len(subjects)
    # Per-subject agreement P_i and category proportions p_j.
    p_i_sum = 0.0
    category_totals = [0.0] * len(categories)
    for counts in subjects:
        p_i_sum += (sum(c * c for c in counts) - raters) / (raters * (raters - 1))
        for j, c in enumerate(counts):
            category_totals[j] += c
    p_bar = p_i_sum / n_subjects
    p_j = [t / (n_subjects * raters) for t in category_totals]
    p_e = sum(p * p for p in p_j)
    if p_e >= 1.0:
        return 1.0
    return (p_bar - p_e) / (1.0 - p_e)


def demographic_breakdown(
    results: Sequence[ParticipantResult],
    question_id: str,
    left_version: str,
    right_version: str,
    attribute: str,
) -> Dict[str, QuestionTally]:
    """Per-demographic-group tallies for one question on one pair.

    ``attribute`` is one of the coarse fields the extension collects
    ('gender', 'age_range', 'country', 'tech_ability'). Groups with no
    participants are absent from the result.
    """
    groups: Dict[str, List[ParticipantResult]] = {}
    for result in results:
        if attribute not in result.demographics:
            raise ValidationError(f"unknown demographic attribute {attribute!r}")
        key = str(result.demographics[attribute])
        groups.setdefault(key, []).append(result)
    return {
        group: tally_question(members, question_id, left_version, right_version)
        for group, members in sorted(groups.items())
    }


# -- bundle ---------------------------------------------------------------------


@dataclass
class AnalysisBundle:
    """Everything :func:`analyze_responses` computes for one result set."""

    tallies: Dict[Tuple[str, str, str], QuestionTally]
    rankings: Dict[str, RankingDistribution]
    participants: int

    def answer_coverage(self) -> Dict[Tuple[str, str, str], int]:
        """Decided answers per (question, left, right) cell.

        A fully-covered campaign has every cell at the participant count; a
        degraded one (abandonment, lost uploads) shows which pairs went
        under-sampled — the per-pair coverage a
        :class:`~repro.core.campaign.DegradedConclusion` reports.
        """
        return {key: tally.total for key, tally in self.tallies.items()}

    def min_coverage(self) -> int:
        """The worst-sampled cell's answer count (0 for an empty bundle)."""
        coverage = self.answer_coverage()
        return min(coverage.values()) if coverage else 0


def analyze_responses(
    results: Sequence[ParticipantResult],
    question_ids: Sequence[str],
    version_ids: Sequence[str],
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
) -> AnalysisBundle:
    """Run the full analysis for a batch of responses.

    ``pairs`` defaults to every unordered version pair.
    """
    from repro.core.scheduling import all_pairs as _all_pairs

    pair_list = list(pairs) if pairs is not None else _all_pairs(version_ids)
    tallies = {}
    for question_id in question_ids:
        for left, right in pair_list:
            tallies[(question_id, left, right)] = tally_question(
                results, question_id, left, right
            )
    rankings = {
        question_id: ranking_distribution(results, question_id, version_ids)
        for question_id in question_ids
    }
    return AnalysisBundle(
        tallies=tallies,
        rankings=rankings,
        participants=len(list(results)),
    )
