"""Quality control (§III-D "Quality Control").

Four layers, applied in the paper's order; each can be toggled for the
ablation bench:

1. **Hard rules** — every comparison question must be answered for every
   integrated webpage; incomplete uploads are rejected outright.
2. **Engagement** — "a short time indicates an unengaged worker; a long time
   might indicate that the work is distracted": per-comparison durations and
   tab churn must fall in a plausible band.
3. **Control questions** — the identical pair must be answered "Same" and
   the contrast pair must name the readable side.
4. **Crowd wisdom** — the majority vote over all (pair, question) cells is
   the pseudo-ground truth; workers who deviate from it on too many cells
   are dropped.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.extension import ANSWER_VALUES, ParticipantResult

REASON_INCOMPLETE = "hard-rule:incomplete"
REASON_ABANDONED = "hard-rule:abandoned"
REASON_TOO_FAST = "engagement:too-fast"
REASON_TOO_SLOW = "engagement:too-slow"
REASON_TAB_CHURN = "engagement:tab-churn"
REASON_CONTROL = "control-question:failed"
REASON_MAJORITY = "crowd-wisdom:deviates"

# Paper-calibrated thresholds of the engagement and crowd-wisdom layers.
MIN_COMPARISON_MINUTES = 0.08   # < ~5s per pair is a rush
MAX_COMPARISON_MINUTES = 2.6    # filters the 3.3-min wanderers
MAX_CREATED_TABS = 4
MAX_ACTIVE_TAB_SWITCHES = 9
ENGAGEMENT_VIOLATION_FRACTION = 0.4   # tolerate a few odd pairs
MAX_SLOW_VIOLATIONS = 0               # any overlong comparison drops
MAJORITY_DEVIATION_FRACTION = 0.5     # drop if wrong on > half
MAJORITY_MIN_CELLS = 3                # too few cells -> no verdict


def deviation_detail(cells: int, deviations: int) -> Optional[str]:
    """The crowd-wisdom drop detail for a participant who answered ``cells``
    cells that carry a consensus and deviated from it on ``deviations`` of
    them, or ``None`` when that is too few cells or too few deviations."""
    if cells >= MAJORITY_MIN_CELLS and deviations / cells > MAJORITY_DEVIATION_FRACTION:
        return f"deviates on {deviations}/{cells} cells"
    return None


@dataclass(frozen=True)
class QualityConfig:
    """Which of the four layers run; the ablation bench toggles them."""

    enable_hard_rules: bool = True
    enable_engagement: bool = True
    enable_control_questions: bool = True
    enable_majority_vote: bool = True


@dataclass
class DropRecord:
    """Why one participant was removed."""

    worker_id: str
    reason: str
    detail: str = ""


@dataclass
class QualityReport:
    """Outcome of a quality-control pass."""

    kept: List[ParticipantResult] = field(default_factory=list)
    dropped: List[DropRecord] = field(default_factory=list)

    @property
    def kept_ids(self) -> List[str]:
        return [r.worker_id for r in self.kept]

    @property
    def kept_count(self) -> int:
        """Surviving-participant count.

        Prefer this over ``len(report.kept)``: streaming reports carry only
        the kept worker ids (the results were never materialized) and
        override this to stay truthful with an empty ``kept`` list.
        """
        return len(self.kept)

    @property
    def dropped_ids(self) -> List[str]:
        return [d.worker_id for d in self.dropped]

    def drop_reasons(self) -> Counter:
        """Histogram of drop reasons."""
        return Counter(d.reason for d in self.dropped)


class QualityControl:
    """Applies the configured layers to a batch of participant results.

    A campaign never runs this batch pass: its server screens each upload
    as it arrives and conclude finishes the screen (see
    :mod:`repro.store.stream`), recording the pass with
    :func:`record_report`. The batch pass serves the experiments, the
    ablations and the cross-checks against that fold.
    """

    def __init__(self, config: Optional[QualityConfig] = None):
        self.config = config or QualityConfig()

    def apply(
        self,
        results: Sequence[ParticipantResult],
        expected_answers_per_page: int,
    ) -> QualityReport:
        """Filter ``results``; ``expected_answers_per_page`` is the number of
        (page, question) answers a complete participant must have uploaded."""
        report = QualityReport()
        survivors: List[ParticipantResult] = []
        for result in results:
            drop = self._screen_individual(result, expected_answers_per_page)
            if drop is not None:
                report.dropped.append(drop)
            else:
                survivors.append(result)
        if self.config.enable_majority_vote:
            survivors = self._majority_filter(survivors, report)
        report.kept = survivors
        return report

    # -- layers 1-3: individual screening ----------------------------------

    def _screen_individual(
        self, result: ParticipantResult, expected_answers: int
    ) -> Optional[DropRecord]:
        config = self.config
        if config.enable_hard_rules:
            if len(result.answers) < expected_answers:
                # Distinguish a participant who walked away (dropout, network
                # failure) from one who uploaded a short submission.
                abandoned = getattr(result, "abandoned", False)
                return DropRecord(
                    result.worker_id,
                    REASON_ABANDONED if abandoned else REASON_INCOMPLETE,
                    f"{len(result.answers)}/{expected_answers} answers"
                    + (
                        f" ({getattr(result, 'abandon_reason', '')})"
                        if abandoned
                        else ""
                    ),
                )
            if any(a.answer not in ANSWER_VALUES for a in result.answers):
                return DropRecord(result.worker_id, REASON_INCOMPLETE, "invalid answer value")
        if config.enable_engagement:
            drop = self._engagement_check(result)
            if drop is not None:
                return drop
        if config.enable_control_questions:
            drop = self._control_check(result)
            if drop is not None:
                return drop
        return None

    def _engagement_check(self, result: ParticipantResult) -> Optional[DropRecord]:
        traces = {a.integrated_id: a.behavior for a in result.answers}
        if not traces:
            return DropRecord(result.worker_id, REASON_INCOMPLETE, "no behaviour data")
        violations_fast = violations_slow = violations_churn = 0
        for trace in traces.values():
            if trace.duration_minutes < MIN_COMPARISON_MINUTES:
                violations_fast += 1
            elif trace.duration_minutes > MAX_COMPARISON_MINUTES:
                violations_slow += 1
            if (
                trace.created_tabs > MAX_CREATED_TABS
                or trace.active_tab_switches > MAX_ACTIVE_TAB_SWITCHES
            ):
                violations_churn += 1
        limit = ENGAGEMENT_VIOLATION_FRACTION * len(traces)
        if violations_fast > limit:
            return DropRecord(
                result.worker_id, REASON_TOO_FAST, f"{violations_fast}/{len(traces)} rushed"
            )
        if violations_slow > MAX_SLOW_VIOLATIONS:
            # Zero tolerance: one wander-off comparison taints the
            # whole submission (this is what pulls the paper's 3.3-minute
            # raw maximum down to 2.5 after filtering).
            return DropRecord(
                result.worker_id, REASON_TOO_SLOW, f"{violations_slow}/{len(traces)} overlong"
            )
        if violations_churn > limit:
            return DropRecord(
                result.worker_id,
                REASON_TAB_CHURN,
                f"{violations_churn}/{len(traces)} heavy tab churn",
            )
        return None

    def _control_check(self, result: ParticipantResult) -> Optional[DropRecord]:
        control_answers = [a for a in result.answers if a.is_control]
        for answer in control_answers:
            expected = self._expected_for(answer)
            if expected and answer.answer != expected:
                return DropRecord(
                    result.worker_id,
                    REASON_CONTROL,
                    f"{answer.integrated_id}: answered {answer.answer!r}, "
                    f"expected {expected!r}",
                )
        return None

    @staticmethod
    def _expected_for(answer) -> str:
        # Control expectations travel on the integrated page records; the
        # answer rows carry version ids, from which the expectation is
        # reconstructable without a database round trip.
        if answer.left_version == answer.right_version:
            return "same"
        if answer.left_version == "__contrast__":
            return "right"
        if answer.right_version == "__contrast__":
            return "left"
        return ""

    # -- layer 4: crowd wisdom -------------------------------------------------

    def _majority_filter(
        self, results: List[ParticipantResult], report: QualityReport
    ) -> List[ParticipantResult]:
        if len(results) < 3:
            return results  # majority of two is meaningless
        majority = self.majority_votes(results)
        kept: List[ParticipantResult] = []
        for result in results:
            drop = self.majority_drop(result, majority)
            if drop is not None:
                report.dropped.append(drop)
            else:
                kept.append(result)
        return kept

    def majority_drop(
        self, result: ParticipantResult, majority: Dict[Tuple[str, str], str]
    ) -> Optional[DropRecord]:
        """The crowd-wisdom drop for one result against the ``majority``
        map, or ``None`` when it deviates on too few cells."""
        cells = 0
        deviations = 0
        for answer in result.answers:
            if answer.is_control:
                continue
            consensus = majority.get((answer.integrated_id, answer.question_id))
            if consensus is None:
                continue
            cells += 1
            if answer.answer != consensus:
                deviations += 1
        detail = deviation_detail(cells, deviations)
        if detail is not None:
            return DropRecord(result.worker_id, REASON_MAJORITY, detail)
        return None

    @staticmethod
    def consensus(
        tallies: Dict[Tuple[str, str], Counter],
    ) -> Dict[Tuple[str, str], str]:
        """Majority answer per cell from its answer tallies.

        Cells with no clear winner (a tie) carry no consensus and are
        excluded from deviation counting. The strict-majority rule depends
        only on the final counts, so tallies counted in any order (one batch
        pass, or per answer code at conclude) give the same map.
        """
        majority: Dict[Tuple[str, str], str] = {}
        for key, counter in tallies.items():
            ranked = counter.most_common(2)
            if len(ranked) == 1 or ranked[0][1] > ranked[1][1]:
                majority[key] = ranked[0][0]
        return majority

    @classmethod
    def majority_votes(
        cls, results: Sequence[ParticipantResult],
    ) -> Dict[Tuple[str, str], str]:
        """Majority answer per (integrated page, question) cell."""
        tallies: Dict[Tuple[str, str], Counter] = {}
        for result in results:
            for answer in result.answers:
                if answer.is_control:
                    continue
                key = (answer.integrated_id, answer.question_id)
                counter = tallies.get(key)
                if counter is None:
                    counter = tallies[key] = Counter()
                counter[answer.answer] += 1
        return cls.consensus(tallies)


def record_report(report: QualityReport, span, metrics, tracer) -> None:
    """Export one quality pass: kept/dropped attributes on its ``quality``
    span, kept/dropped counters with a per-reason breakdown, and one
    ``quality_drop`` event per reason."""
    span.set_attr("kept", report.kept_count)
    span.set_attr("dropped", len(report.dropped))
    metrics.add("quality.kept", report.kept_count)
    metrics.add("quality.dropped", len(report.dropped))
    for reason, count in sorted(report.drop_reasons().items()):
        metrics.add(f"quality.drop.{reason}", count)
        tracer.event("quality_drop", reason=reason, count=count)
