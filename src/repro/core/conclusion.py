"""Campaign conclusions: what a finished run measured, degraded or not.

Before this module, a concluded campaign carried ``degraded:
Optional[DegradedConclusion]`` — ``None`` for clean runs, an object for
degraded ones, and ad-hoc dicts at the serialization borders. The redesign
makes the conclusion uniform: :meth:`~repro.core.campaign.Campaign.conclude`
always attaches a :class:`Conclusion`; :class:`DegradedConclusion` is the
subclass used whenever participants were lost, uploads failed, completeness
fell short, or conclusion floors were requested — so ``isinstance`` (or the
:attr:`Conclusion.is_degraded` property) replaces ``is not None`` checks,
and :meth:`Conclusion.to_dict` is the one JSON form the CLI, the timeline
exporter and the benchmark reports all share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class Conclusion:
    """What one concluded campaign measured.

    ``pair_coverage`` maps every (question, left, right) cell to the number
    of decided answers it received; ``coverage_fraction`` is the achieved
    share of the answers a fully-retained roster would have produced.
    """

    recruited: int
    uploaded: int
    complete: int
    abandoned: int
    lost_uploads: List[Tuple[str, str]]  # (worker_id, reason)
    expected_answers: int
    pair_coverage: Dict[Tuple[str, str, str], int] = field(default_factory=dict)
    min_pair_coverage: int = 0
    coverage_fraction: float = 0.0
    min_participants: Optional[int] = None
    quorum: Optional[float] = None

    @property
    def lost(self) -> int:
        return len(self.lost_uploads)

    @property
    def completion_fraction(self) -> float:
        return self.complete / self.recruited if self.recruited else 0.0

    @property
    def is_degraded(self) -> bool:
        """True when the campaign concluded on partial data."""
        return (
            self.abandoned > 0
            or self.lost > 0
            or self.complete < self.recruited
        )

    @property
    def quorum_met(self) -> bool:
        """True when the requested conclusion floors (if any) are satisfied."""
        if self.min_participants is not None and self.complete < self.min_participants:
            return False
        if self.quorum is not None and self.completion_fraction < self.quorum:
            return False
        return True

    def to_dict(self) -> dict:
        """The JSON form shared by the CLI, timeline exporter and reports."""
        return {
            "degraded": self.is_degraded,
            "recruited": self.recruited,
            "uploaded": self.uploaded,
            "complete": self.complete,
            "abandoned": self.abandoned,
            "lost_uploads": [list(item) for item in self.lost_uploads],
            "expected_answers": self.expected_answers,
            "pair_coverage": {
                "/".join(key): count for key, count in sorted(self.pair_coverage.items())
            },
            "min_pair_coverage": self.min_pair_coverage,
            "coverage_fraction": round(self.coverage_fraction, 4),
            "completion_fraction": round(self.completion_fraction, 4),
            "quorum_met": self.quorum_met,
        }


@dataclass
class DegradedConclusion(Conclusion):
    """A conclusion reached on partial data (or with floors requested).

    Same fields as :class:`Conclusion`; the subclass is the marker the
    campaign attaches whenever participants abandoned, uploads were lost,
    completeness fell short of the roster, or ``min_participants``/
    ``quorum`` floors were asked for — mirroring exactly the cases that
    historically produced a non-``None`` ``CampaignResult.degraded``.
    """
