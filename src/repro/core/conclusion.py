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

:func:`conclusion_digest` is the one identity of a concluded campaign: the
same seed must give the same digest whatever executed the crowd — inline
or in a process pool, on the memory or the sharded store, straight through
or crash-resumed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.btmodel import fit_bradley_terry
from repro.util.jsonutil import dumps_canonical


def floors_met(
    complete: int,
    recruited: int,
    min_participants: Optional[int],
    quorum: Optional[float],
) -> bool:
    """True when ``complete`` of ``recruited`` participants satisfy the
    conclusion floors (``None`` means no floor)."""
    if min_participants is not None and complete < min_participants:
        return False
    if quorum is not None and (complete / recruited if recruited else 0.0) < quorum:
        return False
    return True


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
        return floors_met(
            self.complete, self.recruited, self.min_participants, self.quorum
        )

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


def _tallies(analysis) -> list:
    return sorted(
        (list(key), [t.left_count, t.right_count, t.same_count])
        for key, t in analysis.tallies.items()
    )


def conclusion_payload(
    summary: dict,
    report,
    raw_analysis,
    controlled_analysis,
    controlled_bt,
    checkpoint: dict,
) -> dict:
    """The canonical parts of one conclusion, as plain JSON data.

    ``summary`` is :meth:`CampaignResult.to_dict`, ``report`` the quality
    report, ``controlled_bt`` the kept answers' Bradley-Terry counts per
    question and ``checkpoint`` :meth:`Campaign.resume_state` without its
    shard-routing ``store`` key. A caller that recomputes the quality pass,
    the analyses or the counts in batch passes its own outputs here and
    hashes them with :func:`payload_digest`.
    """
    return {
        "result": summary,
        "dropped": [[d.worker_id, d.reason, d.detail] for d in report.dropped],
        "kept": list(report.kept_ids),
        "raw_tallies": _tallies(raw_analysis),
        "controlled_tallies": _tallies(controlled_analysis),
        "rankings": {
            question: ranking.matrix
            for question, ranking in controlled_analysis.rankings.items()
        },
        "bt": {
            question: {
                "wins": sorted(
                    (list(pair), wins) for pair, wins in counts.wins.items()
                ),
                "scores": (
                    fit_bradley_terry(counts).scores
                    if counts.total_comparisons() > 0 else None
                ),
            }
            for question, counts in controlled_bt.items()
        },
        "checkpoint": checkpoint,
    }


def payload_digest(payload: dict) -> str:
    """SHA-256 over the canonical JSON of a :func:`conclusion_payload`."""
    return hashlib.sha256(dumps_canonical(payload).encode("utf-8")).hexdigest()


def conclusion_digest(campaign, result) -> str:
    """The identity of what ``campaign`` concluded as ``result``.

    Covers the result summary (conclusion, early stop, counts, duration and
    cost), the quality decisions in order, the raw and controlled tallies,
    the controlled rankings, the controlled Bradley-Terry wins and fit, and
    the durable checkpoint (:meth:`Campaign.resume_state`: root entropy,
    stored rows, upload losses, scheduler state). The checkpoint's
    ``store`` key is left out: it fingerprints shard routing, which differs
    between stores that hold the same rows.

    Process-level observations are left out too. A metrics registry counts
    store work that differs between stores (``store.inserts``,
    ``store.spilled_docs``, ``store.wal_records``), and a resumed campaign's
    registry and timeline hold only what it ran; callers comparing runs on
    one store keep those checks beside the digest.

    Reads every stored row (through ``resume_state``), so call it after a
    run, not on a path whose memory must stay bounded. ``campaign`` must be
    the one that concluded ``result`` last: the Bradley-Terry counts come
    from its final conclude.
    """
    checkpoint = campaign.resume_state()
    checkpoint.pop("store", None)
    return payload_digest(
        conclusion_payload(
            result.to_dict(),
            result.quality_report,
            result.raw_analysis,
            result.controlled_analysis,
            campaign.last_streaming.controlled_bt,
            checkpoint,
        )
    )
