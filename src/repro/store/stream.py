"""Streaming aggregation: O(pairs) sufficient statistics per upload.

The Bradley–Terry model, the per-question tallies, and the Figure 4 rank
matrices all depend on the raw responses only through small count tables —
sufficient statistics. :class:`StreamingAggregator` folds each uploaded
:class:`~repro.core.extension.ParticipantResult` into those tables at
ingest time, so concluding a campaign no longer needs the responses in
memory: aggregator state is O(questions × pairs), independent of the
participant count.

Quality control streams in two passes with decisions byte-identical to the
batch :class:`~repro.core.quality.QualityControl`:

1. **At upload** — :class:`OnlineQualityScreen` runs the individual
   screening layers (hard rules, engagement, control questions) on each
   result as it arrives, and folds survivors' non-control answers into the
   running per-(page, question) majority tallies.
2. **At conclude** — the majority map is read off the tallies (the strict-
   majority rule depends only on final counts, so incremental accumulation
   cannot change it), and one streamed pass over the stored rows re-applies
   the (deterministic) individual screen to partition the stream and checks
   each survivor's deviation against the majority — appending drops in
   exactly the order the batch pass produces: individual drops in upload
   order, then majority drops in survivor order.

Every campaign concludes this way, whatever its store. The stores differ
only in how the second pass gets its rows: the in-memory store parses its
stored documents in place, uncopied through
:meth:`~repro.storage.documentstore.Collection.scan`, into a list (the
campaign keeps it as ``raw_results``), while the sharded store parses
:meth:`~repro.store.sharded.ShardedDocumentStore.stream_collection`'s lazy
WAL replay one row at a time, skipping rows the upload-time screen dropped
before parsing them — so its conclude stays out of O(participants) memory
even at a million uploads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.analysis import (
    RANK_LABELS,
    AnalysisBundle,
    QuestionTally,
    RankingDistribution,
    participant_ranking,
)
from repro.core.btmodel import PairwiseCounts
from repro.core.extension import ParticipantResult
from repro.core.quality import (
    DropRecord,
    QualityConfig,
    QualityControl,
    QualityReport,
)
from repro.errors import ValidationError

_MIRROR = {"left": "right", "right": "left", "same": "same"}


class StreamingAggregator:
    """Folds results into the exact count tables the batch analysis scans for.

    After folding the same results in the same order,
    :meth:`analysis_bundle` reproduces
    :func:`repro.core.analysis.analyze_responses` field-for-field (tallies,
    rankings, participants) and :attr:`bt_counts` reproduces
    :func:`repro.core.btmodel.counts_from_results` including the wins-dict
    insertion order.
    """

    def __init__(
        self,
        question_ids: List[str],
        version_ids: List[str],
        pairs: List[Tuple[str, str]],
        expected_answers: int,
    ):
        if len(version_ids) > len(RANK_LABELS):
            raise ValidationError(
                f"at most {len(RANK_LABELS)} versions supported, "
                f"got {len(version_ids)}"
            )
        self.question_ids = list(question_ids)
        self.version_ids = list(version_ids)
        self.pairs = [tuple(p) for p in pairs]
        self.expected_answers = expected_answers
        self.participants = 0
        self.abandoned = 0
        self.complete = 0
        # (question, left, right) -> Counter of answer values, in the same
        # key order analyze_responses builds its tallies dict.
        self._pair_index: Dict[Tuple[str, str], Tuple[str, str]] = {}
        for left, right in self.pairs:
            self._pair_index[(left, right)] = (left, right)
            self._pair_index[(right, left)] = (left, right)
        self.tally_counts: Dict[Tuple[str, str, str], Counter] = {
            (question_id, left, right): Counter()
            for question_id in self.question_ids
            for left, right in self.pairs
        }
        # question -> version -> count per rank position (Figure 4 matrix).
        self.rank_counts: Dict[str, Dict[str, List[int]]] = {
            question_id: {v: [0] * len(self.version_ids) for v in self.version_ids}
            for question_id in self.question_ids
        }
        # question -> Bradley-Terry win counts.
        self.bt_counts: Dict[str, PairwiseCounts] = {
            question_id: PairwiseCounts(list(self.version_ids))
            for question_id in self.question_ids
        }
        self._known_versions = set(self.version_ids)

    def fold(self, result: ParticipantResult) -> None:
        """Fold one participant's upload into every sufficient statistic."""
        self.participants += 1
        if getattr(result, "abandoned", False):
            self.abandoned += 1
        elif len(result.answers) >= self.expected_answers:
            self.complete += 1
        for question_id in self.question_ids:
            answers = result.answers_for(question_id)
            for answer in answers:
                oriented = (answer.left_version, answer.right_version)
                canonical = self._pair_index.get(oriented)
                if canonical is not None:
                    value = (
                        answer.answer
                        if oriented == canonical
                        else _MIRROR.get(answer.answer, answer.answer)
                    )
                    self.tally_counts[(question_id,) + canonical][value] += 1
                left, right = oriented
                if left in self._known_versions and right in self._known_versions:
                    counts = self.bt_counts[question_id]
                    if answer.answer == "left":
                        counts.add_win(left, right)
                    elif answer.answer == "right":
                        counts.add_win(right, left)
                    else:
                        counts.add_tie(left, right)
            ranking = participant_ranking(result, question_id, self.version_ids)
            per_version = self.rank_counts[question_id]
            for rank_index, version in enumerate(ranking):
                per_version[version][rank_index] += 1

    def cell_count(self) -> int:
        """Number of sufficient-statistic cells — the O(pairs) size the
        bench asserts is independent of the participant count."""
        return (
            len(self.tally_counts)
            + sum(len(m) * len(self.version_ids) for m in self.rank_counts.values())
            + len(self.bt_counts) * len(self.version_ids) ** 2
        )

    def analysis_bundle(self) -> AnalysisBundle:
        """The batch :func:`analyze_responses` result, rebuilt from counts."""
        tallies = {
            key: QuestionTally(
                question_id=key[0],
                left_version=key[1],
                right_version=key[2],
                left_count=counts.get("left", 0),
                right_count=counts.get("right", 0),
                same_count=counts.get("same", 0),
            )
            for key, counts in self.tally_counts.items()
        }
        rankings = {}
        for question_id in self.question_ids:
            distribution = RankingDistribution(
                version_ids=list(self.version_ids),
                participants=self.participants,
            )
            for version in self.version_ids:
                counts = self.rank_counts[question_id][version]
                if self.participants:
                    distribution.matrix[version] = [
                        100.0 * c / self.participants for c in counts
                    ]
                else:
                    distribution.matrix[version] = [0.0] * len(self.version_ids)
            rankings[question_id] = distribution
        return AnalysisBundle(
            tallies=tallies,
            rankings=rankings,
            participants=self.participants,
        )


class OnlineQualityScreen:
    """The upload-time half of streaming quality control.

    Runs :class:`~repro.core.quality.QualityControl`'s individual screening
    layers on each result as it arrives (the batch code path itself, so the
    decision is the batch decision), records drops in upload order (and
    their worker ids, the one per-upload verdict every reader shares), and
    accumulates the majority-vote tallies over survivors' non-control
    answers. The majority *verdicts* are only read at conclude time, when
    the tallies are final — identical to the batch pass, because the
    strict-majority rule (``most_common(2)`` with a tie carrying no
    consensus) is a pure function of the final counts.
    """

    def __init__(self, config: Optional[QualityConfig], expected_answers: int):
        self.control = QualityControl(config)
        self.config = self.control.config
        self.expected_answers = expected_answers
        self.individual_drops: List[DropRecord] = []
        self.dropped_ids: Set[str] = set()
        self.survivors = 0
        self.majority_tallies: Dict[Tuple[str, str], Counter] = {}

    def observe(self, result: ParticipantResult) -> Optional[DropRecord]:
        """Screen one upload; returns the drop record when it fails."""
        drop = self.control._screen_individual(result, self.expected_answers)
        if drop is not None:
            self.individual_drops.append(drop)
            self.dropped_ids.add(result.worker_id)
            return drop
        self.survivors += 1
        if self.config.enable_majority_vote:
            QualityControl.tally_majority(self.majority_tallies, result)
        return None


@dataclass
class StreamingQualityReport(QualityReport):
    """A :class:`~repro.core.quality.QualityReport` built from the kept
    worker ids, in kept order. ``kept`` stays empty unless the caller
    materialized the results (the in-memory store fills it); every
    id/count accessor reports the true numbers either way."""

    kept_worker_ids: List[str] = field(default_factory=list)

    @property
    def kept_ids(self) -> List[str]:
        return list(self.kept_worker_ids)

    @property
    def kept_count(self) -> int:
        return len(self.kept_worker_ids)


@dataclass
class StreamingConclusionData:
    """Everything the streamed conclude pass produced."""

    report: StreamingQualityReport
    raw_analysis: AnalysisBundle
    controlled_analysis: AnalysisBundle
    controlled_bt: Dict[str, PairwiseCounts]
    uploaded: int
    abandoned: int
    complete: int


class StreamingCampaignState:
    """Per-campaign streaming state: one raw aggregator, one online screen.

    ``ingest``/``ingest_row`` are called once per stored row — the server
    calls them right after a successful insert, the process fan-out after
    each merged chunk row, and the resume path after re-seeding stored rows
    — so fold order always equals global ``_id`` (upload) order and every
    row folds exactly once.
    """

    def __init__(
        self,
        test_id: str,
        question_ids: List[str],
        version_ids: List[str],
        pairs: List[Tuple[str, str]],
        expected_answers: int,
        quality: Optional[QualityConfig] = None,
    ):
        self.test_id = test_id
        self.expected_answers = expected_answers
        self.raw = StreamingAggregator(
            question_ids, version_ids, pairs, expected_answers
        )
        self.screen = OnlineQualityScreen(quality, expected_answers)

    @property
    def ingested(self) -> int:
        return self.raw.participants

    def ingest(self, result: ParticipantResult) -> None:
        self.raw.fold(result)
        self.screen.observe(result)

    def ingest_row(self, row: dict) -> None:
        self.ingest(ParticipantResult.from_dict(row))

    def conclude(
        self, results: Iterable[ParticipantResult]
    ) -> StreamingConclusionData:
        """Finish quality control and build both analysis bundles.

        ``results`` yields the stored uploads, parsed, in upload (``_id``)
        order — a list the memory store materializes, or a lazy parse of the
        sharded store's ``stream_collection`` (which may already leave out
        the rows the upload-time screen dropped). Results the upload-time
        screen dropped are skipped by worker id, survivors are checked against the
        majority, and kept results fold into the controlled aggregator
        and Bradley-Terry counts in kept order — the same iteration order
        the batch pipeline's ``analyze_responses(report.kept, ...)`` and
        ``counts_from_results`` use.
        """
        control = self.screen.control
        dropped_ids = self.screen.dropped_ids
        apply_majority = (
            self.screen.config.enable_majority_vote and self.screen.survivors >= 3
        )
        majority = (
            control.consensus(self.screen.majority_tallies) if apply_majority else {}
        )
        controlled = StreamingAggregator(
            self.raw.question_ids,
            self.raw.version_ids,
            self.raw.pairs,
            self.expected_answers,
        )
        majority_drops: List[DropRecord] = []
        kept_worker_ids: List[str] = []
        for result in results:
            if result.worker_id in dropped_ids:
                continue  # dropped at upload time; already recorded in order
            if apply_majority:
                drop = control.majority_drop(result, majority)
                if drop is not None:
                    majority_drops.append(drop)
                    continue
            kept_worker_ids.append(result.worker_id)
            controlled.fold(result)
        report = StreamingQualityReport(
            kept=[],
            dropped=list(self.screen.individual_drops) + majority_drops,
            kept_worker_ids=kept_worker_ids,
        )
        return StreamingConclusionData(
            report=report,
            raw_analysis=self.raw.analysis_bundle(),
            controlled_analysis=controlled.analysis_bundle(),
            controlled_bt=controlled.bt_counts,
            uploaded=self.raw.participants,
            abandoned=self.raw.abandoned,
            complete=self.raw.complete,
        )
