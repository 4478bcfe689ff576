"""Streaming aggregation: each upload encoded once, at ingest, into answer codes.

The Bradley–Terry model, the per-question tallies, the Figure 4 rank
matrices and the crowd-wisdom majority vote all depend on an upload only
through its non-control answers, and each of those only through
``(integrated_id, question_id, answer, left_version, right_version)``. A
campaign repeats few such tuples, so :class:`AnswerCodes` numbers each
distinct one once and works out once what it contributes to every table.
:meth:`StreamingCampaignState.ingest` encodes each upload's answers to those
small ints, and :class:`StreamingAggregator` folds codes into the count
tables — the raw tables at ingest, the controlled ones at conclude.

Quality control streams in two passes with decisions byte-identical to the
batch :class:`~repro.core.quality.QualityControl`:

1. **At upload** — :class:`OnlineQualityScreen` runs the individual
   screening layers (hard rules, engagement, control questions) on each
   result as it arrives. For each survivor it keeps the worker id in one
   list and the answer codes in one ``array`` with end offsets: no Python
   container per upload, so the garbage collector tracks nothing new.
2. **At conclude** — the majority map is read off the survivors' code
   counts (the strict-majority rule depends only on final counts), each
   distinct code's majority verdict is worked out once, and one walk over
   the survivors in upload order checks each one's deviation and folds the
   kept ones — appending drops in exactly the order the batch pass produces:
   individual drops in upload order, then majority drops in survivor order.
   The walk reads each survivor's codes straight out of the array and keeps
   nothing per survivor but its worker id in the kept list.

Conclude therefore reads no stored row on either store, and mutates no
state: concluding twice gives the same result. A campaign holds O(pairs)
count tables plus, per surviving upload, one worker id reference, a 4-byte
end offset and 4 bytes per non-control answer.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.analysis import (
    RANK_LABELS,
    AnalysisBundle,
    QuestionTally,
    RankingDistribution,
)
from repro.core.btmodel import PairwiseCounts
from repro.core.extension import Answer, ParticipantResult
from repro.core.quality import (
    REASON_MAJORITY,
    DropRecord,
    QualityConfig,
    QualityControl,
    QualityReport,
    deviation_detail,
)
from repro.errors import ValidationError

_MIRROR = {"left": "right", "right": "left", "same": "same"}

#: ``array`` type code of answer codes and end offsets: 4-byte unsigned ints.
CODE_TYPE = "I"


class AnswerCodes:
    """A campaign's answer-code table.

    Code ``c`` stands for the non-control answer ``answers[c]``, an
    ``(integrated_id, question_id, answer, left_version, right_version)``
    tuple. Beside it the table keeps what that answer contributes to the
    batch analysis (:func:`~repro.core.analysis.tally_question`,
    :func:`~repro.core.btmodel.counts_from_results`,
    :func:`~repro.core.analysis.participant_ranking`), worked out once:

    * ``tallies[c]`` — the ``(question, left, right)`` tally key and the
      answer as seen from that pair's orientation, or ``None``;
    * ``wins[c]`` — ``(question, (winner, loser), weight)`` Bradley-Terry
      increments, in the order ``counts_from_results`` adds them;
    * ``copeland[c]`` — ``(question, winner index, loser index)`` of the
      Copeland score, or ``None`` (a "Same" answer, an unknown version).

    Control answers get no code: nothing after the individual screen reads
    them.
    """

    def __init__(
        self,
        question_ids: Sequence[str],
        version_ids: Sequence[str],
        pairs: Sequence[Tuple[str, str]],
    ):
        if len(version_ids) > len(RANK_LABELS):
            raise ValidationError(
                f"at most {len(RANK_LABELS)} versions supported, "
                f"got {len(version_ids)}"
            )
        self.question_ids = list(question_ids)
        self.version_ids = list(version_ids)
        self.pairs = [tuple(p) for p in pairs]
        self._version_index = {v: i for i, v in enumerate(self.version_ids)}
        self._pair_index: Dict[Tuple[str, str], Tuple[str, str]] = {}
        for left, right in self.pairs:
            self._pair_index[(left, right)] = (left, right)
            self._pair_index[(right, left)] = (left, right)
        self._codes: Dict[tuple, int] = {}
        self.answers: List[tuple] = []
        self.tallies: List[Optional[tuple]] = []
        self.wins: List[tuple] = []
        self.copeland: List[Optional[tuple]] = []

    def __len__(self) -> int:
        return len(self.answers)

    def encode(self, answers: Iterable[Answer]) -> List[int]:
        """The codes of ``answers``' non-control answers, in answer order."""
        codes = self._codes
        encoded = []
        for answer in answers:
            if answer[5]:  # is_control
                continue
            key = answer[:5]
            code = codes.get(key)
            if code is None:
                code = self._add(key)
            encoded.append(code)
        return encoded

    def _add(self, key: tuple) -> int:
        integrated_id, question_id, answer, left, right = key
        code = len(self.answers)
        self._codes[key] = code
        self.answers.append(key)
        tally = copeland = None
        wins: tuple = ()
        if question_id in self.question_ids:
            canonical = self._pair_index.get((left, right))
            if canonical is not None:
                value = (
                    answer if (left, right) == canonical
                    else _MIRROR.get(answer, answer)
                )
                tally = ((question_id,) + canonical, value)
            index = self._version_index
            if left in index and right in index:
                if answer == "left":
                    wins = ((question_id, (left, right), 1.0),)
                    copeland = (question_id, index[left], index[right])
                elif answer == "right":
                    wins = ((question_id, (right, left), 1.0),)
                    copeland = (question_id, index[right], index[left])
                else:
                    wins = (
                        (question_id, (left, right), 0.5),
                        (question_id, (right, left), 0.5),
                    )
        self.tallies.append(tally)
        self.wins.append(wins)
        self.copeland.append(copeland)
        return code


class StreamingAggregator:
    """Folds answer codes into the exact count tables the batch analysis
    scans for.

    After folding the codes of the same results in the same order,
    :meth:`analysis_bundle` reproduces
    :func:`repro.core.analysis.analyze_responses` field-for-field (tallies,
    rankings, participants) and :attr:`bt_counts` reproduces
    :func:`repro.core.btmodel.counts_from_results` including the wins-dict
    insertion order.
    """

    def __init__(self, table: AnswerCodes):
        self.table = table
        self.participants = 0
        # (question, left, right) -> Counter of answer values, in the same
        # key order analyze_responses builds its tallies dict.
        self.tally_counts: Dict[Tuple[str, str, str], Counter] = {
            (question_id, left, right): Counter()
            for question_id in table.question_ids
            for left, right in table.pairs
        }
        # question -> version -> count per rank position (Figure 4 matrix).
        self.rank_counts: Dict[str, Dict[str, List[int]]] = {
            question_id: {v: [0] * len(table.version_ids) for v in table.version_ids}
            for question_id in table.question_ids
        }
        # question -> Bradley-Terry win counts.
        self.bt_counts: Dict[str, PairwiseCounts] = {
            question_id: PairwiseCounts(list(table.version_ids))
            for question_id in table.question_ids
        }

    def fold(self, codes: Iterable[int]) -> None:
        """Fold one participant's answer codes."""
        self.participants += 1
        table = self.table
        tallies, wins, copeland = table.tallies, table.wins, table.copeland
        tally_counts, bt_counts = self.tally_counts, self.bt_counts
        scores: Dict[str, List[int]] = {}
        for code in codes:
            tally = tallies[code]
            if tally is not None:
                tally_counts[tally[0]][tally[1]] += 1
            for question_id, key, win in wins[code]:
                counts = bt_counts[question_id].wins
                counts[key] = counts.get(key, 0.0) + win
            score = copeland[code]
            if score is not None:
                question_id, winner, loser = score
                per_version = scores.get(question_id)
                if per_version is None:
                    per_version = scores[question_id] = [0] * len(table.version_ids)
                per_version[winner] += 1
                per_version[loser] -= 1
        version_ids = table.version_ids
        for question_id in table.question_ids:
            # Copeland ranking, ties in version order (participant_ranking).
            score = scores.get(question_id)
            ranking = version_ids if score is None else [
                version_ids[i]
                for i in sorted(range(len(version_ids)), key=lambda i: (-score[i], i))
            ]
            per_version = self.rank_counts[question_id]
            for rank_index, version in enumerate(ranking):
                per_version[version][rank_index] += 1

    def cell_count(self) -> int:
        """Number of sufficient-statistic cells — the O(pairs) size the
        bench asserts is independent of the participant count."""
        versions = len(self.table.version_ids)
        return (
            len(self.tally_counts)
            + sum(len(m) * versions for m in self.rank_counts.values())
            + len(self.bt_counts) * versions ** 2
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
        version_ids = self.table.version_ids
        rankings = {}
        for question_id in self.table.question_ids:
            distribution = RankingDistribution(
                version_ids=list(version_ids),
                participants=self.participants,
            )
            for version in version_ids:
                counts = self.rank_counts[question_id][version]
                if self.participants:
                    distribution.matrix[version] = [
                        100.0 * c / self.participants for c in counts
                    ]
                else:
                    distribution.matrix[version] = [0.0] * len(version_ids)
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
    decision is the batch decision). It records drops in upload order, as
    strings in three parallel lists, with their worker ids in a set (the
    one per-upload verdict every reader shares). For each survivor it keeps
    the worker id and the answer codes. The majority *verdicts* are only
    read at conclude time (:meth:`finish`), when the counts are final —
    identical to the batch pass, because the strict-majority rule
    (``most_common(2)`` with a tie carrying no consensus) is a pure function
    of the final counts.
    """

    def __init__(self, config: Optional[QualityConfig], expected_answers: int):
        self.control = QualityControl(config)
        self.config = self.control.config
        self.expected_answers = expected_answers
        self.dropped_ids: Set[str] = set()
        self._drop_ids: List[str] = []
        self._drop_reasons: List[str] = []
        self._drop_details: List[str] = []
        self.survivor_ids: List[str] = []
        self.survivor_codes = array(CODE_TYPE)
        self.survivor_ends = array(CODE_TYPE)

    def observe(self, result: ParticipantResult, codes: List[int]) -> None:
        """Screen one upload whose non-control answers encode to ``codes``."""
        drop = self.control._screen_individual(result, self.expected_answers)
        if drop is not None:
            self._drop_ids.append(drop.worker_id)
            self._drop_reasons.append(drop.reason)
            self._drop_details.append(drop.detail)
            self.dropped_ids.add(drop.worker_id)
            return
        self.survivor_ids.append(result.worker_id)
        self.survivor_codes.extend(codes)
        self.survivor_ends.append(len(self.survivor_codes))

    def finish(
        self, table: AnswerCodes, controlled: StreamingAggregator
    ) -> Tuple[List[DropRecord], List[str]]:
        """Complete the screen: fold each kept upload's codes into
        ``controlled`` in upload order, and return every drop in batch order
        and the kept worker ids in upload order."""
        drops = [
            DropRecord(*fields)
            for fields in zip(self._drop_ids, self._drop_reasons, self._drop_details)
        ]
        codes = self.survivor_codes
        apply_majority = (
            self.config.enable_majority_vote and len(self.survivor_ids) >= 3
        )
        if apply_majority:
            tallies: Dict[Tuple[str, str], Counter] = {}
            for code, count in Counter(codes).items():
                integrated_id, question_id, answer = table.answers[code][:3]
                cell = tallies.get((integrated_id, question_id))
                if cell is None:
                    cell = tallies[(integrated_id, question_id)] = Counter()
                cell[answer] += count
            majority = QualityControl.consensus(tallies)
            # Per code: 1 when its cell carries a consensus; 1 when it
            # deviates from that consensus.
            has_cell = [0] * len(table)
            deviates = [0] * len(table)
            for code, (integrated_id, question_id, answer, _, _) in enumerate(
                table.answers
            ):
                consensus = majority.get((integrated_id, question_id))
                if consensus is not None:
                    has_cell[code] = 1
                    deviates[code] = int(answer != consensus)
        kept_ids: List[str] = []
        start = 0
        for worker_id, end in zip(self.survivor_ids, self.survivor_ends):
            sequence = codes[start:end]
            start = end
            if apply_majority:
                detail = deviation_detail(
                    sum(has_cell[c] for c in sequence),
                    sum(deviates[c] for c in sequence),
                )
                if detail is not None:
                    drops.append(DropRecord(worker_id, REASON_MAJORITY, detail))
                    continue
            kept_ids.append(worker_id)
            controlled.fold(sequence)
        return drops, kept_ids


@dataclass
class StreamingQualityReport(QualityReport):
    """A :class:`~repro.core.quality.QualityReport` built from the kept
    worker ids, in kept order. ``kept`` stays empty unless the caller
    attaches the results (the in-memory store attaches them, parsed on
    first read); every id/count accessor reports the true numbers either
    way."""

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
    """Per-campaign streaming state: one code table, one raw aggregator,
    one online screen.

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
        self.codes = AnswerCodes(question_ids, version_ids, pairs)
        self.raw = StreamingAggregator(self.codes)
        self.screen = OnlineQualityScreen(quality, expected_answers)
        self.abandoned = 0
        self.complete = 0

    @property
    def ingested(self) -> int:
        return self.raw.participants

    def ingest(self, result: ParticipantResult) -> None:
        codes = self.codes.encode(result.answers)
        self.raw.fold(codes)
        if result.abandoned:
            self.abandoned += 1
        elif len(result.answers) >= self.expected_answers:
            self.complete += 1
        self.screen.observe(result, codes)

    def ingest_row(self, row: dict) -> None:
        self.ingest(ParticipantResult.from_dict(row))

    def conclude(self) -> StreamingConclusionData:
        """Finish quality control and build both analysis bundles from the
        answer codes recorded at ingest.

        Kept uploads fold into the controlled aggregator and Bradley-Terry
        counts in kept order — the same iteration order the batch
        pipeline's ``analyze_responses(report.kept, ...)`` and
        ``counts_from_results`` use. Reads no stored row and changes no
        state; besides the two bundles it builds only the kept-id list.
        """
        controlled = StreamingAggregator(self.codes)
        drops, kept_ids = self.screen.finish(self.codes, controlled)
        return StreamingConclusionData(
            report=StreamingQualityReport(
                kept=[], dropped=drops, kept_worker_ids=kept_ids
            ),
            raw_analysis=self.raw.analysis_bundle(),
            controlled_analysis=controlled.analysis_bundle(),
            controlled_bt=controlled.bt_counts,
            uploaded=self.raw.participants,
            abandoned=self.abandoned,
            complete=self.complete,
        )
