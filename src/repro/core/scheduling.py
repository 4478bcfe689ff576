"""Comparison scheduling: which pairs does a participant see, in what order?

By default every participant compares all C(N, 2) pairs of the N versions.
When only one comparison question is asked, the paper notes that sorting
algorithms (bubble sort, insertion sort, ...) can reduce the number of
integrated webpages: the participant's own answers drive the sort, and each
comparison the algorithm *would* perform is a pair actually shown. Beyond
the paper, :mod:`repro.core.adaptive` adds an information-gain scheduler
that shares one Bradley-Terry posterior across *all* participants.

All of them implement one public :class:`Scheduler` protocol:

* ``next_pair(participant_id)`` — the next (left, right) pair to show this
  participant, or ``None`` when they (or the campaign) are finished. The
  outstanding pair is re-served idempotently: a participant who crashes and
  asks again gets the same pair, and a participant who *abandons* without
  answering never wedges the schedule — the comparison is simply offered to
  the next asker.
* ``report(answer, participant_id)`` — answer the outstanding pair (the
  single-participant driving loop :func:`drive_scheduler` uses this).
* ``absorb(left, right, answer, weight)`` — fold an answer into the shared
  cross-participant :class:`~repro.core.btmodel.PairwiseCounts` tally (and
  into the scheduler's own decision state when the pair matches its current
  comparison).
* ``retract(left, right, answer, weight)`` — the exact inverse of
  ``absorb`` on the tally: a quality-dropped or never-stored answer is
  removed from the evidence. Sort decisions already made are not rewound
  (the sort is a decision procedure, the tally is the evidence).
* ``ranking()`` — current best-to-worst version ids; ``done`` — True once
  the scheduler has nothing more to learn.
* ``snapshot()`` / ``restore()`` — deterministic, JSON-serializable
  checkpointing; restoring a snapshot and continuing is bit-identical to
  never having stopped.

Implementations are registered in a factory keyed by
:attr:`~repro.core.config.CampaignConfig.scheduler` (``"full"``,
``"bubble"``, ``"insertion"``, ``"merge"``, ``"adaptive"``) so scheduling
is a config-driven axis like ``executor``, ``store`` and ``arrival``.

"Same" answers are treated as the comparison resolving in favour of keeping
the current order (a tie breaks nothing in a sort): every scheduler
preserves the input order of versions an all-"Same" participant cannot
distinguish.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.btmodel import PairwiseCounts
from repro.errors import ValidationError

ANSWER_LEFT = "left"
ANSWER_RIGHT = "right"
ANSWER_SAME = "same"

#: Participant id used by the single-participant driving pattern
#: (``next_pair()`` / ``report()`` without an explicit id).
DEFAULT_PARTICIPANT = ""

#: Registry keys, in the order the CLI presents them.
SCHEDULER_MODES = ("full", "bubble", "insertion", "merge", "adaptive")

#: The mode that reproduces the historical hardcoded-``all_pairs`` design.
SCHEDULER_FULL = "full"

def all_pairs(version_ids: Sequence[str]) -> List[Tuple[str, str]]:
    """Every unordered pair, in deterministic lexicographic-combination order."""
    ids = list(version_ids)
    if len(set(ids)) != len(ids):
        raise ValidationError("version ids must be unique")
    return list(combinations(ids, 2))


@dataclass(frozen=True)
class SchedulerConfig:
    """Frozen sub-options for the scheduler registry.

    The sort schedulers only consume ``seed`` (and ignore the rest); the
    adaptive scheduler consumes everything. ``None`` means "derive from N"
    where noted, so one config works across version counts.
    """

    #: Seed for the scheduler's own deterministic draws (the adaptive
    #: scheduler's bootstrap perturbations). Independent of the campaign RNG.
    seed: int = 0
    #: Comparison pairs served per participant session (adaptive); ``None``
    #: derives ``max(2, N - 1)`` — the sort schedulers' per-participant cost.
    session_pairs: Optional[int] = None
    #: Answers absorbed between Bradley-Terry refits (adaptive); ``None``
    #: derives ``max(2, N // 10)``.
    refit_every: Optional[int] = None
    #: Consecutive stable refits required before early-stopping.
    stability_rounds: int = 3
    #: Bootstrap-perturbed refits per stability check; every perturbed
    #: ranking must match for the round to count as stable.
    perturbations: int = 3
    #: Answers that must be absorbed before early stopping is allowed;
    #: ``None`` derives ``4 * N``.
    min_answers: Optional[int] = None
    #: Hard answer budget after which the scheduler reports ``done`` even
    #: without a stable ranking; ``None`` derives ``3 * C(N, 2)``.
    max_answers: Optional[int] = None
    #: Bradley-Terry pseudo-draw regularization for refits. Much smaller
    #: than the conclude-time default (0.1): the adaptive scheduler's
    #: evidence graph is deliberately sparse (one or two answers per
    #: boundary after seeding), and pseudo-draws of comparable weight to
    #: the real data swamp it — the fit must follow a 1-0 pair, not
    #: average it toward a coin flip.
    regularization: float = 0.001

    def __post_init__(self):
        if self.session_pairs is not None and self.session_pairs < 1:
            raise ValidationError("session_pairs must be >= 1")
        if self.refit_every is not None and self.refit_every < 1:
            raise ValidationError("refit_every must be >= 1")
        if self.stability_rounds < 1:
            raise ValidationError("stability_rounds must be >= 1")
        if self.perturbations < 0:
            raise ValidationError("perturbations must be >= 0")
        if self.min_answers is not None and self.min_answers < 0:
            raise ValidationError("min_answers must be >= 0")
        if self.max_answers is not None and self.max_answers < 1:
            raise ValidationError("max_answers must be >= 1")
        if self.regularization <= 0:
            raise ValidationError("regularization must be > 0")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "session_pairs": self.session_pairs,
            "refit_every": self.refit_every,
            "stability_rounds": self.stability_rounds,
            "perturbations": self.perturbations,
            "min_answers": self.min_answers,
            "max_answers": self.max_answers,
            "regularization": self.regularization,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SchedulerConfig":
        return cls(**payload)


def _mirror(answer: str) -> str:
    return {ANSWER_LEFT: ANSWER_RIGHT, ANSWER_RIGHT: ANSWER_LEFT,
            ANSWER_SAME: ANSWER_SAME}[answer]


class Scheduler:
    """Base class / protocol shared by every comparison scheduler.

    A scheduler is a *campaign-level* object: one instance may serve many
    participants (``next_pair(participant_id)`` tracks one outstanding pair
    per participant), though the sort schedulers are conventionally built
    one-per-participant — both usages are supported. Subclasses implement
    ``_advance``/``_absorb``/``ranking`` plus the snapshot state hooks.
    """

    #: Registry key (subclasses override).
    name = "?"
    #: True when one instance serves the whole campaign (cross-participant
    #: state); False when the campaign builds one instance per participant.
    shared = False

    def __init__(
        self,
        version_ids: Sequence[str],
        config: Optional[SchedulerConfig] = None,
    ):
        self.version_ids = list(version_ids)
        if len(self.version_ids) < 2:
            raise ValidationError("need at least 2 versions to schedule")
        if len(set(self.version_ids)) != len(self.version_ids):
            raise ValidationError("version ids must be unique")
        self.config = config if config is not None else SchedulerConfig()
        self.comparisons_used = 0
        #: Outstanding (served, unanswered) pair per participant.
        self._pending: Dict[str, Tuple[str, str]] = {}
        #: Append-only log of absorbed answers: (left, right, answer).
        self.history: List[Tuple[str, str, str]] = []
        #: Shared cross-participant evidence: win counts per ordered pair.
        self.tally = PairwiseCounts(list(self.version_ids))

    # -- serving -----------------------------------------------------------

    def next_pair(
        self, participant_id: str = DEFAULT_PARTICIPANT
    ) -> Optional[Tuple[str, str]]:
        """The next (left, right) pair for this participant, or None.

        Idempotent while a pair is outstanding: asking again re-serves the
        same pair without consuming budget. A participant who abandons
        without answering leaves their pair outstanding; the underlying
        comparison is still offered to the next participant who asks, so a
        mid-sort dropout never wedges a shared schedule.
        """
        pending = self._pending.get(participant_id)
        if pending is not None:
            return pending
        pair = self._advance(participant_id)
        if pair is not None:
            self._pending[participant_id] = pair
            self.comparisons_used += 1
        return pair

    def report(
        self, answer: str, participant_id: str = DEFAULT_PARTICIPANT
    ) -> None:
        """Answer the outstanding pair served to ``participant_id``."""
        pending = self._pending.get(participant_id)
        if pending is None:
            raise ValidationError("no pair outstanding")
        left, right = pending
        del self._pending[participant_id]
        self.absorb(left, right, answer)

    def release(self, participant_id: str = DEFAULT_PARTICIPANT) -> None:
        """Forget a participant's outstanding pair (dropout cleanup)."""
        self._pending.pop(participant_id, None)

    def pending(
        self, participant_id: str = DEFAULT_PARTICIPANT
    ) -> Optional[Tuple[str, str]]:
        """The pair outstanding for ``participant_id``, if any."""
        return self._pending.get(participant_id)

    # -- evidence ----------------------------------------------------------

    def absorb(
        self, left: str, right: str, answer: str, weight: float = 1.0
    ) -> None:
        """Fold one answer into the shared tally and the decision state.

        ``(left, right)`` may arrive in either orientation; the tally is
        orientation-free and the decision hook receives the answer oriented
        to the scheduler's own current comparison.
        """
        if answer not in (ANSWER_LEFT, ANSWER_RIGHT, ANSWER_SAME):
            raise ValidationError(f"answer must be left/right/same, got {answer!r}")
        if weight <= 0:
            raise ValidationError(f"weight must be > 0, got {weight}")
        self._apply_tally(left, right, answer, weight)
        self.history.append((left, right, answer))
        self._absorb(left, right, answer)

    def retract(
        self, left: str, right: str, answer: str, weight: float = 1.0
    ) -> None:
        """Exact inverse of :meth:`absorb` on the evidence tally.

        Used when an absorbed answer turns out not to count: the upload was
        lost, or quality control dropped the participant. Decision state
        already advanced by the answer is not rewound; subclasses refresh
        anything derived from the tally via ``_retract``.
        """
        if answer not in (ANSWER_LEFT, ANSWER_RIGHT, ANSWER_SAME):
            raise ValidationError(f"answer must be left/right/same, got {answer!r}")
        if weight <= 0:
            raise ValidationError(f"weight must be > 0, got {weight}")
        self._apply_tally(left, right, answer, -weight)
        self._retract(left, right, answer)

    def _apply_tally(
        self, left: str, right: str, answer: str, weight: float
    ) -> None:
        """Add (or, negative ``weight``, remove) one answer's win counts."""
        known = set(self.version_ids)
        if left not in known or right not in known:
            raise ValidationError(f"unknown version in ({left!r}, {right!r})")
        wins = self.tally.wins
        if answer == ANSWER_LEFT:
            deltas = [((left, right), weight)]
        elif answer == ANSWER_RIGHT:
            deltas = [((right, left), weight)]
        else:
            deltas = [((left, right), weight / 2.0), ((right, left), weight / 2.0)]
        for key, delta in deltas:
            value = wins.get(key, 0.0) + delta
            if value < 0:
                raise ValidationError(
                    f"retracting more weight than absorbed for {key}"
                )
            if value == 0.0:
                wins.pop(key, None)
            else:
                wins[key] = value

    # -- completion --------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once the scheduler will never serve another pair."""
        return self._exhausted()

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministic, JSON-serializable state for checkpoint/resume."""
        return {
            "scheduler": self.name,
            "version_ids": list(self.version_ids),
            "config": self.config.to_dict(),
            "comparisons_used": self.comparisons_used,
            "pending": {pid: list(pair) for pid, pair in sorted(self._pending.items())},
            "history": [list(item) for item in self.history],
            "tally": [
                [winner, loser, weight]
                for (winner, loser), weight in sorted(self.tally.wins.items())
            ],
            "state": self._snapshot_state(),
        }

    def restore(self, payload: dict) -> None:
        """Restore a :meth:`snapshot`; continuing is bit-identical to a run
        that never checkpointed."""
        if payload.get("scheduler") != self.name:
            raise ValidationError(
                f"snapshot is for scheduler {payload.get('scheduler')!r}, "
                f"not {self.name!r}"
            )
        if list(payload.get("version_ids", [])) != self.version_ids:
            raise ValidationError("snapshot version ids do not match")
        self.comparisons_used = int(payload["comparisons_used"])
        self._pending = {
            pid: (pair[0], pair[1]) for pid, pair in payload["pending"].items()
        }
        self.history = [tuple(item) for item in payload["history"]]
        self.tally = PairwiseCounts(list(self.version_ids))
        for winner, loser, weight in payload["tally"]:
            self.tally.wins[(winner, loser)] = float(weight)
        self._restore_state(payload["state"])

    # -- subclass hooks ----------------------------------------------------

    def _advance(self, participant_id: str) -> Optional[Tuple[str, str]]:
        raise NotImplementedError

    def _absorb(self, left: str, right: str, answer: str) -> None:
        raise NotImplementedError

    def _retract(self, left: str, right: str, answer: str) -> None:
        """Refresh tally-derived decision state after a retraction."""

    def _exhausted(self) -> bool:
        raise NotImplementedError

    def ranking(self) -> List[str]:
        raise NotImplementedError

    def _snapshot_state(self) -> dict:
        raise NotImplementedError

    def _restore_state(self, state: dict) -> None:
        raise NotImplementedError

    # -- sort helpers ------------------------------------------------------

    def _oriented(
        self,
        expected: Tuple[str, str],
        left: str,
        right: str,
        answer: str,
    ) -> Optional[str]:
        """``answer`` oriented to ``expected``, or None when the answered
        pair is not the scheduler's current comparison (stale answers from
        a dropped-then-reassigned pair fold into the tally only)."""
        if (left, right) == expected:
            return answer
        if (right, left) == expected:
            return _mirror(answer)
        return None


class FullPairScheduler(Scheduler):
    """Shows every C(N, 2) pair once; ranks by Copeland score (wins - losses).

    As a per-participant scheduler this is the paper's default full design.
    Shared across participants, the single queue is collectively consumed —
    one pass over the pairs split among the askers.
    """

    name = "full"

    def __init__(self, version_ids, config=None):
        super().__init__(version_ids, config)
        self._queue = all_pairs(self.version_ids)
        self._index = 0
        self._score: Dict[str, float] = {v: 0.0 for v in self.version_ids}

    def _advance(self, participant_id):
        if self._index >= len(self._queue):
            return None
        pair = self._queue[self._index]
        self._index += 1
        return pair

    def _absorb(self, left, right, answer):
        if answer == ANSWER_LEFT:
            self._score[left] += 1.0
            self._score[right] -= 1.0
        elif answer == ANSWER_RIGHT:
            self._score[right] += 1.0
            self._score[left] -= 1.0
        # 'same' moves nothing: a tie.

    def _retract(self, left, right, answer):
        if answer == ANSWER_LEFT:
            self._score[left] -= 1.0
            self._score[right] += 1.0
        elif answer == ANSWER_RIGHT:
            self._score[right] -= 1.0
            self._score[left] += 1.0

    def _exhausted(self):
        return self._index >= len(self._queue) and not self._pending

    def ranking(self):
        # Stable on the original order for equal scores.
        order = {v: i for i, v in enumerate(self.version_ids)}
        return sorted(self.version_ids, key=lambda v: (-self._score[v], order[v]))

    def _snapshot_state(self):
        return {
            "index": self._index,
            "score": {v: self._score[v] for v in self.version_ids},
        }

    def _restore_state(self, state):
        self._index = int(state["index"])
        self._score = {v: float(state["score"][v]) for v in self.version_ids}


class BubbleSortScheduler(Scheduler):
    """Bubble sort driven by participant answers.

    Adjacent versions are compared; "left is better" keeps order (the list
    is maintained best-first), "right is better" swaps. Passes repeat until
    a pass makes no swap — identical to textbook bubble sort, with the
    participant as the comparator.
    """

    name = "bubble"

    def __init__(self, version_ids, config=None):
        super().__init__(version_ids, config)
        self._order = list(self.version_ids)
        self._position = 0
        self._swapped_this_pass = False
        self._done = False
        # n-1 passes suffice for a consistent comparator; the cap also
        # guarantees termination for *inconsistent* human comparators, whose
        # swaps can otherwise cycle forever.
        self._passes_left = max(1, len(self._order) - 1)

    def _current_comparison(self) -> Optional[Tuple[str, str]]:
        if self._done:
            return None
        if self._position >= len(self._order) - 1:
            return None
        return (self._order[self._position], self._order[self._position + 1])

    def _advance(self, participant_id):
        if self._done:
            return None
        if self._position >= len(self._order) - 1:
            self._passes_left -= 1
            if not self._swapped_this_pass or self._passes_left <= 0:
                self._done = True
                return None
            self._position = 0
            self._swapped_this_pass = False
        return (self._order[self._position], self._order[self._position + 1])

    def _absorb(self, left, right, answer):
        expected = self._current_comparison()
        if expected is None:
            return
        oriented = self._oriented(expected, left, right, answer)
        if oriented is None:
            return
        if oriented == ANSWER_RIGHT:
            self._order[self._position], self._order[self._position + 1] = (
                self._order[self._position + 1],
                self._order[self._position],
            )
            self._swapped_this_pass = True
        self._position += 1

    def _exhausted(self):
        return self._done

    def ranking(self):
        return list(self._order)

    def _snapshot_state(self):
        return {
            "order": list(self._order),
            "position": self._position,
            "swapped": self._swapped_this_pass,
            "done": self._done,
            "passes_left": self._passes_left,
        }

    def _restore_state(self, state):
        self._order = list(state["order"])
        self._position = int(state["position"])
        self._swapped_this_pass = bool(state["swapped"])
        self._done = bool(state["done"])
        self._passes_left = int(state["passes_left"])


class InsertionSortScheduler(Scheduler):
    """Insertion sort: each new version is sifted into the sorted prefix.

    A "Same" answer stops the sift — the candidate sits directly below the
    element it tied with, so an all-"Same" participant preserves the input
    order exactly.
    """

    name = "insertion"

    def __init__(self, version_ids, config=None):
        super().__init__(version_ids, config)
        self._sorted: List[str] = [self.version_ids[0]]
        self._next_index = 1  # next version to insert
        self._probe: Optional[int] = None  # position being compared against

    def _advance(self, participant_id):
        if self._next_index >= len(self.version_ids):
            return None
        if self._probe is None:
            self._probe = len(self._sorted) - 1
        candidate = self.version_ids[self._next_index]
        return (self._sorted[self._probe], candidate)

    def _absorb(self, left, right, answer):
        if self._next_index >= len(self.version_ids) or self._probe is None:
            return
        candidate = self.version_ids[self._next_index]
        expected = (self._sorted[self._probe], candidate)
        oriented = self._oriented(expected, left, right, answer)
        if oriented is None:
            return
        if oriented == ANSWER_RIGHT:
            # Candidate beats the probed element: move up.
            if self._probe == 0:
                self._sorted.insert(0, candidate)
                self._next_index += 1
                self._probe = None
            else:
                self._probe -= 1
        else:
            # Probed element wins (or tie): candidate sits just below it.
            self._sorted.insert(self._probe + 1, candidate)
            self._next_index += 1
            self._probe = None

    def _exhausted(self):
        return self._next_index >= len(self.version_ids)

    def ranking(self):
        """Best-to-worst; mid-sort, not-yet-inserted versions are appended
        in input order so a dropout's partial ranking is still a complete
        permutation (the pre-redesign version silently omitted them)."""
        out = list(self._sorted)
        seen = set(out)
        out.extend(
            v for v in self.version_ids[self._next_index:] if v not in seen
        )
        return out

    def _snapshot_state(self):
        return {
            "sorted": list(self._sorted),
            "next_index": self._next_index,
            "probe": self._probe,
        }

    def _restore_state(self, state):
        self._sorted = list(state["sorted"])
        self._next_index = int(state["next_index"])
        self._probe = None if state["probe"] is None else int(state["probe"])


class MergeSortScheduler(Scheduler):
    """Merge sort: O(N log N) comparisons, the fewest of the sorts.

    Runs are merged *adjacent-pairwise, level by level* — the classic
    bottom-up schedule. The pre-redesign version popped two runs off the
    front of a queue and appended the merge to the back, which interleaves
    merge levels and scrambles the order of versions an all-"Same"
    participant never distinguished; level-order merging keeps ties stable
    on the input order.
    """

    name = "merge"

    def __init__(self, version_ids, config=None):
        super().__init__(version_ids, config)
        self._runs: List[List[str]] = [[v] for v in self.version_ids]
        self._next_level: List[List[str]] = []
        self._left_run: Optional[List[str]] = None
        self._right_run: Optional[List[str]] = None
        self._merged: List[str] = []

    def _start_merge_if_needed(self) -> None:
        if self._left_run is not None:
            return
        if len(self._runs) < 2:
            # Level finished (a lone leftover run carries over unmerged).
            if self._next_level:
                self._next_level.extend(self._runs)
                self._runs = self._next_level
                self._next_level = []
            if len(self._runs) < 2:
                return
        self._left_run = self._runs.pop(0)
        self._right_run = self._runs.pop(0)
        self._merged = []

    def _advance(self, participant_id):
        self._start_merge_if_needed()
        if self._left_run is None:
            return None
        assert self._right_run is not None
        if not self._left_run or not self._right_run:
            self._finish_merge()
            return self._advance(participant_id)
        return (self._left_run[0], self._right_run[0])

    def _absorb(self, left, right, answer):
        if self._left_run is None or self._right_run is None:
            return
        if not self._left_run or not self._right_run:
            return
        expected = (self._left_run[0], self._right_run[0])
        oriented = self._oriented(expected, left, right, answer)
        if oriented is None:
            return
        if oriented == ANSWER_RIGHT:
            self._merged.append(self._right_run.pop(0))
        else:
            self._merged.append(self._left_run.pop(0))
        if not self._left_run or not self._right_run:
            self._finish_merge()

    def _finish_merge(self) -> None:
        assert self._left_run is not None and self._right_run is not None
        self._merged.extend(self._left_run)
        self._merged.extend(self._right_run)
        self._next_level.append(self._merged)
        self._left_run = None
        self._right_run = None
        self._merged = []

    def _exhausted(self):
        return (
            self._left_run is None
            and not self._next_level
            and len(self._runs) <= 1
        )

    def ranking(self):
        if not self._exhausted():
            # Ranking of an unfinished sort: best-effort concatenation.
            partial: List[str] = []
            if self._left_run is not None:
                partial.extend(self._merged + self._left_run + (self._right_run or []))
            for run in self._runs:
                partial.extend(run)
            for run in self._next_level:
                partial.extend(run)
            seen = set()
            return [v for v in partial if not (v in seen or seen.add(v))]
        return list(self._runs[0]) if self._runs else list(self.version_ids)

    def _snapshot_state(self):
        return {
            "runs": [list(run) for run in self._runs],
            "next_level": [list(run) for run in self._next_level],
            "left": None if self._left_run is None else list(self._left_run),
            "right": None if self._right_run is None else list(self._right_run),
            "merged": list(self._merged),
        }

    def _restore_state(self, state):
        self._runs = [list(run) for run in state["runs"]]
        self._next_level = [list(run) for run in state["next_level"]]
        self._left_run = None if state["left"] is None else list(state["left"])
        self._right_run = None if state["right"] is None else list(state["right"])
        self._merged = list(state["merged"])


# -- registry ----------------------------------------------------------------

_REGISTRY: Dict[str, type] = {
    "full": FullPairScheduler,
    "bubble": BubbleSortScheduler,
    "insertion": InsertionSortScheduler,
    "merge": MergeSortScheduler,
}


def scheduler_class(name: str) -> type:
    """The registered implementation for ``name`` (importing lazily for the
    adaptive scheduler, which lives in its own module)."""
    if name == "adaptive":
        from repro.core.adaptive import AdaptiveScheduler

        return AdaptiveScheduler
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown scheduler {name!r}; valid modes: {', '.join(SCHEDULER_MODES)}"
        ) from None


def make_scheduler(
    name: str,
    version_ids: Sequence[str],
    config: Optional[SchedulerConfig] = None,
    metrics=None,
) -> Scheduler:
    """Build a scheduler by registry key.

    ``metrics`` is forwarded to implementations that export observability
    counters (the adaptive scheduler's ``btmodel.*``); the sorts ignore it.
    """
    cls = scheduler_class(name)
    if getattr(cls, "wants_metrics", False):
        return cls(version_ids, config, metrics=metrics)
    return cls(version_ids, config)


def scheduler_from_snapshot(payload: dict, metrics=None) -> Scheduler:
    """Rebuild a scheduler from a :meth:`Scheduler.snapshot` payload."""
    name = payload.get("scheduler")
    config = SchedulerConfig.from_dict(payload["config"])
    scheduler = make_scheduler(
        name, payload["version_ids"], config, metrics=metrics
    )
    scheduler.restore(payload)
    return scheduler


def drive_scheduler(scheduler: Scheduler, comparator) -> List[str]:
    """Run a scheduler to completion with ``comparator(left, right) -> answer``.

    Returns the final ranking. This is the loop the browser extension runs,
    factored out for direct use by tests and the scheduling ablation bench.
    """
    while True:
        pair = scheduler.next_pair()
        if pair is None:
            break
        scheduler.report(comparator(*pair))
    return scheduler.ranking()

