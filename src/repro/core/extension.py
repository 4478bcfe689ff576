"""The browser extension: the participant client (§III-D, Figure 3).

The extension walks one participant through the test flow:

1. collect test id / contributor id and coarse demographics;
2. download each integrated webpage from the core server and open it in a
   new tab;
3. after the participant views the pair, require an answer to every
   comparison question before the next integrated webpage (a hard rule);
4. record behaviour (time on the comparison, tabs created, active-tab
   switches) for the engagement-based quality control;
5. upload everything to the core server at the end.

Judgment itself is delegated to an injected ``judge`` callable — the
experiment harness wires the appropriate psychometric model (readability,
uPLT, ...) per question — while control pairs are answered through the
shared control-pair models, since their outcome depends only on worker
attentiveness, not on the stimulus dimension under test.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.integrated import (
    CONTROL_CONTRAST,
    CONTROL_IDENTICAL,
    IntegratedWebpage,
)
from repro.core.parameters import Question
from repro.crowd.behavior import (
    BehaviorTrace,
    dropout_probability,
    is_minutes,
    sample_behavior,
)
from repro.crowd.judgment import judge_contrast_pair, judge_identical_pair
from repro.crowd.workers import WorkerProfile
from repro.errors import ExtensionError, NetworkError, ParticipantAbandoned
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER
from repro.util.rng import coerce_rng

# judge(worker, question, left_version, right_version, rng) -> 'left'|'right'|'same'
JudgeFunction = Callable[..., str]

#: Every value a comparison answer may take.
ANSWER_VALUES = ("left", "right", "same")

#: Each answer value to its :data:`ANSWER_VALUES` constant: a parsed answer
#: is that one string object, not a fresh copy per upload.
_ANSWER_CONSTANTS = {value: value for value in ANSWER_VALUES}

_new_tuple = tuple.__new__
_intern = sys.intern


class Answer(NamedTuple):
    """One (integrated webpage, question) response with its behaviour trace.

    A named tuple, like :class:`BehaviorTrace` and for the same reason:
    immutable, hashable, picklable, without an instance ``__dict__``, and
    cheap to build for the server's upload parse and the conclude parse.
    Its wire form is :meth:`as_dict`.
    """

    integrated_id: str
    question_id: str
    answer: str
    left_version: str
    right_version: str
    is_control: bool
    behavior: BehaviorTrace

    def as_dict(self) -> dict:
        return {
            "integrated_id": self.integrated_id,
            "question_id": self.question_id,
            "answer": self.answer,
            "left_version": self.left_version,
            "right_version": self.right_version,
            "is_control": self.is_control,
            "behavior": self.behavior.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Answer":
        """Parse one answer; an answer value outside :data:`ANSWER_VALUES`,
        an id or version that is not a string, a non-boolean ``is_control``
        or a malformed behaviour trace raises ``ValueError`` (the server
        rejects that upload with a 400).

        Every upload repeats the same few ids, versions and answer values,
        so the parsed answer shares one string object per value: the ids
        and versions are interned and the answer is its
        :data:`ANSWER_VALUES` constant.
        """
        answer = data["answer"]
        constant = _ANSWER_CONSTANTS.get(answer) if type(answer) is str else None
        if constant is None:
            raise ValueError(f"answer must be one of {ANSWER_VALUES}, got {answer!r}")
        is_control = data["is_control"]
        if is_control is not True and is_control is not False:
            raise ValueError(f"is_control must be a boolean, got {is_control!r}")
        integrated_id, question_id = data["integrated_id"], data["question_id"]
        left_version, right_version = data["left_version"], data["right_version"]
        try:  # sys.intern takes exact strings only
            integrated_id = _intern(integrated_id)
            question_id = _intern(question_id)
            left_version = _intern(left_version)
            right_version = _intern(right_version)
        except TypeError:
            raise ValueError(
                "integrated_id, question_id, left_version and right_version "
                f"must be strings, got {integrated_id!r}, {question_id!r}, "
                f"{left_version!r}, {right_version!r}"
            ) from None
        return _new_tuple(
            cls,
            (
                integrated_id,
                question_id,
                constant,
                left_version,
                right_version,
                is_control,
                BehaviorTrace.from_dict(data["behavior"]),
            ),
        )


@dataclass
class ParticipantResult:
    """Everything one participant uploads at the end of a test.

    ``abandoned`` marks a partial upload from a participant who walked away
    mid-test (dropout, exhausted retries, open circuit); the keys are only
    serialized when set, so complete uploads are byte-identical to the
    pre-resilience wire format.
    """

    test_id: str
    worker_id: str
    demographics: dict
    answers: List[Answer] = field(default_factory=list)
    total_minutes: float = 0.0
    revisits: int = 0
    abandoned: bool = False
    abandon_reason: str = ""

    def as_dict(self) -> dict:
        payload = {
            "test_id": self.test_id,
            "worker_id": self.worker_id,
            "demographics": self.demographics,
            "answers": [a.as_dict() for a in self.answers],
            "total_minutes": self.total_minutes,
            "revisits": self.revisits,
        }
        if self.abandoned:
            payload["abandoned"] = True
            payload["abandon_reason"] = self.abandon_reason
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "ParticipantResult":
        """Parse one upload; a ``test_id`` or ``worker_id`` that is not a
        string, a malformed answer, a ``total_minutes`` that is not a
        finite JSON number >= 0, a ``revisits`` that is not an ``int`` >= 0,
        an ``abandoned`` that is not a JSON boolean or an ``abandon_reason``
        that is not a string raises ``ValueError`` (the server rejects that
        upload with a 400). Types are checked, never converted. The
        ``test_id`` every upload repeats is interned, like the answers'
        ids."""
        test_id, worker_id = data["test_id"], data["worker_id"]
        if type(test_id) is not str or type(worker_id) is not str:
            raise ValueError(
                f"test_id and worker_id must be strings, got {test_id!r}, {worker_id!r}"
            )
        total_minutes = data.get("total_minutes", 0.0)
        if not is_minutes(total_minutes):
            raise ValueError(
                f"total_minutes must be a finite number >= 0, got {total_minutes!r}"
            )
        revisits = data.get("revisits", 0)
        if type(revisits) is not int or revisits < 0:
            raise ValueError(f"revisits must be an int >= 0, got {revisits!r}")
        abandoned = data.get("abandoned", False)
        if abandoned is not True and abandoned is not False:
            raise ValueError(f"abandoned must be a boolean, got {abandoned!r}")
        abandon_reason = data.get("abandon_reason", "")
        if type(abandon_reason) is not str:
            raise ValueError(
                f"abandon_reason must be a string, got {abandon_reason!r}"
            )
        return cls(
            test_id=_intern(test_id),
            worker_id=worker_id,
            demographics=dict(data["demographics"]),
            answers=[Answer.from_dict(a) for a in data["answers"]],
            total_minutes=float(total_minutes),
            revisits=revisits,
            abandoned=abandoned,
            abandon_reason=abandon_reason,
        )

    def answers_for(self, question_id: str, include_controls: bool = False) -> List[Answer]:
        """This participant's answers to one question."""
        return [
            a
            for a in self.answers
            if a.question_id == question_id and (include_controls or not a.is_control)
        ]


class BrowserExtension:
    """Simulates one participant's pass through the Figure 3 flow."""

    def __init__(
        self,
        worker: WorkerProfile,
        judge: JudgeFunction,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
        in_lab: bool = False,
        download=None,
        artifacts=None,
        schedule_lookup=None,
        dropout_rate: float = 0.0,
        tracer=None,
        trace_clock=None,
        metrics=None,
    ):
        """``download(storage_path) -> html`` fetches an integrated page from
        the core server; None skips the network (judgment-only simulation).

        ``artifacts`` is an optional
        :class:`~repro.render.artifacts.PageArtifactCache`: when present,
        every downloaded page is parsed/laid-out/replayed through it — the
        participant genuinely "views" the page, but identical pages are
        rendered once per campaign rather than once per participant.
        ``schedule_lookup(storage_path)`` resolves a version page's injected
        replay schedule for the reveal-time computation.

        ``dropout_rate`` (the campaign passes its config's) is the base
        per-page probability the participant walks away mid-test (scaled by
        worker type and attention); 0 (the default) draws nothing from the
        RNG, keeping the historical stream.

        ``tracer`` / ``trace_clock`` / ``metrics`` are the campaign's
        observability hooks: page spans and answer events are recorded
        against the participant's own virtual clock, and each page's viewing
        time is added to ``trace_clock``.
        """
        self.worker = worker
        self.judge = judge
        self.rng = coerce_rng(rng, seed)
        self.in_lab = in_lab
        self.download = download
        self.artifacts = artifacts
        self.schedule_lookup = schedule_lookup
        self.dropout_rate = float(dropout_rate)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.trace_clock = trace_clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Precomputed so the per-page/per-answer hot path pays one attribute
        # check, not a no-op call chain, when the campaign is unobserved.
        self._observed = bool(getattr(self.tracer, "enabled", False))
        # storage_path -> PageArtifacts for every page this participant viewed.
        self.viewed = {}

    def run_test(
        self,
        test_id: str,
        questions: Sequence[Question],
        integrated_pages: Sequence[IntegratedWebpage],
    ) -> ParticipantResult:
        """Perform the whole test: every integrated page, every question."""
        if not questions:
            raise ExtensionError("a test needs at least one comparison question")
        if not integrated_pages:
            raise ExtensionError("a test needs at least one integrated webpage")
        result = ParticipantResult(
            test_id=test_id,
            worker_id=self.worker.worker_id,
            demographics=self.worker.demographics.as_dict(),
        )
        for index, page in enumerate(integrated_pages):
            self._maybe_drop_out(index, result)
            self._visit_page(page, questions, result)
        return result

    def run_adaptive_test(
        self,
        test_id: str,
        question: Question,
        scheduler,
        pages_by_pair: Dict[frozenset, IntegratedWebpage],
        control_pages: Sequence[IntegratedWebpage] = (),
    ) -> ParticipantResult:
        """Perform a sorting-driven test (§III-D's comparison reduction).

        Valid only for single-question tests: the ``scheduler`` (any
        :mod:`repro.core.scheduling` scheduler over the version ids) picks
        each next pair from the participant's own previous answers, so only
        the integrated pages the sort needs are downloaded and shown.
        ``pages_by_pair`` maps ``frozenset({left, right})`` to the stored
        integrated page; when the stored orientation is mirrored relative
        to the scheduler's request, the answer is mirrored back.

        The scheduler is addressed by worker id, so one shared
        campaign-level scheduler can serve many participants.
        """
        result = ParticipantResult(
            test_id=test_id,
            worker_id=self.worker.worker_id,
            demographics=self.worker.demographics.as_dict(),
        )
        for control in control_pages:
            self._visit_page(control, [question], result)
        pages_seen = len(control_pages)
        while True:
            pair = scheduler.next_pair(self.worker.worker_id)
            if pair is None:
                break
            self._maybe_drop_out(pages_seen, result)
            pages_seen += 1
            want_left, want_right = pair
            page = pages_by_pair.get(frozenset(pair))
            if page is None:
                raise ExtensionError(f"no integrated page for pair {pair!r}")
            before = len(result.answers)
            self._visit_page(page, [question], result)
            answer = result.answers[before].answer
            if (page.left_version, page.right_version) == (want_right, want_left):
                answer = {"left": "right", "right": "left", "same": "same"}[answer]
            scheduler.report(answer, self.worker.worker_id)
        return result

    # -- one integrated webpage ----------------------------------------------

    def _visit_page(
        self,
        page: IntegratedWebpage,
        questions: Sequence[Question],
        result: ParticipantResult,
    ) -> None:
        with self.tracer.span(
            "page", category="page", integrated_id=page.integrated_id,
            control=page.is_control,
        ):
            if self.download is not None:
                try:
                    html = self.download(page.storage_path)
                except NetworkError as exc:
                    # Retries (if any) are already exhausted inside the client:
                    # the participant gives up, keeping whatever they answered.
                    raise ParticipantAbandoned(
                        f"participant {self.worker.worker_id} lost page "
                        f"{page.integrated_id!r}: {exc}",
                        result=result,
                        reason=f"network:{type(exc).__name__}",
                    )
                if not html:
                    raise ParticipantAbandoned(
                        f"could not download integrated page {page.integrated_id!r}",
                        result=result,
                        reason="download-failed",
                    )
                if self.artifacts is not None:
                    self.viewed[page.storage_path] = self.artifacts.get_or_build(
                        page.storage_path,
                        html,
                        fetch=self._fetch_resource,
                        schedule_lookup=self.schedule_lookup,
                    )
            trace = sample_behavior(self.worker, rng=self.rng, in_lab=self.in_lab)
            # Participants "can revisit as many times as one wants"; distracted
            # workers revisit more.
            revisits = int(self.rng.poisson(0.15 + 0.6 * (1.0 - self.worker.attention)))
            result.revisits += revisits
            for question in questions:
                answer = self._answer(page, question)
                result.answers.append(
                    Answer(
                        integrated_id=page.integrated_id,
                        question_id=question.question_id,
                        answer=answer,
                        left_version=page.left_version,
                        right_version=page.right_version,
                        is_control=page.is_control,
                        behavior=trace,
                    )
                )
                if self._observed:
                    self.tracer.event(
                        "answer", question_id=question.question_id, answer=answer
                    )
            result.total_minutes += trace.duration_minutes
            if self._observed:
                self.metrics.observe("page.view_minutes", trace.duration_minutes)
            if self.trace_clock is not None:
                # Viewing time happens on the participant's private timeline;
                # the page span (and everything after it) ends after it.
                self.trace_clock.advance(trace.duration_minutes * 60.0)

    def _maybe_drop_out(self, pages_seen: int, result: ParticipantResult) -> None:
        """Seeded dropout: before each page after the first, the participant
        may walk away. No RNG draw happens when dropout is disabled."""
        if self.dropout_rate <= 0.0 or pages_seen == 0:
            return
        probability = dropout_probability(self.worker, self.dropout_rate)
        if self.rng.random() < probability:
            self.tracer.event("dropout", pages_seen=pages_seen)
            raise ParticipantAbandoned(
                f"participant {self.worker.worker_id} dropped out after "
                f"{pages_seen} page(s)",
                result=result,
                reason="dropout",
            )

    def _fetch_resource(self, storage_path: str) -> str:
        """Resolve an iframe ``src`` (a storage path) through the download
        channel; used by the artifact cache to pull version pages on a miss."""
        if self.download is None:
            return ""
        return self.download(storage_path)

    def _answer(self, page: IntegratedWebpage, question: Question) -> str:
        if page.control_kind == CONTROL_IDENTICAL:
            return judge_identical_pair(self.worker, rng=self.rng)
        if page.control_kind == CONTROL_CONTRAST:
            return judge_contrast_pair(self.worker, page.expected_answer, rng=self.rng)
        answer = self.judge(
            self.worker, question, page.left_version, page.right_version, self.rng
        )
        if answer not in ANSWER_VALUES:
            raise ExtensionError(
                f"judge returned {answer!r}; must be left/right/same"
            )
        return answer


class UtilityJudge:
    """A judge for style questions: versions carry latent utilities and a
    :class:`~repro.crowd.judgment.ThurstoneChoiceModel` decides.

    Implemented as a callable class (not a closure) so the judge is
    picklable — the process-pool fan-out ships it to worker processes.
    """

    def __init__(
        self, utilities: Dict[str, float], choice_model, side_by_side: bool = True
    ):
        self.utilities = dict(utilities)
        self.choice_model = choice_model
        self.side_by_side = side_by_side

    def __call__(self, worker, question, left_version, right_version, rng) -> str:
        return self.choice_model.choose(
            self.utilities[left_version],
            self.utilities[right_version],
            worker,
            rng=rng,
            side_by_side=self.side_by_side,
        )


class UPLTJudge:
    """A judge for "ready to use first" questions: versions carry
    ``{'main': ms, 'auxiliary': ms}`` reveal times and a
    :class:`~repro.crowd.judgment.UPLTPerceptionModel` decides.

    Picklable for the same reason as :class:`UtilityJudge`.
    """

    def __init__(self, region_times: Dict[str, Dict[str, float]], perception_model):
        self.region_times = {k: dict(v) for k, v in region_times.items()}
        self.perception_model = perception_model

    def __call__(self, worker, question, left_version, right_version, rng) -> str:
        return self.perception_model.choose_faster(
            self.region_times[left_version],
            self.region_times[right_version],
            worker,
            rng=rng,
        )


def make_utility_judge(
    utilities: Dict[str, float], choice_model, side_by_side: bool = True
) -> JudgeFunction:
    """A picklable utility-based judge (see :class:`UtilityJudge`)."""
    return UtilityJudge(utilities, choice_model, side_by_side=side_by_side)


def make_uplt_judge(
    region_times: Dict[str, Dict[str, float]], perception_model
) -> JudgeFunction:
    """A picklable uPLT judge (see :class:`UPLTJudge`)."""
    return UPLTJudge(region_times, perception_model)
