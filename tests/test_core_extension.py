"""Tests for the browser-extension participant flow."""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extension import (
    ANSWER_VALUES,
    Answer,
    BrowserExtension,
    ParticipantResult,
    make_uplt_judge,
    make_utility_judge,
)
from repro.core.integrated import (
    CONTROL_CONTRAST,
    CONTROL_IDENTICAL,
    IntegratedWebpage,
)
from repro.core.parameters import Question
from repro.crowd.behavior import BehaviorTrace
from repro.crowd.judgment import ThurstoneChoiceModel, UPLTPerceptionModel
from repro.errors import ExtensionError
from repro.util.jsonutil import dumps_canonical

from tests.conftest import make_worker

QUESTIONS = [Question("q1", "Which is better?"), Question("q2", "Which is faster?")]


def make_pages():
    return [
        IntegratedWebpage("p0", "t", "a", "b", "t/integrated/p0.html"),
        IntegratedWebpage(
            "ctrl", "t", "a", "a", "t/integrated/ctrl.html", CONTROL_IDENTICAL, "same"
        ),
    ]


def always_left(worker, question, left, right, rng):
    return "left"


class TestFlow:
    def test_answers_every_question_on_every_page(self, rng):
        extension = BrowserExtension(make_worker(), always_left, rng=rng)
        result = extension.run_test("t", QUESTIONS, make_pages())
        assert len(result.answers) == 4  # 2 pages x 2 questions
        assert result.worker_id == "w-test"
        assert result.test_id == "t"

    def test_demographics_attached(self, rng):
        extension = BrowserExtension(make_worker(), always_left, rng=rng)
        result = extension.run_test("t", QUESTIONS, make_pages())
        assert result.demographics["country"] == "US"

    def test_one_trace_per_page_shared_across_questions(self, rng):
        extension = BrowserExtension(make_worker(), always_left, rng=rng)
        result = extension.run_test("t", QUESTIONS, make_pages())
        page_answers = [a for a in result.answers if a.integrated_id == "p0"]
        assert page_answers[0].behavior == page_answers[1].behavior

    def test_total_minutes_accumulates(self, rng):
        extension = BrowserExtension(make_worker(), always_left, rng=rng)
        result = extension.run_test("t", QUESTIONS, make_pages())
        assert result.total_minutes > 0

    def test_no_questions_rejected(self, rng):
        extension = BrowserExtension(make_worker(), always_left, rng=rng)
        with pytest.raises(ExtensionError):
            extension.run_test("t", [], make_pages())

    def test_no_pages_rejected(self, rng):
        extension = BrowserExtension(make_worker(), always_left, rng=rng)
        with pytest.raises(ExtensionError):
            extension.run_test("t", QUESTIONS, [])

    def test_invalid_judge_answer_rejected(self, rng):
        extension = BrowserExtension(
            make_worker(), lambda *a: "banana", rng=rng
        )
        with pytest.raises(ExtensionError):
            extension.run_test("t", QUESTIONS, make_pages())


class TestControls:
    def test_identical_control_bypasses_judge(self, rng):
        # Judge always says left, but an attentive worker answers Same on
        # the identical pair because the control model takes over.
        extension = BrowserExtension(make_worker(attention=1.0), always_left, rng=rng)
        result = extension.run_test("t", QUESTIONS, make_pages())
        control_answers = {a.answer for a in result.answers if a.is_control}
        assert "same" in control_answers

    def test_contrast_control_expected_answer(self, rng):
        pages = [
            IntegratedWebpage(
                "c2", "t", "__contrast__", "a", "p", CONTROL_CONTRAST, "right"
            )
        ]
        extension = BrowserExtension(make_worker(attention=1.0), always_left, rng=rng)
        result = extension.run_test("t", QUESTIONS[:1], pages)
        assert result.answers[0].answer == "right"


class TestDownload:
    def test_download_called_per_page(self, rng):
        fetched = []

        def download(path):
            fetched.append(path)
            return "<html></html>"

        extension = BrowserExtension(make_worker(), always_left, rng=rng, download=download)
        extension.run_test("t", QUESTIONS, make_pages())
        assert fetched == ["t/integrated/p0.html", "t/integrated/ctrl.html"]

    def test_failed_download_raises(self, rng):
        extension = BrowserExtension(
            make_worker(), always_left, rng=rng, download=lambda p: ""
        )
        with pytest.raises(ExtensionError):
            extension.run_test("t", QUESTIONS, make_pages())


class TestRoundTrip:
    def test_participant_result_round_trip(self, rng):
        extension = BrowserExtension(make_worker(), always_left, rng=rng)
        result = extension.run_test("t", QUESTIONS, make_pages())
        restored = ParticipantResult.from_dict(result.as_dict())
        assert restored.worker_id == result.worker_id
        assert len(restored.answers) == len(result.answers)
        assert restored.answers[0] == result.answers[0]

    def test_answers_for_question_filters_controls(self, rng):
        extension = BrowserExtension(make_worker(), always_left, rng=rng)
        result = extension.run_test("t", QUESTIONS, make_pages())
        without = result.answers_for("q1")
        with_controls = result.answers_for("q1", include_controls=True)
        assert len(without) == 1
        assert len(with_controls) == 2


class TestJudgeFactories:
    def test_utility_judge(self, rng):
        judge = make_utility_judge(
            {"a": 1.0, "b": 0.0}, ThurstoneChoiceModel()
        )
        worker = make_worker(judgment_sigma=0.0)
        assert judge(worker, QUESTIONS[0], "a", "b", rng) == "left"
        assert judge(worker, QUESTIONS[0], "b", "a", rng) == "right"

    def test_uplt_judge(self, rng):
        judge = make_uplt_judge(
            {
                "fast": {"main": 100, "auxiliary": 100},
                "slow": {"main": 9000, "auxiliary": 9000},
            },
            UPLTPerceptionModel(perception_noise_ms=1.0),
        )
        worker = make_worker(attention=1.0)
        assert judge(worker, QUESTIONS[0], "fast", "slow", rng) == "left"


class TestAnswerRecord:
    def test_round_trip(self):
        answer = Answer(
            integrated_id="i",
            question_id="q",
            answer="same",
            left_version="a",
            right_version="b",
            is_control=False,
            behavior=BehaviorTrace(0.5, 1, 3),
        )
        assert Answer.from_dict(answer.as_dict()) == answer

    @pytest.mark.parametrize(
        "field_name",
        ["answer", "integrated_id", "question_id", "left_version", "right_version"],
    )
    @pytest.mark.parametrize("value", [1, None, ["left"], {"left": 1}])
    def test_non_string_field_raises_value_error(self, field_name, value):
        data = fixed_result().answers[0].as_dict()
        data[field_name] = value
        with pytest.raises(ValueError):
            Answer.from_dict(data)


class TestParsedStringsAreShared:
    """Every upload repeats the same ids, versions and answer values; a
    parsed upload holds one shared string object per value, not a private
    copy decoded from its own JSON."""

    def test_two_uploads_share_their_strings(self):
        first = ParticipantResult.from_dict(json.loads(FIXED_WIRE))
        second = ParticipantResult.from_dict(json.loads(FIXED_WIRE))
        assert first.test_id is second.test_id
        for a, b in zip(first.answers, second.answers):
            for field_name in (
                "integrated_id", "question_id", "answer", "left_version", "right_version",
            ):
                assert getattr(a, field_name) is getattr(b, field_name), field_name
        # The stored row a server builds from the parse shares them too.
        assert first.as_dict()["answers"][0]["left_version"] is second.answers[0].left_version

    def test_answers_are_the_answer_constants(self):
        answers = ParticipantResult.from_dict(json.loads(FIXED_WIRE)).answers
        left, same = "left", "same"  # the literals, as code compares them
        assert answers[0].answer is left
        assert answers[1].answer is same
        decoded = json.loads('{"a": "right"}')["a"]
        data = {**fixed_result().answers[0].as_dict(), "answer": decoded}
        assert Answer.from_dict(data).answer is ANSWER_VALUES[1]


def fixed_result():
    """One upload built positionally, so a change of field order shows."""
    return ParticipantResult(
        test_id="t",
        worker_id="w7",
        demographics={"country": "US", "tech_ability": 4},
        answers=[
            Answer(
                "t-pair-000", "q1", "left", "10pt", "12pt", False,
                BehaviorTrace(0.8125, 1, 4),
            ),
            Answer(
                "t-ctrl", "q1", "same", "12pt", "12pt", True,
                BehaviorTrace(0.25, 0, 2),
            ),
        ],
        total_minutes=1.0625,
        revisits=2,
        abandoned=True,
        abandon_reason="dropout",
    )


#: ``fixed_result()`` on the wire, as the frozen-dataclass types encoded it.
FIXED_WIRE = (
    '{"abandon_reason":"dropout","abandoned":true,"answers":['
    '{"answer":"left","behavior":{"active_tab_switches":4,"created_tabs":1,'
    '"duration_minutes":0.8125},"integrated_id":"t-pair-000","is_control":false,'
    '"left_version":"10pt","question_id":"q1","right_version":"12pt"},'
    '{"answer":"same","behavior":{"active_tab_switches":2,"created_tabs":0,'
    '"duration_minutes":0.25},"integrated_id":"t-ctrl","is_control":true,'
    '"left_version":"12pt","question_id":"q1","right_version":"12pt"}],'
    '"demographics":{"country":"US","tech_ability":4},"revisits":2,'
    '"test_id":"t","total_minutes":1.0625,"worker_id":"w7"}'
)

names = st.text(max_size=8)
minutes = st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=0, max_value=50)
traces = st.builds(BehaviorTrace, minutes, counts, counts)
answers = st.builds(
    Answer, names, names, st.sampled_from(["left", "right", "same"]),
    names, names, st.booleans(), traces,
)


@st.composite
def participant_results(draw):
    abandoned = draw(st.booleans())
    return ParticipantResult(
        test_id=draw(names),
        worker_id=draw(names),
        demographics=draw(
            st.dictionaries(names, st.one_of(names, st.integers()), max_size=4)
        ),
        answers=draw(st.lists(answers, max_size=6)),
        total_minutes=draw(minutes),
        revisits=draw(counts),
        abandoned=abandoned,
        abandon_reason=draw(names) if abandoned else "",
    )


class TestValueTypes:
    """``Answer`` and ``BehaviorTrace`` are immutable, slot-free values whose
    wire format is the one the stored responses already use."""

    @given(participant_results())
    @settings(max_examples=150, deadline=None)
    def test_wire_round_trip(self, result):
        wire = dumps_canonical(result.as_dict())
        restored = ParticipantResult.from_dict(json.loads(wire))
        assert restored == result
        assert dumps_canonical(restored.as_dict()) == wire

    def test_canonical_encoding_is_pinned(self):
        assert dumps_canonical(fixed_result().as_dict()) == FIXED_WIRE
        restored = ParticipantResult.from_dict(json.loads(FIXED_WIRE))
        assert restored == fixed_result()

    @pytest.mark.parametrize(
        "value, field_name",
        [
            pytest.param(value, name, id=f"{type(value).__name__}.{name}")
            for value in (fixed_result().answers[0], BehaviorTrace(0.5, 1, 2))
            for name in type(value)._fields
        ],
    )
    def test_fields_cannot_be_assigned(self, value, field_name):
        before = getattr(value, field_name)
        with pytest.raises(AttributeError):
            setattr(value, field_name, before)
        assert getattr(value, field_name) is before

    @pytest.mark.parametrize(
        "value", [fixed_result().answers[1], BehaviorTrace(0.5, 1, 2)],
        ids=["answer", "trace"],
    )
    def test_hashable_and_picklable(self, value):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(value, protocol))
            assert type(copy) is type(value)
            assert copy == value and hash(copy) == hash(value)
        assert len({value, pickle.loads(pickle.dumps(value))}) == 1

    @pytest.mark.parametrize(
        "value", [fixed_result().answers[0], BehaviorTrace(0.5, 1, 2)],
        ids=["answer", "trace"],
    )
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.extra = 1
