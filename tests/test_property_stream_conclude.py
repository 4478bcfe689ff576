"""Concluding from the answer codes recorded at upload equals the batch
pipeline on the same uploads, hostile answers included."""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import analyze_responses
from repro.core.btmodel import counts_from_results
from repro.core.extension import Answer, ParticipantResult
from repro.core.quality import QualityConfig, QualityControl
from repro.crowd.behavior import BehaviorTrace
from repro.store import StreamingCampaignState

QUESTIONS = ["q1", "q2"]
VERSIONS = ["a", "b", "c"]
PAIRS = [("a", "b"), ("a", "c"), ("b", "c")]
EXPECTED_ANSWERS = 4

# Known pages, one unknown page; the test's versions, one outside it and
# the contrast control; the test's questions and one it never asked. The
# repeated entries weight the draws so that uploads share (page, question)
# cells and mostly pass the individual screen: majority drops need both.
pages = st.sampled_from(["p0", "p0", "p1", "p1", "p2", "unknown-page"])
versions = st.sampled_from(VERSIONS + ["zz", "__contrast__"])
questions = st.sampled_from(["q1", "q1", "q1", "q2", "q-unasked"])
answer_values = st.sampled_from(["left", "left", "right", "same"])
traces = st.builds(
    BehaviorTrace,
    st.sampled_from([0.01, 0.5, 0.9, 0.9, 0.9, 3.0]),
    st.sampled_from([0, 0, 1, 6]),
    st.sampled_from([1, 2, 3, 11]),
)


@st.composite
def answers(draw):
    left, right = draw(versions), draw(versions)
    is_control = draw(st.booleans()) if draw(st.integers(0, 4)) == 0 else False
    return Answer(
        draw(pages), draw(questions), draw(answer_values), left, right,
        is_control, draw(traces),
    )


@st.composite
def uploads(draw):
    count = draw(st.integers(0, 12))
    results = []
    for index in range(count):
        abandoned = draw(st.integers(0, 7)) == 0
        if results and draw(st.integers(0, 2)) == 0:
            # Another upload's answers: two uploads with one code sequence.
            given_answers = list(draw(st.sampled_from(results)).answers)
        else:
            given_answers = draw(st.lists(answers(), min_size=0, max_size=9))
        results.append(ParticipantResult(
            "t", f"w{index}", {}, given_answers,
            abandoned=abandoned,
            abandon_reason="dropout" if abandoned else "",
        ))
    return results


configs = st.builds(
    QualityConfig, st.booleans(), st.booleans(), st.booleans(), st.booleans()
)


def drops(report):
    return [(d.worker_id, d.reason, d.detail) for d in report.dropped]


def ingested(results, config):
    state = StreamingCampaignState(
        "t", QUESTIONS, VERSIONS, PAIRS, EXPECTED_ANSWERS, quality=config
    )
    for result in results:
        state.ingest(result)
    return state


@given(uploads(), configs)
@settings(max_examples=200, deadline=None)
def test_conclude_equals_the_batch_pipeline(results, config):
    state = ingested(results, config)
    data = state.conclude()
    batch = QualityControl(config).apply(results, EXPECTED_ANSWERS)
    assert data.report.kept_ids == batch.kept_ids
    assert drops(data.report) == drops(batch)
    for folded, reference in (
        (data.raw_analysis, analyze_responses(results, QUESTIONS, VERSIONS, PAIRS)),
        (data.controlled_analysis, analyze_responses(batch.kept, QUESTIONS, VERSIONS, PAIRS)),
    ):
        assert folded.tallies == reference.tallies
        assert folded.participants == reference.participants
        for question_id in QUESTIONS:
            assert folded.rankings[question_id].matrix == reference.rankings[question_id].matrix
    for question_id in QUESTIONS:
        expected = counts_from_results(batch.kept, question_id, VERSIONS)
        # Equal wins in the same insertion order.
        assert list(data.controlled_bt[question_id].wins.items()) == list(
            expected.wins.items()
        )
    assert data.uploaded == len(results)
    assert data.abandoned == sum(r.abandoned for r in results)
    assert data.complete == sum(
        not r.abandoned and len(r.answers) >= EXPECTED_ANSWERS for r in results
    )


def test_ingest_holds_no_tracked_object_per_upload():
    """2000 ingests, a quarter of them dropped at upload, add a bounded
    number of objects the garbage collector tracks: a surviving upload is
    an id and codes in flat arrays, a dropped one three strings."""
    good = BehaviorTrace(0.9, 0, 3)
    rushed = BehaviorTrace(0.01, 0, 3)

    def upload(index):
        trace = rushed if index % 4 == 0 else good
        pair = ("a", "b") if index % 2 else ("b", "a")
        return ParticipantResult("t", f"w{index}", {}, [
            Answer(f"p{index % 3}", question_id, ("left", "right", "same")[index % 3],
                   *pair, False, trace)
            for question_id in QUESTIONS
        ] + [Answer("control", "q1", "same", "a", "a", True, trace)] * 2)

    state = StreamingCampaignState("t", QUESTIONS, VERSIONS, PAIRS, 2)
    for index in range(100):
        state.ingest(upload(index))
    results = [upload(index) for index in range(100, 2100)]
    gc.collect()
    before = len(gc.get_objects())
    for result in results:
        state.ingest(result)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert state.ingested == 2100
    assert len(state.screen.dropped_ids) == 525
    assert added <= 20
