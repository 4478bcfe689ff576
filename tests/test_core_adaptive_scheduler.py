"""Tests for the shared adaptive Bradley-Terry scheduler (ISSUE 10).

Covers the AdaptiveScheduler itself (early stopping, budget stop,
bit-identical checkpoint/resume, retraction), the flip-risk scoring
helper, the scheduler registry surface, the server's ``/schedule``
routes, and campaign-level determinism of the roster pipeline across
executors and crash-resume.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import (
    STOP_BUDGET,
    STOP_STABLE,
    AdaptiveScheduler,
    EarlyStoppedConclusion,
    _flip_risk,
)
from repro.core.aggregator import Aggregator
from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.core.scheduling import (
    MergeSortScheduler,
    SchedulerConfig,
    make_scheduler,
    scheduler_from_snapshot,
)
from repro.core.server import CoreServer
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.crowd.platform import CrowdPlatform
from repro.crowd.workers import FIGURE_EIGHT_TRUSTWORTHY_MIX, generate_population
from repro.errors import ValidationError
from repro.html.parser import parse_html
from repro.net.simnet import SimulatedNetwork
from repro.sim.clock import SimulationEnvironment
from repro.storage.documentstore import DocumentStore
from repro.storage.filestore import FileStore

VERSIONS = [f"v{i:02d}" for i in range(12)]
#: Ground truth: reversed id order, so the identity ranking is maximally
#: wrong and the scheduler has to earn every position.
TRUTH = list(reversed(VERSIONS))
RANK = {v: i for i, v in enumerate(TRUTH)}


def perfect_answer(left, right):
    return "left" if RANK[left] < RANK[right] else "right"


def drive(scheduler, answer_fn=perfect_answer, limit=3000):
    """Drive a shared scheduler to completion with rotating participants."""
    participant = 0
    while not scheduler.done and len(scheduler.history) < limit:
        pair = scheduler.next_pair(f"w{participant}")
        if pair is None:
            if scheduler.done:
                break
            participant += 1
            continue
        scheduler.report(answer_fn(*pair), f"w{participant}")
    return scheduler


class TestFlipRisk:
    def test_unanimous_pairs_never_flip(self):
        assert _flip_risk(5.0, 0.0) == 0.0
        assert _flip_risk(0.0, 3.0) == 0.0
        assert _flip_risk(0.0, 0.0) == 0.0

    def test_even_split_is_a_coin_flip(self):
        # Binomial(2, 1/2): flip 25%, tie 50% (counted half), keep 25%.
        assert _flip_risk(1.0, 1.0) == pytest.approx(0.5)

    def test_three_to_one(self):
        # Binomial(4, 3/4): P(0)+P(1) flip, P(2) tie at half weight.
        expected = 0.25**4 + 4 * 0.75 * 0.25**3 + 0.5 * 6 * 0.75**2 * 0.25**2
        assert _flip_risk(3.0, 1.0) == pytest.approx(expected)

    def test_symmetric_in_direction(self):
        assert _flip_risk(5.0, 2.0) == pytest.approx(_flip_risk(2.0, 5.0))

    def test_decays_with_margin(self):
        risks = [_flip_risk(w, 1.0) for w in (2.0, 4.0, 8.0, 16.0)]
        assert risks == sorted(risks, reverse=True)
        assert risks[-1] < 0.01


class TestAdaptiveScheduler:
    def test_recovers_ranking_and_stops_stable(self):
        scheduler = drive(AdaptiveScheduler(VERSIONS, SchedulerConfig(seed=7)))
        assert scheduler.done
        assert scheduler.stop_reason == STOP_STABLE
        assert scheduler.ranking() == TRUTH

    def test_uses_fewer_answers_than_budget(self):
        scheduler = drive(AdaptiveScheduler(VERSIONS, SchedulerConfig(seed=7)))
        full = len(VERSIONS) * (len(VERSIONS) - 1) // 2
        assert len(scheduler.history) < 3 * full

    def test_conclusion_is_structured(self):
        scheduler = drive(AdaptiveScheduler(VERSIONS, SchedulerConfig(seed=7)))
        conclusion = scheduler.conclusion()
        assert conclusion.stable
        assert conclusion.ranking == TRUTH
        assert conclusion.answers_used == len(scheduler.history)
        assert conclusion.refits > 0
        assert set(conclusion.scores) == set(VERSIONS)
        assert "stable" in conclusion.summary()
        assert TRUTH[0] in conclusion.summary()

    def test_no_conclusion_before_stopping(self):
        scheduler = AdaptiveScheduler(VERSIONS, SchedulerConfig(seed=7))
        assert scheduler.conclusion() is None
        assert scheduler.stop_reason is None

    def test_conclusion_roundtrips_through_json(self):
        scheduler = drive(AdaptiveScheduler(VERSIONS, SchedulerConfig(seed=7)))
        conclusion = scheduler.conclusion()
        payload = json.loads(json.dumps(conclusion.to_dict()))
        assert EarlyStoppedConclusion.from_dict(payload) == conclusion

    def test_budget_stop_on_contradictory_judge(self):
        config = SchedulerConfig(seed=7, max_answers=25)
        flipper = {"flip": False}

        def coin(left, right):
            flipper["flip"] = not flipper["flip"]
            return "left" if flipper["flip"] else "right"

        scheduler = drive(AdaptiveScheduler(VERSIONS, config), coin)
        assert scheduler.done
        assert scheduler.stop_reason == STOP_BUDGET
        assert scheduler.conclusion().reason == STOP_BUDGET
        assert len(scheduler.history) == 25

    def test_serving_is_deterministic(self):
        streams = []
        for _ in range(2):
            scheduler = AdaptiveScheduler(VERSIONS, SchedulerConfig(seed=7))
            served = []
            participant = 0
            while not scheduler.done and len(served) < 150:
                pair = scheduler.next_pair(f"w{participant}")
                if pair is None:
                    participant += 1
                    continue
                served.append(pair)
                scheduler.report(perfect_answer(*pair), f"w{participant}")
            streams.append(served)
        assert streams[0] == streams[1]

    def test_pending_and_release(self):
        scheduler = AdaptiveScheduler(VERSIONS, SchedulerConfig(seed=7))
        pair = scheduler.next_pair("w0")
        assert scheduler.pending("w0") == pair
        assert scheduler.next_pair("w0") == pair  # idempotent re-serve
        scheduler.release("w0")
        assert scheduler.pending("w0") is None
        # The abandoned comparison is re-offered to the next participant.
        assert scheduler.next_pair("w1") == pair

    def test_session_budget_moves_to_next_participant(self):
        config = SchedulerConfig(seed=7, session_pairs=3)
        scheduler = AdaptiveScheduler(VERSIONS, config)
        for _ in range(3):
            scheduler.report(perfect_answer(*scheduler.next_pair("w0")), "w0")
        assert scheduler.next_pair("w0") is None
        assert scheduler.next_pair("w1") is not None

    def test_retraction_is_exact_tally_inverse(self):
        scheduler = AdaptiveScheduler(VERSIONS, SchedulerConfig(seed=7))
        for _ in range(10):
            scheduler.report(perfect_answer(*scheduler.next_pair("w0")), "w0")
        before = dict(scheduler.tally.wins)
        bad = [("v00", "v01", "left"), ("v02", "v03", "same")]
        for left, right, answer in bad:
            scheduler.absorb(left, right, answer)
        for left, right, answer in bad:
            scheduler.retract(left, right, answer)
        assert scheduler.tally.wins == before

    def test_recovers_after_retracting_a_poisoned_session(self):
        scheduler = AdaptiveScheduler(VERSIONS, SchedulerConfig(seed=7))
        poisoned = []
        for _ in range(11):
            pair = scheduler.next_pair("bad")
            answer = perfect_answer(pair[1], pair[0])  # always inverted
            mirrored = {"left": "right", "right": "left"}[answer]
            scheduler.report(mirrored, "bad")
            poisoned.append((pair[0], pair[1], mirrored))
        for left, right, answer in poisoned:
            scheduler.retract(left, right, answer)
        drive(scheduler)
        assert scheduler.stop_reason == STOP_STABLE
        assert scheduler.ranking() == TRUTH

    def test_checkpoint_resume_is_bit_identical(self):
        original = AdaptiveScheduler(VERSIONS, SchedulerConfig(seed=7))
        participant = 0
        for _ in range(40):
            pair = original.next_pair(f"w{participant}")
            if pair is None:
                participant += 1
                continue
            original.report(perfect_answer(*pair), f"w{participant}")
        # Snapshot through JSON: what a checkpoint file would hold.
        payload = json.loads(json.dumps(original.snapshot()))
        restored = scheduler_from_snapshot(payload)
        assert isinstance(restored, AdaptiveScheduler)
        # Lockstep to completion: identical serves, answers, verdicts.
        while not original.done or not restored.done:
            pair_a = original.next_pair(f"w{participant}")
            pair_b = restored.next_pair(f"w{participant}")
            assert pair_a == pair_b
            if pair_a is None:
                if original.done:
                    break
                participant += 1
                continue
            answer = perfect_answer(*pair_a)
            original.report(answer, f"w{participant}")
            restored.report(answer, f"w{participant}")
        assert original.conclusion() == restored.conclusion()
        assert original.snapshot() == restored.snapshot()

    def test_boundary_guard_requires_two_agreeing_answers(self):
        scheduler = AdaptiveScheduler(["a", "b", "c"], SchedulerConfig(seed=7))
        ranking = ["a", "b", "c"]
        # One answer per boundary: not certifiable (bootstrap-blind).
        scheduler.tally.wins[("a", "b")] = 1.0
        scheduler.tally.wins[("b", "c")] = 1.0
        assert not scheduler._boundaries_certified(ranking)
        # Two agreeing answers per boundary: certifiable.
        scheduler.tally.wins[("a", "b")] = 2.0
        scheduler.tally.wins[("b", "c")] = 2.0
        assert scheduler._boundaries_certified(ranking)
        # Net contradiction on a boundary: not certifiable.
        scheduler.tally.wins[("c", "b")] = 3.0
        assert not scheduler._boundaries_certified(ranking)
        # A dead heat (true "Same" pair) passes: order is arbitrary.
        scheduler.tally.wins[("c", "b")] = 2.0
        assert scheduler._boundaries_certified(ranking)


class TestSchedulerRegistry:
    def test_make_scheduler_builds_adaptive(self):
        scheduler = make_scheduler("adaptive", VERSIONS, SchedulerConfig(seed=3))
        assert isinstance(scheduler, AdaptiveScheduler)
        assert scheduler.config.seed == 3
        assert scheduler.shared

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            make_scheduler("quantum", VERSIONS)

    def test_snapshot_restores_class_and_config(self):
        scheduler = make_scheduler(
            "adaptive", VERSIONS, SchedulerConfig(seed=3, session_pairs=5)
        )
        restored = scheduler_from_snapshot(scheduler.snapshot())
        assert isinstance(restored, AdaptiveScheduler)
        assert restored.config == scheduler.config
        assert restored.version_ids == scheduler.version_ids


class TestCampaignConfigScheduler:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValidationError):
            CampaignConfig(scheduler="quantum")

    def test_scheduled_campaigns_construct_on_streaming(self):
        config = CampaignConfig(scheduler="adaptive", store="sharded-streaming")
        assert config.streaming and config.scheduler == "adaptive"

    def test_scheduler_config_serializes(self):
        config = CampaignConfig(
            scheduler="adaptive",
            scheduler_config=SchedulerConfig(seed=9, session_pairs=4),
        )
        payload = json.loads(json.dumps(config.to_dict()))
        assert payload["scheduler"] == "adaptive"
        restored = SchedulerConfig.from_dict(payload["scheduler_config"])
        assert restored == config.scheduler_config


@pytest.fixture
def schedule_stack():
    """A core server on a simulated network, plus a prepared test."""
    database, storage = DocumentStore(), FileStore()
    aggregator = Aggregator(database, storage)
    params = TestParameters(
        test_id="sched-test",
        test_description="schedule route test",
        participant_num=3,
        question=[Question("q1", "Which?")],
        webpages=[
            WebpageSpec(web_path=p, web_page_load=1000) for p in ("a", "b", "c")
        ],
    )
    documents = {
        p: parse_html(f"<html><body><p>{p}</p></body></html>")
        for p in ("a", "b", "c")
    }
    aggregator.prepare(params, documents)
    env = SimulationEnvironment()
    server = CoreServer(database, storage, platform=CrowdPlatform(env, seed=0))
    network = SimulatedNetwork(env)
    network.attach(server.http)
    return server, network


class TestServerScheduleRoutes:
    def test_routes_503_until_scheduler_attached(self, schedule_stack):
        server, network = schedule_stack
        assert network.get(server.url("/schedule/next/w1")).status == 503
        assert network.get(server.url("/schedule/state")).status == 503
        response = network.post_json(
            server.url("/schedule/answers"), {"worker_id": "w1", "answer": "left"}
        )
        assert response.status == 503

    def test_serve_answer_state_flow(self, schedule_stack):
        server, network = schedule_stack
        server.attach_scheduler(MergeSortScheduler(["a", "b", "c"]))
        response = network.get(server.url("/schedule/next/w1"))
        assert response.ok
        pair = response.json()["pair"]
        assert sorted(pair) == sorted(set(pair))
        # Re-asking re-serves the same outstanding pair.
        assert network.get(server.url("/schedule/next/w1")).json()["pair"] == pair
        posted = network.post_json(
            server.url("/schedule/answers"), {"worker_id": "w1", "answer": "left"}
        )
        assert posted.status == 201
        state = network.get(server.url("/schedule/state")).json()
        assert state["scheduler"] == "merge"
        assert state["answers"] == 1
        assert sorted(state["ranking"]) == ["a", "b", "c"]

    def test_schedule_completion_reports_done(self, schedule_stack):
        server, network = schedule_stack
        server.attach_scheduler(MergeSortScheduler(["a", "b"]))
        network.get(server.url("/schedule/next/w1"))
        network.post_json(
            server.url("/schedule/answers"), {"worker_id": "w1", "answer": "left"}
        )
        response = network.get(server.url("/schedule/next/w1"))
        assert response.json() == {"pair": None, "done": True}

    def test_answer_without_served_pair_rejected(self, schedule_stack):
        server, network = schedule_stack
        server.attach_scheduler(MergeSortScheduler(["a", "b", "c"]))
        response = network.post_json(
            server.url("/schedule/answers"), {"worker_id": "w9", "answer": "left"}
        )
        assert response.status == 400

    def test_malformed_answer_payload_rejected(self, schedule_stack):
        server, network = schedule_stack
        server.attach_scheduler(MergeSortScheduler(["a", "b", "c"]))
        assert (
            network.post_json(server.url("/schedule/answers"), {"answer": "left"})
        ).status == 400
        network.get(server.url("/schedule/next/w1"))
        assert (
            network.post_json(
                server.url("/schedule/answers"),
                {"worker_id": "w1", "answer": "maybe"},
            )
        ).status == 400


def _adaptive_campaign(executor, parallelism=1, scheduler="adaptive"):
    campaign = Campaign(
        config=CampaignConfig(
            seed=11,
            scheduler=scheduler,
            executor=executor,
            parallelism=parallelism,
        )
    )
    pages = ("p0", "p1", "p2")
    spec = TestParameters(
        test_id="adaptive-exec",
        test_description="executor determinism",
        participant_num=6,
        question=[Question("q1", "Which looks better?")],
        webpages=[WebpageSpec(web_path=p, web_page_load=1000) for p in pages],
    )
    documents = {
        p: parse_html(f"<html><body><p>{p} body</p></body></html>") for p in pages
    }
    campaign.prepare(spec, documents)
    return campaign


def _roster_digest(result):
    """Conclusion, early stop, checkpoint (rows, losses, scheduler state),
    quality decisions and controlled tallies of one concluded run."""
    payload = result.to_dict()
    payload["kept"] = sorted(r.worker_id for r in result.quality_report.kept)
    payload["tallies"] = repr(sorted(result.controlled_analysis.tallies.items()))
    return json.dumps(payload, sort_keys=True, default=str)


def _crash_and_resume(scheduler, roster, judge, crash_at=3):
    """Kill a serial run at upload ``crash_at``, then finish it on a fresh
    campaign from nothing but the crashed one's checkpoint."""
    crashed = _adaptive_campaign("serial", scheduler=scheduler)
    uploads = []

    def crash(campaign):
        uploads.append(campaign)
        if len(uploads) == crash_at:
            raise RuntimeError("simulated worker crash")

    crashed.checkpoint_hook = crash
    with pytest.raises(RuntimeError, match="simulated worker crash"):
        crashed.run_with_workers(roster, judge)
    checkpoint = crashed.resume_state()
    assert len(checkpoint["rows"]) == crash_at
    fresh = _adaptive_campaign("serial", scheduler=scheduler)
    return fresh.run_with_workers(roster, judge, resume_from=checkpoint)


class TestCampaignAdaptiveDeterminism:
    def test_serial_and_process_conclusions_identical(self):
        """Per scheduler mode, a process pool and a crash-resume each equal
        the uninterrupted serial run."""
        roster = generate_population(6, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=11)
        judge = make_utility_judge(
            {"p0": 1.5, "p1": 0.2, "p2": -1.0, "__contrast__": -5.0},
            ThurstoneChoiceModel(),
        )
        for scheduler in ("full", "merge", "adaptive"):
            reference = _roster_digest(
                _adaptive_campaign("serial", scheduler=scheduler)
                .run_with_workers(roster, judge)
            )
            pooled = _adaptive_campaign(
                "process", 4, scheduler=scheduler
            ).run_with_workers(roster, judge)
            assert _roster_digest(pooled) == reference, scheduler
            resumed = _crash_and_resume(scheduler, roster, judge)
            assert _roster_digest(resumed) == reference, scheduler

    def test_result_serializes_early_stop(self):
        roster = generate_population(6, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=11)
        judge = make_utility_judge(
            {"p0": 1.5, "p1": 0.2, "p2": -1.0, "__contrast__": -5.0},
            ThurstoneChoiceModel(),
        )
        result = _adaptive_campaign("serial").run_with_workers(roster, judge)
        payload = json.loads(json.dumps(result.to_dict(), default=str))
        assert payload["early_stop"] is not None
        assert payload["early_stop"]["reason"] in ("stable", "budget")


answers = st.lists(
    st.tuples(
        st.sampled_from(VERSIONS[:5]),
        st.sampled_from(VERSIONS[:5]),
        st.sampled_from(["left", "right", "same"]),
    ).filter(lambda t: t[0] != t[1]),
    min_size=1,
    max_size=12,
)


class TestTallyProperties:
    @given(answers)
    @settings(max_examples=40, deadline=None)
    def test_absorb_then_retract_restores_tally(self, stream):
        scheduler = AdaptiveScheduler(VERSIONS[:5], SchedulerConfig(seed=1))
        for left, right, answer in stream:
            scheduler.absorb(left, right, answer)
        for left, right, answer in reversed(stream):
            scheduler.retract(left, right, answer)
        assert scheduler.tally.wins == {}

    @given(answers)
    @settings(max_examples=40, deadline=None)
    def test_tally_is_order_independent(self, stream):
        forward = AdaptiveScheduler(VERSIONS[:5], SchedulerConfig(seed=1))
        backward = AdaptiveScheduler(VERSIONS[:5], SchedulerConfig(seed=1))
        for left, right, answer in stream:
            forward.absorb(left, right, answer)
        for left, right, answer in reversed(stream):
            backward.absorb(left, right, answer)
        assert forward.tally.wins == backward.tally.wins
