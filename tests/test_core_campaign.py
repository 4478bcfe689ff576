"""Tests for end-to-end campaign orchestration."""

import pytest

from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.core.quality import QualityConfig
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.crowd.workers import IN_LAB_MIX, generate_population
from repro.errors import CampaignError
from repro.html.parser import parse_html


def make_documents():
    return {
        p: parse_html(f"<html><body><div id='m'><p>{p} content text</p></div></body></html>")
        for p in ("a", "b")
    }


def make_params(participants=12):
    return TestParameters(
        test_id="campaign-test",
        test_description="campaign test",
        participant_num=participants,
        question=[Question("q1", "Which looks better?")],
        webpages=[
            WebpageSpec(web_path="a", web_page_load=1000),
            WebpageSpec(web_path="b", web_page_load=1000),
        ],
    )


def make_judge():
    return make_utility_judge(
        {"a": 0.0, "b": 0.6, "__contrast__": -5.0}, ThurstoneChoiceModel()
    )


class TestLifecycle:
    def test_run_before_prepare_rejected(self):
        campaign = Campaign(seed=1)
        with pytest.raises(CampaignError):
            campaign.run(make_judge())

    def test_full_run_collects_everyone(self):
        campaign = Campaign(seed=2)
        campaign.prepare(make_params(), make_documents())
        result = campaign.run(make_judge(), reward_usd=0.1)
        assert result.participants == 12
        assert result.duration_days > 0
        assert result.total_cost_usd == pytest.approx(1.2)

    def test_conclude_without_responses_rejected(self):
        campaign = Campaign(seed=3)
        campaign.prepare(make_params(), make_documents())
        with pytest.raises(CampaignError):
            campaign.conclude(job=None, duration_days=0)

    def test_b_wins_with_utility_gap(self):
        campaign = Campaign(seed=4)
        campaign.prepare(make_params(participants=30), make_documents())
        result = campaign.run(make_judge())
        tally = result.raw_analysis.tallies[("q1", "a", "b")]
        assert tally.right_count > tally.left_count

    def test_quality_report_produced(self):
        campaign = Campaign(seed=5)
        campaign.prepare(make_params(participants=25), make_documents())
        result = campaign.run(make_judge())
        assert len(result.controlled_results) <= result.participants
        assert result.controlled_analysis.participants == len(result.controlled_results)

    def test_responses_travel_through_server(self):
        campaign = Campaign(seed=6)
        campaign.prepare(make_params(participants=5), make_documents())
        campaign.run(make_judge())
        # Every upload hit the /responses route over the simulated network.
        uploads = [r for r in campaign.network.log if r.path == "/responses"]
        assert len(uploads) == 5
        downloads = [r for r in campaign.network.log if r.path.startswith("/resources/")]
        assert len(downloads) >= 5  # each participant downloads pages

    def test_each_participant_sees_control_pair(self):
        campaign = Campaign(seed=7)
        campaign.prepare(make_params(participants=6), make_documents())
        result = campaign.run(make_judge())
        for participant in result.raw_results:
            assert any(a.is_control for a in participant.answers)

    def test_custom_quality_config_respected(self):
        config = QualityConfig(
            enable_engagement=False,
            enable_control_questions=False,
            enable_majority_vote=False,
        )
        campaign = Campaign(seed=8, config=CampaignConfig(quality=config))
        campaign.prepare(make_params(participants=10), make_documents())
        result = campaign.run(make_judge())
        # Only hard rules: everyone complete, so everyone kept.
        assert len(result.controlled_results) == 10


class TestFixedRoster:
    def test_run_with_workers(self):
        campaign = Campaign(seed=9)
        campaign.prepare(make_params(), make_documents())
        workers = generate_population(8, IN_LAB_MIX, seed=1, id_prefix="lab")
        result = campaign.run_with_workers(workers, make_judge(), in_lab=True)
        assert result.participants == 8
        assert result.job is None
        assert result.total_cost_usd == 0.0

    def test_in_lab_durations_capped(self):
        campaign = Campaign(seed=10)
        campaign.prepare(make_params(), make_documents())
        workers = generate_population(10, IN_LAB_MIX, seed=2, id_prefix="lab")
        result = campaign.run_with_workers(workers, make_judge(), in_lab=True)
        for participant in result.raw_results:
            for answer in participant.answers:
                assert answer.behavior.duration_minutes <= 2.0


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        def run(seed):
            campaign = Campaign(seed=seed)
            campaign.prepare(make_params(participants=8), make_documents())
            result = campaign.run(make_judge())
            tally = result.raw_analysis.tallies[("q1", "a", "b")]
            return (tally.left_count, tally.same_count, tally.right_count, result.duration_days)

        assert run(42) == run(42)

    def test_different_seed_differs(self):
        def run(seed):
            campaign = Campaign(seed=seed)
            campaign.prepare(make_params(participants=8), make_documents())
            result = campaign.run(make_judge())
            return result.duration_days

        assert run(1) != run(2)
