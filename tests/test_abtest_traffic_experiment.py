"""Tests for traffic simulation and the A/B experiment."""

import pytest

from repro.abtest.experiment import ABExperiment
from repro.abtest.traffic import SiteTrafficModel
from repro.errors import ValidationError
from repro.sim.clock import SimulationEnvironment


def make_traffic(visitors_per_day=8.3):
    env = SimulationEnvironment()
    return SiteTrafficModel(env, visitors_per_day=visitors_per_day)


class TestTraffic:
    def test_reaches_requested_count(self):
        traffic = make_traffic()
        visits = traffic.run_until_visitors(50, seed=1)
        assert len(visits) == 50

    def test_low_traffic_site_takes_about_12_days(self):
        traffic = make_traffic(8.3)
        traffic.run_until_visitors(100, seed=1)
        assert 8 < traffic.duration_days < 18  # paper: 12 days

    def test_higher_traffic_faster(self):
        slow = make_traffic(8.3)
        slow.run_until_visitors(100, seed=2)
        fast = make_traffic(100)
        fast.run_until_visitors(100, seed=2)
        assert fast.duration_days < slow.duration_days / 5

    def test_max_days_bound(self):
        traffic = make_traffic(0.5)
        traffic.run_until_visitors(10_000, seed=4, max_days=3)
        assert traffic.duration_days <= 4

    def test_visitor_ids_unique(self):
        traffic = make_traffic()
        visits = traffic.run_until_visitors(25, seed=5)
        assert len({v.visitor_id for v in visits}) == 25

    def test_invalid_rate_rejected(self):
        env = SimulationEnvironment()
        with pytest.raises(ValidationError):
            SiteTrafficModel(env, visitors_per_day=0)

    def test_invalid_count_rejected(self):
        with pytest.raises(ValidationError):
            make_traffic().run_until_visitors(0)


class TestABExperiment:
    def test_splits_roughly_evenly(self):
        experiment = ABExperiment(make_traffic(), 0.06, 0.12)
        result = experiment.run(visitors=200, seed=1)
        assert 70 < result.arm_a.visits < 130
        assert result.arm_a.visits + result.arm_b.visits == 200

    def test_click_rates_tracked(self):
        experiment = ABExperiment(make_traffic(50), 0.0, 1.0)
        result = experiment.run(visitors=100, seed=2)
        assert result.arm_a.clicks == 0
        assert result.arm_b.clicks == result.arm_b.visits

    def test_paper_shape_inconclusive_at_100(self):
        experiment = ABExperiment(make_traffic(), 0.059, 0.122)
        result = experiment.run(visitors=100, seed=3)
        assert result.winner == "inconclusive"
        assert result.test.p_value > 0.05

    def test_conclusive_with_big_effect(self):
        experiment = ABExperiment(make_traffic(100), 0.05, 0.60)
        result = experiment.run(visitors=200, seed=4)
        assert result.winner == "B"

    def test_duration_recorded(self):
        experiment = ABExperiment(make_traffic(), 0.06, 0.12)
        result = experiment.run(visitors=50, seed=5)
        assert result.duration_days > 1

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValidationError):
            ABExperiment(make_traffic(), -0.1, 0.5)

    def test_result_requires_both_arms(self):
        experiment = ABExperiment(make_traffic(), 0.1, 0.1)
        experiment.assignments["v1"] = "A"
        with pytest.raises(ValidationError):
            experiment.result()
