"""Tests for behaviour-trace generation."""

import numpy as np

from repro.crowd.behavior import BehaviorTrace, sample_behavior
from repro.crowd.workers import WorkerType

from tests.conftest import make_worker


def mean_duration(worker, n=300, in_lab=False, seed=0):
    rng = np.random.default_rng(seed)
    return sum(
        sample_behavior(worker, rng=rng, in_lab=in_lab).duration_minutes for _ in range(n)
    ) / n


class TestDistributions:
    def test_spammers_faster_than_trustworthy(self):
        spammer = make_worker(worker_type=WorkerType.SPAMMER, speed_factor=0.3)
        trustworthy = make_worker(speed_factor=1.0)
        assert mean_duration(spammer) < mean_duration(trustworthy) / 3

    def test_distracted_slower_than_trustworthy(self):
        distracted = make_worker(
            worker_type=WorkerType.DISTRACTED, attention=0.5, speed_factor=1.5
        )
        assert mean_duration(distracted) > mean_duration(make_worker())

    def test_duration_caps_respected(self):
        rng = np.random.default_rng(1)
        distracted = make_worker(worker_type=WorkerType.DISTRACTED, speed_factor=3.0)
        for _ in range(300):
            trace = sample_behavior(distracted, rng=rng)
            assert trace.duration_minutes <= 3.4

    def test_in_lab_tighter(self):
        distracted = make_worker(worker_type=WorkerType.DISTRACTED, speed_factor=2.0)
        rng = np.random.default_rng(2)
        lab_max = max(
            sample_behavior(distracted, rng=rng, in_lab=True).duration_minutes
            for _ in range(300)
        )
        assert lab_max <= 2.0

    def test_distracted_more_tab_churn(self):
        rng = np.random.default_rng(3)
        distracted = make_worker(worker_type=WorkerType.DISTRACTED)
        trustworthy = make_worker()
        d_tabs = sum(sample_behavior(distracted, rng=rng).created_tabs for _ in range(300))
        t_tabs = sum(sample_behavior(trustworthy, rng=rng).created_tabs for _ in range(300))
        assert d_tabs > t_tabs * 1.5

    def test_active_tabs_at_least_two(self, rng):
        trace = sample_behavior(make_worker(), rng=rng)
        assert trace.active_tab_switches >= 2

    def test_minimum_duration(self, rng):
        spammer = make_worker(worker_type=WorkerType.SPAMMER, speed_factor=0.01)
        assert sample_behavior(spammer, rng=rng).duration_minutes >= 0.03


class TestRoundTrip:
    def test_dict_round_trip(self):
        trace = BehaviorTrace(1.25, 2, 5)
        assert BehaviorTrace.from_dict(trace.as_dict()) == trace
