"""Property-based tests for the overload control plane.

The determinism contract the whole plane rests on: an admission verdict is
a pure function of ``(seed, virtual time, request token)``. No call order,
no executor mode, no redelivery may perturb it. Hypothesis drives that
contract harder than the example tests can — arbitrary offsets, arbitrary
configs, shuffled request orders — and also checks the token-bucket
recurrence invariants (bounded backlog, conservation, drain).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.arrivals import ARRIVAL_MODES, arrival_offsets
from repro.net.http import Request
from repro.net.overload import (
    STATE_NORMAL,
    WINDOW_SECONDS,
    AdmissionController,
    LoadSignal,
    OverloadConfig,
    RateLimiter,
    stable_uniform,
)

seeds = st.integers(0, 2**31 - 1)
tokens = st.text(min_size=1, max_size=24)
times = st.floats(0.0, 3600.0, allow_nan=False, allow_infinity=False)
offset_lists = st.lists(st.floats(0.0, 600.0, allow_nan=False), max_size=32)


def make_config(seed, protected=True, queue_limit=8):
    return OverloadConfig(
        capacity_rps=0.5,
        burst=2.0,
        queue_limit=queue_limit,
        seed=seed,
        protected=protected,
    )


def build_controller(seed, offsets):
    config = make_config(seed)
    controller = AdmissionController(config)
    controller.attach_signal(LoadSignal.from_offsets(offsets, config))
    return controller


class TestStableUniform:
    @given(seeds, st.text(max_size=16), tokens)
    @settings(max_examples=200)
    def test_in_unit_interval_and_deterministic(self, seed, salt, token):
        draw = stable_uniform(seed, salt, token)
        assert 0.0 <= draw < 1.0
        assert stable_uniform(seed, salt, token) == draw

    @given(seeds, tokens)
    @settings(max_examples=100)
    def test_salt_separates_lotteries(self, seed, token):
        # The admit and qc lotteries must be independent draws, not one
        # shared verdict; distinct salts give (almost surely) distinct
        # values, and always independently recomputable ones.
        a = stable_uniform(seed, "admit|3", token)
        b = stable_uniform(seed, "qc|3", token)
        assert a == stable_uniform(seed, "admit|3", token)
        assert b == stable_uniform(seed, "qc|3", token)


class TestAdmissionPurity:
    @given(seeds, offset_lists, st.lists(st.tuples(times, tokens),
                                         min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_two_fresh_limiters_agree(self, seed, offsets, requests):
        # An executor-mode worker and a fleet redelivery each rebuild the
        # limiter from config alone — both must reach the same verdicts.
        config = make_config(seed)
        first = RateLimiter(config, LoadSignal.from_offsets(offsets, config))
        second = RateLimiter(config, LoadSignal.from_offsets(offsets, config))
        for now, token in requests:
            assert first.admit(now, token) == second.admit(now, token)

    @given(seeds, offset_lists, st.lists(st.tuples(times, tokens),
                                         min_size=2, max_size=20), seeds)
    @settings(max_examples=60, deadline=None)
    def test_call_order_is_irrelevant(self, seed, offsets, requests, shuffle):
        # Thread interleaving reorders request arrival; verdicts must not
        # notice. Decide in one order, replay shuffled, compare per request.
        controller = build_controller(seed, offsets)
        verdicts = {}
        for now, token in requests:
            decision = controller.decide(
                Request.post_json("http://h/responses", {}), now=now, token=token
            )
            verdicts[(now, token)] = (
                decision.admitted, decision.state, decision.retry_after
            )
        shuffled = list(requests)
        random.Random(shuffle).shuffle(shuffled)
        replay = build_controller(seed, offsets)
        for now, token in shuffled:
            decision = replay.decide(
                Request.post_json("http://h/responses", {}), now=now, token=token
            )
            assert verdicts[(now, token)] == (
                decision.admitted, decision.state, decision.retry_after
            )

    @given(seeds, offset_lists, times, tokens)
    @settings(max_examples=60, deadline=None)
    def test_redelivery_replays_identically(self, seed, offsets, now, token):
        # The same request presented twice (fleet redelivery) gets the same
        # answer from the same controller — no consumable bucket state.
        controller = build_controller(seed, offsets)
        first = controller.decide(
            Request.post_json("http://h/responses", {}), now=now, token=token
        )
        again = controller.decide(
            Request.post_json("http://h/responses", {}), now=now, token=token
        )
        assert first.admitted == again.admitted
        assert first.state == again.state
        assert first.qc_skipped == again.qc_skipped
        assert first.shed_detail == again.shed_detail
        assert first.retry_after == again.retry_after


class TestTokenBucketInvariants:
    @given(seeds, offset_lists, st.integers(1, 64))
    @settings(max_examples=80, deadline=None)
    def test_protected_backlog_bounded_and_drains(self, seed, offsets, limit):
        config = make_config(seed, queue_limit=limit)
        signal = LoadSignal.from_offsets(offsets, config)
        assert all(0.0 <= depth <= limit for depth in signal.backlog)
        assert signal.max_queue_depth() <= limit
        # The series extends past the last arrival until the queue drains.
        assert signal.backlog[-1] <= 1e-9
        assert all(0.0 <= f <= 1.0 for f in signal.reject_fractions)
        assert all(u >= 0.0 for u in signal.utilization)

    @given(seeds, offset_lists)
    @settings(max_examples=60, deadline=None)
    def test_unprotected_never_rejects(self, seed, offsets):
        config = make_config(seed, protected=False)
        signal = LoadSignal.from_offsets(offsets, config)
        assert all(f == 0.0 for f in signal.reject_fractions)
        assert all(state == STATE_NORMAL for state in signal.states)

    @given(seeds, offset_lists, times)
    @settings(max_examples=80, deadline=None)
    def test_retry_after_covers_queue_drain(self, seed, offsets, now):
        config = make_config(seed)
        signal = LoadSignal.from_offsets(offsets, config)
        suggested = signal.retry_after(now)
        assert suggested >= WINDOW_SECONDS
        wait = signal.queue_depth(now) / config.capacity_rps
        assert suggested >= round(WINDOW_SECONDS + wait, 3) - 1e-9


class TestArrivalOffsets:
    @given(st.sampled_from(ARRIVAL_MODES), st.integers(0, 64), seeds)
    @settings(max_examples=80, deadline=None)
    def test_pure_and_well_formed(self, mode, count, seed):
        first = arrival_offsets(mode, count, seed)
        assert first == arrival_offsets(mode, count, seed)
        assert len(first) == count
        assert all(offset >= 0.0 for offset in first)

    @given(st.integers(0, 64), seeds)
    @settings(max_examples=40, deadline=None)
    def test_none_mode_is_everyone_at_once(self, count, seed):
        assert arrival_offsets(None, count, seed) == (0.0,) * count
