"""Overload control plane: admission, rate limiting, the shedding ladder,
client/queue pushback handling, and cross-executor determinism.

The contract under test: every admission decision is a pure function of
``(seed, quantized virtual time, request token)`` — never of request order
or shared mutable state — so a flash crowd concludes bit-identically across
the serial and process executors and fleet redeliveries; 429s carry ``Retry-After`` that clients honor
without tripping circuit breakers; the unprotected baseline collapses.
"""

import dataclasses
import json

import pytest

from repro.core.campaign import Campaign
from repro.core.conclusion import conclusion_digest
from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.crowd.arrivals import (
    ARRIVAL_MODES,
    arrival_offsets,
    validate_arrival_mode,
)
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.errors import CampaignError, ServerOverloaded, ValidationError
from repro.fleet import CampaignManager, CampaignSubmission, FleetStore
from repro.fleet.queue import JobQueue
from repro.html.parser import parse_html
from repro.net.faults import CircuitBreaker, CircuitBreakerConfig, RetryPolicy
from repro.net.http import Request, Response
from repro.net.overload import (
    DEFERRABLE_PREFIXES,
    LADDER_HEADER,
    OVERLOAD_HEADER,
    QUEUE_DELAY_MS_HEADER,
    RETRY_AFTER_HEADER,
    STATE_DEFER,
    STATE_NORMAL,
    STATE_REJECT,
    TIMED_OUT_HEADER,
    TIMEOUT_SECONDS,
    WINDOW_SECONDS,
    AdmissionController,
    LoadSignal,
    OverloadConfig,
    RateLimiter,
    stable_uniform,
)
from repro.obs.timeline import validate_trace_events

VERSIONS = ("a", "b")


def tight_config(**overrides):
    """A config small campaigns can saturate."""
    settings = dict(capacity_rps=0.5, burst=2.0, queue_limit=8, seed=3)
    settings.update(overrides)
    return OverloadConfig(**settings)


def flash_signal(config=None, participants=24):
    """A signal from a genuine flash arrival schedule."""
    config = config or tight_config()
    offsets = arrival_offsets("flash", participants, seed=11)
    return LoadSignal.from_offsets(offsets, config)


# -- config validation -------------------------------------------------------


class TestOverloadConfig:
    def test_defaults_valid_and_frozen(self):
        config = OverloadConfig()
        assert config.protected
        with pytest.raises(Exception):
            config.capacity_rps = 3.0

    @pytest.mark.parametrize(
        "bad",
        [
            dict(capacity_rps=0.0),
            dict(burst=-1.0),
            dict(queue_limit=0),
        ],
    )
    def test_validation_rejects(self, bad):
        with pytest.raises(ValidationError):
            OverloadConfig(**bad)

    def test_replace_and_to_dict(self):
        config = tight_config().replace(capacity_rps=9.0)
        assert config.capacity_rps == 9.0
        payload = config.to_dict()
        # Reports exactly what a caller can set.
        assert set(payload) == {f.name for f in dataclasses.fields(config)}
        assert payload["capacity_rps"] == 9.0
        assert json.dumps(payload)  # JSON-serializable


# -- the load signal ---------------------------------------------------------


class TestLoadSignal:
    def test_quiet_schedule_stays_normal(self):
        config = OverloadConfig(capacity_rps=10.0)
        signal = LoadSignal.from_offsets([0.0, 600.0], config)
        assert set(signal.states) == {STATE_NORMAL}
        assert signal.max_queue_depth() == 0.0
        assert all(f == 0.0 for f in signal.reject_fractions)

    def test_flash_escalates_and_recovers(self):
        signal = flash_signal()
        assert STATE_REJECT in signal.states
        # The ladder steps back down once the crowd drains.
        assert signal.states[-1] == STATE_NORMAL
        transitions = signal.transitions()
        assert transitions[0]["from"] == STATE_NORMAL
        assert {"time", "from", "to"} <= set(transitions[0])

    def test_protected_backlog_bounded_by_queue_limit(self):
        config = tight_config()
        signal = flash_signal(config)
        assert signal.max_queue_depth() <= config.queue_limit
        assert max(signal.reject_fractions) > 0.0

    def test_unprotected_backlog_unbounded_and_never_rejects(self):
        config = tight_config(protected=False)
        signal = flash_signal(config)
        assert signal.max_queue_depth() > config.queue_limit
        assert all(f == 0.0 for f in signal.reject_fractions)
        assert set(signal.states) == {STATE_NORMAL}

    def test_pure_function_of_offsets_and_config(self):
        one, two = flash_signal(), flash_signal()
        assert one.offered == two.offered
        assert one.states == two.states
        assert one.reject_fractions == two.reject_fractions

    def test_retry_after_tracks_occupancy(self):
        config = tight_config()
        signal = flash_signal(config)
        busiest = max(range(len(signal)), key=lambda w: signal.backlog[w])
        now = busiest * WINDOW_SECONDS
        expected = round(
            WINDOW_SECONDS
            + signal.queue_depth(now) / config.capacity_rps,
            3,
        )
        assert signal.retry_after(now) == expected
        # Past the end of the series the signal reads idle.
        idle = (len(signal) + 10) * WINDOW_SECONDS
        assert signal.retry_after(idle) == WINDOW_SECONDS


# -- the rate limiter --------------------------------------------------------


class TestRateLimiter:
    def test_admit_is_pure_and_order_free(self):
        config = tight_config()
        signal = flash_signal(config)
        limiter = RateLimiter(config, signal)
        rejecting = [
            w for w, f in enumerate(signal.reject_fractions) if 0.0 < f < 1.0
        ]
        assert rejecting, "flash schedule must produce a partial-reject window"
        now = rejecting[0] * WINDOW_SECONDS
        tokens = [f"req-{i}" for i in range(60)]
        forward = [limiter.admit(now, t) for t in tokens]
        backward = [
            RateLimiter(config, flash_signal(config)).admit(now, t)
            for t in reversed(tokens)
        ]
        assert forward == list(reversed(backward))
        assert any(forward) and not all(forward)

    def test_uniform_draw_matches_fault_plan_construction(self):
        draw = stable_uniform(3, "admit|7", "tok")
        assert 0.0 <= draw < 1.0
        assert draw == stable_uniform(3, "admit|7", "tok")
        assert draw != stable_uniform(3, "admit|8", "tok")


# -- the admission controller ------------------------------------------------


class TestAdmissionController:
    def controller(self, config=None):
        config = config or tight_config()
        controller = AdmissionController(config)
        controller.attach_signal(flash_signal(config))
        return controller

    def reject_time(self, controller):
        """A (time, token) pair the reject-rung lottery turns away."""
        signal = controller.signal
        w = next(
            w for w, s in enumerate(signal.states)
            if s == STATE_REJECT and signal.reject_fractions[w] > 0.0
        )
        now = w * WINDOW_SECONDS
        token = next(
            f"t{i}" for i in range(10_000)
            if not controller.limiter.admit(now, f"t{i}")
        )
        return now, token

    def test_no_signal_admits_everything(self):
        controller = AdmissionController(tight_config())
        decision = controller.decide(
            Request.get("http://h/responses"), now=0.0, token="t"
        )
        assert decision.admitted and decision.response is None

    def test_reject_rung_emits_429_with_retry_after(self):
        controller = self.controller()
        now, token = self.reject_time(controller)
        decision = controller.decide(
            Request.post_json("http://h/responses", {}), now=now, token=token
        )
        assert not decision.admitted
        response = decision.response
        assert response.status == 429
        assert response.headers[OVERLOAD_HEADER] == "reject"
        assert response.headers[LADDER_HEADER] == STATE_REJECT
        assert float(response.headers[RETRY_AFTER_HEADER]) == decision.retry_after
        assert decision.retry_after > WINDOW_SECONDS

    def test_defer_rung_503s_non_essential_endpoints(self):
        controller = self.controller()
        now, _ = self.reject_time(controller)
        for prefix in DEFERRABLE_PREFIXES:
            decision = controller.decide(
                Request.get(f"http://h{prefix}/x"), now=now, token="t"
            )
            assert not decision.admitted
            assert decision.response.status == 503
            assert decision.response.headers[OVERLOAD_HEADER] == "defer"

    def test_admitted_under_load_sheds_detail_and_samples_qc(self):
        controller = self.controller()
        signal = controller.signal
        w = next(
            w for w, s in enumerate(signal.states)
            if s in (STATE_DEFER, STATE_REJECT)
            and signal.reject_fractions[w] == 0.0
        )
        now = w * WINDOW_SECONDS
        decisions = [
            controller.decide(
                Request.post_json("http://h/responses", {}),
                now=now, token=f"t{i}",
            )
            for i in range(40)
        ]
        assert all(d.admitted and d.shed_detail for d in decisions)
        skipped = [d.qc_skipped for d in decisions]
        assert any(skipped) and not all(skipped)

    def test_annotate_stamps_ladder_delay_and_timeout_headers(self):
        config = tight_config(protected=False)
        controller = AdmissionController(config)
        controller.attach_signal(flash_signal(config))
        signal = controller.signal
        w = max(range(len(signal)), key=lambda i: signal.backlog[i])
        now = w * WINDOW_SECONDS
        decision = controller.decide(
            Request.get("http://h/tests/x"), now=now, token="t"
        )
        assert decision.admitted and decision.timed_out
        response = controller.annotate(Response.json_response({}), decision)
        delay_ms = int(response.headers[QUEUE_DELAY_MS_HEADER])
        assert delay_ms == int(round(decision.queue_delay_seconds * 1000.0))
        # The timed-out header carries the client-observed timeout in ms —
        # the value the network layer charges before losing the response.
        assert response.headers[TIMED_OUT_HEADER] == str(
            int(round(TIMEOUT_SECONDS * 1000.0))
        )

    def test_decide_counts_by_verdict(self):
        controller = self.controller()
        now, token = self.reject_time(controller)
        controller.decide(Request.get("http://h/results/x"), now=now, token="a")
        controller.decide(
            Request.post_json("http://h/responses", {}), now=now, token=token
        )
        assert controller.metrics.counter("server.overload.deferred") == 1
        assert controller.metrics.counter("server.overload.rejected") == 1


# -- client-side behaviour ----------------------------------------------------


class TestClientPushback:
    def test_429_is_breaker_neutral(self):
        breaker = CircuitBreaker(
            CircuitBreakerConfig(failure_threshold=2)
        )
        for _ in range(10):
            breaker.record(429, now=0.0)
        assert breaker.allow(0.0)
        breaker.record(500, now=0.0)
        breaker.record(502, now=0.0)
        assert not breaker.allow(0.0)

    def test_backoff_capped_by_remaining_budget(self):
        from repro.net.profiles import get_profile
        from repro.net.simnet import Client, SimulatedNetwork

        client = Client(SimulatedNetwork(), get_profile("3g"))
        policy = RetryPolicy(
            max_attempts=5, backoff_base_seconds=4.0, retry_budget_seconds=10.0,
        )
        # Retry-After dominates the policy's backoff but is clipped to the
        # budget remaining rather than refused outright.
        assert client._backoff(policy, attempt=1, retry_after=100.0)
        assert client.backoff_seconds == 10.0
        # Budget exhausted: no further waits.
        assert not client._backoff(policy, attempt=2, retry_after=1.0)


# -- arrival schedules --------------------------------------------------------


class TestArrivals:
    def test_modes_are_pure_and_distinct(self):
        for mode in ARRIVAL_MODES:
            first = arrival_offsets(mode, 24, seed=5)
            assert first == arrival_offsets(mode, 24, seed=5)
            assert len(first) == 24
            assert first[0] == 0.0
            assert list(first) == sorted(first)
        spans = {
            mode: arrival_offsets(mode, 24, seed=5)[-1]
            for mode in ARRIVAL_MODES
        }
        # A flash crowd lands far faster than a steady trickle.
        assert spans["flash"] < spans["uniform"]

    def test_none_means_everyone_at_once(self):
        assert arrival_offsets(None, 3, seed=5) == (0.0, 0.0, 0.0)

    def test_unknown_mode_raises_campaign_error(self):
        with pytest.raises(CampaignError, match="unknown arrival mode"):
            validate_arrival_mode("bogus")
        with pytest.raises(CampaignError, match="uniform"):
            CampaignConfig(arrival="bogus")

    def test_cli_run_accepts_arrival_flag(self):
        import argparse

        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "spec.json", "pages", "--arrival", "flash"]
        )
        assert args.arrival == "flash"


# -- campaign integration -----------------------------------------------------


def make_campaign(config):
    campaign = Campaign(config=config)
    params = TestParameters(
        test_id="overload-test",
        test_description="overload integration",
        participant_num=16,
        question=[Question("q1", "Which looks better?")],
        webpages=[WebpageSpec(web_path=p, web_page_load=1000) for p in VERSIONS],
    )
    documents = {
        p: parse_html(
            f"<html><body><div><p>{p} body text</p></div></body></html>"
        )
        for p in VERSIONS
    }
    campaign.prepare(params, documents)
    return campaign


def make_judge():
    return make_utility_judge(
        {"a": 0.0, "b": 0.5, "__contrast__": -5.0}, ThurstoneChoiceModel()
    )


def overload_campaign_config(**overrides):
    settings = dict(
        seed=7,
        observe=True,
        arrival="flash",
        overload=OverloadConfig(capacity_rps=1.0, burst=4.0, queue_limit=16),
        retry_policy=RetryPolicy(
            max_attempts=6, backoff_base_seconds=1.0,
            retry_budget_seconds=600.0,
        ),
    )
    settings.update(overrides)
    return CampaignConfig(**settings)


class TestOverloadedCampaign:
    def run_one(self, **overrides):
        campaign = make_campaign(overload_campaign_config(**overrides))
        result = campaign.run(make_judge())
        return campaign, result

    def fingerprint(self, campaign, result):
        return (
            conclusion_digest(campaign, result),
            campaign.metrics.deterministic_snapshot(),
            campaign.network.stats,
        )

    def test_protected_flash_concludes_with_zero_lost_uploads(self):
        campaign, result = self.run_one()
        stats = campaign.network.stats
        assert result.participants == 16
        assert campaign.lost_uploads == []
        assert stats.rejections + stats.shed_responses > 0
        signal = campaign._overload_signal
        assert signal is not None
        assert signal.max_queue_depth() <= 16

    def test_identical_across_executors(self):
        base_campaign, base_result = self.run_one(
            executor="serial", parallelism=1
        )
        base = self.fingerprint(base_campaign, base_result)
        campaign, result = self.run_one(executor="process", parallelism=4)
        assert self.fingerprint(campaign, result) == base

    def test_unprotected_baseline_loses_responses_in_flight(self):
        campaign, _ = self.run_one(
            overload=OverloadConfig(
                capacity_rps=1.0, burst=4.0, queue_limit=16, protected=False
            ),
        )
        stats = campaign.network.stats
        assert stats.overload_timeouts > 0
        assert stats.rejections == 0
        assert campaign._overload_signal.max_queue_depth() > 16

    def test_overload_pushback_raises_server_overloaded(self):
        campaign = make_campaign(
            overload_campaign_config(
                overload=OverloadConfig(
                    capacity_rps=0.02, burst=0.0, queue_limit=1
                ),
                retry_policy=RetryPolicy.none(),
            )
        )
        campaign.overload_pushback = True
        with pytest.raises(ServerOverloaded) as excinfo:
            campaign.run(make_judge())
        assert excinfo.value.retry_after > 0

    def test_rejections_do_not_count_as_client_failures(self):
        campaign, _ = self.run_one()
        counters = campaign.metrics.deterministic_snapshot()["counters"]
        assert counters.get("net.overload_rejections", 0) > 0
        # Overload rejections ride their own counter, not failed exchanges.
        assert counters.get("net.overload_rejections", 0) > counters.get(
            "net.failed_exchanges", 0
        )

    def test_timeline_exports_overload_span_and_validates(self, tmp_path):
        campaign, _ = self.run_one()
        path = tmp_path / "trace.json"
        campaign.timeline().write_json(path)
        payload = json.loads(path.read_text())
        assert validate_trace_events(payload) == []
        names = [e["name"] for e in payload["traceEvents"]]
        assert "overload" in names
        assert "overload:transition" in names
        assert "overload:counts" in names
        gauges = payload["otherData"]["metrics"]["gauges"]
        assert gauges["overload.rejections"] > 0
        assert gauges["overload.max_queue_depth"] <= 16

    def test_validator_rejects_malformed_overload_events(self):
        payload = {
            "traceEvents": [
                {
                    "ph": "i",
                    "name": "overload:transition",
                    "ts": 0,
                    "pid": 1,
                    "tid": 0,
                    "args": {"from": "normal"},
                }
            ]
        }
        problems = validate_trace_events(payload)
        assert any("missing arg 'to'" in p for p in problems)


# -- fleet pushback -----------------------------------------------------------


class OverloadedJudge:
    """Raises the server's pushback signal on first use."""

    def __call__(self, *args, **kwargs):
        raise ServerOverloaded("server busy", retry_after=42.5)


def fleet_submission(judge, seed=5):
    params = TestParameters(
        test_id="overload-fleet-test",
        test_description="fleet pushback",
        participant_num=4,
        question=[Question("q1", "Which looks better?")],
        webpages=[WebpageSpec(web_path=p, web_page_load=1000) for p in VERSIONS],
    )
    documents = {
        p: f"<html><body><div><p>{p} body</p></div></body></html>"
        for p in VERSIONS
    }
    return CampaignSubmission(
        parameters=params, documents=documents, judge=judge,
        config=CampaignConfig(seed=seed), population_seed=seed,
    )


class TestFleetPushback:
    def test_nack_with_retry_after_overrides_backoff(self):
        queue = JobQueue(backoff_base_seconds=5.0, store=FleetStore())
        queue.submit("job-1")
        record = queue.claim("w1", now=0.0)
        queue.nack("job-1", record.lease_token, now=10.0, retry_after=42.5)
        assert queue.record("job-1").not_before == 52.5

    def test_nack_without_retry_after_keeps_exponential_backoff(self):
        queue = JobQueue(backoff_base_seconds=5.0, store=FleetStore())
        queue.submit("job-1")
        record = queue.claim("w1", now=0.0)
        queue.nack("job-1", record.lease_token, now=10.0)
        assert queue.record("job-1").not_before == 10.0 + queue.backoff_seconds(1)

    def test_retry_after_not_before_survives_recovery(self):
        store = FleetStore()
        queue = JobQueue(backoff_base_seconds=5.0, store=store)
        queue.submit("job-1")
        record = queue.claim("w1", now=0.0)
        queue.nack("job-1", record.lease_token, now=10.0, retry_after=99.0)
        revived = JobQueue.recover(store, backoff_base_seconds=5.0)
        assert revived.record("job-1").not_before == 109.0

    def test_worker_nacks_overload_with_server_delay_and_spares_breaker(self):
        from repro.fleet.worker import FleetWorker
        from repro.net.faults import BreakerRegistry

        store = FleetStore()
        queue = JobQueue(backoff_base_seconds=5.0, store=store)
        breakers = BreakerRegistry(
            CircuitBreakerConfig(failure_threshold=1)
        )
        worker = FleetWorker("w1", queue, store, breakers=breakers)
        submission = fleet_submission(OverloadedJudge())
        queue.submit("job-1", payload=submission,
                     resource=submission.stimulus_host())
        record = queue.claim("w1", now=0.0)
        outcome = worker.execute(record, now=0.0)
        assert outcome.status == "failed"
        outcome.finalize()
        requeued = queue.record("job-1")
        # Requeued for exactly the server-suggested delay...
        assert requeued.not_before == pytest.approx(
            outcome.finished_at + 42.5
        )
        # ...and the host breaker never saw a failure: pushback is not an
        # outage.
        breaker = breakers.breaker(submission.stimulus_host(), scope="job-1")
        assert breaker.allow(outcome.finished_at)
