"""Tests for seeded fault injection and client-side resilience."""

import numpy as np
import pytest

import repro.errors
from repro.errors import CircuitOpenError, ConnectionDropped, ValidationError
from repro.net.faults import (
    FAULT_5XX,
    FAULT_DROP,
    FAULT_LATENCY,
    FAULT_OUTAGE,
    FAULT_TIMEOUT,
    JITTER_FRACTION,
    RESET_AFTER_SECONDS,
    BreakerRegistry,
    CircuitBreaker,
    CircuitBreakerConfig,
    FaultPlan,
    FaultRule,
    OutageWindow,
    RetryPolicy,
)
from repro.net.http import IDEMPOTENCY_HEADER, HttpServer, Request, Response
from repro.net.profiles import get_profile
from repro.net.simnet import Client, SimulatedNetwork
from repro.sim.clock import SimulationEnvironment


def make_server(host="srv.local"):
    server = HttpServer(host)
    server.router.get("/hello", lambda r: Response.text_response("world"))
    server.router.post("/echo", lambda r: Response.json_response(r.json()))
    return server


class TestFaultRule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            FaultRule("meltdown", 0.1)

    def test_probability_bounds(self):
        with pytest.raises(ValidationError):
            FaultRule(FAULT_DROP, 1.5)
        with pytest.raises(ValidationError):
            FaultRule(FAULT_DROP, -0.1)

    @staticmethod
    def fires(rule, url):
        # A certain rule fires exactly where it applies.
        plan = FaultPlan(rules=[rule])
        return plan.decide(Request("GET", url), 0.0, "t") is not None

    def test_host_and_path_scoping(self):
        rule = FaultRule(FAULT_DROP, 1.0, host="A.local", path_prefix="/resources")
        assert self.fires(rule, "http://a.local/resources/x.html")
        assert not self.fires(rule, "http://b.local/resources/x.html")
        assert not self.fires(rule, "http://a.local/responses")

    def test_global_rule_applies_everywhere(self):
        rule = FaultRule(FAULT_DROP, 1.0)
        assert self.fires(rule, "http://anything.local/any/path")


class TestOutageWindow:
    def test_invalid_interval_rejected(self):
        with pytest.raises(ValidationError):
            OutageWindow(10.0, 10.0)

    def test_covers_half_open_interval(self):
        window = OutageWindow(10.0, 20.0)
        assert not window.covers("h", 9.9)
        assert window.covers("h", 10.0)
        assert window.covers("h", 19.9)
        assert not window.covers("h", 20.0)

    def test_host_scoped(self):
        window = OutageWindow(0.0, 5.0, host="a.local")
        assert window.covers("a.local", 1.0)
        assert not window.covers("b.local", 1.0)


class TestFaultPlan:
    def test_none_plan_decides_nothing(self):
        plan = FaultPlan.none()
        assert plan.is_none
        assert plan.decide(Request.get("http://h.local/x"), 0.0, "t") is None

    def test_decisions_are_stable(self):
        plan = FaultPlan.lossy(seed=7, drop_rate=0.3)
        request = Request.get("http://h.local/x")
        first = [plan.decide(request, 0.0, f"tok|{i}") for i in range(50)]
        second = [plan.decide(request, 0.0, f"tok|{i}") for i in range(50)]
        assert [
            d.kind if d else None for d in first
        ] == [d.kind if d else None for d in second]

    def test_drop_rate_approximated(self):
        plan = FaultPlan.lossy(seed=1, drop_rate=0.2)
        request = Request.get("http://h.local/x")
        hits = sum(
            1
            for i in range(2000)
            if plan.decide(request, 0.0, f"tok|{i}") is not None
        )
        assert 0.15 < hits / 2000 < 0.25

    def test_seed_changes_decisions(self):
        request = Request.get("http://h.local/x")
        kinds = []
        for seed in (1, 2):
            plan = FaultPlan.lossy(seed=seed, drop_rate=0.5)
            kinds.append(
                tuple(
                    plan.decide(request, 0.0, f"tok|{i}") is not None
                    for i in range(64)
                )
            )
        assert kinds[0] != kinds[1]

    def test_outage_takes_precedence(self):
        plan = FaultPlan.lossy(seed=0, drop_rate=1.0).with_outage(0.0, 100.0)
        decision = plan.decide(Request.get("http://h.local/x"), 50.0, "t")
        assert decision.kind == FAULT_OUTAGE
        after = plan.decide(Request.get("http://h.local/x"), 100.0, "t")
        assert after.kind == FAULT_DROP

    def test_builders_do_not_mutate(self):
        base = FaultPlan.none()
        derived = base.with_outage(0.0, 1.0)
        assert base.is_none
        assert not derived.is_none

    def test_rule_order_respected(self):
        plan = FaultPlan(
            seed=0,
            rules=[FaultRule(FAULT_5XX, 1.0), FaultRule(FAULT_DROP, 1.0)],
        )
        decision = plan.decide(Request.get("http://h.local/x"), 0.0, "t")
        assert decision.kind == FAULT_5XX


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValidationError):
            RetryPolicy(backoff_base_seconds=-1.0)

    def test_none_is_single_attempt(self):
        assert RetryPolicy.none().max_attempts == 1

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base_seconds=1.0)
        # Without an rng there is no jitter.
        assert policy.backoff_seconds(1) == 1.0
        assert policy.backoff_seconds(2) == 2.0
        assert policy.backoff_seconds(3) == 4.0

    def test_jitter_is_seeded(self):
        policy = RetryPolicy()
        a = policy.backoff_seconds(1, rng=np.random.default_rng(3))
        b = policy.backoff_seconds(1, rng=np.random.default_rng(3))
        c = policy.backoff_seconds(1, rng=np.random.default_rng(4))
        assert a == b
        assert a != c
        base = policy.backoff_base_seconds
        assert base <= a <= base * (1.0 + JITTER_FRACTION)


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        breaker = CircuitBreaker(CircuitBreakerConfig(failure_threshold=3))
        for _ in range(2):
            breaker.record_failure(0.0)
        assert breaker.allow(0.0)
        breaker.record_failure(0.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(1.0)
        assert breaker.trips == 1

    def test_half_opens_after_cooldown(self):
        breaker = CircuitBreaker(CircuitBreakerConfig(failure_threshold=1))
        breaker.record_failure(0.0)
        assert not breaker.allow(RESET_AFTER_SECONDS / 2)
        assert breaker.allow(RESET_AFTER_SECONDS)
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_half_open_failure_retrips(self):
        breaker = CircuitBreaker(CircuitBreakerConfig(failure_threshold=2))
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.allow(RESET_AFTER_SECONDS)  # half-open probe
        # Probe failed: open again immediately.
        breaker.record_failure(RESET_AFTER_SECONDS)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 2
        assert not breaker.allow(RESET_AFTER_SECONDS * 1.5)

    def test_success_closes(self):
        breaker = CircuitBreaker(CircuitBreakerConfig(failure_threshold=1))
        breaker.record_failure(0.0)
        breaker.allow(1000.0)
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED


class TestBreakerRegistry:
    """Regression for cross-campaign breaker bleed: breaker state keyed by
    ``(scope, host)``, so one campaign's failures never fail-fast another
    campaign that happens to target the same stimulus host."""

    def test_scopes_isolate_breakers_on_the_same_host(self):
        registry = BreakerRegistry(CircuitBreakerConfig(failure_threshold=2))
        poisoned = registry.breaker("srv.local", scope="campaign-poison")
        healthy = registry.breaker("srv.local", scope="campaign-healthy")
        assert poisoned is not healthy
        poisoned.record_failure(0.0)
        poisoned.record_failure(0.0)
        assert not poisoned.allow(1.0)
        assert healthy.allow(1.0)
        assert registry.open_hosts(scope="campaign-poison") == ["srv.local"]
        assert registry.open_hosts(scope="campaign-healthy") == []
        assert registry.scopes() == ["campaign-healthy", "campaign-poison"]

    def test_same_scope_shares_state_case_insensitively(self):
        registry = BreakerRegistry()
        assert registry.breaker("Srv.Local", scope="s") is registry.breaker(
            "srv.local", scope="s"
        )

    def test_reset_clears_only_the_named_scope(self):
        registry = BreakerRegistry(CircuitBreakerConfig(failure_threshold=1))
        registry.breaker("h", scope="a").record_failure(0.0)
        registry.breaker("h", scope="b").record_failure(0.0)
        assert registry.reset(scope="a") == 1
        assert registry.open_hosts(scope="a") == []
        assert registry.open_hosts(scope="b") == ["h"]
        assert registry.reset() == 1

    def test_clients_with_distinct_scopes_do_not_share_trips(self):
        network = SimulatedNetwork(
            env=SimulationEnvironment(),
            fault_plan=FaultPlan.lossy(seed=0, drop_rate=1.0),
        )
        network.attach(make_server())
        registry = BreakerRegistry(CircuitBreakerConfig(failure_threshold=2))

        def client_for(client_id):
            return Client(
                network,
                get_profile("cable"),
                retry_policy=RetryPolicy(max_attempts=1),
                client_id=client_id,
                breaker_registry=registry,
            )

        noisy = client_for("campaign-noisy")
        quiet = client_for("campaign-quiet")
        for _ in range(2):
            with pytest.raises(ConnectionDropped):
                noisy.get("http://srv.local/hello")
        with pytest.raises(CircuitOpenError):
            noisy.get("http://srv.local/hello")
        # The quiet campaign still reaches the wire: its circuit is its own.
        with pytest.raises(ConnectionDropped):
            quiet.get("http://srv.local/hello")
        assert registry.open_hosts(scope="campaign-noisy") == ["srv.local"]
        assert registry.open_hosts(scope="campaign-quiet") == []

    def test_shared_scope_opts_back_into_shared_state(self):
        registry = BreakerRegistry(CircuitBreakerConfig(failure_threshold=1))
        network = SimulatedNetwork(env=SimulationEnvironment())
        network.attach(make_server())
        first = Client(
            network, get_profile("cable"),
            client_id="c1", breaker_registry=registry, breaker_scope="pool",
        )
        second = Client(
            network, get_profile("cable"),
            client_id="c2", breaker_registry=registry, breaker_scope="pool",
        )
        assert first.breaker_for("srv.local") is second.breaker_for("srv.local")


class TestNetworkFaultInjection:
    def test_drop_raises_and_counts(self):
        env = SimulationEnvironment()
        network = SimulatedNetwork(env, fault_plan=FaultPlan.lossy(seed=0, drop_rate=1.0))
        network.attach(make_server())
        before = env.now
        with pytest.raises(ConnectionDropped) as info:
            network.get("http://srv.local/hello")
        assert info.value.elapsed_seconds > 0
        assert env.now > before  # the failed attempt burned virtual time
        assert network.stats.drops == 1
        assert network.stats.faults_injected == 1
        assert network.metrics.counter(f"net.fault.{FAULT_DROP}") == 1
        # The response-less exchange is an error that sent bytes, got none.
        assert network.stats.errors == 1
        assert network.stats.bytes_up > 0
        assert network.stats.bytes_down == 0

    def test_timeout_raised_after_handling(self):
        server = make_server()
        seen = []
        server.router.get("/probe", lambda r: (seen.append(1), Response.text_response("x"))[1])
        network = SimulatedNetwork(
            fault_plan=FaultPlan(
                seed=0, rules=[FaultRule(FAULT_TIMEOUT, 1.0, timeout_seconds=8.0)]
            )
        )
        network.attach(server)
        with pytest.raises(repro.errors.TimeoutError) as info:
            network.get("http://srv.local/probe")
        # The server DID handle the request: the response was lost in flight.
        assert seen == [1]
        assert info.value.elapsed_seconds >= 8.0
        assert network.stats.timeouts == 1

    def test_injected_5xx_returned_without_reaching_app(self):
        server = make_server()
        seen = []
        server.router.get("/probe", lambda r: (seen.append(1), Response.text_response("x"))[1])
        network = SimulatedNetwork(
            fault_plan=FaultPlan(seed=0, rules=[FaultRule(FAULT_5XX, 1.0, status=503)])
        )
        network.attach(server)
        response = network.get("http://srv.local/probe")
        assert response.status == 503
        assert seen == []  # front-end fault: the app never saw it
        assert network.stats.injected_errors == 1
        assert network.metrics.counter(f"net.fault.{FAULT_5XX}") == 1

    def test_latency_spike_multiplies_elapsed(self):
        clean = SimulatedNetwork()
        clean.attach(make_server())
        _, base = clean.exchange(Request.get("http://srv.local/hello"))
        spiky = SimulatedNetwork(
            fault_plan=FaultPlan(
                seed=0, rules=[FaultRule(FAULT_LATENCY, 1.0, latency_multiplier=5.0)]
            )
        )
        spiky.attach(make_server())
        response, slow = spiky.exchange(Request.get("http://srv.local/hello"))
        assert response.ok
        assert slow == pytest.approx(base * 5.0)
        assert spiky.stats.latency_spikes == 1

    def test_outage_window_on_network_clock(self):
        env = SimulationEnvironment()
        network = SimulatedNetwork(env, fault_plan=FaultPlan().with_outage(0.0, 0.001))
        network.attach(make_server())
        with pytest.raises(ConnectionDropped):
            network.get("http://srv.local/hello")
        # The failed attempt advanced the clock past the window.
        assert network.get("http://srv.local/hello").ok

    def test_no_faults_identical_to_no_plan(self):
        def trace(plan):
            env = SimulationEnvironment()
            network = SimulatedNetwork(env, fault_plan=plan)
            network.attach(make_server())
            exchanges = [
                network.exchange(Request.get("http://srv.local/hello")),
                network.exchange(Request.post_json("http://srv.local/echo", {"a": 1})),
            ]
            return [
                (response.status, response.body, elapsed)
                for response, elapsed in exchanges
            ], env.now

        assert trace(None) == trace(FaultPlan.none())


class TestResilientClient:
    def test_failed_attempt_counted(self):
        network = SimulatedNetwork(fault_plan=FaultPlan.lossy(seed=0, drop_rate=1.0))
        network.attach(make_server())
        client = Client(network, get_profile("cable"))
        with pytest.raises(ConnectionDropped):
            client.get("http://srv.local/hello")
        # The dropped download still consumed the participant's time.
        assert client.requests_made == 1
        assert client.failed_requests == 1
        assert client.total_transfer_seconds > 0

    def test_get_retries_through_drops(self):
        # 60% drops: 5 attempts make overall failure unlikely for most seeds;
        # seed 3 is known-good for the first request of this client id.
        network = SimulatedNetwork(
            env=SimulationEnvironment(),
            fault_plan=FaultPlan.lossy(seed=3, drop_rate=0.6),
        )
        network.attach(make_server())
        client = Client(
            network,
            get_profile("cable"),
            retry_policy=RetryPolicy(max_attempts=5),
            client_id="retry-test",
        )
        response = client.get("http://srv.local/hello")
        assert response.ok
        assert client.requests_made >= 1
        assert client.requests_made == client.failed_requests + 1

    def test_retry_exhaustion_raises(self):
        network = SimulatedNetwork(
            env=SimulationEnvironment(),
            fault_plan=FaultPlan.lossy(seed=0, drop_rate=1.0),
        )
        network.attach(make_server())
        client = Client(
            network,
            get_profile("cable"),
            retry_policy=RetryPolicy(max_attempts=3),
        )
        with pytest.raises(ConnectionDropped):
            client.get("http://srv.local/hello")
        assert client.requests_made == 3
        assert client.retries == 2
        assert client.backoff_seconds > 0

    def test_5xx_retried_then_returned(self):
        network = SimulatedNetwork(
            fault_plan=FaultPlan(seed=0, rules=[FaultRule(FAULT_5XX, 1.0)])
        )
        network.attach(make_server())
        client = Client(
            network,
            get_profile("cable"),
            retry_policy=RetryPolicy(max_attempts=2),
        )
        response = client.get("http://srv.local/hello")
        assert response.status == 503
        assert client.requests_made == 2

    def test_post_without_policy_not_retried_and_untagged(self):
        captured = []
        server = make_server()
        server.router.post("/sink", lambda r: (captured.append(r), Response.json_response({}))[1])
        network = SimulatedNetwork()
        network.attach(server)
        client = Client(network, get_profile("cable"))
        client.post_json("http://srv.local/sink", {"a": 1})
        assert IDEMPOTENCY_HEADER not in captured[0].headers

    def test_post_with_policy_carries_idempotency_token(self):
        captured = []
        server = make_server()
        server.router.post("/sink", lambda r: (captured.append(r), Response.json_response({}))[1])
        network = SimulatedNetwork()
        network.attach(server)
        client = Client(
            network,
            get_profile("cable"),
            retry_policy=RetryPolicy(max_attempts=3),
            client_id="w9",
        )
        client.post_json("http://srv.local/sink", {"a": 1})
        assert captured[0].headers[IDEMPOTENCY_HEADER] == "w9:1"

    def test_circuit_breaker_fails_fast(self):
        network = SimulatedNetwork(fault_plan=FaultPlan.lossy(seed=0, drop_rate=1.0))
        network.attach(make_server())
        client = Client(
            network,
            get_profile("cable"),
            breaker_config=CircuitBreakerConfig(failure_threshold=2),
        )
        for _ in range(2):
            with pytest.raises(ConnectionDropped):
                client.get("http://srv.local/hello")
        made = client.requests_made
        with pytest.raises(CircuitOpenError):
            client.get("http://srv.local/hello")
        # Fail-fast: no exchange was attempted while the circuit was open.
        assert client.requests_made == made
        assert client.breaker_for("srv.local").state == CircuitBreaker.OPEN

    def test_breaker_half_opens_on_session_clock(self):
        network = SimulatedNetwork(
            env=SimulationEnvironment(),
            fault_plan=FaultPlan.lossy(seed=0, drop_rate=1.0),
        )
        network.attach(make_server())
        client = Client(
            network,
            get_profile("cable"),
            retry_policy=RetryPolicy(
                max_attempts=4,
                backoff_base_seconds=30.0,
                retry_budget_seconds=1000.0,
            ),
            breaker_config=CircuitBreakerConfig(failure_threshold=10),
        )
        with pytest.raises(ConnectionDropped):
            client.get("http://srv.local/hello")
        breaker = client.breaker_for("srv.local")
        breaker.record_failure(client.session_now)  # force-trip
        breaker.state = CircuitBreaker.OPEN
        breaker.opened_at = client.session_now
        # Backoff time (30 + 60 + 120 s of it) advanced the session clock
        # well past the cooldown relative to an earlier trip.
        assert client.session_now >= 210.0 > RESET_AFTER_SECONDS
        breaker.opened_at = 0.0
        assert breaker.allow(client.session_now)

