"""The simulated network tying hosts, profiles and the virtual clock together.

A :class:`SimulatedNetwork` routes :class:`~repro.net.http.Request` objects
to registered :class:`~repro.net.http.HttpServer` hosts. Each exchange is
timed against a :class:`~repro.net.profiles.NetworkProfile` and, when the
network is bound to a :class:`~repro.sim.SimulationEnvironment`, advances the
shared virtual clock — so a participant on a "3g" profile genuinely takes
longer to download an integrated webpage than one on "fiber".

The network can also carry a :class:`~repro.net.faults.FaultPlan`: a seeded
policy of drops, timeouts, injected 5xx responses, latency spikes and
scheduled outage windows, consulted before and after the server handles each
request. Injected faults are counted in the traffic stats, traced as
``fault:*`` events, and surface to callers as
:class:`~repro.errors.ConnectionDropped` / :class:`~repro.errors.TimeoutError`.
The :class:`Client` layers retries, an idempotency token for response
uploads, and a per-host circuit breaker on top.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import repro.errors as errors
from repro.errors import CircuitOpenError, ConnectionDropped, NetworkError
from repro.net.faults import (
    FAULT_5XX,
    FAULT_DROP,
    FAULT_LATENCY,
    FAULT_OUTAGE,
    FAULT_TIMEOUT,
    CircuitBreaker,
    CircuitBreakerConfig,
    FaultPlan,
    RetryPolicy,
)
from repro.net.http import IDEMPOTENCY_HEADER, HttpServer, Request, Response
from repro.net.overload import (
    LADDER_HEADER,
    OVERLOAD_HEADER,
    QUEUE_DELAY_MS_HEADER,
    RETRY_AFTER_HEADER,
    TIMED_OUT_HEADER,
)
from repro.net.profiles import NetworkProfile, get_profile
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER
from repro.sim.clock import SimulationEnvironment


@dataclass
class TrafficStats:
    """Aggregate counters for a network."""

    requests: int = 0
    bytes_up: int = 0
    bytes_down: int = 0
    errors: int = 0
    faults_injected: int = 0
    drops: int = 0
    timeouts: int = 0
    injected_errors: int = 0
    latency_spikes: int = 0
    # Overload control plane (all integer so merges stay order-free):
    rejections: int = 0         # 429s from the admission controller
    deferrals: int = 0          # 503s from the ladder's "defer" rung
    shed_responses: int = 0     # answered, but in a degraded ladder state
    overload_timeouts: int = 0  # unprotected-queue responses lost in flight
    queue_delay_ms: int = 0     # total virtual admission-queue wait

    def merge(self, other: "TrafficStats") -> None:
        """Fold another network's counters into this one (pure sums, so the
        merge is commutative — chunk order cannot change the totals)."""
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class SimulatedNetwork:
    """Routes requests to hosts and accounts for transfer time.

    A network belongs to one process and runs one exchange at a time (the
    fan-out is by process, each worker with its own network), so the stats
    and the clock take no lock. It keeps nothing per request: ``stats``
    holds the aggregate counts, and an observed run's tracer records each
    exchange as a span.
    """

    def __init__(
        self,
        env: Optional[SimulationEnvironment] = None,
        fault_plan: Optional[FaultPlan] = None,
        tracer=None,
        metrics=None,
    ):
        self.env = env
        self.faults = fault_plan if fault_plan is not None else FaultPlan.none()
        # Observability sinks: a campaign passes its own tracer and
        # registry; a bare network gets the shared no-op tracer and a
        # registry of its own.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hosts: Dict[str, HttpServer] = {}
        self.stats = TrafficStats()
        self._exchange_seq = 0

    # -- topology ---------------------------------------------------------

    def attach(self, server: HttpServer) -> HttpServer:
        """Attach a server; its host becomes routable (case-insensitively)."""
        host = server.host.lower()
        if host in self._hosts:
            raise NetworkError(f"host {server.host!r} already attached")
        self._hosts[host] = server
        return server

    def detach(self, host: str) -> None:
        """Remove a host from the network."""
        self._hosts.pop(host.lower(), None)

    # -- exchanges --------------------------------------------------------

    def exchange(
        self,
        request: Request,
        profile: Optional[NetworkProfile] = None,
        now: Optional[float] = None,
        fault_token: Optional[str] = None,
    ) -> Tuple[Response, float]:
        """Send a request; returns ``(response, elapsed_seconds)``.

        When the network has a simulation environment, the virtual clock is
        advanced by the elapsed time (requests are modelled as blocking the
        issuing participant).

        ``now`` is the caller's notion of virtual time for outage-window
        checks (a client passes its own session clock so window membership
        stays deterministic under parallel simulation); it defaults to the
        environment clock. ``fault_token`` identifies the attempt for the
        fault plan's stable draws; without one a network-level sequence
        number is used.

        Raises :class:`~repro.errors.ConnectionDropped` /
        :class:`~repro.errors.TimeoutError` for injected connection faults;
        both carry ``elapsed_seconds`` for the time the failed exchange
        burned.
        """
        profile = profile or get_profile("cable")
        host = request.host
        server = self._hosts.get(host)
        if server is None:
            self.stats.errors += 1
            raise NetworkError(f"no route to host {host!r}")
        if now is not None:
            when = now
        else:
            when = self.env.now if self.env is not None else 0.0
        if fault_token is None:
            self._exchange_seq += 1
            fault_token = f"net|{self._exchange_seq}"
        decision = self.faults.decide(request, when, fault_token)

        if decision is not None and decision.kind in (FAULT_DROP, FAULT_OUTAGE):
            # Connection-level failure: the server never saw the request.
            elapsed = profile.rtt_ms / 1000.0
            self._record_fault(
                request, host, elapsed, decision.kind, request.size_bytes
            )
            self.stats.drops += 1
            self._advance(elapsed)
            raise ConnectionDropped(
                f"connection to {host!r} dropped"
                + (" (outage window)" if decision.kind == FAULT_OUTAGE else ""),
                elapsed_seconds=elapsed,
            )
        if decision is not None and decision.kind == FAULT_5XX:
            # An overloaded front end answers without reaching the app.
            response = Response.json_response(
                {"error": "injected fault", "detail": "service unavailable"},
                status=decision.rule.status,
            )
            return self._commit(request, host, response, profile, fault=FAULT_5XX)

        response = server.handle(request, now=when, token=fault_token)

        if decision is not None and decision.kind == FAULT_TIMEOUT:
            # The server handled it; the response was lost in flight.
            request_bytes = request.size_bytes
            elapsed = max(
                profile.request_seconds(request_bytes, response.size_bytes),
                decision.rule.timeout_seconds,
            )
            self._record_fault(
                request, host, elapsed, FAULT_TIMEOUT, request_bytes
            )
            self.stats.timeouts += 1
            self._advance(elapsed)
            raise errors.TimeoutError(
                f"request to {host}{request.path} timed out after {elapsed:.1f}s",
                elapsed_seconds=elapsed,
            )
        timeout_ms = response.headers.get(TIMED_OUT_HEADER)
        if timeout_ms is not None:
            # The unprotected admission queue grew past the client's
            # patience: the server handled the request (side effects
            # stand) but the response is lost in flight, exactly like an
            # injected timeout — the shape of queue collapse.
            request_bytes = request.size_bytes
            elapsed = (
                profile.request_seconds(request_bytes, response.size_bytes)
                + int(timeout_ms) / 1000.0
            )
            self.stats.requests += 1
            self.stats.bytes_up += request_bytes
            self.stats.errors += 1
            self.stats.timeouts += 1
            self.stats.overload_timeouts += 1
            self.metrics.add("net.overload.timeout", 1)
            self.tracer.event("overload:timeout", host=host, path=request.path)
            self._advance(elapsed)
            raise errors.TimeoutError(
                f"request to {host}{request.path} timed out in the "
                f"overloaded queue after {elapsed:.1f}s",
                elapsed_seconds=elapsed,
            )
        latency_fault = decision is not None and decision.kind == FAULT_LATENCY
        return self._commit(
            request, host, response, profile,
            fault=FAULT_LATENCY if latency_fault else "",
            latency_multiplier=(
                decision.rule.latency_multiplier if latency_fault else 1.0
            ),
        )

    def _commit(
        self,
        request: Request,
        host: str,
        response: Response,
        profile: NetworkProfile,
        fault: str = "",
        latency_multiplier: float = 1.0,
    ) -> Tuple[Response, float]:
        """Account for one completed exchange."""
        request_bytes = request.size_bytes
        response_bytes = response.size_bytes
        elapsed = profile.request_seconds(request_bytes, response_bytes)
        elapsed *= latency_multiplier
        # Virtual time the request spent in the server's admission queue.
        queue_delay_ms = int(response.headers.get(QUEUE_DELAY_MS_HEADER, "0") or 0)
        elapsed += queue_delay_ms / 1000.0
        self.stats.requests += 1
        self.stats.bytes_up += request_bytes
        self.stats.bytes_down += response_bytes
        if not response.ok:
            self.stats.errors += 1
        self.stats.queue_delay_ms += queue_delay_ms
        overload = response.headers.get(OVERLOAD_HEADER, "")
        if overload == "reject":
            self.stats.rejections += 1
            self.metrics.add("net.overload.rejected", 1)
            self.tracer.event("overload:reject", host=host, path=request.path)
        elif overload == "defer":
            self.stats.deferrals += 1
            self.metrics.add("net.overload.deferred", 1)
            self.tracer.event("overload:defer", host=host, path=request.path)
        elif LADDER_HEADER in response.headers:
            self.stats.shed_responses += 1
            self.metrics.add("net.overload.shed", 1)
        if fault:
            self.stats.faults_injected += 1
            if fault == FAULT_5XX:
                self.stats.injected_errors += 1
            elif fault == FAULT_LATENCY:
                self.stats.latency_spikes += 1
            self.metrics.add("net.faults", 1)
            self.metrics.add(f"net.fault.{fault}", 1)
            self.tracer.event(f"fault:{fault}", host=host, path=request.path)
        self._advance(elapsed)
        return response, elapsed

    def _record_fault(
        self,
        request: Request,
        host: str,
        elapsed: float,
        kind: str,
        request_bytes: int,
    ) -> None:
        """Account for a response-less faulted exchange."""
        self.stats.requests += 1
        self.stats.bytes_up += request_bytes
        self.stats.errors += 1
        self.stats.faults_injected += 1
        self.metrics.add("net.faults", 1)
        self.metrics.add(f"net.fault.{kind}", 1)
        self.tracer.event(f"fault:{kind}", host=host, path=request.path)

    def _advance(self, elapsed: float) -> None:
        """Move the virtual clock ``elapsed`` seconds forward.

        Callbacks due inside the window (or at its end) fire at their own
        times; no event is pushed just to move the clock.
        """
        if self.env is not None and elapsed > 0:
            self.env.run(until=self.env.now + elapsed)

    def wait(self, seconds: float) -> None:
        """Advance the virtual clock by ``seconds`` (client retry backoff).

        Goes through :meth:`_advance`, the one clock hook: a subclass that
        journals the clock (the process fan-out's recording network)
        overrides that alone and sees every transfer and backoff once.
        """
        self._advance(seconds)

    def get(self, url: str, profile: Optional[NetworkProfile] = None) -> Response:
        """Convenience GET; returns just the response."""
        response, _ = self.exchange(Request.get(url), profile)
        return response

    def post_json(
        self, url: str, payload, profile: Optional[NetworkProfile] = None
    ) -> Response:
        """Convenience JSON POST."""
        response, _ = self.exchange(Request.post_json(url, payload), profile)
        return response


_NO_RETRY = RetryPolicy.none()
#: Statuses a client retries under its retry policy.
RETRY_ON_STATUS = (500, 502, 503, 504)


class Client:
    """A participant-side HTTP client pinned to one network profile.

    Accumulates per-client transfer time so the extension can report how long
    a participant spent downloading test resources — failed attempts count:
    a dropped download still consumed the participant's time.

    With a :class:`~repro.net.faults.RetryPolicy` the client retries failed
    exchanges (exponential backoff, seeded jitter from ``rng``, a per-client
    retry budget). GETs retry freely; JSON POSTs gain an idempotency token
    (honored by the core server's dedupe) so a response upload whose ack was
    lost can be retried safely. An optional per-host circuit breaker fails
    fast after consecutive failures and half-opens on the client's own
    session clock — ``session_start`` plus accumulated transfer and backoff
    time — which also anchors outage-window checks deterministically.
    """

    def __init__(
        self,
        network: SimulatedNetwork,
        profile: NetworkProfile,
        retry_policy: Optional[RetryPolicy] = None,
        client_id: str = "client",
        rng=None,
        breaker_config: Optional[CircuitBreakerConfig] = None,
        session_start: Optional[float] = None,
        tracer=None,
        metrics=None,
        breaker_registry=None,
        breaker_scope: Optional[str] = None,
    ):
        self.network = network
        self.profile = profile
        self.retry_policy = retry_policy
        self.client_id = client_id
        self.rng = rng
        self.breaker_config = breaker_config
        # When a shared BreakerRegistry is supplied, breaker state lives
        # there, keyed (scope, host) — scope defaults to this client's id so
        # two clients only share breakers when they opt into the same scope.
        self.breaker_registry = breaker_registry
        self.breaker_scope = breaker_scope if breaker_scope is not None else client_id
        # Inherit the network's sinks unless the campaign injects its own.
        self.tracer = tracer if tracer is not None else getattr(
            network, "tracer", NULL_TRACER
        )
        self.metrics = metrics if metrics is not None else network.metrics
        # The participant's TraceClock (session time + viewing time); set by
        # the campaign on observed runs, used as the exchange spans' clock.
        self.trace_clock = None
        self.total_transfer_seconds = 0.0
        self.backoff_seconds = 0.0
        self.requests_made = 0
        self.retries = 0
        self.failed_requests = 0
        # Overload pushback (429/deferral) counted separately from faults:
        # the server is alive and asking for patience, not failing.
        self.rejected_requests = 0
        self._seq = 0
        self._breakers: Dict[str, CircuitBreaker] = {}
        if session_start is None:
            session_start = network.env.now if network.env is not None else 0.0
        self.session_start = session_start

    @property
    def session_now(self) -> float:
        """This client's own virtual timeline: start + everything it waited."""
        return self.session_start + self.total_transfer_seconds + self.backoff_seconds

    def breaker_for(self, host: str) -> Optional[CircuitBreaker]:
        """The host's circuit breaker (None when breakers are disabled)."""
        if self.breaker_registry is not None:
            return self.breaker_registry.breaker(host, scope=self.breaker_scope)
        if self.breaker_config is None:
            return None
        breaker = self._breakers.get(host)
        if breaker is None:
            breaker = self._breakers[host] = CircuitBreaker(self.breaker_config)
        return breaker

    def request(self, request: Request, idempotent: Optional[bool] = None) -> Response:
        """Issue a request over this client's profile, retrying per policy."""
        if idempotent is None:
            idempotent = request.method in ("GET", "HEAD")
        policy = self.retry_policy or _NO_RETRY
        retryable = idempotent or IDEMPOTENCY_HEADER in request.headers
        host = request.host
        self._seq += 1
        seq = self._seq
        attempt = 0
        while True:
            attempt += 1
            breaker = self.breaker_for(host)
            if breaker is not None and not breaker.allow(self.session_now):
                self.tracer.event("circuit_open", host=host, path=request.path)
                raise CircuitOpenError(f"circuit open for host {host!r}")
            token = f"{self.client_id}|{seq}|{attempt}"
            failure: Optional[NetworkError] = None
            with self.tracer.span(
                "exchange", category="net", clock=self.trace_clock,
                method=request.method, path=request.path, attempt=attempt,
            ) as span:
                try:
                    response, elapsed = self.network.exchange(
                        request, self.profile, now=self.session_now,
                        fault_token=token,
                    )
                except NetworkError as exc:
                    # The failed attempt still consumed the participant's time.
                    self.requests_made += 1
                    self.total_transfer_seconds += float(
                        getattr(exc, "elapsed_seconds", 0.0) or 0.0
                    )
                    self.failed_requests += 1
                    self.metrics.add("net.failed_exchanges", 1)
                    span.set_attr("error", type(exc).__name__)
                    failure = exc
                else:
                    self.requests_made += 1
                    self.total_transfer_seconds += elapsed
                    span.set_attr("status", response.status)
            if failure is not None:
                if breaker is not None:
                    breaker.record_failure(self.session_now)
                if retryable and self._backoff(policy, attempt):
                    continue
                raise failure
            overload = response.headers.get(OVERLOAD_HEADER, "")
            if overload or response.status in RETRY_ON_STATUS:
                retry_after = 0.0
                if overload:
                    # Server pushback, not a fault: count it separately and
                    # honor the occupancy-derived Retry-After. A rejected or
                    # deferred request never reached a handler, so retrying
                    # is safe even without an idempotency token.
                    self.rejected_requests += 1
                    self.metrics.add("net.overload_rejections", 1)
                    try:
                        retry_after = float(
                            response.headers.get(RETRY_AFTER_HEADER, "0") or 0.0
                        )
                    except ValueError:
                        retry_after = 0.0
                else:
                    self.failed_requests += 1
                if breaker is not None:
                    breaker.record(
                        429 if overload else response.status, self.session_now
                    )
                if (retryable or bool(overload)) and self._backoff(
                    policy, attempt, retry_after=retry_after
                ):
                    continue
                return response
            if breaker is not None:
                breaker.record_success()
            return response

    def _backoff(
        self, policy: RetryPolicy, attempt: int, retry_after: float = 0.0
    ) -> bool:
        """Wait before retrying; False when attempts or budget are spent.

        The wait is the policy's exponential backoff or the server's
        ``Retry-After`` hint, whichever is longer — capped by whatever is
        left of the retry budget, so a sleep can never overrun it.
        """
        if attempt >= policy.max_attempts:
            return False
        delay = policy.backoff_seconds(attempt, rng=self.rng)
        if retry_after > 0:
            delay = max(delay, retry_after)
        remaining = policy.retry_budget_seconds - self.backoff_seconds
        if remaining <= 0:
            return False
        delay = min(delay, remaining)
        self.backoff_seconds += delay
        self.network.wait(delay)
        self.retries += 1
        self.metrics.add("net.retries", 1)
        self.tracer.event("retry", attempt=attempt, delay_seconds=round(delay, 4))
        return True

    def get(self, url: str) -> Response:
        return self.request(Request.get(url))

    def post_json(self, url: str, payload, idempotency_key: Optional[str] = None) -> Response:
        """JSON POST; with retries enabled the request carries an idempotency
        token so the server can dedupe a replay whose first ack was lost."""
        headers = {}
        if idempotency_key is None and (
            self.retry_policy is not None and self.retry_policy.max_attempts > 1
        ):
            idempotency_key = f"{self.client_id}:{self._seq + 1}"
        if idempotency_key:
            headers[IDEMPOTENCY_HEADER] = idempotency_key
        return self.request(Request.post_json(url, payload, **headers))
