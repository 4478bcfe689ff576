"""Deterministic fault injection and client-side resilience policy.

Real crowdsourcing runs lose workers mid-test and real networks drop
requests; EYEORG and VidPlat both report flaky uploads as the dominant
operational pain of crowdsourced QoE measurement. This module gives the
simulated network a *seeded* fault model so those failure modes can be
reproduced bit-for-bit:

* :class:`FaultPlan` — drop / timeout / 5xx / latency-spike rules (global or
  per-host) plus scheduled :class:`OutageWindow`\\ s, consulted by
  :meth:`~repro.net.simnet.SimulatedNetwork.exchange`;
* :class:`RetryPolicy` — how a :class:`~repro.net.simnet.Client` retries:
  attempt cap, exponential backoff with seeded jitter, a retry budget, and
  idempotency awareness (GETs always retry; response-upload POSTs only with
  a dedupe token the core server honors);
* :class:`CircuitBreaker` — a per-host breaker that trips after consecutive
  failures and half-opens after a cooldown on the client's virtual timeline.

Determinism is the design constraint throughout: a fault decision is a pure
hash of ``(plan seed, client id, request sequence, attempt, route)`` — never
a draw from a shared RNG stream — so the same seed and plan produce the same
faults for every participant at any ``parallelism`` level, regardless of
the order in which participants' exchanges run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ValidationError

FAULT_DROP = "drop"          # connection dies before the server sees the request
FAULT_TIMEOUT = "timeout"    # server handles it, the response is lost in flight
FAULT_5XX = "5xx"            # an overloaded front end answers 5xx unasked
FAULT_LATENCY = "latency"    # the transfer completes, but slowly
FAULT_OUTAGE = "outage"      # scheduled window in which a host is unreachable

_RULE_KINDS = (FAULT_DROP, FAULT_TIMEOUT, FAULT_5XX, FAULT_LATENCY)


@dataclass(frozen=True)
class FaultRule:
    """One probabilistic fault policy, global or scoped to a host/path."""

    kind: str
    probability: float
    host: Optional[str] = None      # None = every host
    path_prefix: str = ""           # "" = every path
    status: int = 503               # injected status for 5xx faults
    timeout_seconds: float = 10.0   # virtual time a timeout burns
    latency_multiplier: float = 5.0  # elapsed multiplier for latency spikes

    def __post_init__(self):
        if self.kind not in _RULE_KINDS:
            raise ValidationError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(_RULE_KINDS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValidationError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.timeout_seconds <= 0:
            raise ValidationError("timeout_seconds must be positive")
        if self.latency_multiplier < 1.0:
            raise ValidationError("latency_multiplier must be >= 1")

    def applies_to(self, host: str, path: str) -> bool:
        if self.host is not None and self.host.lower() != host:
            return False
        return path.startswith(self.path_prefix) if self.path_prefix else True


@dataclass(frozen=True)
class OutageWindow:
    """A scheduled interval ``[start, end)`` (virtual seconds) during which
    requests to ``host`` (or every host) fail with a connection drop."""

    start: float
    end: float
    host: Optional[str] = None

    def __post_init__(self):
        if self.end <= self.start:
            raise ValidationError(
                f"outage window must have end > start, got [{self.start}, {self.end})"
            )

    def covers(self, host: str, now: float) -> bool:
        if self.host is not None and self.host.lower() != host:
            return False
        return self.start <= now < self.end


@dataclass(frozen=True)
class FaultDecision:
    """What the plan decided for one exchange attempt."""

    kind: str
    rule: Optional[FaultRule] = None
    window: Optional[OutageWindow] = None


class FaultPlan:
    """A seeded set of fault rules and outage windows.

    Immutable in use: the ``with_*`` builders return new plans. Decisions are
    derived from a stable hash, so they depend only on the plan and the
    request's identity token — not on call order.
    """

    def __init__(
        self,
        seed: int = 0,
        rules: Sequence[FaultRule] = (),
        outages: Sequence[OutageWindow] = (),
    ):
        self.seed = int(seed)
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.outages: Tuple[OutageWindow, ...] = tuple(outages)

    # -- construction -----------------------------------------------------

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: every exchange behaves exactly as without one."""
        return cls()

    @classmethod
    def lossy(
        cls,
        seed: int = 0,
        drop_rate: float = 0.05,
        timeout_rate: float = 0.0,
        error_rate: float = 0.0,
        latency_rate: float = 0.0,
        host: Optional[str] = None,
    ) -> "FaultPlan":
        """A convenience lossy-network plan (defaults: 5% drops)."""
        rules = []
        if drop_rate > 0:
            rules.append(FaultRule(FAULT_DROP, drop_rate, host=host))
        if timeout_rate > 0:
            rules.append(FaultRule(FAULT_TIMEOUT, timeout_rate, host=host))
        if error_rate > 0:
            rules.append(FaultRule(FAULT_5XX, error_rate, host=host))
        if latency_rate > 0:
            rules.append(FaultRule(FAULT_LATENCY, latency_rate, host=host))
        return cls(seed=seed, rules=rules)

    def with_outage(
        self, start: float, end: float, host: Optional[str] = None
    ) -> "FaultPlan":
        return FaultPlan(
            self.seed, self.rules, self.outages + (OutageWindow(start, end, host),)
        )

    # -- interrogation ----------------------------------------------------

    @property
    def is_none(self) -> bool:
        return not self.rules and not self.outages

    def _uniform(self, token: str, salt: str) -> float:
        """A stable uniform in [0, 1) for one (token, salt) pair."""
        digest = hashlib.blake2b(
            f"{self.seed}|{salt}|{token}".encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / 2.0**64

    def decide(self, request, now: float, token: str) -> Optional[FaultDecision]:
        """The fault (if any) to inject for this exchange attempt.

        ``token`` identifies the attempt (client id, per-client request
        sequence, attempt number) so retries of the same request redraw.
        Outage windows are checked first (no randomness); then rules fire in
        declaration order, each with its own independent stable draw.
        """
        if self.is_none:
            return None
        host = request.host
        path = request.path
        for window in self.outages:
            if window.covers(host, now):
                return FaultDecision(FAULT_OUTAGE, window=window)
        for index, rule in enumerate(self.rules):
            if rule.probability <= 0.0 or not rule.applies_to(host, path):
                continue
            salt = f"{index}|{rule.kind}|{request.method}|{host}|{path}"
            if self._uniform(token, salt) < rule.probability:
                return FaultDecision(rule.kind, rule=rule)
        return None

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, rules={len(self.rules)}, "
            f"outages={len(self.outages)})"
        )


# -- client-side resilience ---------------------------------------------------

#: Growth of the retry backoff per failed attempt.
BACKOFF_FACTOR = 2.0
#: Upper bound of the seeded jitter, as a fraction of the backoff.
JITTER_FRACTION = 0.1
#: Virtual seconds of the owning client's timeline an open breaker waits
#: before it half-opens.
RESET_AFTER_SECONDS = 60.0


@dataclass(frozen=True)
class RetryPolicy:
    """How a :class:`~repro.net.simnet.Client` retries failed exchanges.

    Retries apply to idempotent requests (GET/HEAD) and to requests carrying
    an idempotency token; backoff is exponential with seeded jitter drawn
    from the client's own RNG stream, capped by a per-client retry budget of
    total backoff seconds.
    """

    max_attempts: int = 3
    backoff_base_seconds: float = 0.5
    retry_budget_seconds: float = 60.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValidationError("max_attempts must be >= 1")
        if self.backoff_base_seconds < 0:
            raise ValidationError("backoff must be non-negative")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """Single attempt, no retries — the historical client behaviour."""
        return cls(max_attempts=1)

    def backoff_seconds(self, attempt: int, rng=None) -> float:
        """Backoff before retry number ``attempt`` (1-based failed attempt)."""
        delay = self.backoff_base_seconds * BACKOFF_FACTOR ** (attempt - 1)
        if rng is not None:
            delay *= 1.0 + JITTER_FRACTION * rng.random()
        return delay


@dataclass(frozen=True)
class CircuitBreakerConfig:
    """Trip after ``failure_threshold`` consecutive failures; half-open after
    :data:`RESET_AFTER_SECONDS` of the owning client's virtual timeline."""

    failure_threshold: int = 4

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValidationError("failure_threshold must be >= 1")


class CircuitBreaker:
    """A classic closed → open → half-open breaker for one host.

    Timestamps come from the owning client's session clock (its own
    accumulated transfer + backoff time), which keeps tripping and cooling
    deterministic regardless of how other clients' exchanges interleave on
    the shared simulated network.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, config: Optional[CircuitBreakerConfig] = None):
        self.config = config or CircuitBreakerConfig()
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.trips = 0

    def allow(self, now: float) -> bool:
        """May a request proceed at client-time ``now``?"""
        if self.state == self.OPEN:
            if now - self.opened_at >= RESET_AFTER_SECONDS:
                self.state = self.HALF_OPEN
                return True
            return False
        return True

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        tripped = (
            self.state == self.HALF_OPEN
            or self.consecutive_failures >= self.config.failure_threshold
        )
        if tripped and self.state != self.OPEN:
            self.state = self.OPEN
            self.opened_at = now
            self.trips += 1
            self.consecutive_failures = 0

    def record_success(self) -> None:
        self.state = self.CLOSED
        self.consecutive_failures = 0

    def record(self, status: int, now: float) -> None:
        """Outcome-aware recording by HTTP status.

        5xx responses count as failures; 429 (and overload pushback mapped
        to it) is *neutral* — the server is alive and explicitly asking for
        patience, so tripping the breaker would turn backpressure into an
        outage. Everything else closes the circuit as a success.
        """
        if status == 429:
            return
        if status >= 500:
            self.record_failure(now)
        else:
            self.record_success()


class BreakerRegistry:
    """Circuit breakers keyed by ``(scope, host)``.

    A single long-lived holder — a fleet worker, a shared client pool — can
    serve many campaigns against overlapping stimulus hosts. Keying breaker
    state by scope as well as host is what stops cross-campaign bleed: a
    poison campaign hammering ``kaleidoscope.local`` trips *its* breaker,
    while a healthy campaign against the same host keeps a closed circuit.
    Callers that *want* shared state (one logical client retrying the same
    traffic) simply reuse a scope.
    """

    def __init__(self, config: Optional[CircuitBreakerConfig] = None):
        self.config = config or CircuitBreakerConfig()
        self._breakers: dict = {}

    def breaker(self, host: str, scope: str = "") -> CircuitBreaker:
        """The breaker for ``host`` within ``scope`` (created on first use)."""
        key = (str(scope), str(host).lower())
        found = self._breakers.get(key)
        if found is None:
            found = self._breakers[key] = CircuitBreaker(self.config)
        return found

    def open_hosts(self, scope: str = "") -> List[str]:
        """Hosts whose breaker is currently open within ``scope`` (sorted)."""
        return sorted(
            host
            for (owner, host), breaker in self._breakers.items()
            if owner == str(scope) and breaker.state == CircuitBreaker.OPEN
        )

    def scopes(self) -> List[str]:
        """Every scope that has at least one breaker (sorted, unique)."""
        return sorted({owner for owner, _ in self._breakers})

    def reset(self, scope: Optional[str] = None) -> int:
        """Drop breaker state for one scope (or all); returns the count."""
        if scope is None:
            count = len(self._breakers)
            self._breakers.clear()
            return count
        doomed = [key for key in self._breakers if key[0] == str(scope)]
        for key in doomed:
            del self._breakers[key]
        return len(doomed)
