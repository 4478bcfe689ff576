"""Server-side overload control: admission, rate limiting, load shedding.

Kaleidoscope's load is bursty by construction — paid crowdsourcing platforms
deliver participants in waves, and a flash crowd at campaign launch is the
normal case, not the exception. This module protects the core server with a
deterministic overload control plane:

* :class:`OverloadConfig` — the frozen, picklable policy: sustainable
  capacity, burst allowance, bounded admission-queue depth, protection on
  or off, and the per-request lotteries' seed. The decision window, the
  utilization thresholds of the load-shedding ladder and the offered-load
  model are module constants;
* :class:`LoadSignal` — the smoothed utilization signal. It precomputes,
  per quantized decision window, the offered load implied by the campaign's
  *seeded arrival schedule*, the token-bucket service series, the admission
  backlog, and the resulting ladder state — so every overload decision is a
  pure function of virtual time;
* :class:`RateLimiter` — the token bucket's per-request face: when a window
  is oversubscribed beyond the bucket, each request draws a stable hash
  lottery against the window's reject fraction;
* :class:`AdmissionController` — glues it together in front of the
  :class:`~repro.net.http.HttpServer`: walks the ladder (shed span detail →
  sample quality-control checks → defer non-essential endpoints → reject
  with ``Retry-After``), computes ``Retry-After`` from current queue
  occupancy, and — in the *unprotected* baseline — models the collapse an
  unbounded queue produces (queue delay growing without bound until
  responses time out in flight).

Determinism is the same contract as :mod:`repro.net.faults`: no decision
ever reads a shared RNG or depends on request *order*. Window membership is
a pure function of the caller's virtual time; lotteries are stable blake2b
hashes of ``(seed, window, request token)``. Two executors — or a fleet
worker replaying a redelivered job — that present the same requests at the
same virtual times get byte-identical admissions, rejections, and
``Retry-After`` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.net.http import Request, Response
from repro.obs.metrics import MetricsRegistry
# ``stable_uniform`` is the lotteries' draw; it is importable from here too.
from repro.util.rng import draw_prefix, prefixed_uniform, stable_uniform

#: Ladder states, in escalation order. Each rung keeps the server answering
#: while giving up progressively more: trace detail, per-upload QC depth,
#: non-essential endpoints, and finally admission itself.
STATE_NORMAL = "normal"
STATE_SHED_DETAIL = "shed-detail"
STATE_SAMPLE_QC = "sample-qc"
STATE_DEFER = "defer"
STATE_REJECT = "reject"

LADDER_STATES = (
    STATE_NORMAL, STATE_SHED_DETAIL, STATE_SAMPLE_QC, STATE_DEFER, STATE_REJECT
)

#: Response header marking an overload verdict ("reject" or "defer"); the
#: client counts these separately from faults so server pushback never trips
#: a circuit breaker.
OVERLOAD_HEADER = "x-overload"
#: Standard Retry-After (seconds, decimal) on 429/503 overload responses.
RETRY_AFTER_HEADER = "retry-after"
#: Ladder state the server was in while answering (absent when normal).
LADDER_HEADER = "x-ladder-state"
#: Virtual milliseconds the request waited in the admission queue before
#: service; the network adds it to the exchange's elapsed time. Integer
#: milliseconds so cross-executor stat merges stay order-free.
QUEUE_DELAY_MS_HEADER = "x-virtual-queue-delay-ms"
#: Present when the (unprotected) queue delay exceeded the client's timeout:
#: the server handled the request but the response is lost in flight. The
#: value is the client-observed timeout in integer virtual milliseconds —
#: the time the client burned waiting before giving up.
TIMED_OUT_HEADER = "x-virtual-timed-out"

#: Endpoints the ladder's "defer" rung may postpone: result analysis and
#: task posting are not on any participant's critical upload path.
DEFERRABLE_PREFIXES = ("/results", "/tasks")

#: Length of one quantized decision window, in virtual seconds.
WINDOW_SECONDS = 5.0
#: EWMA weight of the newest window in the smoothed utilization signal.
SMOOTHING = 0.35
# Ladder thresholds on the smoothed utilization signal.
SHED_DETAIL_AT = 0.70
SAMPLE_QC_AT = 0.85
DEFER_AT = 0.95
REJECT_AT = 1.10
#: Fraction of upload-time quality-control checks kept on the
#: ``sample-qc`` rung (the rest are hash-sampled away).
QC_SAMPLE_RATE = 0.5
#: Offered-load model: requests one participant session issues, spread
#: over ``SESSION_SECONDS`` of its session.
REQUESTS_PER_PARTICIPANT = 10.0
SESSION_SECONDS = 60.0
#: Unprotected baseline only: queue delay beyond this loses the response
#: in flight (the client times out; the server's side effects stand).
TIMEOUT_SECONDS = 30.0


#: Counters the controller bumps, one per verdict.
ADMITTED_COUNTER = "server.overload.admitted"
TIMED_OUT_COUNTER = "server.overload.timed_out"
DEFERRED_COUNTER = "server.overload.deferred"
REJECTED_COUNTER = "server.overload.rejected"
SHED_COUNTER = "server.overload.shed"
QC_SKIPPED_COUNTER = "server.overload.qc_skipped"

#: Rungs on which the ladder hash-samples upload-time quality control.
_QC_SAMPLED_STATES = (STATE_SAMPLE_QC, STATE_DEFER, STATE_REJECT)
#: Rungs on which deferrable endpoints are pushed back.
_DEFER_STATES = (STATE_DEFER, STATE_REJECT)


@dataclass(frozen=True)
class OverloadConfig:
    """The overload control plane's policy, frozen and picklable.

    ``capacity_rps`` is the sustainable service rate; ``burst`` the token
    bucket's depth (requests a quiet period banks for the next spike);
    ``queue_limit`` bounds the admission queue — with ``protected=True``
    overflow is rejected with ``Retry-After``, with ``protected=False``
    (the baseline the benchmark collapses) the queue grows without bound
    and requests eventually time out in flight. The decision window, the
    ladder's thresholds and the offered-load model are module constants.
    """

    capacity_rps: float = 2.0
    burst: float = 10.0
    queue_limit: int = 32
    #: ``False`` disables the ladder and the queue bound — the collapse
    #: baseline the flash-crowd benchmark measures against.
    protected: bool = True
    #: Seed of the admission/QC hash lotteries.
    seed: int = 0

    def __post_init__(self):
        if self.capacity_rps <= 0:
            raise ValidationError("capacity_rps must be positive")
        if self.burst < 0:
            raise ValidationError("burst must be >= 0")
        if self.queue_limit < 1:
            raise ValidationError("queue_limit must be >= 1")

    def replace(self, **changes) -> "OverloadConfig":
        import dataclasses

        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        return {
            "capacity_rps": self.capacity_rps,
            "burst": self.burst,
            "queue_limit": self.queue_limit,
            "protected": self.protected,
            "seed": self.seed,
        }


def _retry_after(wait: float) -> float:
    """One full decision window plus the time the backlog needs to drain."""
    return round(WINDOW_SECONDS + wait, 3)


#: What every admission decision in one decision window reads: the
#: window's ``(state, reject_fraction, queue_depth, queue_wait_seconds,
#: retry_after)``. The queue wait is the backlog over the service rate.
WindowVerdict = Tuple[str, float, float, float, float]

#: ``(state, reject_fraction, queue_depth)`` of every window past the
#: signal's end: the server is idle and its queue empty.
IDLE_WINDOW: Tuple[str, float, float] = (STATE_NORMAL, 0.0, 0.0)


class LoadSignal:
    """The precomputed, order-free utilization signal.

    Given the seeded arrival schedule (each participant's session-start
    offset), the signal models offered load per decision window, runs the
    token-bucket service recurrence, and derives the backlog, the smoothed
    utilization, the ladder state and the reject fraction of every window —
    all before the first request arrives. Every accessor is a pure function
    of virtual time, which is what keeps admission decisions identical
    across executor modes, worker counts, and fleet redeliveries: no shared
    mutable bucket exists for request order to perturb.

    A decision looks its window up once: :meth:`verdict` answers for any
    window, past the series' end too (:data:`IDLE_WINDOW`), and the
    per-time accessors read it.
    """

    #: Backstop on drain extension after the last arrival's window.
    _MAX_EXTRA_WINDOWS = 200_000

    def __init__(self, config: OverloadConfig, offered: Sequence[float]):
        self.config = config
        cap = config.capacity_rps * WINDOW_SECONDS
        burst = config.burst
        limit = float(config.queue_limit)
        protected = config.protected
        keep = 1.0 - SMOOTHING
        offered = list(offered)
        arrivals = len(offered)
        self.offered: List[float] = []
        self.backlog: List[float] = []
        self.utilization: List[float] = []
        self.states: List[str] = []
        self.reject_fractions: List[float] = []
        tokens = burst
        backlog = 0.0
        smoothed = 0.0
        index = 0
        extra = 0
        # ``min(a, b)`` written as a comparison keeps ``a`` unless ``b < a``,
        # as the builtin does.
        while index < arrivals or (backlog > 1e-9 and extra < self._MAX_EXTRA_WINDOWS):
            if index < arrivals:
                offered_w = offered[index]
            else:
                offered_w = 0.0
                extra += 1
            work = backlog + offered_w
            available = cap + tokens
            served = available if available < work else work
            spare = available - served
            tokens = spare if spare < burst else burst
            overflow = work - served
            if protected:
                backlog = limit if limit < overflow else overflow
                rejected = overflow - backlog
            else:
                backlog = overflow
                rejected = 0.0
            smoothed = SMOOTHING * (work / cap) + keep * smoothed
            if offered_w > 0:
                fraction = rejected / offered_w
                if not fraction < 1.0:
                    fraction = 1.0
            else:
                fraction = 1.0 if rejected > 0 else 0.0
            self.offered.append(offered_w)
            self.backlog.append(backlog)
            self.utilization.append(smoothed)
            self.states.append(
                self._ladder_state(smoothed) if protected else STATE_NORMAL
            )
            self.reject_fractions.append(fraction)
            index += 1

    @classmethod
    def from_offsets(
        cls, offsets: Sequence[float], config: OverloadConfig
    ) -> "LoadSignal":
        """Build the signal from per-participant session-start offsets.

        Each arrival contributes ``REQUESTS_PER_PARTICIPANT`` requests
        spread evenly over ``SESSION_SECONDS`` of its session; per-window
        offered load is the exact overlap integral, so the series is a pure
        function of ``(offsets, config)``.
        """
        window = WINDOW_SECONDS
        rate = REQUESTS_PER_PARTICIPANT / SESSION_SECONDS
        starts = [float(offset) for offset in offsets]
        horizon = 0.0
        for start in starts:
            end = start + SESSION_SECONDS
            if end > horizon:
                horizon = end
        count = max(1, int(horizon / window) + 1)
        offered = [0.0] * count
        top = count - 1
        # Window edges ``w * window``, computed once.
        edges = [w * window for w in range(count + 1)]
        if starts and min(starts) < 0.0:
            # A negative offset's first windows come before window 0, where
            # ``offered[w]`` wraps to the end; their edges go at the end too.
            lowest = min(int(start // window) for start in starts)
            edges += [w * window for w in range(lowest, 0)]
        for start in starts:
            end = start + SESSION_SECONDS
            last = int(end // window)
            if last > top:
                last = top
            for w in range(int(start // window), last + 1):
                # The window's overlap with ``[start, end)``, clamped as
                # ``max(start, edge)`` and ``min(end, next edge)`` would.
                lo = edges[w]
                if not lo > start:
                    lo = start
                hi = edges[w + 1]
                if not hi < end:
                    hi = end
                if hi > lo:
                    offered[w] += (hi - lo) * rate
        return cls(config, offered)

    @staticmethod
    def _ladder_state(utilization: float) -> str:
        if utilization >= REJECT_AT:
            return STATE_REJECT
        if utilization >= DEFER_AT:
            return STATE_DEFER
        if utilization >= SAMPLE_QC_AT:
            return STATE_SAMPLE_QC
        if utilization >= SHED_DETAIL_AT:
            return STATE_SHED_DETAIL
        return STATE_NORMAL

    # -- pure-function-of-time accessors -----------------------------------

    def __len__(self) -> int:
        return len(self.offered)

    def window_of(self, now: float) -> int:
        return max(0, int(now // WINDOW_SECONDS))

    def verdict(self, window: int) -> WindowVerdict:
        """What a decision in ``window`` reads; past the series' end the
        server is idle."""
        if window < len(self.states):
            state = self.states[window]
            fraction = self.reject_fractions[window]
            depth = self.backlog[window]
        else:
            state, fraction, depth = IDLE_WINDOW
        wait = depth / self.config.capacity_rps
        return state, fraction, depth, wait, _retry_after(wait)

    def queue_depth(self, now: float) -> float:
        return self.verdict(self.window_of(now))[2]

    def reject_fraction(self, now: float) -> float:
        return self.verdict(self.window_of(now))[1]

    def retry_after(self, now: float) -> float:
        """The occupancy-derived come-back delay: one full decision window
        plus the time the current backlog needs to drain."""
        return self.verdict(self.window_of(now))[4]

    # -- whole-run summaries ----------------------------------------------

    def max_queue_depth(self) -> float:
        return max(self.backlog, default=0.0)

    def peak_utilization(self) -> float:
        return max(self.utilization, default=0.0)

    def peak_offered_rps(self) -> float:
        peak = max(self.offered, default=0.0)
        return peak / WINDOW_SECONDS

    def transitions(self) -> List[dict]:
        """Every ladder-state change as ``{"time", "from", "to"}``, in
        window order — the deterministic series the campaign exports as
        span events."""
        out: List[dict] = []
        previous = STATE_NORMAL
        for w, state in enumerate(self.states):
            if state != previous:
                out.append(
                    {
                        "time": w * WINDOW_SECONDS,
                        "from": previous,
                        "to": state,
                    }
                )
                previous = state
        return out

    def to_dict(self) -> dict:
        return {
            "windows": len(self),
            "window_seconds": WINDOW_SECONDS,
            "peak_offered_rps": round(self.peak_offered_rps(), 4),
            "peak_utilization": round(self.peak_utilization(), 4),
            "max_queue_depth": round(self.max_queue_depth(), 4),
            "transitions": self.transitions(),
        }


class RateLimiter:
    """The token bucket's per-request face.

    The bucket itself is solved ahead of time inside :class:`LoadSignal`
    (service, token balance, and overflow per window); what remains per
    request is the *tie-break* inside an oversubscribed window: which of
    the window's requests absorb the overflow. That is a stable hash
    lottery of ``(seed, window, token)`` against the window's reject
    fraction — a pure function, so admit/reject is identical no matter
    which executor, worker process, or redelivery presents the request.
    """

    def __init__(self, config: OverloadConfig, signal: LoadSignal):
        self.config = config
        self.signal = signal
        # The lottery's salt prefix, built once for each window that draws.
        self._prefixes = {
            w: draw_prefix(config.seed, f"admit|{w}")
            for w, fraction in enumerate(signal.reject_fractions)
            if 0.0 < fraction < 1.0
        }

    def admit(self, now: float, token: str) -> bool:
        return self.admit_in(
            self.signal.window_of(now), self.signal.reject_fraction(now),
            f"{token}".encode("utf-8"),
        )

    def admit_in(self, window: int, fraction: float, token: bytes) -> bool:
        """:meth:`admit` for a request whose window and reject fraction the
        caller has looked up, with its token already encoded."""
        if fraction <= 0.0:
            return True
        if fraction >= 1.0:
            return False
        return prefixed_uniform(self._prefixes[window], token) >= fraction


@dataclass
class AdmissionDecision:
    """What the controller decided for one request."""

    admitted: bool
    state: str = STATE_NORMAL
    #: Ready-made 429/503 for rejected/deferred requests.
    response: Optional[Response] = None
    #: Ladder rung 1: the server skips optional span/metric detail.
    shed_detail: bool = False
    #: Ladder rung 2: this upload's deep QC validation is hash-sampled away.
    qc_skipped: bool = False
    #: Virtual seconds the request waits in the admission queue.
    queue_delay_seconds: float = 0.0
    #: Unprotected baseline: the response is lost in flight.
    timed_out: bool = False
    retry_after: float = 0.0


class AdmissionController:
    """Bounded admission queue + ladder in front of an HTTP server.

    Built from the frozen config alone (so every executor-mode worker
    rebuilds an identical one); inert until :meth:`attach_signal` installs
    the campaign's :class:`LoadSignal`. Each verdict increments a
    ``server.overload.<verdict>`` counter in ``metrics`` — the server's
    registry, or one of the controller's own when none is given.

    A decision looks its window up once and reads the window's
    :data:`WindowVerdict`; the QC lottery's salt prefix is built once per
    sampling window, at :meth:`attach_signal`. What is left per request is
    what depends on the request: its path, its token's two draws, and the
    counters.
    """

    def __init__(self, config: OverloadConfig, metrics=None):
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.signal: Optional[LoadSignal] = None
        self.limiter: Optional[RateLimiter] = None
        self._qc_prefixes: Dict[int, bytes] = {}

    def attach_signal(self, signal: LoadSignal) -> None:
        self.signal = signal
        self.limiter = RateLimiter(self.config, signal)
        self._qc_prefixes = {
            w: draw_prefix(self.config.seed, f"qc|{w}")
            for w, state in enumerate(signal.states)
            if state in _QC_SAMPLED_STATES
        }

    def _pushback(
        self, verdict: str, status: int, state: str, retry_after: float
    ) -> Response:
        response = Response.json_response(
            {
                "error": "server overloaded",
                "verdict": verdict,
                "state": state,
                "retry_after_seconds": retry_after,
            },
            status=status,
        )
        response.headers[OVERLOAD_HEADER] = verdict
        response.headers[LADDER_HEADER] = state
        response.headers[RETRY_AFTER_HEADER] = f"{retry_after}"
        return response

    def decide(self, request: Request, now: float, token: str) -> AdmissionDecision:
        """The admission verdict for one request at virtual time ``now``.

        Pure in ``(config, signal, now, token)`` — consult :class:`LoadSignal`
        for why that purity is the determinism contract.
        """
        signal = self.signal
        if signal is None:
            return AdmissionDecision(admitted=True)
        window = signal.window_of(now)
        state, fraction, _, wait, retry_after = signal.verdict(window)
        add = self.metrics.add
        if not self.config.protected:
            # The collapse baseline: every request is admitted into an
            # unbounded queue; past the timeout horizon the response is
            # lost in flight (the server's side effects stand).
            timed_out = wait > TIMEOUT_SECONDS
            add(TIMED_OUT_COUNTER if timed_out else ADMITTED_COUNTER, 1)
            return AdmissionDecision(
                admitted=True,
                queue_delay_seconds=wait,
                timed_out=timed_out,
            )
        if state == STATE_NORMAL:
            add(ADMITTED_COUNTER, 1)
            return AdmissionDecision(
                admitted=True,
                queue_delay_seconds=wait,
                retry_after=retry_after,
            )
        if state in _DEFER_STATES and request.path.startswith(DEFERRABLE_PREFIXES):
            add(DEFERRED_COUNTER, 1)
            return AdmissionDecision(
                admitted=False,
                state=state,
                response=self._pushback("defer", 503, state, retry_after),
                retry_after=retry_after,
            )
        qc_skipped = False
        if state in _QC_SAMPLED_STATES:
            key = f"{token}".encode("utf-8")
            if state == STATE_REJECT and not self.limiter.admit_in(
                window, fraction, key
            ):
                add(REJECTED_COUNTER, 1)
                return AdmissionDecision(
                    admitted=False,
                    state=state,
                    response=self._pushback("reject", 429, state, retry_after),
                    retry_after=retry_after,
                )
            qc_skipped = (
                prefixed_uniform(self._qc_prefixes[window], key) >= QC_SAMPLE_RATE
            )
        add(ADMITTED_COUNTER, 1)
        add(SHED_COUNTER, 1)
        if qc_skipped:
            add(QC_SKIPPED_COUNTER, 1)
        return AdmissionDecision(
            admitted=True,
            state=state,
            shed_detail=True,
            qc_skipped=qc_skipped,
            queue_delay_seconds=wait,
            retry_after=retry_after,
        )

    def annotate(self, response: Response, decision: AdmissionDecision) -> Response:
        """Stamp an admitted request's response with the overload context
        the network and client layers consume."""
        if decision.state != STATE_NORMAL:
            response.headers[LADDER_HEADER] = decision.state
        if decision.queue_delay_seconds > 0:
            response.headers[QUEUE_DELAY_MS_HEADER] = str(
                int(round(decision.queue_delay_seconds * 1000.0))
            )
        if decision.timed_out:
            response.headers[TIMED_OUT_HEADER] = str(
                int(round(TIMEOUT_SECONDS * 1000.0))
            )
        return response

