"""The lossy-network layers decide exactly as their per-request reference.

``FaultPlan``, ``LoadSignal`` and ``AdmissionController`` build what depends
only on the plan, a rule or a decision window once, ahead of the requests.
This file keeps a copy of the straightforward per-request formulation each
of them replaced (the ``ref_*`` code below) and checks, with Hypothesis,
that every draw, verdict, header, counter and float is identical — floats
bit for bit, so ``-0.0`` and ``0.0`` count as different.
"""

import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.arrivals import arrival_offsets
from repro.fleet.chaos import WorkerChaos
from repro.net.faults import (
    FAULT_5XX,
    FAULT_DROP,
    FAULT_LATENCY,
    FAULT_OUTAGE,
    FAULT_TIMEOUT,
    FaultDecision,
    FaultPlan,
    FaultRule,
    OutageWindow,
)
from repro.net.http import Request, Response
from repro.net.overload import (
    DEFERRABLE_PREFIXES,
    QC_SAMPLE_RATE,
    REQUESTS_PER_PARTICIPANT,
    SESSION_SECONDS,
    SMOOTHING,
    STATE_DEFER,
    STATE_NORMAL,
    STATE_REJECT,
    STATE_SAMPLE_QC,
    TIMEOUT_SECONDS,
    WINDOW_SECONDS,
    AdmissionController,
    AdmissionDecision,
    LoadSignal,
    OverloadConfig,
    RateLimiter,
)
from repro.util.rng import draw_prefix, prefixed_uniform, stable_uniform


# -- the reference: the per-request formulation, kept verbatim ---------------


def ref_uniform(seed, salt, token):
    digest = hashlib.blake2b(
        f"{seed}|{salt}|{token}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0**64


def ref_applies_to(rule, host, path):
    if rule.host is not None and rule.host.lower() != host:
        return False
    return path.startswith(rule.path_prefix) if rule.path_prefix else True


def ref_fault_decide(plan, request, now, token):
    if not plan.rules and not plan.outages:
        return None
    host = request.host
    path = request.path
    for window in plan.outages:
        if window.covers(host, now):
            return FaultDecision(FAULT_OUTAGE, window=window)
    for index, rule in enumerate(plan.rules):
        if rule.probability <= 0.0 or not ref_applies_to(rule, host, path):
            continue
        salt = f"{index}|{rule.kind}|{request.method}|{host}|{path}"
        if ref_uniform(plan.seed, salt, token) < rule.probability:
            return FaultDecision(rule.kind, rule=rule)
    return None


def ref_offered(offsets):
    window = WINDOW_SECONDS
    rate = REQUESTS_PER_PARTICIPANT / SESSION_SECONDS
    horizon = 0.0
    for offset in offsets:
        horizon = max(horizon, float(offset) + SESSION_SECONDS)
    count = max(1, int(horizon / window) + 1)
    offered = [0.0] * count
    for offset in offsets:
        start = float(offset)
        end = start + SESSION_SECONDS
        first = int(start // window)
        last = int(end // window)
        for w in range(first, min(last, count - 1) + 1):
            lo = max(start, w * window)
            hi = min(end, (w + 1) * window)
            if hi > lo:
                offered[w] += (hi - lo) * rate
    return offered


class RefSignal:
    """The load signal's series and accessors, computed per call."""

    def __init__(self, config, offered):
        self.config = config
        cap = config.capacity_rps * WINDOW_SECONDS
        offered = list(offered)
        self.offered, self.backlog, self.utilization = [], [], []
        self.states, self.reject_fractions = [], []
        tokens = config.burst
        backlog = 0.0
        smoothed = 0.0
        index = 0
        extra = 0
        while index < len(offered) or (
            backlog > 1e-9 and extra < LoadSignal._MAX_EXTRA_WINDOWS
        ):
            offered_w = offered[index] if index < len(offered) else 0.0
            if index >= len(offered):
                extra += 1
            work = backlog + offered_w
            available = cap + tokens
            served = min(work, available)
            tokens = min(config.burst, available - served)
            overflow = work - served
            if config.protected:
                backlog = min(overflow, float(config.queue_limit))
                rejected = overflow - backlog
            else:
                backlog = overflow
                rejected = 0.0
            smoothed = SMOOTHING * (work / cap) + (1.0 - SMOOTHING) * smoothed
            self.offered.append(offered_w)
            self.backlog.append(backlog)
            self.utilization.append(smoothed)
            self.states.append(
                LoadSignal._ladder_state(smoothed) if config.protected
                else STATE_NORMAL
            )
            self.reject_fractions.append(
                min(1.0, rejected / offered_w) if offered_w > 0 else
                (1.0 if rejected > 0 else 0.0)
            )
            index += 1

    def window_of(self, now):
        return max(0, int(now // WINDOW_SECONDS))

    def _lookup(self, series, now, default):
        w = self.window_of(now)
        return series[w] if w < len(series) else default

    def queue_depth(self, now):
        return self._lookup(self.backlog, now, 0.0)

    def state(self, now):
        return self._lookup(self.states, now, STATE_NORMAL)

    def reject_fraction(self, now):
        return self._lookup(self.reject_fractions, now, 0.0)

    def queue_wait_seconds(self, now):
        return self._lookup(self.backlog, now, 0.0) / self.config.capacity_rps

    def retry_after(self, now):
        return round(WINDOW_SECONDS + self.queue_wait_seconds(now), 3)


def ref_admit(config, signal, now, token):
    fraction = signal.reject_fraction(now)
    if fraction <= 0.0:
        return True
    if fraction >= 1.0:
        return False
    window = signal.window_of(now)
    return ref_uniform(config.seed, f"admit|{window}", token) >= fraction


def ref_pushback(verdict, status, state, retry_after):
    response = Response.json_response(
        {
            "error": "server overloaded",
            "verdict": verdict,
            "state": state,
            "retry_after_seconds": retry_after,
        },
        status=status,
    )
    response.headers["x-overload"] = verdict
    response.headers["x-ladder-state"] = state
    response.headers["retry-after"] = f"{retry_after}"
    return response


def ref_admission_decide(config, signal, request, now, token, counts):
    count = lambda key: counts.append((f"server.overload.{key}", 1))  # noqa: E731
    if not config.protected:
        delay = signal.queue_wait_seconds(now)
        timed_out = delay > TIMEOUT_SECONDS
        count("timed_out" if timed_out else "admitted")
        return AdmissionDecision(
            admitted=True, queue_delay_seconds=delay, timed_out=timed_out
        )
    state = signal.state(now)
    retry_after = signal.retry_after(now)
    if state in (STATE_DEFER, STATE_REJECT) and any(
        request.path.startswith(prefix) for prefix in DEFERRABLE_PREFIXES
    ):
        count("deferred")
        return AdmissionDecision(
            admitted=False, state=state,
            response=ref_pushback("defer", 503, state, retry_after),
            retry_after=retry_after,
        )
    if state == STATE_REJECT and not ref_admit(config, signal, now, token):
        count("rejected")
        return AdmissionDecision(
            admitted=False, state=state,
            response=ref_pushback("reject", 429, state, retry_after),
            retry_after=retry_after,
        )
    shed = state != STATE_NORMAL
    qc_skipped = False
    if state in (STATE_SAMPLE_QC, STATE_DEFER, STATE_REJECT):
        window = signal.window_of(now)
        qc_skipped = ref_uniform(config.seed, f"qc|{window}", token) >= QC_SAMPLE_RATE
    count("admitted")
    if shed:
        count("shed")
    if qc_skipped:
        count("qc_skipped")
    return AdmissionDecision(
        admitted=True, state=state, shed_detail=shed, qc_skipped=qc_skipped,
        queue_delay_seconds=signal.queue_wait_seconds(now),
        retry_after=retry_after,
    )


def ref_chaos_uniform(seed, token, salt):
    digest = hashlib.blake2b(
        f"{seed}|{salt}|{token}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0**64


def ref_kill_point(chaos, job_id, delivery, checkpoints):
    if (
        chaos.kill_rate <= 0.0
        or delivery > chaos.max_kills_per_job
        or checkpoints < 2
    ):
        return None
    token = f"{job_id}|{delivery}"
    if ref_chaos_uniform(chaos.seed, token, "kill") >= chaos.kill_rate:
        return None
    return 1 + int(ref_chaos_uniform(chaos.seed, token, "point") * (checkpoints - 1))


# -- helpers ------------------------------------------------------------------


def bits(series):
    """A float series as exact bit patterns (``-0.0`` differs from ``0.0``)."""
    return [float.hex(value) for value in series]


def outcome(fn, *args):
    """``("ok", value)`` or ``("raise", exception type)``."""
    try:
        return ("ok", fn(*args))
    except Exception as error:  # both sides must fail alike
        return ("raise", type(error))


class Recorder:
    """A metrics stand-in that keeps every ``add`` in order."""

    def __init__(self):
        self.calls = []

    def add(self, name, amount=1):
        self.calls.append((name, amount))


def response_view(response):
    if response is None:
        return None
    return (response.status, dict(response.headers), response.body)


def decision_view(decision):
    annotated = None
    if decision.admitted:
        annotated = dict(
            AdmissionController(OverloadConfig())
            .annotate(Response(), decision).headers
        )
    return (
        decision.admitted,
        decision.state,
        decision.shed_detail,
        decision.qc_skipped,
        float.hex(decision.queue_delay_seconds),
        decision.timed_out,
        float.hex(decision.retry_after),
        response_view(decision.response),
        annotated,
    )


# -- strategies ---------------------------------------------------------------

seeds = st.integers(-(2**40), 2**63)
# Any code point but surrogates (which utf-8 cannot encode) and the
# characters a URL would split on.
url_text = st.characters(blacklist_categories=("Cs",), blacklist_characters="/?")
hosts = st.one_of(
    st.sampled_from(["a.local", "B.local", "kaleidoscope.local", "ünï.例え"]),
    st.text(url_text, min_size=1, max_size=12),
)
paths = st.one_of(
    st.sampled_from(["/", "/responses", "/results/t1", "/tasks", "/resources/é.css"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="?"),
            max_size=16).map(lambda text: "/" + text),
)
methods = st.sampled_from(
    ["GET", "HEAD", "POST", "PUT", "DELETE", "PATCH", "OPTIONS", "CONNECT", "TRACE"]
)
tokens = st.text(st.characters(blacklist_categories=("Cs",)), max_size=24)
probabilities = st.one_of(
    st.just(0.0), st.just(1.0), st.floats(0.0, 1.0, allow_nan=False)
)
rules = st.builds(
    FaultRule,
    kind=st.sampled_from([FAULT_DROP, FAULT_TIMEOUT, FAULT_5XX, FAULT_LATENCY]),
    probability=probabilities,
    host=st.one_of(st.none(), hosts),
    path_prefix=st.one_of(st.just(""), paths),
)


@st.composite
def outage_lists(draw):
    windows = []
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.floats(-50.0, 500.0, allow_nan=False))
        length = draw(st.floats(0.5, 200.0, allow_nan=False))
        windows.append(
            OutageWindow(start, start + length, draw(st.one_of(st.none(), hosts)))
        )
    return windows


plans = st.builds(
    FaultPlan, seed=seeds, rules=st.lists(rules, max_size=5), outages=outage_lists()
)
fault_times = st.floats(-100.0, 800.0, allow_nan=False)
requests = st.builds(
    lambda method, host, path: Request(method, f"http://{host}{path}"),
    methods, hosts, paths,
)


def request_batches(size):
    return st.lists(st.tuples(requests, fault_times, tokens), min_size=1,
                    max_size=size)


# -- FaultPlan ---------------------------------------------------------------


class TestFaultPlanMatchesReference:
    @given(plans, request_batches(12))
    @settings(max_examples=150, deadline=None)
    def test_decisions_match(self, plan, batch):
        for request, now, token in batch:
            assert plan.decide(request, now, token) == ref_fault_decide(
                plan, request, now, token
            )

    @given(plans, request_batches(8))
    @settings(max_examples=60, deadline=None)
    def test_a_pickled_plan_decides_alike(self, plan, batch):
        shipped = pickle.loads(pickle.dumps(plan))
        for request, now, token in batch:
            assert shipped.decide(request, now, token) == ref_fault_decide(
                plan, request, now, token
            )

    @given(plans, st.floats(-50.0, 500.0, allow_nan=False),
           st.floats(0.5, 200.0, allow_nan=False),
           st.one_of(st.none(), hosts), request_batches(8))
    @settings(max_examples=60, deadline=None)
    def test_with_outage_decides_alike(self, plan, start, length, host, batch):
        grown = plan.with_outage(start, start + length, host)
        for request, now, token in batch:
            assert grown.decide(request, now, token) == ref_fault_decide(
                grown, request, now, token
            )

    def test_every_verdict_kind_is_reached(self):
        # The property tests above would pass vacuously on a plan that never
        # fires; this sweep shows each kind both firing and matching.
        plan = FaultPlan.lossy(
            seed=5, drop_rate=0.2, timeout_rate=0.2, error_rate=0.2,
            latency_rate=0.2,
        ).with_outage(10.0, 20.0, "Outage.local")
        seen = set()
        for sequence in range(400):
            host = "outage.local" if sequence % 7 == 0 else "h.local"
            request = Request("POST", f"http://{host}/responses")
            now = float(sequence % 30)
            decision = plan.decide(request, now, f"c|{sequence}|1")
            assert decision == ref_fault_decide(plan, request, now, f"c|{sequence}|1")
            seen.add(None if decision is None else decision.kind)
        assert seen == {
            None, FAULT_OUTAGE, FAULT_DROP, FAULT_TIMEOUT, FAULT_5XX, FAULT_LATENCY
        }


# -- the one stable draw --------------------------------------------------------


class TestStableDraw:
    @given(seeds, st.text(max_size=16), tokens)
    @settings(max_examples=200)
    def test_every_form_is_the_reference_draw(self, seed, salt, token):
        expected = ref_uniform(seed, salt, token)
        assert float.hex(stable_uniform(seed, salt, token)) == float.hex(expected)
        assert float.hex(
            prefixed_uniform(draw_prefix(seed, salt), token.encode("utf-8"))
        ) == float.hex(expected)

    @given(seeds, st.floats(0.0, 1.0, allow_nan=False), st.integers(0, 3),
           st.text(max_size=12), st.integers(1, 4), st.integers(0, 40))
    @settings(max_examples=200)
    def test_fleet_chaos_draws_are_unchanged(
        self, seed, kill_rate, kills, job_id, delivery, checkpoints
    ):
        chaos = WorkerChaos(seed=seed, kill_rate=kill_rate, max_kills_per_job=kills)
        assert chaos.kill_point(job_id, delivery, checkpoints) == ref_kill_point(
            chaos, job_id, delivery, checkpoints
        )


# -- LoadSignal.from_offsets -----------------------------------------------------

edge_offsets = st.integers(0, 120).map(lambda w: w * int(WINDOW_SECONDS))
offset_values = st.one_of(
    st.floats(0.0, 600.0, allow_nan=False),
    edge_offsets,
    st.floats(-120.0, 0.0, allow_nan=False),
)
configs = st.builds(
    OverloadConfig,
    capacity_rps=st.sampled_from([0.5, 2.0, 5.0]),
    burst=st.sampled_from([0.0, 2.0, 10.0]),
    queue_limit=st.integers(1, 16),
    protected=st.booleans(),
    seed=seeds,
)

SERIES = ("offered", "backlog", "utilization", "reject_fractions")


def assert_same_signal(signal, reference):
    for name in SERIES:
        assert bits(getattr(signal, name)) == bits(getattr(reference, name)), name
    assert signal.states == reference.states


class TestLoadSignalMatchesReference:
    @given(st.lists(offset_values, max_size=64), configs)
    @settings(max_examples=150, deadline=None)
    def test_series_match(self, offsets, config):
        built = outcome(LoadSignal.from_offsets, offsets, config)
        expected = outcome(ref_offered, offsets)
        assert built[0] == expected[0]
        if built[0] == "raise":
            assert built[1] is expected[1]
            return
        assert_same_signal(built[1], RefSignal(config, expected[1]))

    @pytest.mark.parametrize(
        "offsets",
        [[], [0], [7.5], [5], [0, 5, 10, 60, 65], [-0.0], [-5, 3], [600]],
        ids=["empty", "zero", "one", "edge", "edges", "negative-zero",
             "negative", "late"],
    )
    def test_corner_rosters(self, offsets):
        config = OverloadConfig(capacity_rps=0.5, burst=2.0, queue_limit=4)
        signal = LoadSignal.from_offsets(offsets, config)
        assert_same_signal(signal, RefSignal(config, ref_offered(offsets)))

    def test_a_flash_crowd(self):
        config = OverloadConfig(capacity_rps=5.0, seed=3)
        offsets = arrival_offsets("flash", 3000, 3)
        signal = LoadSignal.from_offsets(offsets, config)
        assert_same_signal(signal, RefSignal(config, ref_offered(offsets)))


# -- AdmissionController.decide --------------------------------------------------

admission_paths = st.sampled_from(
    ["/responses", "/results/t1", "/tasks", "/resources/a.css", "/", "/résults"]
)


@st.composite
def admission_times(draw, windows):
    return draw(st.one_of(
        st.floats(0.0, windows * WINDOW_SECONDS, allow_nan=False),
        st.integers(0, windows + 2).map(lambda w: w * WINDOW_SECONDS),
        st.floats(windows * WINDOW_SECONDS, 1e7, allow_nan=False),
        st.floats(-1e4, 0.0, allow_nan=False),
    ))


def check_admissions(config, offsets, batch):
    signal = LoadSignal.from_offsets(offsets, config)
    reference = RefSignal(config, ref_offered(offsets))
    recorder = Recorder()
    controller = AdmissionController(config, metrics=recorder)
    controller.attach_signal(signal)
    expected_counts = []
    views = []
    for method, path, now, token in batch:
        request = Request(method, f"http://h.local{path}")
        decision = controller.decide(request, now, token)
        expected = ref_admission_decide(
            config, reference, request, now, token, expected_counts
        )
        assert decision_view(decision) == decision_view(expected)
        verdict = signal.verdict(signal.window_of(now))
        assert verdict[0] == reference.state(now)
        assert bits(verdict[1:]) == bits([
            reference.reject_fraction(now),
            reference.queue_depth(now),
            reference.queue_wait_seconds(now),
            reference.retry_after(now),
        ])
        assert bits([
            signal.reject_fraction(now),
            signal.queue_depth(now),
            signal.retry_after(now),
        ]) == bits(verdict[1:3] + verdict[4:])
        assert controller.limiter.admit(now, token) == ref_admit(
            config, reference, now, token
        )
        views.append(decision_view(decision))
    assert recorder.calls == expected_counts
    return views


class TestAdmissionMatchesReference:
    @given(
        configs,
        st.lists(st.floats(0.0, 120.0, allow_nan=False), max_size=80),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_decisions_match(self, config, offsets, data):
        windows = len(LoadSignal.from_offsets(offsets, config))
        batch = data.draw(st.lists(
            st.tuples(methods, admission_paths, admission_times(windows), tokens),
            min_size=1, max_size=20,
        ))
        check_admissions(config, offsets, batch)

    @pytest.mark.parametrize("protected", [True, False])
    def test_every_verdict_is_reached_on_a_flash_crowd(self, protected):
        config = OverloadConfig(
            capacity_rps=0.5, burst=2.0, queue_limit=4, seed=11, protected=protected
        )
        offsets = arrival_offsets("flash", 200, 11)
        windows = len(LoadSignal.from_offsets(offsets, config))
        batch = [
            ("POST", path, w * WINDOW_SECONDS + 1.25, f"c|{w}|{i}")
            for w in range(-1, windows + 2)
            for i, path in enumerate(["/responses", "/results/t", "/tasks"] * 4)
        ]
        views = check_admissions(config, offsets, batch)
        kinds = {
            ("pushback", view[7][1]["x-overload"]) if view[7] else
            ("admitted", view[1], view[3], view[5])
            for view in views
        }
        if protected:
            assert ("pushback", "defer") in kinds
            assert ("pushback", "reject") in kinds
            assert ("admitted", STATE_REJECT, True, False) in kinds
            assert ("admitted", STATE_NORMAL, False, False) in kinds
        else:
            assert ("admitted", STATE_NORMAL, False, True) in kinds

    def test_no_signal_admits_everything(self):
        controller = AdmissionController(OverloadConfig())
        decision = controller.decide(Request("GET", "http://h/tasks"), 3.0, "t")
        assert decision_view(decision) == decision_view(AdmissionDecision(admitted=True))

    def test_a_fresh_limiter_agrees_with_the_reference(self):
        config = OverloadConfig(capacity_rps=0.5, burst=2.0, queue_limit=4, seed=2)
        offsets = arrival_offsets("flash", 200, 2)
        limiter = RateLimiter(config, LoadSignal.from_offsets(offsets, config))
        reference = RefSignal(config, ref_offered(offsets))
        verdicts = []
        for step in range(-4, 400):
            now = step * 1.7
            verdicts.append(limiter.admit(now, f"t{step}"))
            assert verdicts[-1] == ref_admit(config, reference, now, f"t{step}")
        assert True in verdicts and False in verdicts
