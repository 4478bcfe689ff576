"""Tests for the simulated network."""

import dataclasses
import gc
import tracemalloc

import pytest

import repro.errors as errors
from repro.errors import ConnectionDropped, NetworkError
from repro.net.faults import (
    FAULT_5XX,
    FAULT_DROP,
    FAULT_LATENCY,
    FAULT_TIMEOUT,
    FaultPlan,
    FaultRule,
    RetryPolicy,
)
from repro.net.http import HttpServer, Request, Response
from repro.net.overload import (
    OVERLOAD_HEADER,
    QUEUE_DELAY_MS_HEADER,
    RETRY_AFTER_HEADER,
    TIMED_OUT_HEADER,
)
from repro.net.profiles import get_profile
from repro.net.simnet import Client, SimulatedNetwork
from repro.sim.clock import SimulationEnvironment


def make_server(host="srv.local"):
    server = HttpServer(host)
    server.router.get("/hello", lambda r: Response.text_response("world"))
    server.router.post("/echo", lambda r: Response.json_response(r.json()))
    return server


class TestRouting:
    def test_exchange_reaches_host(self):
        network = SimulatedNetwork()
        network.attach(make_server())
        response, elapsed = network.exchange(Request.get("http://srv.local/hello"))
        assert response.text == "world"
        assert elapsed > 0

    def test_unknown_host_raises(self):
        network = SimulatedNetwork()
        with pytest.raises(NetworkError):
            network.get("http://ghost.local/")

    def test_double_attach_rejected(self):
        network = SimulatedNetwork()
        network.attach(make_server())
        with pytest.raises(NetworkError):
            network.attach(make_server())

    def test_detach(self):
        network = SimulatedNetwork()
        network.attach(make_server())
        network.detach("srv.local")
        with pytest.raises(NetworkError):
            network.get("http://srv.local/hello")

    def test_multiple_hosts(self):
        network = SimulatedNetwork()
        network.attach(make_server("a.local"))
        network.attach(make_server("b.local"))
        assert network.get("http://a.local/hello").ok
        assert network.get("http://b.local/hello").ok


class TestTiming:
    def test_profile_affects_elapsed(self):
        network = SimulatedNetwork()
        network.attach(make_server())
        _, fast = network.exchange(Request.get("http://srv.local/hello"), get_profile("fiber"))
        _, slow = network.exchange(Request.get("http://srv.local/hello"), get_profile("2g"))
        assert slow > fast

    def test_clock_advances_with_env(self):
        env = SimulationEnvironment()
        network = SimulatedNetwork(env)
        network.attach(make_server())
        before = env.now
        _, elapsed = network.exchange(Request.get("http://srv.local/hello"))
        assert env.now == pytest.approx(before + elapsed)

    def test_no_env_no_clock(self):
        network = SimulatedNetwork()
        network.attach(make_server())
        network.get("http://srv.local/hello")  # must not raise


class TestAccounting:
    def test_stats_count_each_exchange(self):
        network = SimulatedNetwork()
        network.attach(make_server())
        assert network.get("http://srv.local/hello").text == "world"
        assert network.post_json("http://srv.local/echo", {"a": 1}).json() == {"a": 1}
        assert network.stats.requests == 2
        assert network.stats.bytes_up > 0
        assert network.stats.bytes_down > 0

    def test_error_counted(self):
        network = SimulatedNetwork()
        network.attach(make_server())
        network.get("http://srv.local/missing")
        assert network.stats.errors == 1


class TestClient:
    def test_accumulates_transfer_time(self):
        network = SimulatedNetwork()
        network.attach(make_server())
        client = Client(network, get_profile("3g"))
        client.get("http://srv.local/hello")
        client.post_json("http://srv.local/echo", {"x": 1})
        assert client.requests_made == 2
        assert client.total_transfer_seconds > 0

    def test_failed_exchange_still_counted(self):
        # A failed connection consumed the participant's time: the attempt
        # and its elapsed seconds must land in the client counters even
        # though exchange() raised.
        network = SimulatedNetwork()
        network.attach(make_server())
        network.detach("srv.local")
        client = Client(network, get_profile("3g"))
        with pytest.raises(NetworkError):
            client.get("http://ghost.local/hello")
        assert client.requests_made == 1
        assert client.failed_requests == 1


class TestRetainedMemory:
    """The network and the server keep nothing per request: the traffic
    counters are the aggregate record, and an observed run's spans the
    per-request one."""

    def test_gets_retain_no_memory_per_request(self):
        network = SimulatedNetwork(SimulationEnvironment())
        network.attach(make_server())
        request = Request.get("http://srv.local/hello")
        for _ in range(200):  # warm every lazily built cache first
            network.exchange(request)
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(2000):
                network.exchange(Request.get("http://srv.local/hello"))
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert network.stats.requests == 2200
        assert after - before < 64 * 1024


class TestHostCaseNormalization:
    def test_mixed_case_host_roundtrip(self):
        # Regression: attach() stored the host verbatim while exchange()
        # lowercased the request host, so a server constructed with a
        # mixed-case name was unreachable.
        server = make_server()
        server.host = "Example.COM"
        network = SimulatedNetwork()
        network.attach(server)
        assert network.get("http://example.com/hello").ok
        assert network.get("http://EXAMPLE.com/hello").ok
        network.detach("eXaMpLe.CoM")
        with pytest.raises(NetworkError):
            network.get("http://example.com/hello")


def _counting_size(counts, original):
    """A ``size_bytes`` property that tallies reads per message object."""

    def read(message):
        counts[id(message)] = counts.get(id(message), 0) + 1
        return original.fget(message)

    return property(read)


class _CountingUrl(str):
    """A URL string that tallies the splitting calls made on it."""

    calls = 0

    def _counted(name):
        def method(self, *args):
            type(self).calls += 1
            return getattr(str, name)(self, *args)

        return method

    split = _counted("split")
    rsplit = _counted("rsplit")
    partition = _counted("partition")
    rpartition = _counted("rpartition")
    find = _counted("find")
    rfind = _counted("rfind")
    del _counted


class TestExchangeCost:
    """One exchange does its bookkeeping once: each message is sized once,
    the URL is split once, and the clock moves without touching the event
    queue."""

    def _exchange_both(self, network):
        """Both exchanges' messages, returned so that they stay alive and no
        ``id`` is reused while a test counts by it."""
        requests = [
            Request.get("http://srv.local/hello"),
            Request.post_json("http://srv.local/echo", {"a": [1, 2]}),
        ]
        return requests, [network.exchange(request) for request in requests]

    def test_each_message_sized_once(self, monkeypatch):
        requests, responses = {}, {}
        monkeypatch.setattr(
            Request, "size_bytes", _counting_size(requests, Request.size_bytes)
        )
        monkeypatch.setattr(
            Response, "size_bytes", _counting_size(responses, Response.size_bytes)
        )
        network = SimulatedNetwork(SimulationEnvironment())
        network.attach(make_server())
        messages = self._exchange_both(network)
        assert sorted(requests.values()) == [1, 1]
        assert sorted(responses.values()) == [1, 1]
        assert network.stats.bytes_up > 0 and network.stats.bytes_down > 0
        del messages

    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_url_split_once_per_request(self, method):
        network = SimulatedNetwork(SimulationEnvironment())
        network.attach(make_server())
        client = Client(network, get_profile("3g"))
        _CountingUrl.calls = 0
        if method == "GET":
            response = client.get(_CountingUrl("http://srv.local/hello"))
        else:
            response = client.post_json(_CountingUrl("http://srv.local/echo"), {"a": 1})
        assert response.ok
        assert _CountingUrl.calls == 1
        assert network.stats.requests == 1
        if method == "GET":
            assert response.text == "world"
        else:
            assert response.json() == {"a": 1}

    def test_event_queue_untouched(self, monkeypatch):
        env = SimulationEnvironment()
        network = SimulatedNetwork(env)
        network.attach(make_server())
        pushes = []
        original_push = env.queue.push
        monkeypatch.setattr(
            env.queue, "push", lambda *a, **k: pushes.append(a) or original_push(*a, **k)
        )
        before = env.schedule_in(1000.0, lambda: None)
        self._exchange_both(network)
        network.wait(0.25)
        after = env.schedule_in(1000.0, lambda: None)
        assert len(pushes) == 2  # only the two probes above
        assert after.sequence == before.sequence + 1
        assert len(env.queue) == 2
        assert env.now > 0.25


def _identity_server():
    """A host whose routes drive every branch of ``SimulatedNetwork.exchange``."""
    server = make_server()
    router = server.router
    for path in ("/spike", "/boom", "/drop", "/slow"):
        router.get(path, lambda r: Response.text_response("x" * 700))

    def queued(request):
        response = Response.text_response("queued")
        response.headers[QUEUE_DELAY_MS_HEADER] = "250"
        return response

    def collapse(request):
        response = Response.text_response("lost")
        response.headers[TIMED_OUT_HEADER] = "2500"
        return response

    busy_calls = []

    def busy(request):
        busy_calls.append(request.path)
        if len(busy_calls) == 1:
            response = Response.json_response({"error": "busy"}, status=429)
            response.headers[OVERLOAD_HEADER] = "reject"
            response.headers[RETRY_AFTER_HEADER] = "1.5"
            return response
        return Response.text_response("ok")

    router.get("/queued", queued)
    router.get("/collapse", collapse)
    router.get("/busy", busy)
    return server


#: The fault each traffic counter names, most specific first.
_FAULT_COUNTERS = (
    ("overload_timeouts", "overload-timeout"),
    ("drops", FAULT_DROP),
    ("timeouts", FAULT_TIMEOUT),
    ("injected_errors", FAULT_5XX),
    ("latency_spikes", FAULT_LATENCY),
)


class _RowNetwork(SimulatedNetwork):
    """Rebuilds one row per exchange from what a caller sees: the clock
    before it, the returned (or raised) elapsed time, the message sizes,
    the status, and the fault named by the traffic counter it moved."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rows = []

    def exchange(self, request, profile=None, now=None, fault_token=None):
        start = self.env.now
        before = dataclasses.asdict(self.stats)

        def row(elapsed, response):
            after = dataclasses.asdict(self.stats)
            fault = next(
                (kind for name, kind in _FAULT_COUNTERS if after[name] > before[name]),
                "",
            )
            self.rows.append(
                (
                    start,
                    elapsed,
                    request.size_bytes,
                    0 if response is None else response.size_bytes,
                    0 if response is None else response.status,
                    fault,
                )
            )

        try:
            response, elapsed = super().exchange(request, profile, now, fault_token)
        except NetworkError as exc:
            row(exc.elapsed_seconds, None)
            raise
        row(elapsed, response)
        return response, elapsed


def _identity_script(network_cls=_RowNetwork):
    """Run one exchange down every path; return what the parent pinned."""
    plan = FaultPlan(
        seed=3,
        rules=[
            FaultRule(FAULT_LATENCY, 1.0, path_prefix="/spike", latency_multiplier=4.0),
            FaultRule(FAULT_5XX, 1.0, path_prefix="/boom", status=502),
            FaultRule(FAULT_DROP, 1.0, path_prefix="/drop"),
            FaultRule(FAULT_TIMEOUT, 1.0, path_prefix="/slow", timeout_seconds=3.0),
        ],
    )
    env = SimulationEnvironment(start=2.5)
    network = network_cls(env, fault_plan=plan)
    network.attach(_identity_server())
    for name in ("fiber", "3g", "2g"):
        network.exchange(Request.get("http://srv.local/hello"), get_profile(name))
    network.exchange(
        Request.post_json("http://srv.local/echo", {"q": "a", "v": [1, 2, 3]}),
        get_profile("dsl"),
    )
    network.exchange(Request.get("http://srv.local/spike"), get_profile("4g"))
    network.exchange(Request.get("http://srv.local/boom"), get_profile("cable"))
    network.exchange(Request.get("http://srv.local/queued"), get_profile("cable"))
    for url, error in (
        ("http://srv.local/drop", ConnectionDropped),
        ("http://srv.local/slow", errors.TimeoutError),
        ("http://srv.local/collapse", errors.TimeoutError),
    ):
        with pytest.raises(error):
            network.exchange(Request.get(url), get_profile("3g"))
    client = Client(
        network,
        get_profile("3g-slow"),
        retry_policy=RetryPolicy(max_attempts=3),
    )
    assert client.get("http://srv.local/busy").ok
    network.wait(0.125)
    return env.now, network.rows, dataclasses.asdict(network.stats), client.backoff_seconds


# ``_identity_script`` as it ran when every transfer and backoff still
# pushed a no-op event onto the simulation heap to move the clock, less the
# one step to a host that refused connections: the exchanges after it start
# its 0.15 s RTT earlier.
PINNED_NOW = 12.333269977777777
PINNED_LOG = [
    (2.5, 0.0040096, 57, 63, 200, ""),
    (2.5040096, 0.15090875, 57, 63, 200, ""),
    (2.65491835, 0.80358125, 57, 63, 200, ""),
    (3.4584996, 0.052745, 110, 85, 200, ""),
    (3.5112446, 0.2828977777777778, 57, 758, 200, "latency"),
    (3.794142377777778, 0.0286416, 56, 121, 502, "5xx"),
    (3.8227839777777777, 0.278616, 58, 95, 200, ""),
    (4.101399977777778, 0.15, 56, 0, 0, "drop"),
    (4.251399977777778, 3.0, 56, 0, 0, "timeout"),
    (7.251399977777778, 2.65107, 60, 0, 0, "overload-timeout"),
    (9.902469977777777, 0.40348, 56, 118, 429, ""),
    (11.805949977777777, 0.40232, 56, 60, 200, ""),
]
PINNED_STATS = {
    "requests": 12, "bytes_up": 736, "bytes_down": 1426, "errors": 5,
    "faults_injected": 4, "drops": 1, "timeouts": 2, "injected_errors": 1,
    "latency_spikes": 1, "rejections": 1, "deferrals": 0, "shed_responses": 0,
    "overload_timeouts": 1, "queue_delay_ms": 250,
}


class TestVirtualTimeIdentity:
    """The clock, the per-exchange rows and the traffic counters of a
    scripted run, pinned before the exchange stopped pushing an event per
    transfer."""

    def test_script_reproduces_pinned_timeline(self):
        now, log, stats, backoff = _identity_script()
        assert now == PINNED_NOW
        assert log == PINNED_LOG
        assert stats == PINNED_STATS
        assert backoff == 1.5

    def test_one_clock_hook_sees_each_transfer_and_backoff_once(self):
        """A subclass overriding only ``_advance`` journals every transfer
        and every wait exactly once, and replaying its journal reproduces
        the clock bit for bit (what the process fan-out relies on)."""
        journals = []

        class Journaling(_RowNetwork):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.journal = []
                journals.append(self.journal)

            def _advance(self, elapsed):
                self.journal.append(elapsed)
                super()._advance(elapsed)

        now, log, _, backoff = _identity_script(Journaling)
        (journal,) = journals
        transfers = [entry[1] for entry in log]
        # The 429's Retry-After backoff sits between it and its retry; the
        # script's closing ``wait(0.125)`` comes last.
        assert journal == transfers[:-1] + [backoff] + transfers[-1:] + [0.125]
        replay = SimulationEnvironment(start=2.5)
        plain = SimulatedNetwork(replay)
        for elapsed in journal:
            plain.wait(elapsed)
        assert replay.now == now == PINNED_NOW

    def test_callbacks_inside_and_at_end_of_transfer_fire_in_order(self):
        probe = SimulatedNetwork()
        probe.attach(make_server())
        profile = get_profile("2g")
        _, elapsed = probe.exchange(Request.get("http://srv.local/hello"), profile)

        env = SimulationEnvironment(start=10.0)
        network = SimulatedNetwork(env)
        network.attach(make_server())
        fired = []

        def record(label):
            return lambda: fired.append((label, env.now))

        start = env.now
        end = start + elapsed
        env.schedule_at(start + elapsed / 2, record("inside"))
        env.schedule_at(end, lambda: (fired.append(("end", env.now)),
                                      env.schedule_at(end, record("chained"))))
        env.schedule_at(end + 1.0, record("after"))
        _, got = network.exchange(Request.get("http://srv.local/hello"), profile)
        assert got == elapsed
        assert fired == [
            ("inside", start + elapsed / 2), ("end", end), ("chained", end)
        ]
        assert env.now == end
        network.wait(2.0)
        assert fired[-1] == ("after", end + 1.0)
        assert env.now == end + 2.0
