"""Tests for the metrics registry."""

import threading

import pytest

from repro.obs.metrics import MetricsRegistry


class TestCounters:
    def test_add_and_read(self):
        m = MetricsRegistry()
        m.add("x", 2)
        m.add("x")
        assert m.counter("x") == 3
        assert m.counter("never") == 0

    def test_inc_is_add(self):
        m = MetricsRegistry()
        m.inc("hits")
        m.inc("hits", 4)
        assert m.counter("hits") == 5


class TestGauges:
    def test_last_write_wins(self):
        m = MetricsRegistry()
        m.set_gauge("roster", 10)
        m.set_gauge("roster", 20)
        assert m.snapshot()["gauges"] == {"roster": 20}


class TestHistograms:
    def test_aggregates(self):
        m = MetricsRegistry()
        for v in (3.0, 1.0, 2.0):
            m.observe("view", v)
        assert m.snapshot()["histograms"] == {
            "view": {"count": 3, "total": 6.0, "min": 1.0, "max": 3.0}
        }

    def test_order_independent(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        values = [5.0, 0.5, 2.5, 9.0]
        for v in values:
            a.observe("h", v)
        for v in reversed(values):
            b.observe("h", v)
        assert a.snapshot()["histograms"] == b.snapshot()["histograms"]


class TestTimerExceptionSafety:
    """Regression: a raising ``timed`` block must not corrupt the registry."""

    def test_raising_block_still_records(self):
        m = MetricsRegistry()
        with pytest.raises(ValueError):
            with m.timed("risky"):
                raise ValueError("boom")
        assert m.snapshot()["timers"]["risky"]["calls"] == 1
        assert m.snapshot()["timers"]["risky"]["seconds"] >= 0.0
        assert m.counter("risky.errors") == 1

    def test_clean_block_has_no_error_counter(self):
        m = MetricsRegistry()
        with m.timed("fine"):
            pass
        assert m.snapshot()["timers"]["fine"]["calls"] == 1
        assert m.counter("fine.errors") == 0

    def test_nested_raising_blocks_all_close(self):
        m = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with m.timed("outer"):
                with m.timed("inner"):
                    raise RuntimeError("deep")
        timers = m.snapshot()["timers"]
        assert timers["outer"]["calls"] == timers["inner"]["calls"] == 1
        assert m.counter("outer.errors") == 1
        assert m.counter("inner.errors") == 1

    def test_reentrant_same_name(self):
        m = MetricsRegistry()
        with m.timed("same"):
            with m.timed("same"):
                pass
            assert m.snapshot()["timers"]["same"]["calls"] == 1
        assert m.snapshot()["timers"]["same"]["calls"] == 2


class TestSnapshots:
    def test_snapshot_keeps_legacy_shape(self):
        m = MetricsRegistry()
        m.add("c", 1)
        with m.timed("t"):
            pass
        snap = m.snapshot()
        assert snap["counters"] == {"c": 1}
        assert snap["timers"]["t"]["calls"] == 1
        assert "seconds" in snap["timers"]["t"]
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_deterministic_snapshot_excludes_timers(self):
        m = MetricsRegistry()
        m.add("c", 1)
        m.set_gauge("g", 2)
        m.observe("h", 3)
        with m.timed("wall"):
            pass
        det = m.deterministic_snapshot()
        assert set(det) == {"counters", "gauges", "histograms"}
        assert det["counters"] == {"c": 1}
        assert det["gauges"] == {"g": 2}
        assert det["histograms"]["h"]["count"] == 1

    def test_reset_clears_every_section(self):
        m = MetricsRegistry()
        m.add("campaign.participants", 5)
        m.set_gauge("campaign.roster", 5)
        m.observe("participant.virtual_seconds", 1.0)
        with m.timed("campaign.participant"):
            pass
        m.reset()
        assert m.counter("campaign.participants") == 0
        assert m.snapshot() == {
            "counters": {}, "timers": {}, "gauges": {}, "histograms": {}
        }


class TestThreadSafety:
    def test_concurrent_adds_sum(self):
        m = MetricsRegistry()

        def work():
            for _ in range(500):
                m.add("n")
                m.observe("h", 1.0)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.counter("n") == 2000
        assert m.snapshot()["histograms"]["h"]["count"] == 2000


class TestPerfShim:
    """The counter/timer surface the old perf registry offered."""

    def test_legacy_surface_still_present(self):
        m = MetricsRegistry()
        m.add("legacy", 1)
        with m.timed("legacy.block"):
            pass
        snap = m.snapshot()
        assert snap["counters"]["legacy"] == 1
        assert snap["timers"]["legacy.block"]["calls"] == 1
