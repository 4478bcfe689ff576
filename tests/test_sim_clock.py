"""Tests for the virtual clock and simulation environment."""

import pytest

from repro.sim.clock import (
    Clock,
    SimulationEnvironment,
    days,
    hours,
    milliseconds,
    minutes,
)


class TestTimeHelpers:
    def test_units(self):
        assert minutes(2) == 120
        assert hours(1) == 3600
        assert days(1) == 86400
        assert milliseconds(1500) == 1.5


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_advance(self):
        clock = Clock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_backwards_rejected(self):
        clock = Clock(5.0)
        with pytest.raises(ValueError):
            clock.advance_to(4.0)


class TestSimulationEnvironment:
    def test_events_execute_in_order_and_advance_clock(self):
        env = SimulationEnvironment()
        log = []
        env.schedule_at(2.0, lambda: log.append(("b", env.now)))
        env.schedule_at(1.0, lambda: log.append(("a", env.now)))
        env.run()
        assert log == [("a", 1.0), ("b", 2.0)]
        assert env.now == 2.0

    def test_schedule_in_is_relative(self):
        env = SimulationEnvironment(start=100.0)
        fired = []
        env.schedule_in(5.0, lambda: fired.append(env.now))
        env.run()
        assert fired == [105.0]

    def test_scheduling_in_the_past_rejected(self):
        env = SimulationEnvironment(start=10.0)
        with pytest.raises(ValueError):
            env.schedule_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        env = SimulationEnvironment()
        with pytest.raises(ValueError):
            env.schedule_in(-1.0, lambda: None)

    def test_run_until_stops_before_later_events(self):
        env = SimulationEnvironment()
        fired = []
        env.schedule_at(1.0, lambda: fired.append(1))
        env.schedule_at(10.0, lambda: fired.append(10))
        env.run(until=5.0)
        assert fired == [1]
        assert env.now == 5.0
        env.run()  # rest still runs later
        assert fired == [1, 10]

    def test_run_until_advances_when_queue_drains(self):
        env = SimulationEnvironment()
        env.run(until=42.0)
        assert env.now == 42.0

    def test_stop_when_predicate(self):
        env = SimulationEnvironment()
        count = []
        for t in range(1, 6):
            env.schedule_at(float(t), lambda: count.append(1))
        env.run(stop_when=lambda: len(count) >= 3)
        assert len(count) == 3

    def test_self_rescheduling_guard(self):
        env = SimulationEnvironment()

        def reschedule():
            env.schedule_in(1.0, reschedule)

        env.schedule_in(1.0, reschedule)
        with pytest.raises(RuntimeError):
            env.run(max_events=100)

    def test_events_can_schedule_events(self):
        env = SimulationEnvironment()
        fired = []

        def first():
            env.schedule_in(1.0, lambda: fired.append(env.now))

        env.schedule_at(1.0, first)
        env.run()
        assert fired == [2.0]


class TestTimeHelperTable:
    @pytest.mark.parametrize(
        "helper, value, seconds",
        [(minutes, 0.5, 30.0), (hours, 0.25, 900.0), (days, 2, 172800.0),
         (milliseconds, 250, 0.25), (days, 0, 0.0)],
    )
    def test_converts_to_seconds(self, helper, value, seconds):
        assert helper(value) == pytest.approx(seconds)


class TestStepAndRun:
    def test_step_on_empty_queue_is_false(self):
        env = SimulationEnvironment(start=3.0)
        assert env.step() is False
        assert env.now == 3.0

    def test_step_runs_one_event(self):
        env = SimulationEnvironment()
        fired = []
        env.schedule_at(4.0, lambda: fired.append("x"))
        env.schedule_at(6.0, lambda: fired.append("y"))
        assert env.step() is True
        assert fired == ["x"]
        assert env.now == 4.0

    def test_run_returns_final_time(self):
        env = SimulationEnvironment()
        env.schedule_at(7.5, lambda: None)
        assert env.run() == 7.5

    def test_event_exactly_at_until_fires(self):
        env = SimulationEnvironment()
        fired = []
        env.schedule_at(5.0, lambda: fired.append(env.now))
        env.run(until=5.0)
        assert fired == [5.0]

    def test_schedule_at_now_accepted(self):
        env = SimulationEnvironment(start=2.0)
        fired = []
        env.schedule_at(2.0, lambda: fired.append(env.now))
        env.run()
        assert fired == [2.0]

    def test_stop_when_checked_before_first_event(self):
        env = SimulationEnvironment()
        fired = []
        env.schedule_at(1.0, lambda: fired.append(1))
        env.run(stop_when=lambda: True)
        assert fired == []
        assert len(env.queue) == 1

    def test_clock_start_coerced_to_float(self):
        clock = Clock(3)
        assert isinstance(clock.now, float)
        clock.advance_to(3)
        assert clock.now == 3.0
