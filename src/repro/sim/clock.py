"""Virtual clock and simulation environment.

:class:`SimulationEnvironment` is the run loop: components schedule callbacks
at absolute virtual times (seconds) and the environment executes them in
order, advancing :class:`Clock`. Time helpers express the paper's units —
the recruitment figure is in days, page loads in milliseconds.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.events import Event, EventQueue

SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0


def minutes(value: float) -> float:
    """Convert minutes to simulation seconds."""
    return value * SECONDS_PER_MINUTE


def hours(value: float) -> float:
    """Convert hours to simulation seconds."""
    return value * SECONDS_PER_HOUR


def days(value: float) -> float:
    """Convert days to simulation seconds."""
    return value * SECONDS_PER_DAY


def milliseconds(value: float) -> float:
    """Convert milliseconds to simulation seconds."""
    return value / 1000.0


class Clock:
    """Monotonically advancing virtual time, in seconds."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time``; going backwards is a bug."""
        if time < self._now:
            raise ValueError(f"clock cannot go backwards: {time} < {self._now}")
        self._now = time


class SimulationEnvironment:
    """The event loop tying the clock and the event queue together."""

    def __init__(self, start: float = 0.0):
        self.clock = Clock(start)
        self.queue = EventQueue()
        self._running = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.clock.now

    def schedule_at(self, time: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule a callback at an absolute virtual time."""
        if time < self.clock.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now={self.clock.now}"
            )
        return self.queue.push(time, callback, label)

    def schedule_in(self, delay: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule a callback ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.queue.push(self.clock.now + delay, callback, label)

    def step(self) -> bool:
        """Execute the next event; return False when the queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        event.callback()
        return True

    def run(
        self,
        until: Optional[float] = None,
        stop_when: Optional[Callable[[], bool]] = None,
        max_events: int = 10_000_000,
    ) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``stop_when()`` becomes true. Returns the final virtual time.

        ``max_events`` guards against accidental infinite self-rescheduling.
        """
        executed = 0
        while True:
            if stop_when is not None and stop_when():
                break
            next_time = self.queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.clock.advance_to(until)
                break
            self.step()
            executed += 1
            if executed >= max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
        if until is not None and self.clock.now < until and self.queue.peek_time() is None:
            # Drained early: advance to the requested horizon so callers can
            # rely on `now == until` after a bounded run.
            self.clock.advance_to(until)
        return self.clock.now
