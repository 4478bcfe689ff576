"""Priority event queue for the discrete-event simulator.

Events are ordered by ``(time, sequence)``: ties in virtual time are broken
by insertion order, which keeps runs deterministic regardless of callback
identity (functions are not orderable).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass(order=True)
class Event:
    """A scheduled callback."""

    time: float
    sequence: int
    callback: Callable[[], Any] = field(compare=False)
    label: str = field(default="", compare=False)


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects."""

    def __init__(self):
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` at virtual ``time``; returns its event."""
        if time < 0:
            raise ValueError(f"event time must be >= 0, got {time}")
        event = Event(time=time, sequence=next(self._counter), callback=callback, label=label)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest event, or None."""
        return heapq.heappop(self._heap) if self._heap else None

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next event, or None if the queue is drained."""
        return self._heap[0].time if self._heap else None

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
