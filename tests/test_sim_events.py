"""Tests for the discrete-event queue."""

import pytest

from repro.sim.events import EventQueue


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(3.0, lambda: fired.append("c"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(2.0, lambda: fired.append("b"))
        while True:
            event = queue.pop()
            if event is None:
                break
            event.callback()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None, label="first")
        second = queue.push(1.0, lambda: None, label="second")
        assert queue.pop() is first
        assert queue.pop() is second

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(5.0, lambda: None)
        assert queue.peek_time() == 5.0

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(-1.0, lambda: None)

    def test_clear(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        assert len(queue) == 1
        queue.clear()
        assert len(queue) == 0
        assert queue.pop() is None

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_zero_time_accepted(self):
        queue = EventQueue()
        event = queue.push(0.0, lambda: None, label="start")
        assert (event.time, event.label) == (0.0, "start")
        assert queue.peek_time() == 0.0

    def test_peek_does_not_remove(self):
        queue = EventQueue()
        queue.push(2.0, lambda: None)
        assert queue.peek_time() == queue.peek_time() == 2.0
        assert len(queue) == 1

    def test_len_counts_pushes_and_pops(self):
        queue = EventQueue()
        for t in (3.0, 1.0, 2.0):
            queue.push(t, lambda: None)
        assert len(queue) == 3
        queue.pop()
        assert len(queue) == 2

    def test_sequence_keeps_counting_after_clear(self):
        queue = EventQueue()
        before = queue.push(1.0, lambda: None)
        queue.clear()
        first = queue.push(1.0, lambda: None)
        second = queue.push(1.0, lambda: None)
        assert before.sequence < first.sequence < second.sequence
        assert queue.pop() is first

    def test_events_order_by_time_then_sequence(self):
        queue = EventQueue()
        late = queue.push(2.0, lambda: None)
        early_b = queue.push(1.0, lambda: None)
        early_a = queue.push(1.0, lambda: None)
        assert sorted([late, early_a, early_b]) == [early_b, early_a, late]
