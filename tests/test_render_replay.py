"""Tests for page-load replay schedules."""

import numpy as np
import pytest

from repro.errors import ReplayError
from repro.html.parser import parse_html
from repro.render.replay import (
    SelectorSchedule,
    UniformRandomSchedule,
    compute_reveal_times,
    schedule_from_parameter,
)


@pytest.fixture
def page():
    return parse_html(
        """
<div id="navbar"><a href="/a">A</a><a href="/b">B</a></div>
<div id="main">
  <h1 id="title">Title</h1>
  <p id="p1">first paragraph</p>
  <p id="p2">second paragraph</p>
</div>
"""
    )


def time_of(page, times, element_id):
    return times[id(page.get_element_by_id(element_id))]


class TestUniformRandomSchedule:
    def test_times_within_duration(self, page):
        times = compute_reveal_times(page, UniformRandomSchedule(2000), seed=1)
        assert times
        assert all(0 <= t <= 2000 for t in times.values())

    def test_zero_duration_all_zero(self, page):
        times = compute_reveal_times(page, UniformRandomSchedule(0), seed=1)
        assert set(times.values()) == {0.0}

    def test_seed_reproducible(self, page):
        a = compute_reveal_times(page, UniformRandomSchedule(2000), seed=9)
        b = compute_reveal_times(page, UniformRandomSchedule(2000), seed=9)
        assert a == b

    def test_different_seeds_differ(self, page):
        a = compute_reveal_times(page, UniformRandomSchedule(2000), seed=1)
        b = compute_reveal_times(page, UniformRandomSchedule(2000), seed=2)
        assert a != b

    def test_negative_duration_rejected(self):
        with pytest.raises(ReplayError):
            UniformRandomSchedule(-5)

    def test_parameter_encoding(self):
        assert UniformRandomSchedule(2000).to_parameter() == 2000


class TestSelectorSchedule:
    def test_selector_times_applied(self, page):
        schedule = SelectorSchedule.from_pairs(
            [("#navbar", 1000), ("#main", 1500)], default_ms=0
        )
        times = compute_reveal_times(page, schedule)
        assert time_of(page, times, "navbar") == 1000
        assert time_of(page, times, "main") == 1500

    def test_descendants_inherit_selector_time(self, page):
        schedule = SelectorSchedule.from_pairs([("#main", 1500)], default_ms=0)
        times = compute_reveal_times(page, schedule)
        assert time_of(page, times, "p1") == 1500
        assert time_of(page, times, "title") == 1500

    def test_later_entries_override(self, page):
        schedule = SelectorSchedule.from_pairs(
            [("#main", 2000), ("#main p", 500)], default_ms=0
        )
        times = compute_reveal_times(page, schedule)
        assert time_of(page, times, "p1") == 500
        assert time_of(page, times, "title") == 2000

    def test_default_for_unmatched(self, page):
        schedule = SelectorSchedule.from_pairs([("#main", 1000)], default_ms=250)
        times = compute_reveal_times(page, schedule)
        assert time_of(page, times, "navbar") == 250

    def test_ancestor_constraint(self, page):
        # Paragraph revealed early forces #main visible no later.
        schedule = SelectorSchedule.from_pairs(
            [("#main", 3000), ("#p1", 100)], default_ms=3000
        )
        times = compute_reveal_times(page, schedule)
        assert time_of(page, times, "main") <= 100

    def test_invalid_selector_rejected_eagerly(self):
        with pytest.raises(Exception):
            SelectorSchedule.from_pairs([("@@@", 100)])

    def test_negative_time_rejected(self):
        with pytest.raises(ReplayError):
            SelectorSchedule.from_pairs([("#a", -1)])


class TestScheduleFromParameter:
    def test_number_becomes_uniform(self):
        schedule = schedule_from_parameter(2000)
        assert isinstance(schedule, UniformRandomSchedule)
        assert schedule.duration_ms == 2000

    def test_array_becomes_selector_schedule(self):
        schedule = schedule_from_parameter([{"#main": 1000}, {"#content p": 1500}])
        assert isinstance(schedule, SelectorSchedule)
        assert schedule.entries == (("#main", 1000.0), ("#content p", 1500.0))

    def test_round_trip(self):
        original = SelectorSchedule.from_pairs([("#x", 1000)], default_ms=0)
        assert schedule_from_parameter(original.to_parameter()).entries == original.entries

    def test_boolean_rejected(self):
        with pytest.raises(ReplayError):
            schedule_from_parameter(True)

    def test_multi_key_object_rejected(self):
        with pytest.raises(ReplayError):
            schedule_from_parameter([{"#a": 1, "#b": 2}])

    def test_non_numeric_time_rejected(self):
        with pytest.raises(ReplayError):
            schedule_from_parameter([{"#a": "soon"}])

    def test_other_types_rejected(self):
        with pytest.raises(ReplayError):
            schedule_from_parameter("2000")
