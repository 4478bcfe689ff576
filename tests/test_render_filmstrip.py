"""Tests for the filmstrip view."""

import pytest

from repro.errors import ValidationError
from repro.html.parser import parse_html
from repro.render.filmstrip import (
    build_filmstrip,
    filmstrips_side_by_side,
)
from repro.render.paint import build_paint_timeline
from repro.render.replay import SelectorSchedule, UniformRandomSchedule

PAGE = parse_html(
    '<div id="nav"><p>navigation</p></div>'
    '<div id="main"><p>main body content with some words</p></div>'
)


def timeline_for(nav_ms=1000, main_ms=3000):
    schedule = SelectorSchedule.from_pairs(
        [("#nav", nav_ms), ("#main", main_ms)], default_ms=nav_ms
    )
    return build_paint_timeline(PAGE, schedule)


class TestBuildFilmstrip:
    def test_covers_whole_load(self):
        strip = build_filmstrip(timeline_for(), interval_ms=500)
        assert strip.frames[0].time_ms == 0
        assert strip.frames[-1].time_ms >= 3000

    def test_completeness_monotone(self):
        strip = build_filmstrip(timeline_for(), interval_ms=250)
        values = [f.completeness for f in strip.frames]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)

    def test_newly_painted_sums_to_events(self):
        timeline = timeline_for()
        strip = build_filmstrip(timeline, interval_ms=500)
        assert sum(f.newly_painted for f in strip.frames) == len(timeline.events)

    def test_complete_frame(self):
        strip = build_filmstrip(timeline_for(1000, 3000), interval_ms=500)
        assert strip.visually_complete_frame().time_ms == 3000

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValidationError):
            build_filmstrip(timeline_for(), interval_ms=0)

    def test_instant_load_single_settled_strip(self):
        timeline = build_paint_timeline(PAGE, UniformRandomSchedule(0))
        strip = build_filmstrip(timeline, interval_ms=500)
        assert strip.frames[0].completeness == pytest.approx(1.0)


class TestRendering:
    def test_ascii_has_one_line_per_frame(self):
        strip = build_filmstrip(timeline_for(), interval_ms=1000)
        lines = strip.render_ascii().splitlines()
        assert len(lines) == strip.frame_count
        assert "100.0%" in lines[-1]

    def test_bar_width_respected(self):
        strip = build_filmstrip(timeline_for(), interval_ms=1000)
        frame = strip.frames[-1]
        assert len(frame.bar(20)) == 20

    def test_side_by_side(self):
        left = build_filmstrip(timeline_for(1000, 3000), interval_ms=1000)
        right = build_filmstrip(timeline_for(3000, 1000), interval_ms=1000)
        text = filmstrips_side_by_side(left, right)
        assert "time" in text.splitlines()[0]
        assert len(text.splitlines()) == max(left.frame_count, right.frame_count) + 1

    def test_side_by_side_interval_mismatch_rejected(self):
        left = build_filmstrip(timeline_for(), interval_ms=500)
        right = build_filmstrip(timeline_for(), interval_ms=1000)
        with pytest.raises(ValidationError):
            filmstrips_side_by_side(left, right)
