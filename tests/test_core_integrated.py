"""Tests for integrated (two-iframe) webpage composition."""

from repro.core.integrated import (
    CONTROL_IDENTICAL,
    IntegratedWebpage,
    compose_integrated_page,
    frame_sources,
)
from repro.html.parser import parse_html
from repro.html.selectors import query_selector_all
from repro.html.serializer import serialize


class TestComposition:
    def test_two_iframes_side_by_side(self):
        document = compose_integrated_page("i1", "/a.html", "/b.html")
        frames = document.root.get_elements_by_tag("iframe")
        assert len(frames) == 2
        assert frames[0].id == "kaleidoscope-left"
        assert frames[1].id == "kaleidoscope-right"

    def test_sources_wired(self):
        document = compose_integrated_page("i1", "/left.html", "/right.html")
        assert frame_sources(document) == ("/left.html", "/right.html")

    def test_integrated_id_on_body(self):
        document = compose_integrated_page("pair-007", "/a", "/b")
        assert document.body.get("data-integrated-id") == "pair-007"

    def test_instructions_banner_optional(self):
        without = compose_integrated_page("i", "/a", "/b")
        with_banner = compose_integrated_page("i", "/a", "/b", instructions="Compare!")
        assert not query_selector_all(without, ".kaleidoscope-banner")
        banner = query_selector_all(with_banner, ".kaleidoscope-banner")[0]
        assert banner.text_content == "Compare!"

    def test_frames_sandboxed(self):
        document = compose_integrated_page("i", "/a", "/b")
        for frame in document.root.get_elements_by_tag("iframe"):
            assert frame.get("sandbox") == "allow-scripts"

    def test_html_round_trips(self):
        document = compose_integrated_page("i1", "/a.html", "/b.html", instructions="Hi")
        reparsed = parse_html(serialize(document))
        assert frame_sources(reparsed) == ("/a.html", "/b.html")

    def test_frame_sources_none_for_plain_page(self):
        assert frame_sources(parse_html("<p>x</p>")) is None


class TestIntegratedWebpageRecord:
    def test_round_trip(self):
        page = IntegratedWebpage(
            integrated_id="i1",
            test_id="t1",
            left_version="a",
            right_version="b",
            storage_path="t1/integrated/i1.html",
            control_kind=CONTROL_IDENTICAL,
            expected_answer="same",
        )
        assert IntegratedWebpage.from_dict(page.as_dict()) == page

    def test_is_control(self):
        control = IntegratedWebpage("i", "t", "a", "a", "p", CONTROL_IDENTICAL, "same")
        regular = IntegratedWebpage("i", "t", "a", "b", "p")
        assert control.is_control
        assert not regular.is_control

    def test_from_dict_defaults(self):
        page = IntegratedWebpage.from_dict(
            {
                "integrated_id": "i",
                "test_id": "t",
                "left_version": "a",
                "right_version": "b",
                "storage_path": "p",
            }
        )
        assert not page.is_control
        assert page.expected_answer == ""
