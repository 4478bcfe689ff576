"""Tests for the SingleFile-equivalent resource inliner."""

import pytest

from repro.html.inliner import (
    Inliner,
    decode_data_url,
    is_self_contained,
    to_data_url,
)
from repro.html.parser import parse_html
from repro.html.selectors import query_selector_all
from repro.net.fetch import StaticResourceMap

PAGE_URL = "http://site.local/page/index.html"


@pytest.fixture
def resources():
    return StaticResourceMap(
        {
            "http://site.local/page/style.css": "p { background: url('bg.png') }",
            "http://site.local/page/bg.png": b"\x89PNGfake",
            "http://site.local/page/app.js": "console.log('hi');",
            "http://site.local/page/photo.png": b"\x89PNGphoto",
            "http://site.local/favicon.ico": b"\x00icon",
        }
    )


@pytest.fixture
def page():
    return parse_html(
        """<html><head>
<link rel="stylesheet" href="style.css">
<link rel="icon" href="/favicon.ico">
<script src="app.js"></script>
</head><body>
<img src="photo.png">
<div style="background: url(bg.png)">x</div>
</body></html>"""
    )


class TestDataUrls:
    def test_round_trip(self):
        url = to_data_url("image/png", b"\x01\x02")
        assert url.startswith("data:image/png;base64,")
        assert decode_data_url(url) == b"\x01\x02"

    def test_decode_plain_data_url(self):
        assert decode_data_url("data:text/plain,hello") == b"hello"

    def test_decode_non_data_url_rejected(self):
        with pytest.raises(ValueError):
            decode_data_url("http://x/")


class TestInlining:
    def test_stylesheet_becomes_style_element(self, page, resources):
        report = Inliner(resources).inline(page, PAGE_URL)
        assert report.inlined_stylesheets == 1
        assert not page.root.find_all(
            lambda e: e.tag == "link" and "stylesheet" in (e.get("rel") or "")
        )
        style = query_selector_all(page, "style")[0]
        assert "background" in style.children[0].data

    def test_css_urls_inside_stylesheet_inlined(self, page, resources):
        Inliner(resources).inline(page, PAGE_URL)
        style = query_selector_all(page, "style")[0]
        assert "data:image/png;base64" in style.children[0].data

    def test_script_inlined(self, page, resources):
        report = Inliner(resources).inline(page, PAGE_URL)
        assert report.inlined_scripts == 1
        script = query_selector_all(page, "script")[0]
        assert script.get("src") is None
        assert "console.log" in script.children[0].data

    def test_image_inlined(self, page, resources):
        report = Inliner(resources).inline(page, PAGE_URL)
        img = query_selector_all(page, "img")[0]
        assert img.get("src").startswith("data:image/png;base64,")
        assert decode_data_url(img.get("src")) == b"\x89PNGphoto"
        assert report.inlined_images >= 1

    def test_favicon_inlined(self, page, resources):
        Inliner(resources).inline(page, PAGE_URL)
        icon = page.root.find_first(
            lambda e: e.tag == "link" and "icon" in (e.get("rel") or "")
        )
        assert icon.get("href").startswith("data:")

    def test_inline_style_attribute_urls(self, page, resources):
        Inliner(resources).inline(page, PAGE_URL)
        div = query_selector_all(page, "div")[0]
        assert "data:image/png;base64" in div.get("style")

    def test_result_is_self_contained(self, page, resources):
        assert not is_self_contained(page)
        Inliner(resources).inline(page, PAGE_URL)
        assert is_self_contained(page)

    def test_bytes_accounted(self, page, resources):
        report = Inliner(resources).inline(page, PAGE_URL)
        assert report.bytes_inlined > 0


class TestFailureTolerance:
    def test_missing_resource_recorded_not_raised(self):
        page = parse_html('<img src="missing.png">')
        report = Inliner(StaticResourceMap()).inline(page, PAGE_URL)
        assert len(report.failures) == 1
        assert "missing.png" in report.failures[0]
        assert query_selector_all(page, "img")[0].get("src") == "missing.png"

    def test_partial_failure_still_inlines_rest(self, resources):
        page = parse_html('<img src="photo.png"><img src="missing.png">')
        report = Inliner(resources).inline(page, PAGE_URL)
        assert report.inlined_images == 1
        assert len(report.failures) == 1


class TestIdempotence:
    def test_already_inlined_content_untouched(self, page, resources):
        inliner = Inliner(resources)
        inliner.inline(page, PAGE_URL)
        first = query_selector_all(page, "img")[0].get("src")
        report = inliner.inline(page, PAGE_URL)
        assert query_selector_all(page, "img")[0].get("src") == first
        assert report.inlined_images == 0
        assert report.failures == []


class TestIsSelfContained:
    def test_empty_page(self):
        assert is_self_contained(parse_html("<p>x</p>"))

    def test_external_script_detected(self):
        assert not is_self_contained(parse_html('<script src="x.js"></script><p>t</p>'))

    def test_external_css_url_in_style_attr_detected(self):
        assert not is_self_contained(parse_html('<div style="background: url(x.png)">t</div>'))

    def test_data_urls_are_fine(self):
        page = parse_html(
            '<img src="data:image/png;base64,AA">'
            '<div style="background: url(data:image/png;base64,BB)">t</div>'
        )
        assert is_self_contained(page)
