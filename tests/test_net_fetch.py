"""Tests for resource fetching."""

import pytest

from repro.errors import FetchError
from repro.net.fetch import FetchedResource, StaticResourceMap


class TestStaticResourceMap:
    def test_fetch_text(self):
        resources = StaticResourceMap({"http://h/a.css": "p{}"})
        fetched = resources.fetch("http://h/a.css")
        assert fetched.text == "p{}"
        assert fetched.content_type == "text/css"

    def test_fetch_bytes(self):
        resources = StaticResourceMap({"http://h/a.png": b"\x89PNG"})
        assert resources.fetch("http://h/a.png").body_bytes == b"\x89PNG"

    def test_explicit_content_type(self):
        resources = StaticResourceMap()
        resources.add("http://h/data", "x", content_type="application/custom")
        assert resources.fetch("http://h/data").content_type == "application/custom"

    def test_missing_raises_fetch_error(self):
        with pytest.raises(FetchError) as excinfo:
            StaticResourceMap().fetch("http://h/none")
        assert excinfo.value.status == 404

    def test_contains_and_len(self):
        resources = StaticResourceMap({"http://h/a": "1", "http://h/b": "2"})
        assert "http://h/a" in resources
        assert len(resources) == 2


class TestFetchedResource:
    def test_size(self):
        assert FetchedResource("u", "text/plain", b"abc").size_bytes == 3

    def test_text_decoding_lossy(self):
        assert "�" in FetchedResource("u", "text/plain", b"\xff\xfe").text
