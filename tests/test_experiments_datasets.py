"""Tests for the synthetic experiment datasets."""

import pytest

from repro.experiments.datasets import (
    WIKIPEDIA_BASE_URL,
    build_group_page_variant,
    build_wikipedia_page,
    build_wikipedia_resources,
    group_resources_for,
    wikipedia_resources_for,
)
from repro.html.inliner import Inliner, is_self_contained
from repro.html.selectors import query_selector_all
from repro.render.layout import LayoutEngine


class TestWikipediaPage:
    def test_structure(self):
        page = build_wikipedia_page()
        assert query_selector_all(page, "#navbar")
        assert query_selector_all(page, "#mw-content-text")
        assert query_selector_all(page, "#infobox img")
        assert len(query_selector_all(page, "#mw-content-text p")) >= 6

    def test_text_heavy(self):
        page = build_wikipedia_page()
        assert len(query_selector_all(page, "#mw-content-text")[0].text_content) > 1500

    def test_lays_out(self):
        result = LayoutEngine().layout(build_wikipedia_page())
        assert result.page_height > 500

    def test_inlines_against_resources(self):
        page = build_wikipedia_page()
        assert not is_self_contained(page)
        report = Inliner(build_wikipedia_resources()).inline(
            page, f"{WIKIPEDIA_BASE_URL}/index.html"
        )
        assert report.failures == []
        assert is_self_contained(page)


class TestGroupPage:
    def test_nine_sections(self):
        page = build_group_page_variant("A")
        assert len(query_selector_all(page, ".section")) == 9
        assert len(query_selector_all(page, ".expand-button")) == 9

    def test_variant_b_edits(self):
        a, b = build_group_page_variant("A"), build_group_page_variant("B")
        button_a = query_selector_all(a, ".expand-button")[0]
        button_b = query_selector_all(b, ".expand-button")[0]
        # 1) larger text: 11px -> 16.5px (1.5x)
        assert "11px" in button_a.get("style")
        assert "16.5px" in button_b.get("style")
        # 2) captivating symbol
        assert "▶" not in button_a.text_content
        assert "▶" in button_b.text_content
        # 3) position: inside the blurb paragraph instead of the heading
        assert button_a.parent.tag == "h2"
        assert button_b.parent.tag == "p"

    def test_invalid_variant_rejected(self):
        with pytest.raises(ValueError):
            build_group_page_variant("C")

    def test_inlines_against_resources(self):
        page = build_group_page_variant("B")
        report = Inliner(group_resources_for(["group-b"])).inline(
            page, "http://test.local/group-b/index.html"
        )
        assert report.failures == []
        assert is_self_contained(page)


class TestPerVersionResources:
    def test_wikipedia_resources_replicated(self):
        resources = wikipedia_resources_for(["v1", "v2"])
        assert "http://test.local/v1/styles/common.css" in resources
        assert "http://test.local/v2/images/rock_hyrax.png" in resources

    def test_group_resources_replicated(self):
        resources = group_resources_for(["group-a"], base_url="http://x.local")
        assert "http://x.local/group-a/styles/group.css" in resources
