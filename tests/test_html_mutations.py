"""Tests for document mutations (variant generation)."""

import pytest

from repro.errors import ValidationError
from repro.html.mutations import (
    VariantBuilder,
    move_element,
    prepend_symbol,
    remove_elements,
    replace_text,
    scale_font_size,
    set_font_size,
    set_style_property,
)
from repro.html.parser import parse_html
from repro.html.selectors import query_selector, query_selector_all


@pytest.fixture
def page():
    return parse_html(
        """
<div id="main">
  <p class="a">one</p>
  <p class="a">two</p>
  <button id="btn" style="font-size: 11px">Expand</button>
</div>
<div id="sidebar"><p>side</p></div>
"""
    )


class TestSetStyleAndFont:
    def test_set_style_property_counts_matches(self, page):
        assert set_style_property(page, "p.a", "color", "red") == 2
        for p in query_selector_all(page, "p.a"):
            assert p.style_declarations()["color"] == "red"

    def test_set_font_size_in_points(self, page):
        set_font_size(page, "p.a", 14)
        assert query_selector(page, "p.a").style_declarations()["font-size"] == "14pt"

    def test_fractional_points_formatted(self, page):
        set_font_size(page, "p.a", 10.5)
        assert query_selector(page, "p.a").style_declarations()["font-size"] == "10.5pt"

    def test_non_positive_font_rejected(self, page):
        with pytest.raises(ValidationError):
            set_font_size(page, "p", 0)

    def test_no_match_returns_zero(self, page):
        assert set_font_size(page, ".missing", 12) == 0


class TestScaleFont:
    def test_scales_existing_px_value(self, page):
        scale_font_size(page, "#btn", 1.5)
        assert query_selector(page, "#btn").style_declarations()["font-size"] == "16.5px"

    def test_missing_inline_size_becomes_em(self, page):
        scale_font_size(page, "p.a", 1.5)
        assert query_selector(page, "p.a").style_declarations()["font-size"] == "1.5em"

    def test_non_positive_factor_rejected(self, page):
        with pytest.raises(ValidationError):
            scale_font_size(page, "#btn", -1)


class TestTextEdits:
    def test_replace_text(self, page):
        replace_text(page, "#btn", "Show more")
        assert query_selector(page, "#btn").text_content == "Show more"

    def test_prepend_symbol(self, page):
        prepend_symbol(page, "#btn", "▶")
        assert query_selector(page, "#btn").text_content == "▶ Expand"


class TestMoveRemove:
    def test_move_element(self, page):
        assert move_element(page, "#btn", "#sidebar")
        sidebar = query_selector(page, "#sidebar")
        assert sidebar.get_elements_by_tag("button")
        assert not query_selector(page, "#main").get_elements_by_tag("button")

    def test_move_to_position(self, page):
        move_element(page, "#btn", "#sidebar", position=0)
        sidebar = query_selector(page, "#sidebar")
        assert sidebar.element_children[0].tag == "button"

    def test_move_missing_endpoint_returns_false(self, page):
        assert not move_element(page, "#nope", "#sidebar")
        assert not move_element(page, "#btn", "#nope")

    def test_move_into_own_subtree_rejected(self, page):
        with pytest.raises(ValidationError):
            move_element(page, "#main", "#main p")

    def test_remove_elements(self, page):
        assert remove_elements(page, "p.a") == 2
        assert query_selector_all(page, "p.a") == []


class TestVariantBuilder:
    def test_base_untouched(self, page):
        variant = VariantBuilder(page).style("p.a", "font-size", "22pt").build()
        assert query_selector(page, "p.a").get("style") is None
        assert query_selector(variant, "p.a").style_declarations()["font-size"] == "22pt"

    def test_operations_compose_in_order(self, page):
        variant = (
            VariantBuilder(page)
            .scale_font("#btn", 1.5)
            .symbol("#btn", "▶")
            .move("#btn", "#sidebar")
            .build()
        )
        button = query_selector(variant, "#btn")
        assert button.style_declarations()["font-size"] == "16.5px"
        assert button.text_content.startswith("▶")
        assert button.parent.id == "sidebar"

    def test_two_builds_are_independent(self, page):
        builder = VariantBuilder(page).text("#btn", "X")
        first = builder.build()
        second = builder.build()
        query_selector(first, "#btn").clear()
        assert query_selector(second, "#btn").text_content == "X"
