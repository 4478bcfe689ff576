"""Tests for document mutations (variant generation)."""

import pytest

from repro.errors import ValidationError
from repro.html.mutations import (
    VariantBuilder,
    scale_font_size,
    set_font_size,
    set_style_property,
)
from repro.html.parser import parse_html
from repro.html.selectors import query_selector_all


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
        assert query_selector_all(page, "p.a")[0].style_declarations()["font-size"] == "14pt"

    def test_fractional_points_formatted(self, page):
        set_font_size(page, "p.a", 10.5)
        assert query_selector_all(page, "p.a")[0].style_declarations()["font-size"] == "10.5pt"

    def test_non_positive_font_rejected(self, page):
        with pytest.raises(ValidationError):
            set_font_size(page, "p", 0)

    def test_no_match_returns_zero(self, page):
        assert set_font_size(page, ".missing", 12) == 0


class TestScaleFont:
    def test_scales_existing_px_value(self, page):
        scale_font_size(page, "#btn", 1.5)
        assert query_selector_all(page, "#btn")[0].style_declarations()["font-size"] == "16.5px"

    def test_missing_inline_size_becomes_em(self, page):
        scale_font_size(page, "p.a", 1.5)
        assert query_selector_all(page, "p.a")[0].style_declarations()["font-size"] == "1.5em"

    def test_non_positive_factor_rejected(self, page):
        with pytest.raises(ValidationError):
            scale_font_size(page, "#btn", -1)


class TestVariantBuilder:
    def test_base_untouched(self, page):
        variant = VariantBuilder(page).style("p.a", "font-size", "22pt").build()
        assert query_selector_all(page, "p.a")[0].get("style") is None
        assert query_selector_all(variant, "p.a")[0].style_declarations()["font-size"] == "22pt"

    def test_operations_compose_in_order(self, page):
        variant = (
            VariantBuilder(page)
            .style("#btn", "font-size", "10px")
            .scale_font("#btn", 1.5)
            .build()
        )
        assert query_selector_all(variant, "#btn")[0].style_declarations()["font-size"] == "15px"

    def test_two_builds_are_independent(self, page):
        builder = VariantBuilder(page).style("#btn", "color", "red")
        first = builder.build()
        second = builder.build()
        query_selector_all(first, "#btn")[0].set_style("color", "blue")
        assert query_selector_all(second, "#btn")[0].style_declarations()["color"] == "red"
