"""Tests for CSS parsing, cascade and computed style."""

import pytest

from repro.html.cssom import (
    StyleResolver,
    collect_document_styles,
    parse_declarations,
    parse_length,
    parse_stylesheet,
)
from repro.html.parser import parse_html
from repro.html.selectors import query_selector_all


class TestParseDeclarations:
    def test_basic(self):
        declarations = parse_declarations("color: red; font-size: 12pt")
        assert [(d.prop, d.value) for d in declarations] == [
            ("color", "red"),
            ("font-size", "12pt"),
        ]

    def test_important(self):
        declarations = parse_declarations("color: red !important")
        assert declarations[0].important
        assert declarations[0].value == "red"

    def test_malformed_skipped(self):
        assert parse_declarations("nonsense; : ; x") == []

    def test_property_lowercased(self):
        assert parse_declarations("COLOR: red")[0].prop == "color"


class TestParseStylesheet:
    def test_multiple_rules(self):
        sheet = parse_stylesheet("p { color: red } a { color: blue }")
        assert len(sheet.rules) == 2

    def test_selector_list(self):
        sheet = parse_stylesheet("h1, h2 { margin: 0 }")
        assert len(sheet.rules[0].selectors) == 2

    def test_comments_stripped(self):
        sheet = parse_stylesheet("/* c1 */ p { /* c2 */ color: red } /* c3 */")
        assert len(sheet.rules) == 1

    def test_at_rule_with_block_skipped(self):
        sheet = parse_stylesheet("@media print { p { display: none } } a { x: 1 }")
        assert len(sheet.rules) == 1
        assert sheet.rules[0].selectors[0].source == "a"

    def test_at_rule_without_block_skipped(self):
        sheet = parse_stylesheet("@import url(x.css); p { color: red }")
        assert len(sheet.rules) == 1

    def test_unparseable_selector_dropped(self):
        sheet = parse_stylesheet("p@@@ { color: red } a { color: blue }")
        assert len(sheet.rules) == 1

    def test_serialize_round_trip(self):
        sheet = parse_stylesheet("p.x { color: red; margin: 0 }")
        reparsed = parse_stylesheet(sheet.serialize())
        assert reparsed.rules[0].declarations == sheet.rules[0].declarations

    def test_collect_document_styles_in_order(self):
        document = parse_html(
            "<style>p { color: red }</style><body><style>p { color: blue }</style></body>"
        )
        sheet = collect_document_styles(document)
        assert len(sheet.rules) == 2
        assert sheet.rules[1].declarations[0].value == "blue"


class TestParseLength:
    def test_px(self):
        assert parse_length("10px", 16) == 10

    def test_pt_converts(self):
        assert parse_length("12pt", 16) == pytest.approx(16.0)

    def test_em_relative_to_parent(self):
        assert parse_length("1.5em", 20) == 30

    def test_rem_relative_to_root(self):
        assert parse_length("2rem", 20, root_px=16) == 32

    def test_percent(self):
        assert parse_length("150%", 16, percent_base=10) == 15

    def test_unitless_is_px(self):
        assert parse_length("7", 16) == 7

    def test_invalid_is_none(self):
        assert parse_length("auto", 16) is None


class TestCascade:
    def test_specificity_wins(self):
        document = parse_html(
            "<style>p { color: red } p.x { color: blue }</style>"
            '<p class="x">t</p>'
        )
        resolver = StyleResolver(document)
        p = query_selector_all(document, "p")[0]
        assert resolver.computed_style(p)["color"] == "blue"

    def test_source_order_breaks_ties(self):
        document = parse_html(
            "<style>p { color: red } p { color: green }</style><p>t</p>"
        )
        resolver = StyleResolver(document)
        assert resolver.computed_style(query_selector_all(document, "p")[0])["color"] == "green"

    def test_important_beats_specificity(self):
        document = parse_html(
            "<style>p { color: red !important } p.x#y { color: blue }</style>"
            '<p class="x" id="y">t</p>'
        )
        resolver = StyleResolver(document)
        assert resolver.computed_style(query_selector_all(document, "p")[0])["color"] == "red"

    def test_inline_style_beats_sheets(self):
        document = parse_html(
            "<style>#y { color: blue }</style><p id='y' style='color: black'>t</p>"
        )
        resolver = StyleResolver(document)
        assert resolver.computed_style(query_selector_all(document, "p")[0])["color"] == "black"


class TestInheritance:
    def test_color_inherits(self):
        document = parse_html("<style>div { color: red }</style><div><p>t</p></div>")
        resolver = StyleResolver(document)
        assert resolver.computed_style(query_selector_all(document, "p")[0])["color"] == "red"

    def test_margin_does_not_inherit(self):
        document = parse_html("<style>div { margin: 10px }</style><div><p>t</p></div>")
        resolver = StyleResolver(document)
        assert "margin" not in resolver.computed_style(query_selector_all(document, "p")[0])

    def test_explicit_inherit_keyword(self):
        document = parse_html(
            "<style>div { border-width: 3px } p { border-width: inherit }</style>"
            "<div><p>t</p></div>"
        )
        resolver = StyleResolver(document)
        assert resolver.computed_style(query_selector_all(document, "p")[0])["border-width"] == "3px"


class TestFontSizeResolution:
    def test_default_16px(self):
        document = parse_html("<p>t</p>")
        resolver = StyleResolver(document)
        assert resolver.font_size_px(query_selector_all(document, "p")[0]) == 16.0

    def test_pt_resolves_to_px(self):
        document = parse_html('<p style="font-size: 12pt">t</p>')
        resolver = StyleResolver(document)
        assert resolver.font_size_px(query_selector_all(document, "p")[0]) == pytest.approx(16.0)

    def test_em_compounds_down_the_tree(self):
        document = parse_html(
            '<div style="font-size: 20px"><p style="font-size: 1.5em"><span style="font-size: 2em">t</span></p></div>'
        )
        resolver = StyleResolver(document)
        assert resolver.font_size_px(query_selector_all(document, "span")[0]) == 60.0

    def test_percent_of_parent(self):
        document = parse_html(
            '<div style="font-size: 20px"><p style="font-size: 50%">t</p></div>'
        )
        resolver = StyleResolver(document)
        assert resolver.font_size_px(query_selector_all(document, "p")[0]) == 10.0
