"""Tests for the block layout engine."""

import pytest

from repro.errors import LayoutError
from repro.html.dom import Document, Element
from repro.html.parser import parse_html
from repro.render.box import Viewport
from repro.render.layout import LayoutEngine


def layout_of(markup, viewport=Viewport(1000, 800)):
    document = parse_html(markup)
    return document, LayoutEngine(viewport).layout(document)


class TestBlockFlow:
    def test_blocks_stack_vertically(self):
        document, result = layout_of("<div id='a'>first block text</div><div id='b'>second block text</div>")
        a = result.box_of(document.get_element_by_id("a"))
        b = result.box_of(document.get_element_by_id("b"))
        assert b.y >= a.bottom

    def test_children_nest_inside_parent(self):
        document, result = layout_of("<div id='outer'><p id='inner'>text</p></div>")
        outer = result.box_of(document.get_element_by_id("outer"))
        inner = result.box_of(document.get_element_by_id("inner"))
        assert inner.y >= outer.y
        assert outer.bottom >= inner.bottom

    def test_page_height_positive(self):
        _, result = layout_of("<p>one</p><p>two</p>")
        assert result.page_height > 0

    def test_empty_body(self):
        _, result = layout_of("<body></body>")
        assert result.page_height == 0

    def test_no_body_raises(self):
        document = Document(Element("html"))
        with pytest.raises(LayoutError):
            LayoutEngine().layout(document)


class TestTextHeight:
    def test_more_text_is_taller(self):
        short_doc, short = layout_of("<p id='p'>word</p>")
        long_doc, long_result = layout_of("<p id='p'>" + "word " * 200 + "</p>")
        short_box = short.box_of(short_doc.get_element_by_id("p"))
        long_box = long_result.box_of(long_doc.get_element_by_id("p"))
        assert long_box.height > short_box.height * 3

    def test_larger_font_is_taller(self):
        text = "reading text " * 60
        small_doc, small = layout_of(f"<p id='p' style='font-size: 10pt'>{text}</p>")
        big_doc, big = layout_of(f"<p id='p' style='font-size: 22pt'>{text}</p>")
        assert big.box_of(big_doc.get_element_by_id("p")).height > (
            small.box_of(small_doc.get_element_by_id("p")).height * 1.5
        )

    def test_heading_taller_than_paragraph(self):
        document, result = layout_of("<h1 id='h'>Title</h1><p id='p'>Title</p>")
        h = result.box_of(document.get_element_by_id("h"))
        p = result.box_of(document.get_element_by_id("p"))
        assert h.height > p.height

    def test_inline_children_count_toward_parent_text(self):
        document, result = layout_of("<p id='p'>start <b>bold</b> <a href='#'>link</a></p>")
        assert result.box_of(document.get_element_by_id("p")).height > 0


class TestHiddenAndNonRendered:
    def test_display_none_excluded(self):
        document, result = layout_of("<p id='a'>visible</p><p id='b' style='display: none'>hidden</p>")
        assert result.box_of(document.get_element_by_id("a")) is not None
        assert result.box_of(document.get_element_by_id("b")) is None

    def test_display_none_subtree_excluded(self):
        document, result = layout_of(
            "<div style='display: none'><p id='inner'>hidden</p></div>"
        )
        assert result.box_of(document.get_element_by_id("inner")) is None

    def test_hidden_attribute_excluded(self):
        document, result = layout_of("<div id='h' hidden>x</div>")
        assert result.box_of(document.get_element_by_id("h")) is None

    def test_stylesheet_display_none(self):
        document, result = layout_of(
            "<style>.gone { display: none }</style><p id='p' class='gone'>x</p>"
        )
        assert result.box_of(document.get_element_by_id("p")) is None

    def test_script_and_style_not_rendered(self):
        document, result = layout_of("<script>var x;</script><p id='p'>x</p>")
        rendered_tags = {e.tag for e in result.elements.values()}
        assert "script" not in rendered_tags


class TestExplicitDimensions:
    def test_image_attr_dimensions(self):
        document, result = layout_of("<img id='i' src='x' width='120' height='80'>")
        box = result.box_of(document.get_element_by_id("i"))
        assert (box.width, box.height) == (120, 80)

    def test_image_css_height_wins(self):
        document, result = layout_of(
            "<img id='i' src='x' height='80' style='height: 40px'>"
        )
        assert result.box_of(document.get_element_by_id("i")).height == 40

    def test_explicit_block_height(self):
        document, result = layout_of("<div id='d' style='height: 333px'>x</div>")
        assert result.box_of(document.get_element_by_id("d")).height == 333

    def test_explicit_width(self):
        document, result = layout_of("<div id='d' style='width: 200px'>x</div>")
        assert result.box_of(document.get_element_by_id("d")).width == 200


class TestInlineRows:
    def test_inline_block_siblings_share_row(self):
        document, result = layout_of(
            "<div>"
            "<a id='x' style='display: inline-block'>one</a>"
            "<a id='y' style='display: inline-block'>two</a>"
            "</div>"
        )
        x = result.box_of(document.get_element_by_id("x"))
        y = result.box_of(document.get_element_by_id("y"))
        assert x.y == y.y
        assert y.x > x.x

    def test_float_shares_row(self):
        document, result = layout_of(
            "<div><img id='f' src='x' style='float: right' width='100' height='50'>"
            "<span id='t' style='float: left'>text</span></div>"
        )
        f = result.box_of(document.get_element_by_id("f"))
        t = result.box_of(document.get_element_by_id("t"))
        assert f.y == t.y


class TestPaintableLeaves:
    def test_containers_excluded(self):
        document, result = layout_of("<div id='c'><p>text</p></div>")
        leaves = result.paintable_leaves()
        assert all(e.tag != "div" for e in leaves)

    def test_images_and_text_elements_included(self):
        document, result = layout_of("<p>text</p><img src='x' width='10' height='10'>")
        tags = sorted(e.tag for e in result.paintable_leaves())
        assert tags == ["img", "p"]
