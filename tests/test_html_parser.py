"""Tests for HTML tree construction."""

from repro.html.dom import Comment, Text
from repro.html.parser import parse_html


class TestDocumentStructure:
    def test_implicit_html_head_body(self):
        document = parse_html("<p>x</p>")
        assert document.root.tag == "html"
        assert document.head is not None
        assert document.body is not None
        assert document.body.element_children[0].tag == "p"

    def test_doctype_recorded(self):
        assert parse_html("<!DOCTYPE html><p></p>").doctype == "html"

    def test_doctype_defaults_to_html(self):
        assert parse_html("<p></p>").doctype == "html"

    def test_title_goes_to_head(self):
        document = parse_html("<title>My page</title><p>body text</p>")
        assert document.title == "My page"
        assert document.head.get_elements_by_tag("title")

    def test_explicit_head_and_body_attributes(self):
        document = parse_html('<html lang="en"><body class="dark"><p>x</p></body></html>')
        assert document.root.get("lang") == "en"
        assert document.body.get("class") == "dark"

    def test_head_style_parses(self):
        document = parse_html("<style>p{color:red}</style><p>x</p>")
        styles = document.head.get_elements_by_tag("style")
        assert len(styles) == 1
        assert styles[0].text_content == ""  # style is raw, excluded from text
        assert isinstance(styles[0].children[0], Text)


class TestNesting:
    def test_deep_nesting(self):
        document = parse_html("<div><section><article><p>deep</p></article></section></div>")
        p = document.body.get_elements_by_tag("p")[0]
        tags = [a.tag for a in p.ancestors]
        assert tags[:3] == ["article", "section", "div"]

    def test_void_elements_take_no_children(self):
        document = parse_html("<div><br><p>after</p></div>")
        div = document.body.element_children[0]
        assert [c.tag for c in div.element_children] == ["br", "p"]

    def test_self_closing_syntax(self):
        document = parse_html("<div><span/><p>x</p></div>")
        div = document.body.element_children[0]
        assert [c.tag for c in div.element_children] == ["span", "p"]

    def test_comments_preserved(self):
        document = parse_html("<div><!-- marker --></div>")
        div = document.body.element_children[0]
        assert isinstance(div.children[0], Comment)
        assert div.children[0].data == " marker "


class TestImplicitClosing:
    def test_p_closed_by_block(self):
        document = parse_html("<p>one<div>two</div>")
        body = document.body
        assert [c.tag for c in body.element_children] == ["p", "div"]

    def test_p_closed_by_p(self):
        document = parse_html("<p>one<p>two")
        assert len(document.body.get_elements_by_tag("p")) == 2
        first, second = document.body.element_children
        assert first.text_content == "one"
        assert second.text_content == "two"

    def test_li_closes_li(self):
        document = parse_html("<ul><li>a<li>b<li>c</ul>")
        ul = document.body.element_children[0]
        assert [c.tag for c in ul.element_children] == ["li", "li", "li"]
        assert [li.text_content for li in ul.element_children] == ["a", "b", "c"]

    def test_td_closes_td(self):
        document = parse_html("<table><tr><td>1<td>2</tr></table>")
        tds = document.body.get_elements_by_tag("td")
        assert [td.text_content for td in tds] == ["1", "2"]

    def test_p_inside_li_not_closed_by_li_content(self):
        document = parse_html("<ul><li><p>text</p></li></ul>")
        assert document.body.get_elements_by_tag("p")[0].text_content == "text"


class TestErrorRecovery:
    def test_mismatched_end_tag_ignored(self):
        document = parse_html("<div><p>x</p></span></div>")
        assert document.body.element_children[0].tag == "div"

    def test_end_tag_closes_through_children(self):
        document = parse_html("<div><span>x</div>after")
        div = document.body.element_children[0]
        assert div.get_elements_by_tag("span")
        assert "after" in document.body.text_content

    def test_unclosed_elements_closed_at_eof(self):
        document = parse_html("<div><p>unclosed")
        assert document.body.get_elements_by_tag("p")[0].text_content == "unclosed"
