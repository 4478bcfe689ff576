"""Tests for the DOM node model."""

import pytest

from repro.html.dom import Comment, Document, Element, Text
from repro.html.parser import parse_html


class TestAttributes:
    def test_get_set_case_insensitive(self):
        element = Element("div")
        element.set("Data-X", "1")
        assert element.get("data-x") == "1"
        assert element.get("DATA-X") == "1"

    def test_get_default(self):
        assert Element("div").get("missing", "d") == "d"

    def test_remove_attribute(self):
        element = Element("div", {"id": "x"})
        element.remove_attribute("id")
        assert element.get("id") is None

    def test_id_property(self):
        assert Element("div", {"id": "main"}).id == "main"
        assert Element("div").id == ""


class TestClasses:
    def test_class_list(self):
        element = Element("div", {"class": "a b  c"})
        assert element.classes == ["a", "b", "c"]

    def test_has_class(self):
        element = Element("div", {"class": "nav active"})
        assert element.has_class("active")
        assert not element.has_class("act")


class TestInlineStyle:
    def test_parse_declarations(self):
        element = Element("p", {"style": "font-size: 14pt; color: red"})
        assert element.style_declarations() == {"font-size": "14pt", "color": "red"}

    def test_set_style_preserves_others(self):
        element = Element("p", {"style": "color: red"})
        element.set_style("font-size", "12pt")
        declarations = element.style_declarations()
        assert declarations == {"color": "red", "font-size": "12pt"}

    def test_set_style_overwrites_same_property(self):
        element = Element("p")
        element.set_style("font-size", "10pt")
        element.set_style("font-size", "22pt")
        assert element.style_declarations() == {"font-size": "22pt"}

    def test_malformed_declarations_skipped(self):
        element = Element("p", {"style": "color red; ; font-size: 1em"})
        assert element.style_declarations() == {"font-size": "1em"}


class TestTreeMutation:
    def test_append_sets_parent(self):
        parent = Element("div")
        child = Element("p")
        parent.append(child)
        assert child.parent is parent
        assert parent.children == [child]

    def test_append_detaches_from_old_parent(self):
        a, b = Element("div"), Element("div")
        child = Element("p")
        a.append(child)
        b.append(child)
        assert a.children == []
        assert child.parent is b

    def test_insert_position(self):
        parent = Element("div")
        parent.append(Element("a"))
        parent.append(Element("c"))
        parent.insert(1, Element("b"))
        assert [c.tag for c in parent.element_children] == ["a", "b", "c"]

    def test_replace_child(self):
        parent = Element("div")
        old = parent.append(Element("old"))
        new = Element("new")
        parent.replace_child(old, new)
        assert parent.children == [new]
        assert old.parent is None
        assert new.parent is parent

    def test_detach_no_parent_is_noop(self):
        element = Element("div")
        assert element.detach() is element

    def test_clear(self):
        parent = Element("div")
        child = parent.append(Element("p"))
        parent.clear()
        assert parent.children == []
        assert child.parent is None


class TestTraversal:
    @pytest.fixture
    def tree(self):
        return parse_html(
            '<div id="a"><p id="b" class="x">one</p>'
            '<section id="c"><p id="d" class="x y">two</p></section></div>'
        )

    def test_iter_elements_preorder(self, tree):
        ids = [e.id for e in tree.body.iter_elements() if e.id]
        assert ids == ["a", "b", "c", "d"]

    def test_get_element_by_id(self, tree):
        assert tree.get_element_by_id("d").text_content == "two"
        assert tree.get_element_by_id("zz") is None

    def test_get_elements_by_tag(self, tree):
        assert len(tree.body.get_elements_by_tag("p")) == 2

    def test_find_first_document_order(self, tree):
        found = tree.body.find_first(lambda e: e.tag == "p")
        assert found.id == "b"

    def test_ancestors(self, tree):
        d = tree.get_element_by_id("d")
        assert [a.tag for a in d.ancestors][:2] == ["section", "div"]


class TestTextContent:
    def test_concatenates_descendants(self):
        document = parse_html("<div>a<span>b</span>c</div>")
        assert document.body.element_children[0].text_content == "abc"

    def test_excludes_script_and_style(self):
        document = parse_html("<div>x<script>var y;</script><style>p{}</style></div>")
        assert document.body.element_children[0].text_content == "x"


class TestClone:
    def test_deep_copy_independent(self):
        document = parse_html('<div id="a"><p>text</p><!-- c --></div>')
        original = document.body.element_children[0]
        copy = original.clone()
        copy.set("id", "changed")
        copy.get_elements_by_tag("p")[0].clear()
        assert original.get("id") == "a"
        assert original.get_elements_by_tag("p")[0].text_content == "text"

    def test_clone_preserves_comments(self):
        element = Element("div")
        element.append(Comment("note"))
        copy = element.clone()
        assert isinstance(copy.children[0], Comment)
        assert copy.children[0].data == "note"

    def test_document_clone(self):
        document = parse_html("<!DOCTYPE html><p>x</p>")
        copy = document.clone()
        copy.body.clear()
        assert document.body.get_elements_by_tag("p")


class TestDocumentHelpers:
    def test_ensure_head_creates_when_missing(self):
        document = Document(Element("html"))
        head = document.ensure_head()
        assert document.root.element_children[0] is head

    def test_ensure_body_creates_when_missing(self):
        document = Document(Element("html"))
        body = document.ensure_body()
        assert body.tag == "body"
        assert document.body is body

    def test_title_empty_without_head(self):
        assert Document(Element("html")).title == ""
