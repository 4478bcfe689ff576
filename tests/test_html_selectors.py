"""Tests for the CSS selector engine."""

import pytest

from repro.errors import SelectorError
from repro.html.parser import parse_html
from repro.html.selectors import (
    compile_selector,
    compile_selector_list,
    matches,
    query_selector_all,
)


@pytest.fixture
def page():
    return parse_html(
        """
<div id="nav" class="menu top">
  <a href="/a" class="link">A</a>
  <a href="/b" class="link active" data-k="v1">B</a>
</div>
<div id="content">
  <p class="intro">intro</p>
  <p>middle</p>
  <section>
    <p lang="en-us">nested</p>
  </section>
</div>
"""
    )


class TestSimpleSelectors:
    def test_tag(self, page):
        assert len(query_selector_all(page, "p")) == 3

    def test_universal(self, page):
        assert len(query_selector_all(page, "*")) > 5

    def test_id(self, page):
        assert query_selector_all(page, "#content")[0].id == "content"

    def test_class(self, page):
        assert len(query_selector_all(page, ".link")) == 2

    def test_compound_tag_class(self, page):
        assert len(query_selector_all(page, "p.intro")) == 1

    def test_multiple_classes(self, page):
        assert len(query_selector_all(page, ".link.active")) == 1

    def test_attribute_presence(self, page):
        assert len(query_selector_all(page, "[data-k]")) == 1

    def test_attribute_equality(self, page):
        assert len(query_selector_all(page, '[data-k="v1"]')) == 1
        assert query_selector_all(page, '[data-k="nope"]') == []

    def test_attribute_prefix_suffix_contains(self, page):
        assert len(query_selector_all(page, '[href^="/a"]')) == 1
        assert len(query_selector_all(page, '[href$="b"]')) == 1
        assert len(query_selector_all(page, '[href*="/"]')) == 2

    def test_attribute_word_match(self, page):
        assert len(query_selector_all(page, '[class~="active"]')) == 1

    def test_attribute_dash_match(self, page):
        assert len(query_selector_all(page, '[lang|="en"]')) == 1


class TestCombinators:
    def test_descendant(self, page):
        assert len(query_selector_all(page, "#content p")) == 3

    def test_child(self, page):
        assert len(query_selector_all(page, "#content > p")) == 2

    def test_deep_descendant(self, page):
        assert len(query_selector_all(page, "#content section p")) == 1

    def test_adjacent_sibling(self, page):
        found = query_selector_all(page, ".intro + p")
        assert len(found) == 1
        assert found[0].text_content == "middle"

    def test_general_sibling(self, page):
        assert len(query_selector_all(page, ".intro ~ section")) == 1


class TestPseudoClasses:
    def test_first_child(self, page):
        # Matches p.intro AND the nested section's first p (CSS semantics:
        # :first-child constrains the subject, the descendant part is free).
        found = query_selector_all(page, "#content p:first-child")
        assert len(found) == 2
        assert found[0].has_class("intro")

    def test_first_child_with_child_combinator(self, page):
        found = query_selector_all(page, "#content > p:first-child")
        assert len(found) == 1
        assert found[0].has_class("intro")

    def test_last_child(self, page):
        found = query_selector_all(page, "#nav a:last-child")
        assert found[0].get("href") == "/b"

    def test_nth_child(self, page):
        found = query_selector_all(page, "#nav a:nth-child(2)")
        assert found[0].get("href") == "/b"

    def test_not_class(self, page):
        found = query_selector_all(page, "#nav a:not(.active)")
        assert len(found) == 1
        assert found[0].get("href") == "/a"

    def test_not_tag(self, page):
        found = query_selector_all(page, "#content > *:not(p)")
        assert [e.tag for e in found] == ["section"]

    def test_not_attribute(self, page):
        found = query_selector_all(page, "a:not([data-k])")
        assert len(found) == 1

    def test_not_specificity_counts_argument(self):
        assert compile_selector("a:not(.x)").specificity() == (0, 1, 1)
        assert compile_selector("a:not(#y)").specificity() == (1, 0, 1)


class TestSelectorLists:
    def test_comma_union(self, page):
        found = query_selector_all(page, "#nav a, #content p")
        assert len(found) == 5

    def test_document_order(self, page):
        found = query_selector_all(page, "p, a")
        tags = [e.tag for e in found]
        assert tags == ["a", "a", "p", "p", "p"]


class TestSpecificity:
    def test_id_beats_class_beats_tag(self):
        assert compile_selector("#x").specificity() > compile_selector(".x").specificity()
        assert compile_selector(".x").specificity() > compile_selector("x").specificity()

    def test_counts(self):
        assert compile_selector("div#a.b.c [x]").specificity() == (1, 3, 1)

    def test_universal_counts_nothing(self):
        assert compile_selector("*").specificity() == (0, 0, 0)


class TestErrors:
    def test_empty_selector(self):
        with pytest.raises(SelectorError):
            compile_selector("")

    def test_leading_combinator(self):
        with pytest.raises(SelectorError):
            compile_selector("> p")

    def test_trailing_combinator(self):
        with pytest.raises(SelectorError):
            compile_selector("p >")

    def test_garbage(self):
        with pytest.raises(SelectorError):
            compile_selector("p@@")

    def test_empty_list(self):
        with pytest.raises(SelectorError):
            compile_selector_list(" , ")


class TestMatches:
    def test_element_matches(self, page):
        intro = query_selector_all(page, ".intro")[0]
        assert matches(intro, "p")
        assert matches(intro, "#content p")
        assert not matches(intro, "#nav p")

    def test_scoped_query_on_element(self, page):
        content = query_selector_all(page, "#content")[0]
        assert len(query_selector_all(content, "p")) == 3
