"""Tests for the parameter-builder web interface."""

import pytest

from repro.core.webui import render_builder_form
from repro.errors import ValidationError
from repro.html.parser import parse_html
from repro.html.selectors import query_selector_all

class TestForm:
    def test_renders_all_table1_fields(self):
        html = render_builder_form(questions=1, webpages=2)
        page = parse_html(html)
        names = {e.get("name") for e in query_selector_all(page, "input")}
        assert "test_id" in names
        assert "participant_num" in names
        assert "question_1_text" in names
        assert "webpage_2_web_page_load" in names

    def test_field_count_scales(self):
        small = render_builder_form(questions=1, webpages=2)
        large = render_builder_form(questions=3, webpages=5)
        count = lambda html: len(query_selector_all(parse_html(html), "input"))
        assert count(large) > count(small)

    def test_hints_present(self):
        page = parse_html(render_builder_form())
        hints = query_selector_all(page, "small.hint")
        assert len(hints) >= 7
        assert any("page load simulating" in h.text_content for h in hints)

    def test_form_posts_to_builder(self):
        page = parse_html(render_builder_form())
        form = query_selector_all(page, "form")[0]
        assert form.get("action") == "/builder"
        assert form.get("method") == "post"

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValidationError):
            render_builder_form(questions=0)
        with pytest.raises(ValidationError):
            render_builder_form(webpages=1)
