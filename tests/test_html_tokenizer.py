"""Tests for the HTML tokenizer."""

from repro.html.tokenizer import Tokenizer


def tokenize(markup):
    return list(Tokenizer(markup).tokens())


def kinds(markup):
    return [(t.kind, t.data) for t in tokenize(markup)]


class TestBasicTokens:
    def test_simple_element(self):
        tokens = tokenize("<p>hello</p>")
        assert [(t.kind, t.data) for t in tokens] == [
            ("start", "p"),
            ("text", "hello"),
            ("end", "p"),
        ]

    def test_tag_names_lowercased(self):
        tokens = tokenize("<DIV></DIV>")
        assert tokens[0].data == "div"
        assert tokens[1].data == "div"

    def test_doctype(self):
        tokens = tokenize("<!DOCTYPE html><p></p>")
        assert tokens[0].kind == "doctype"
        assert tokens[0].data == "html"

    def test_comment(self):
        tokens = tokenize("<!-- note -->")
        assert tokens == tokenize("<!-- note -->")
        assert tokens[0].kind == "comment"
        assert tokens[0].data == " note "

    def test_unterminated_comment_consumes_rest(self):
        tokens = tokenize("<!-- oops <p>x</p>")
        assert len(tokens) == 1
        assert tokens[0].kind == "comment"

    def test_entities_decoded_in_text(self):
        assert tokenize("<p>&amp;</p>")[1].data == "&"


class TestAttributes:
    def test_double_quoted(self):
        token = tokenize('<a href="/x" title="hi there">')[0]
        assert dict(token.attributes) == {"href": "/x", "title": "hi there"}

    def test_single_quoted(self):
        token = tokenize("<a href='/x'>")[0]
        assert dict(token.attributes) == {"href": "/x"}

    def test_unquoted(self):
        token = tokenize("<img width=100 height=50>")[0]
        assert dict(token.attributes) == {"width": "100", "height": "50"}

    def test_boolean_attribute(self):
        token = tokenize("<input disabled>")[0]
        assert dict(token.attributes) == {"disabled": ""}

    def test_attribute_names_lowercased(self):
        token = tokenize('<a HREF="/x">')[0]
        assert dict(token.attributes) == {"href": "/x"}

    def test_entities_decoded_in_attributes(self):
        token = tokenize('<a title="a &amp; b">')[0]
        assert dict(token.attributes)["title"] == "a & b"

    def test_self_closing_flag(self):
        assert tokenize("<br/>")[0].self_closing
        assert tokenize('<img src="x"/>')[0].self_closing
        assert not tokenize("<br>")[0].self_closing


class TestRawText:
    def test_script_content_is_literal(self):
        tokens = tokenize('<script>if (a < b) { x("<p>"); }</script>')
        assert tokens[0].data == "script"
        assert tokens[1].kind == "text"
        assert tokens[1].data == 'if (a < b) { x("<p>"); }'
        assert tokens[2].kind == "end"

    def test_style_content_is_literal(self):
        tokens = tokenize("<style>p > a { color: red }</style>")
        assert tokens[1].data == "p > a { color: red }"

    def test_script_end_tag_case_insensitive(self):
        tokens = tokenize("<script>x</SCRIPT>")
        assert tokens[-1].kind == "end"

    def test_empty_script(self):
        tokens = tokenize("<script></script>")
        assert [t.kind for t in tokens] == ["start", "end"]


class TestErrorRecovery:
    def test_lone_lt_is_text(self):
        tokens = tokenize("a < b")
        assert "".join(t.data for t in tokens if t.kind == "text") == "a < b"

    def test_unclosed_tag_at_eof(self):
        tokens = tokenize("<p class=")
        assert tokens[0].kind == "start"

    def test_bogus_declaration_is_comment(self):
        tokens = tokenize("<!WEIRD stuff>")
        assert tokens[0].kind == "comment"

    def test_empty_end_tag_swallowed(self):
        tokens = tokenize("a</>b")
        text = "".join(t.data for t in tokens if t.kind == "text")
        assert text == "ab"

    def test_unterminated_attribute_quote(self):
        tokens = tokenize('<a href="x')
        assert dict(tokens[0].attributes)["href"] == "x"
