"""HTML tree builder: tokens -> :class:`~repro.html.dom.Document`.

A forgiving tree construction pass in the spirit of the WHATWG algorithm,
covering what page snapshots need:

* implicit ``<html>``/``<head>``/``<body>`` synthesis;
* void elements never take children;
* auto-closing of ``<p>``, ``<li>``, ``<dt>``/``<dd>``, ``<option>`` and
  table sections when a sibling opens;
* mismatched end tags close up to the nearest matching open element and are
  ignored when nothing matches;
* everything still open at end-of-input is closed.
"""

from __future__ import annotations

from typing import List

from repro.html.dom import Comment, Document, Element, Text, VOID_ELEMENTS
from repro.html.tokenizer import Token, Tokenizer

# Opening any of these closes an open <p> first.
_P_CLOSERS = frozenset(
    {
        "address", "article", "aside", "blockquote", "div", "dl", "fieldset",
        "figcaption", "figure", "footer", "form", "h1", "h2", "h3", "h4",
        "h5", "h6", "header", "hr", "main", "nav", "ol", "p", "pre",
        "section", "table", "ul",
    }
)

# tag -> set of open tags it implicitly closes when it starts
_SIBLING_CLOSERS = {
    "li": {"li"},
    "dt": {"dt", "dd"},
    "dd": {"dt", "dd"},
    "option": {"option"},
    "tr": {"tr", "td", "th"},
    "td": {"td", "th"},
    "th": {"td", "th"},
    "thead": {"thead", "tbody", "tfoot"},
    "tbody": {"thead", "tbody", "tfoot"},
    "tfoot": {"thead", "tbody", "tfoot"},
}

_HEAD_TAGS = frozenset({"title", "meta", "link", "base", "style"})


class _TreeBuilder:
    """Incremental tree construction over a token stream."""

    def __init__(self):
        self.document = Document(Element("html"), doctype="")
        self.head = Element("head")
        self.body = Element("body")
        self.document.root.append(self.head)
        self.document.root.append(self.body)
        self.stack: List[Element] = [self.body]
        self.saw_explicit_html = False
        self.in_head_phase = True  # leading head-ish content goes to <head>

    @property
    def current(self) -> Element:
        return self.stack[-1]

    # -- token dispatch ----------------------------------------------------

    def feed(self, token: Token) -> None:
        if token.kind == "doctype":
            if not self.document.doctype:
                self.document.doctype = token.data or "html"
        elif token.kind == "comment":
            self.current.append(Comment(token.data))
        elif token.kind == "text":
            self._handle_text(token)
        elif token.kind == "start":
            self._handle_start(token)
        elif token.kind == "end":
            self._handle_end(token)

    def _handle_text(self, token: Token) -> None:
        if not token.data:
            return
        if self.in_head_phase and token.data.strip() == "" and self.current is self.body:
            return  # inter-tag whitespace before content: drop
        if token.data.strip():
            self.in_head_phase = False
        self.current.append(Text(token.data))

    def _handle_start(self, token: Token) -> None:
        tag = token.data
        if tag == "html":
            self.saw_explicit_html = True
            for name, value in token.attributes:
                self.document.root.set(name, value)
            return
        if tag == "head":
            for name, value in token.attributes:
                self.head.set(name, value)
            return
        if tag == "body":
            for name, value in token.attributes:
                self.body.set(name, value)
            self.in_head_phase = False
            return
        if self.in_head_phase and tag in _HEAD_TAGS and self.current is self.body:
            element = Element(tag, dict(token.attributes))
            self.head.append(element)
            if tag in ("style", "title"):
                # Their raw/RCDATA text token arrives next; route it inside.
                self._push_raw_target(element)
            return
        self.in_head_phase = self.in_head_phase and tag in _HEAD_TAGS

        self._apply_implicit_closes(tag)
        element = Element(tag, dict(token.attributes))
        self.current.append(element)
        if tag in VOID_ELEMENTS or token.self_closing:
            return
        self.stack.append(element)

    def _push_raw_target(self, element: Element) -> None:
        # <style> in head: its raw text token arrives next; route it there.
        self.stack.append(element)

    def _apply_implicit_closes(self, tag: str) -> None:
        if tag in _P_CLOSERS:
            self._close_if_open("p", boundary={"body", "td", "th", "blockquote", "div", "section", "article", "li"})
        closers = _SIBLING_CLOSERS.get(tag)
        if closers:
            while self.current.tag in closers:
                self.stack.pop()

    def _close_if_open(self, tag: str, boundary: set) -> None:
        """Close ``tag`` if it is open above the nearest boundary element."""
        for depth in range(len(self.stack) - 1, 0, -1):
            node = self.stack[depth]
            if node.tag == tag:
                del self.stack[depth:]
                return
            if node.tag in boundary:
                return

    def _handle_end(self, token: Token) -> None:
        tag = token.data
        if tag in ("html", "body"):
            self.in_head_phase = False
            return
        if tag == "head":
            self.in_head_phase = False
            return
        for depth in range(len(self.stack) - 1, 0, -1):
            if self.stack[depth].tag == tag:
                del self.stack[depth:]
                return
        # No matching open element: ignore (spec recovery).

    def finish(self) -> Document:
        del self.stack[1:]
        if not self.document.doctype:
            self.document.doctype = "html"
        return self.document


def parse_html(markup: str) -> Document:
    """Parse HTML markup into a :class:`Document`."""
    builder = _TreeBuilder()
    for token in Tokenizer(markup).tokens():
        builder.feed(token)
    return builder.finish()
