"""HTML tokenizer.

Produces a flat stream of tokens (start tag, end tag, text, comment, doctype)
from markup. It follows the parts of the WHATWG tokenization algorithm that
matter for page snapshots: raw-text handling for ``<script>``/``<style>``,
self-closing flags, attribute quoting styles, bogus-comment recovery, and
character references in text and attribute values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.html.dom import RAW_TEXT_ELEMENTS
from repro.html.entities import decode_entities

# RCDATA elements: content is raw (no child tags) but entities decode.
RCDATA_ELEMENTS = frozenset({"title", "textarea"})

_TAG_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9:-]*")
_ATTR_NAME_RE = re.compile(r"""[^\s=/>"'][^\s=/>]*""")
_WHITESPACE_RE = re.compile(r"\s+")


@dataclass
class Token:
    """One lexical unit of the HTML stream."""

    kind: str  # 'start' | 'end' | 'text' | 'comment' | 'doctype'
    data: str = ""  # tag name / text content / comment body / doctype body
    attributes: List[Tuple[str, str]] = field(default_factory=list)
    self_closing: bool = False


class Tokenizer:
    """Single-pass HTML tokenizer over an input string."""

    def __init__(self, markup: str):
        self.markup = markup
        self.pos = 0
        self.length = len(markup)

    # -- helpers ----------------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.markup[index] if index < self.length else ""

    def _starts_with(self, text: str) -> bool:
        return self.markup.startswith(text, self.pos)

    def _skip_whitespace(self) -> None:
        match = _WHITESPACE_RE.match(self.markup, self.pos)
        if match:
            self.pos = match.end()

    # -- top level ----------------------------------------------------------

    def tokens(self) -> Iterator[Token]:
        """Yield tokens until the input is exhausted."""
        while self.pos < self.length:
            if self._peek() == "<":
                token = self._consume_markup()
                if token is not None:
                    yield token
                    if token.kind == "start" and (
                        token.data in RAW_TEXT_ELEMENTS or token.data in RCDATA_ELEMENTS
                    ):
                        raw = self._consume_raw_text(token.data)
                        if raw is not None:
                            if token.data in RCDATA_ELEMENTS:
                                raw = Token("text", decode_entities(raw.data))
                            yield raw
                        end = self._consume_raw_end(token.data)
                        if end is not None:
                            yield end
            else:
                yield self._consume_text()

    # -- text ------------------------------------------------------------

    def _consume_text(self) -> Token:
        start = self.pos
        next_lt = self.markup.find("<", self.pos)
        if next_lt == -1:
            self.pos = self.length
        else:
            self.pos = next_lt
        return Token("text", decode_entities(self.markup[start : self.pos]))

    def _consume_raw_text(self, tag: str) -> Optional[Token]:
        """Everything until the matching ``</tag`` is literal text."""
        pattern = re.compile(rf"</{re.escape(tag)}(?=[\s/>])|</{re.escape(tag)}$", re.IGNORECASE)
        match = pattern.search(self.markup, self.pos)
        end = match.start() if match else self.length
        data = self.markup[self.pos : end]
        self.pos = end
        if not data:
            return None
        return Token("text", data)

    def _consume_raw_end(self, tag: str) -> Optional[Token]:
        if self.pos >= self.length:
            return None
        # Consume "</tag ... >"
        close = self.markup.find(">", self.pos)
        if close == -1:
            self.pos = self.length
            return Token("end", tag)
        self.pos = close + 1
        return Token("end", tag)

    # -- markup ------------------------------------------------------------

    def _consume_markup(self) -> Optional[Token]:
        if self._starts_with("<!--"):
            return self._consume_comment()
        if self._starts_with("<!"):
            return self._consume_declaration()
        if self._starts_with("</"):
            return self._consume_end_tag()
        if _TAG_NAME_RE.match(self.markup, self.pos + 1):
            return self._consume_start_tag()
        # A lone '<' that opens nothing is text, per spec error recovery.
        self.pos += 1
        return Token("text", "<")

    def _consume_comment(self) -> Token:
        self.pos += 4  # len('<!--')
        end = self.markup.find("-->", self.pos)
        if end == -1:
            data = self.markup[self.pos :]
            self.pos = self.length
        else:
            data = self.markup[self.pos : end]
            self.pos = end + 3
        return Token("comment", data)

    def _consume_declaration(self) -> Token:
        self.pos += 2  # len('<!')
        end = self.markup.find(">", self.pos)
        if end == -1:
            body = self.markup[self.pos :]
            self.pos = self.length
        else:
            body = self.markup[self.pos : end]
            self.pos = end + 1
        if body.lower().startswith("doctype"):
            return Token("doctype", body[7:].strip())
        return Token("comment", body)  # bogus comment recovery

    def _consume_end_tag(self) -> Optional[Token]:
        self.pos += 2  # len('</')
        match = _TAG_NAME_RE.match(self.markup, self.pos)
        if not match:
            # '</>' or '</ >' — parse error, swallowed as a bogus comment.
            end = self.markup.find(">", self.pos)
            self.pos = self.length if end == -1 else end + 1
            return None
        name = match.group(0).lower()
        self.pos = match.end()
        end = self.markup.find(">", self.pos)
        self.pos = self.length if end == -1 else end + 1
        return Token("end", name)

    def _consume_start_tag(self) -> Token:
        self.pos += 1  # '<'
        match = _TAG_NAME_RE.match(self.markup, self.pos)
        assert match is not None  # guarded by caller
        name = match.group(0).lower()
        self.pos = match.end()
        attributes: List[Tuple[str, str]] = []
        self_closing = False
        while self.pos < self.length:
            self._skip_whitespace()
            ch = self._peek()
            if ch == ">":
                self.pos += 1
                break
            if ch == "/":
                if self._peek(1) == ">":
                    self_closing = True
                    self.pos += 2
                    break
                self.pos += 1
                continue
            if not ch:
                break
            attr = self._consume_attribute()
            if attr is not None:
                attributes.append(attr)
        return Token("start", name, attributes, self_closing)

    def _consume_attribute(self) -> Optional[Tuple[str, str]]:
        match = _ATTR_NAME_RE.match(self.markup, self.pos)
        if not match:
            self.pos += 1  # skip a stray character and move on
            return None
        name = match.group(0).lower()
        self.pos = match.end()
        self._skip_whitespace()
        if self._peek() != "=":
            return (name, "")
        self.pos += 1
        self._skip_whitespace()
        quote = self._peek()
        if quote in ('"', "'"):
            self.pos += 1
            end = self.markup.find(quote, self.pos)
            if end == -1:
                value = self.markup[self.pos :]
                self.pos = self.length
            else:
                value = self.markup[self.pos : end]
                self.pos = end + 1
        else:
            start = self.pos
            while self.pos < self.length and self.markup[self.pos] not in " \t\n\r>/":
                self.pos += 1
            value = self.markup[start : self.pos]
        return (name, decode_entities(value))
