"""HTML substrate: tokenizer, parser, DOM, CSS, selectors, serializer, inliner.

Kaleidoscope's aggregator and browser extension operate on webpages: they
inline resources into a single document (SingleFile), inject the page-load
replay script, generate style variants (font sizes, button tweaks) and compose
two versions into an integrated two-iframe page. This package supplies the
document model those transformations run on, built from scratch on the
standard library.
"""

from repro.html.dom import Comment, Document, Element, Node, Text
from repro.html.parser import parse_html
from repro.html.serializer import serialize
from repro.html.selectors import Selector, matches, query_selector_all
from repro.html.cssom import (
    Declaration,
    Rule,
    Stylesheet,
    parse_declarations,
    parse_stylesheet,
)
from repro.html.inliner import Inliner, InlineReport
from repro.html.mutations import (
    set_font_size,
    set_style_property,
    scale_font_size,
)

__all__ = [
    "Comment",
    "Document",
    "Element",
    "Node",
    "Text",
    "parse_html",
    "serialize",
    "Selector",
    "matches",
    "query_selector_all",
    "Declaration",
    "Rule",
    "Stylesheet",
    "parse_declarations",
    "parse_stylesheet",
    "Inliner",
    "InlineReport",
    "set_font_size",
    "set_style_property",
    "scale_font_size",
]
