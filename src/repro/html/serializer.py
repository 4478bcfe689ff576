"""DOM -> HTML serialization.

Produces standards-valid markup that re-parses to an equivalent tree:
double-quoted attributes with escaping, raw (unescaped) content inside
``<script>``/``<style>``, void elements without end tags. An optional
pretty mode indents element-only subtrees for human inspection of the
aggregator's generated pages.
"""

from __future__ import annotations

from typing import List

from repro.html.dom import (
    Comment,
    Document,
    Element,
    Node,
    RAW_TEXT_ELEMENTS,
    Text,
    VOID_ELEMENTS,
)
from repro.html.entities import encode_attribute, encode_text


def _serialize_attributes(element: Element) -> str:
    parts = []
    for name, value in element.attributes.items():
        if value == "":
            parts.append(f" {name}")
        else:
            parts.append(f' {name}="{encode_attribute(str(value))}"')
    return "".join(parts)


def _serialize_node(node: Node, out: List[str], raw_depth: int) -> None:
    if isinstance(node, Text):
        if raw_depth > 0:
            out.append(node.data)
        else:
            out.append(encode_text(node.data))
    elif isinstance(node, Comment):
        out.append(f"<!--{node.data}-->")
    elif isinstance(node, Element):
        out.append(f"<{node.tag}{_serialize_attributes(node)}>")
        if node.tag in VOID_ELEMENTS:
            return
        child_raw = raw_depth + (1 if node.tag in RAW_TEXT_ELEMENTS else 0)
        for child in node.children:
            _serialize_node(child, out, child_raw)
        out.append(f"</{node.tag}>")


def serialize(document: Document) -> str:
    """Serialize a full document, doctype included."""
    out: List[str] = []
    if document.doctype:
        out.append(f"<!DOCTYPE {document.doctype}>")
    _serialize_node(document.root, out, 0)
    return "".join(out)
