"""Document mutations used to generate test-webpage variants.

The paper's experiments derive N versions of a page by editing style and
content: five font sizes of the Wikipedia article (Experiment 1), a larger /
symbol-enriched / repositioned "Expand" button (Experiment 2). These helpers
perform those edits on a cloned document so the original is never touched —
mirroring Kaleidoscope's "no impact on the running website" property.
"""

from __future__ import annotations

from typing import List

from repro.errors import ValidationError
from repro.html.dom import Document, Element, Text
from repro.html.selectors import query_selector, query_selector_all


def set_style_property(
    document: Document, selector: str, prop: str, value: str
) -> int:
    """Set an inline-style property on every match; returns the match count."""
    matched = query_selector_all(document, selector)
    for element in matched:
        element.set_style(prop, value)
    return len(matched)


def set_font_size(document: Document, selector: str, points: float) -> int:
    """Set ``font-size: {points}pt`` on every match (the paper's Exp. 1 edit)."""
    if points <= 0:
        raise ValidationError(f"font size must be positive, got {points}")
    size = int(points) if float(points).is_integer() else points
    return set_style_property(document, selector, "font-size", f"{size}pt")


def scale_font_size(document: Document, selector: str, factor: float) -> int:
    """Multiply the inline font size of every match by ``factor``.

    Elements without an inline ``font-size`` are treated as 1em and receive
    ``font-size: {factor}em`` (relative scaling), which is exactly the
    "text's button is 1.5 times larger" edit of Experiment 2.
    """
    if factor <= 0:
        raise ValidationError(f"scale factor must be positive, got {factor}")
    matched = query_selector_all(document, selector)
    for element in matched:
        current = element.style_declarations().get("font-size")
        if current is None:
            element.set_style("font-size", f"{factor}em")
            continue
        number, unit = _split_length(current)
        if number is None:
            element.set_style("font-size", f"{factor}em")
        else:
            element.set_style("font-size", _format_length(number * factor, unit))
    return len(matched)


def replace_text(document: Document, selector: str, text: str) -> int:
    """Replace the text content of every match; returns the match count."""
    matched = query_selector_all(document, selector)
    for element in matched:
        element.clear()
        element.append(Text(text))
    return len(matched)


def prepend_symbol(document: Document, selector: str, symbol: str) -> int:
    """Prefix matches' text with a symbol (the "captivating symbol" edit)."""
    matched = query_selector_all(document, selector)
    for element in matched:
        element.insert(0, Text(symbol + " "))
    return len(matched)


def move_element(
    document: Document, selector: str, destination_selector: str, position: int = -1
) -> bool:
    """Move the first match inside the first destination match.

    ``position`` of -1 appends; otherwise inserts at that child index.
    Returns False when either endpoint is missing (no partial move).
    """
    element = query_selector(document, selector)
    destination = query_selector(document, destination_selector)
    if element is None or destination is None:
        return False
    if destination is element or _is_ancestor(element, destination):
        raise ValidationError("cannot move an element into itself or its subtree")
    element.detach()
    if position < 0:
        destination.append(element)
    else:
        destination.insert(position, element)
    return True


def remove_elements(document: Document, selector: str) -> int:
    """Detach every match from the tree; returns the count removed."""
    matched = query_selector_all(document, selector)
    for element in matched:
        element.detach()
    return len(matched)


def _is_ancestor(candidate: Element, element: Element) -> bool:
    return any(ancestor is candidate for ancestor in element.ancestors)


def _split_length(value: str):
    """Split '14pt' -> (14.0, 'pt'); (None, '') when not a length."""
    value = value.strip()
    for i, ch in enumerate(value):
        if not (ch.isdigit() or ch in ".-+"):
            number_part, unit = value[:i], value[i:].strip()
            break
    else:
        number_part, unit = value, ""
    try:
        return float(number_part), unit
    except ValueError:
        return None, ""


def _format_length(number: float, unit: str) -> str:
    if float(number).is_integer():
        return f"{int(number)}{unit}"
    return f"{number:g}{unit}"


class VariantBuilder:
    """Fluent builder composing several mutations into one page variant.

    >>> variant = (VariantBuilder(page)
    ...            .style("#mw-content-text p", "font-size", "14pt")
    ...            .build())
    """

    def __init__(self, base: Document):
        self._base = base
        self._operations: List = []

    def style(self, selector: str, prop: str, value: str) -> "VariantBuilder":
        self._operations.append(lambda d: set_style_property(d, selector, prop, value))
        return self

    def scale_font(self, selector: str, factor: float) -> "VariantBuilder":
        self._operations.append(lambda d: scale_font_size(d, selector, factor))
        return self

    def text(self, selector: str, value: str) -> "VariantBuilder":
        self._operations.append(lambda d: replace_text(d, selector, value))
        return self

    def symbol(self, selector: str, symbol: str) -> "VariantBuilder":
        self._operations.append(lambda d: prepend_symbol(d, selector, symbol))
        return self

    def move(self, selector: str, destination: str, position: int = -1) -> "VariantBuilder":
        self._operations.append(lambda d: move_element(d, selector, destination, position))
        return self

    def remove(self, selector: str) -> "VariantBuilder":
        self._operations.append(lambda d: remove_elements(d, selector))
        return self

    def build(self) -> Document:
        """Apply all queued mutations to a fresh clone of the base page."""
        document = self._base.clone()
        for operation in self._operations:
            operation(document)
        return document
