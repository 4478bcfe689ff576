"""Document mutations used to generate test-webpage variants.

The paper's experiments derive N versions of a page by editing its style:
five font sizes of the Wikipedia article (Experiment 1), a 1.5x larger
"Expand" button (Experiment 2, whose symbol and position edits
``repro.experiments.datasets`` writes into the page it generates). These
helpers perform those edits on a cloned document so the original is never
touched — mirroring Kaleidoscope's "no impact on the running website"
property.
"""

from __future__ import annotations

from typing import List

from repro.errors import ValidationError
from repro.html.dom import Document
from repro.html.selectors import query_selector_all


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

    def build(self) -> Document:
        """Apply all queued mutations to a fresh clone of the base page."""
        document = self._base.clone()
        for operation in self._operations:
            operation(document)
        return document
