"""A simplified block layout engine.

Assigns a :class:`~repro.render.box.Box` to every rendered element of a
document. The model is a vertical block-flow layout with the features the
visual metrics need:

* block boxes stack vertically and fill the content width of their parent;
* ``display:none`` subtrees and non-rendered tags (``head``, ``script``,
  ``style``...) produce no boxes;
* ``width``/``height`` CSS (px) and ``<img width= height=>`` attributes are
  honoured;
* text height is estimated from the computed font size, line height and a
  character-per-line estimate — so larger fonts genuinely occupy more
  vertical space, which is what makes the font-size variants *visually*
  different in the simulated side-by-side view;
* ``float:left/right`` and ``display:inline-block`` siblings are placed on a
  shared row when they fit (enough for nav bars);
* margins/paddings (px only) contribute to spacing.

This is not a browser, but it is a real geometric model: the Speed Index and
above-the-fold computations downstream consume nothing beyond these boxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import LayoutError
from repro.html.cssom import StyleResolver, parse_length
from repro.html.dom import Document, Element, Text
from repro.render.box import Box, Viewport, DEFAULT_VIEWPORT

# Tags that never generate boxes.
NON_RENDERED_TAGS = frozenset(
    {"head", "script", "style", "meta", "link", "title", "base", "template", "noscript"}
)

# Default vertical margins (px) applied when CSS doesn't say otherwise,
# approximating UA stylesheet defaults.
_DEFAULT_BLOCK_MARGIN = {
    "p": 16.0,
    "h1": 21.0,
    "h2": 19.0,
    "h3": 18.0,
    "ul": 16.0,
    "ol": 16.0,
    "blockquote": 16.0,
}

_HEADING_SCALE = {"h1": 2.0, "h2": 1.5, "h3": 1.17, "h4": 1.0, "h5": 0.83, "h6": 0.67}

_DEFAULT_LINE_HEIGHT_FACTOR = 1.3
# Average glyph advance as a fraction of font size (sans-serif estimate).
_GLYPH_WIDTH_FACTOR = 0.5


@dataclass
class LayoutResult:
    """Element geometry produced by one layout pass."""

    boxes: Dict[int, Box] = field(default_factory=dict)  # id(element) -> Box
    elements: Dict[int, Element] = field(default_factory=dict)
    page_height: float = 0.0
    viewport: Viewport = DEFAULT_VIEWPORT

    def box_of(self, element: Element) -> Optional[Box]:
        """The box of ``element``, or None when it isn't rendered."""
        return self.boxes.get(id(element))

    def paintable_leaves(self) -> List[Element]:
        """Elements whose paint is counted by the visual metrics.

        Containers double-count their children's pixels, so metrics are
        computed over elements that directly carry content: text-bearing
        elements and images.
        """
        leaves = []
        for element in self.elements.values():
            if element.tag == "img":
                leaves.append(element)
                continue
            has_direct_text = any(
                isinstance(child, Text) and child.data.strip()
                for child in element.children
            )
            if has_direct_text:
                leaves.append(element)
        return leaves


class LayoutEngine:
    """Computes a :class:`LayoutResult` for a document."""

    def __init__(self, viewport: Viewport = DEFAULT_VIEWPORT, use_style_index: bool = True):
        """``use_style_index=False`` resolves styles through the brute-force
        every-rule cascade instead of the rule index (benchmark baseline)."""
        self.viewport = viewport
        self.use_style_index = use_style_index
        # Work tallies over every pass of this engine (see StyleResolver).
        self.elements_resolved = 0
        self.candidates_tested = 0
        self.boxes = 0

    def layout(self, document: Document) -> LayoutResult:
        """Lay out ``document`` and return the element geometry."""
        body = document.body
        if body is None:
            raise LayoutError("document has no <body> to lay out")
        resolver = StyleResolver(document, use_index=self.use_style_index)
        result = LayoutResult(viewport=self.viewport)
        content_width = self.viewport.width
        height = self._layout_block(body, 0.0, 0.0, content_width, resolver, result)
        result.page_height = height
        result.boxes[id(body)] = Box(0.0, 0.0, content_width, height)
        result.elements[id(body)] = body
        self.elements_resolved += resolver.elements_resolved
        self.candidates_tested += resolver.candidates_tested
        self.boxes += len(result.boxes)
        return result

    # -- internals ----------------------------------------------------------

    def _style(self, element: Element, resolver: StyleResolver) -> Dict[str, str]:
        return resolver.computed_style(element)

    def _is_hidden(self, element: Element, resolver: StyleResolver) -> bool:
        style = self._style(element, resolver)
        if style.get("display", "").strip() == "none":
            return True
        if element.get("hidden") is not None:
            return True
        return False

    def _px(self, style: Dict[str, str], prop: str, font_px: float, base: float) -> float:
        value = style.get(prop)
        if value is None:
            return 0.0
        resolved = parse_length(value, font_px, percent_base=base)
        return resolved if resolved is not None else 0.0

    def _layout_block(
        self,
        element: Element,
        x: float,
        y: float,
        width: float,
        resolver: StyleResolver,
        result: LayoutResult,
    ) -> float:
        """Lay out the children of ``element`` starting at (x, y) within
        ``width``; returns the content height consumed."""
        cursor_y = y
        row: List = []  # pending inline-block/float row: (element, est_width)
        row_x = x

        def flush_row():
            nonlocal cursor_y, row, row_x
            if not row:
                return
            row_height = 0.0
            for entry_element, entry_width, entry_height in row:
                row_height = max(row_height, entry_height)
            row = []
            row_x = x
            cursor_y += row_height

        for child in element.children:
            if isinstance(child, Text):
                continue  # direct text is accounted to the parent's own box
            if not isinstance(child, Element):
                continue
            if child.tag in NON_RENDERED_TAGS:
                continue
            if self._is_hidden(child, resolver):
                continue
            style = self._style(child, resolver)
            font_px = resolver.font_size_px(child)
            inline_row = (
                style.get("display", "") == "inline-block"
                or style.get("float", "") in ("left", "right")
            )
            explicit_width = self._px(style, "width", font_px, width)
            child_width = explicit_width if explicit_width > 0 else width
            if inline_row:
                est_width = explicit_width if explicit_width > 0 else min(
                    width / 4.0, self._estimate_inline_width(child, font_px)
                )
                if row and row_x + est_width > x + width:
                    flush_row()
                child_x = row_x
                child_height = self._layout_element(
                    child, child_x, cursor_y, est_width, resolver, result
                )
                row.append((child, est_width, child_height))
                row_x += est_width
                continue
            flush_row()
            margin = self._block_margin(child, style, font_px)
            cursor_y += margin
            child_height = self._layout_element(
                child, x, cursor_y, child_width, resolver, result
            )
            cursor_y += child_height + margin
        flush_row()
        return max(0.0, cursor_y - y)

    def _block_margin(self, element: Element, style: Dict[str, str], font_px: float) -> float:
        explicit = style.get("margin-top") or style.get("margin")
        if explicit is not None:
            resolved = parse_length(explicit.split()[0], font_px)
            if resolved is not None:
                return resolved
        return _DEFAULT_BLOCK_MARGIN.get(element.tag, 0.0)

    def _layout_element(
        self,
        element: Element,
        x: float,
        y: float,
        width: float,
        resolver: StyleResolver,
        result: LayoutResult,
    ) -> float:
        """Assign a box to ``element``; returns its height."""
        style = self._style(element, resolver)
        font_px = resolver.font_size_px(element)
        padding = self._px(style, "padding", font_px, width)

        if element.tag == "img":
            height = self._image_height(element, style, font_px, width)
            img_width = self._image_width(element, style, font_px, width)
            result.boxes[id(element)] = Box(x, y, img_width, height)
            result.elements[id(element)] = element
            return height

        explicit_height = self._px(style, "height", font_px, 0.0)
        own_text_height = self._own_text_height(element, font_px, width, style)
        children_height = self._layout_block(
            element, x + padding, y + padding + own_text_height, width - 2 * padding,
            resolver, result,
        )
        content_height = own_text_height + children_height + 2 * padding
        if element.tag in ("br", "hr"):
            content_height = max(content_height, font_px * _DEFAULT_LINE_HEIGHT_FACTOR)
        height = explicit_height if explicit_height > 0 else content_height
        result.boxes[id(element)] = Box(x, y, max(width, 0.0), height)
        result.elements[id(element)] = element
        return height

    def _own_text_height(
        self, element: Element, font_px: float, width: float, style: Dict[str, str]
    ) -> float:
        """Height of the text directly inside ``element`` (not descendants),
        including text inside pure-inline children (a, span, b, i...)."""
        text = self._direct_inline_text(element)
        if not text.strip():
            return 0.0
        effective_font = font_px * _HEADING_SCALE.get(element.tag, 1.0)
        glyph_width = effective_font * _GLYPH_WIDTH_FACTOR
        chars_per_line = max(1, int(width / glyph_width)) if width > 0 else 1
        lines = max(1, -(-len(text.strip()) // chars_per_line))  # ceil division
        line_height = self._line_height(style, effective_font)
        return lines * line_height

    def _line_height(self, style: Dict[str, str], font_px: float) -> float:
        value = style.get("line-height")
        if value:
            try:
                return float(value) * font_px  # unitless multiplier
            except ValueError:
                resolved = parse_length(value, font_px, percent_base=font_px)
                if resolved is not None:
                    return resolved
        return font_px * _DEFAULT_LINE_HEIGHT_FACTOR

    _INLINE_TAGS = frozenset(
        {"a", "span", "b", "i", "em", "strong", "small", "code", "sub", "sup", "u", "abbr"}
    )

    def _direct_inline_text(self, element: Element) -> str:
        parts = []
        for child in element.children:
            if isinstance(child, Text):
                parts.append(child.data)
            elif isinstance(child, Element) and child.tag in self._INLINE_TAGS:
                parts.append(child.text_content)
        return "".join(parts)

    def _estimate_inline_width(self, element: Element, font_px: float) -> float:
        text = element.text_content.strip()
        return max(40.0, len(text) * font_px * _GLYPH_WIDTH_FACTOR + 20.0)

    def _image_width(
        self, element: Element, style: Dict[str, str], font_px: float, available: float
    ) -> float:
        css = self._px(style, "width", font_px, available)
        if css > 0:
            return min(css, available)
        attr = element.get("width")
        if attr:
            try:
                return min(float(attr), available)
            except ValueError:
                pass
        return min(300.0, available)

    def _image_height(
        self, element: Element, style: Dict[str, str], font_px: float, available: float
    ) -> float:
        css = self._px(style, "height", font_px, 0.0)
        if css > 0:
            return css
        attr = element.get("height")
        if attr:
            try:
                return float(attr)
            except ValueError:
                pass
        return 200.0
