"""Geometry primitives for the layout engine and visual metrics."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Box:
    """An axis-aligned rectangle in CSS pixels (origin top-left)."""

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self):
        if self.width < 0 or self.height < 0:
            raise ValueError(f"box dimensions must be >= 0: {self}")

    @property
    def right(self) -> float:
        return self.x + self.width

    @property
    def bottom(self) -> float:
        return self.y + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    def intersect(self, other: "Box") -> "Box":
        """The overlapping rectangle (possibly zero-area)."""
        x1 = max(self.x, other.x)
        y1 = max(self.y, other.y)
        x2 = min(self.right, other.right)
        y2 = min(self.bottom, other.bottom)
        if x2 <= x1 or y2 <= y1:
            return Box(x1, y1, 0.0, 0.0)
        return Box(x1, y1, x2 - x1, y2 - y1)


@dataclass(frozen=True)
class Viewport:
    """The visible region of the browser window.

    "Above the fold" is everything intersecting the viewport rectangle at
    scroll position zero.
    """

    width: float = 1366.0
    height: float = 768.0

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"viewport dimensions must be positive: {self}")

    @property
    def box(self) -> Box:
        return Box(0.0, 0.0, self.width, self.height)

    def above_the_fold_area(self, box: Box) -> float:
        """Area of ``box`` that falls above the fold."""
        return self.box.intersect(box).area


DEFAULT_VIEWPORT = Viewport()
