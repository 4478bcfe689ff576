"""Filmstrip: discrete visual-progress frames of a page load.

WebPageTest presents page loads as a filmstrip — a row of frames sampled at
a fixed interval, each showing how complete the page looks. The replay
pipeline can produce the same artifact from a paint timeline: per-frame
visual completeness, plus an ASCII rendering for terminal inspection and a
frame-difference view that highlights *when* things changed (the raw
material of the video-analysis workflow the paper describes for recording
real-world loads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ValidationError
from repro.render.paint import PaintTimeline

DEFAULT_INTERVAL_MS = 500.0
_BLOCKS = " ▏▎▍▌▋▊▉█"


@dataclass(frozen=True)
class Frame:
    """One filmstrip frame."""

    time_ms: float
    completeness: float  # [0, 1]
    newly_painted: int   # paint events since the previous frame

    def bar(self, width: int = 10) -> str:
        """A unicode progress bar for this frame."""
        completeness = 1.0 if self.completeness >= 0.999 else self.completeness
        filled = completeness * width
        whole = int(filled)
        remainder = filled - whole
        partial = _BLOCKS[int(remainder * (len(_BLOCKS) - 1))] if whole < width else ""
        return ("█" * whole + partial).ljust(width)


@dataclass(frozen=True)
class Filmstrip:
    """A sampled sequence of frames covering one page load."""

    frames: List[Frame]
    interval_ms: float

    @property
    def frame_count(self) -> int:
        return len(self.frames)

    def visually_complete_frame(self, threshold: float = 0.999) -> Optional[Frame]:
        """The first frame at (effectively) full completeness."""
        for frame in self.frames:
            if frame.completeness >= threshold:
                return frame
        return None

    def render_ascii(self, bar_width: int = 12) -> str:
        """The filmstrip as terminal art, one frame per line."""
        lines = []
        for frame in self.frames:
            marker = f"+{frame.newly_painted}" if frame.newly_painted else "  "
            lines.append(
                f"{frame.time_ms:>8.0f} ms |{frame.bar(bar_width)}| "
                f"{100 * frame.completeness:5.1f}% {marker}"
            )
        return "\n".join(lines)


def build_filmstrip(
    timeline: PaintTimeline,
    interval_ms: float = DEFAULT_INTERVAL_MS,
    extra_frames: int = 1,
) -> Filmstrip:
    """Sample a paint timeline into a filmstrip.

    Frames run from t=0 through the last paint (plus ``extra_frames`` of
    settled tail, so the strip visibly ends complete).
    """
    if interval_ms <= 0:
        raise ValidationError("interval_ms must be positive")
    end = timeline.last_event_ms
    frame_count = int(end // interval_ms) + 1 + max(extra_frames, 0)
    events = sorted(timeline.events, key=lambda e: e.time_ms)
    frames: List[Frame] = []
    consumed = 0
    for index in range(frame_count + 1):
        time_ms = index * interval_ms
        newly = 0
        while consumed < len(events) and events[consumed].time_ms <= time_ms:
            consumed += 1
            newly += 1
        frames.append(
            Frame(
                time_ms=time_ms,
                completeness=timeline.completeness_at(time_ms),
                newly_painted=newly,
            )
        )
    return Filmstrip(frames=frames, interval_ms=interval_ms)


def filmstrips_side_by_side(
    left: Filmstrip, right: Filmstrip, labels=("A", "B"), bar_width: int = 12
) -> str:
    """Two filmstrips rendered in columns — the side-by-side comparison a
    Kaleidoscope participant sees, in terminal form."""
    if abs(left.interval_ms - right.interval_ms) > 1e-9:
        raise ValidationError("filmstrips must share an interval")
    rows = max(left.frame_count, right.frame_count)
    lines = [f"{'time':>8}    {labels[0]:<{bar_width + 10}} {labels[1]}"]
    for index in range(rows):
        time_ms = index * left.interval_ms

        def cell(strip: Filmstrip) -> str:
            if index < strip.frame_count:
                frame = strip.frames[index]
                return f"|{frame.bar(bar_width)}| {100 * frame.completeness:5.1f}%"
            return " " * (bar_width + 9)

        lines.append(f"{time_ms:>8.0f} ms {cell(left)}  {cell(right)}")
    return "\n".join(lines)
