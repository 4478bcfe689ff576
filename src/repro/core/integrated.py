"""Integrated webpages: the two-iframe side-by-side composition.

"We developed an initial HTML document which has two iframes side by side
for integrated webpages, and each iframe links to a version of the test
webpage" (§III-B). :func:`compose_integrated_page` builds that document; the
:class:`IntegratedWebpage` record is what the aggregator stores about it —
including whether the pair is a quality-control pair and, if so, what the
expected answer is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.html.dom import Document, Element, Text
from repro.html.serializer import serialize

CONTROL_NONE = ""
CONTROL_IDENTICAL = "identical"  # two copies of the same version -> "Same"
CONTROL_CONTRAST = "contrast"    # drastically different pair -> known side


ORIENTATION_NORMAL = "normal"
ORIENTATION_MIRRORED = "mirrored"


@dataclass(frozen=True)
class IntegratedWebpage:
    """One side-by-side pair as stored by the aggregator.

    When orientation randomization is on, each unordered pair exists in two
    stored orientations sharing a ``pair_key``; a participant sees one of
    them, chosen at random — the standard counterbalancing that cancels
    position bias (e.g. spammers' "always Left" habit).
    """

    integrated_id: str
    test_id: str
    left_version: str
    right_version: str
    storage_path: str  # FileStore path of the composed HTML
    control_kind: str = CONTROL_NONE
    expected_answer: str = ""  # 'same' / 'left' / 'right' for control pairs
    orientation: str = ORIENTATION_NORMAL

    @property
    def is_control(self) -> bool:
        return self.control_kind != CONTROL_NONE

    @property
    def pair_key(self) -> str:
        """Orientation-independent pair identity."""
        return "|".join(sorted((self.left_version, self.right_version)))

    def as_dict(self) -> dict:
        return {
            "integrated_id": self.integrated_id,
            "test_id": self.test_id,
            "left_version": self.left_version,
            "right_version": self.right_version,
            "storage_path": self.storage_path,
            "control_kind": self.control_kind,
            "expected_answer": self.expected_answer,
            "orientation": self.orientation,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IntegratedWebpage":
        return cls(
            integrated_id=data["integrated_id"],
            test_id=data["test_id"],
            left_version=data["left_version"],
            right_version=data["right_version"],
            storage_path=data["storage_path"],
            control_kind=data.get("control_kind", CONTROL_NONE),
            expected_answer=data.get("expected_answer", ""),
            orientation=data.get("orientation", ORIENTATION_NORMAL),
        )


_FRAME_STYLE = (
    "width: 49.5%; height: 92vh; border: 1px solid #888; margin: 0; padding: 0;"
)


def compose_integrated_page(
    integrated_id: str,
    left_src: str,
    right_src: str,
    title: str = "Kaleidoscope comparison",
    instructions: str = "",
) -> Document:
    """Build the initial two-iframe HTML document.

    ``left_src``/``right_src`` are the (relative) URLs of the compressed test
    webpages; the layout puts the frames side by side at ~half width each,
    with an optional instruction banner above.
    """
    document = Document()
    head = document.ensure_head()
    title_element = Element("title")
    title_element.append(Text(title))
    head.append(title_element)
    style = Element("style")
    style.append(
        Text(
            "body { margin: 0; font-family: sans-serif; }"
            " .kaleidoscope-banner { padding: 6px 10px; background: #f4f4f4;"
            " font-size: 14px; }"
            " .kaleidoscope-frames { display: flex; }"
        )
    )
    head.append(style)

    body = document.ensure_body()
    body.set("data-integrated-id", integrated_id)
    if instructions:
        banner = Element("div", {"class": "kaleidoscope-banner"})
        banner.append(Text(instructions))
        body.append(banner)
    frames = Element("div", {"class": "kaleidoscope-frames"})
    left = Element(
        "iframe",
        {
            "id": "kaleidoscope-left",
            "src": left_src,
            "style": _FRAME_STYLE,
            "sandbox": "allow-scripts",
        },
    )
    right = Element(
        "iframe",
        {
            "id": "kaleidoscope-right",
            "src": right_src,
            "style": _FRAME_STYLE,
            "sandbox": "allow-scripts",
        },
    )
    frames.append(left)
    frames.append(right)
    body.append(frames)
    return document


class IntegratedComposer:
    """Stamps out integrated pages from one shared template document.

    The aggregator composes C(N,2) pairs plus controls (and as many again
    when mirrored orientations are stored); only three attributes differ
    between them — the integrated id and the two iframe ``src`` values — so
    the skeleton DOM is built once and re-stamped per pair instead of being
    reconstructed and re-traversed for every composition.
    """

    def __init__(self, instructions: str = "", title: str = "Kaleidoscope comparison"):
        self._template = compose_integrated_page(
            "", "", "", title=title, instructions=instructions
        )
        self._body = self._template.ensure_body()
        self._left = self._template.get_element_by_id("kaleidoscope-left")
        self._right = self._template.get_element_by_id("kaleidoscope-right")

    def html_for(self, integrated_id: str, left_src: str, right_src: str) -> str:
        """Serialized markup for one pair."""
        self._body.set("data-integrated-id", integrated_id)
        self._left.set("src", left_src)
        self._right.set("src", right_src)
        return serialize(self._template)


def frame_sources(document: Document) -> Optional[tuple]:
    """Extract (left_src, right_src) from an integrated page, or None."""
    left = document.get_element_by_id("kaleidoscope-left")
    right = document.get_element_by_id("kaleidoscope-right")
    if left is None or right is None:
        return None
    return (left.get("src", ""), right.get("src", ""))
