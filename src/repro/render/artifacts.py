"""Shared page artifacts: parse/layout/replay computed once per stored page.

Every participant in a campaign views the same C(N,2) integrated webpages.
Downloading them per participant is the point of the network simulation —
transfer time depends on the participant's access network — but *rendering*
them is not: the parse tree, the resolved style cascade, the layout boxes
and the replay reveal times of a stored page are pure functions of its
bytes. Re-deriving them for every one of ~100 participants multiplies the
hot path by the participant count for no fidelity gain.

:class:`PageArtifactCache` memoizes that work. Entries are keyed by
``(storage_path, content_hash)``: the content hash guarantees a stale entry
can never be served for a re-written page (re-preparing a test overwrites
storage paths), and :meth:`invalidate` drops entries explicitly when storage
is mutated out from under a live campaign.

For an integrated (two-iframe) page the cache also resolves the frame
``src`` attributes and builds the artifacts of each referenced version page
through the ``fetch`` callback — so the two versions of a pair are
downloaded and rendered once per campaign, not once per participant, and a
version shared by many pairs is rendered exactly once.

Replay reveal times for a uniform-random schedule are seeded from the
content hash, making them a deterministic property of the page bytes —
shareable across participants and identical between sequential and parallel
campaign runs.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.html.dom import Document
from repro.html.parser import parse_html
from repro.render.box import DEFAULT_VIEWPORT, Viewport
from repro.obs.metrics import GLOBAL_METRICS
from repro.obs.tracing import NULL_TRACER
from repro.render.layout import LayoutEngine, LayoutResult
from repro.render.replay import RevealSchedule, compute_reveal_times

# The iframe ids the integrated-page composer assigns (repro.core.integrated);
# duplicated here as plain strings to keep render/ independent of core/.
_FRAME_IDS = ("kaleidoscope-left", "kaleidoscope-right")

#: ``fetch(storage_path) -> html`` resolves a stored file, e.g. through the
#: participant's HTTP client against the core server.
FetchFunction = Callable[[str], str]

#: ``schedule_lookup(storage_path) -> RevealSchedule | None`` maps a stored
#: version page to its injected page-load replay schedule.
ScheduleLookup = Callable[[str], Optional[RevealSchedule]]


def content_hash(html: str) -> str:
    """Stable identity of a page's bytes (sha256 hex)."""
    return hashlib.sha256(html.encode("utf-8")).hexdigest()


@dataclass
class PageArtifacts:
    """Everything derivable from one stored page's bytes."""

    storage_path: str
    content_hash: str
    document: Document
    layout: Optional[LayoutResult] = None
    reveal_times: Dict[int, float] = field(default_factory=dict)
    frames: Dict[str, "PageArtifacts"] = field(default_factory=dict)

    @property
    def is_integrated(self) -> bool:
        """True when the page is a two-iframe integrated composition."""
        return bool(self.frames)

    @property
    def element_count(self) -> int:
        return sum(1 for _ in self.document.iter_elements())

    @property
    def page_height(self) -> float:
        return self.layout.page_height if self.layout is not None else 0.0

    @property
    def last_reveal_ms(self) -> float:
        """When the page finishes revealing under its replay schedule."""
        return max(self.reveal_times.values(), default=0.0)


class PageArtifactCache:
    """Content-addressed cache of :class:`PageArtifacts`.

    Thread-safe: the parallel participant mode hits it from worker threads.
    A miss builds outside the lock, so two threads racing on the same key may
    both build; the artifacts are deterministic, so last-write-wins is safe.
    With ``enabled=False`` every lookup rebuilds — the brute-force
    per-participant pipeline, kept as the benchmark baseline.
    """

    def __init__(
        self,
        viewport: Viewport = DEFAULT_VIEWPORT,
        enabled: bool = True,
        use_style_index: bool = True,
        metrics=None,
        tracer=None,
    ):
        self.viewport = viewport
        self.enabled = enabled
        self.use_style_index = use_style_index
        self.hits = 0
        self.misses = 0
        self.metrics = metrics if metrics is not None else GLOBAL_METRICS
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._lock = threading.Lock()
        self._entries: Dict[Tuple[str, str], PageArtifacts] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- lookup --------------------------------------------------------------

    def get_or_build(
        self,
        storage_path: str,
        html: str,
        fetch: Optional[FetchFunction] = None,
        schedule_lookup: Optional[ScheduleLookup] = None,
    ) -> PageArtifacts:
        """The artifacts for ``html`` as stored at ``storage_path``.

        ``fetch`` is only consulted on a miss, to resolve iframe sources of
        an integrated page; on a hit no network activity happens at all.
        """
        digest = content_hash(html)
        key = (storage_path, digest)
        if self.enabled:
            with self._lock:
                entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self.metrics.add("artifacts.hits", 1)
                return entry
        self.misses += 1
        self.metrics.add("artifacts.misses", 1)
        with self.metrics.timed("artifacts.build"):
            with self.tracer.span(
                "artifact_build", category="render", path=storage_path
            ):
                entry = self._build(
                    storage_path, html, digest, fetch, schedule_lookup
                )
        if self.enabled:
            with self._lock:
                self._entries[key] = entry
        return entry

    def snapshot_entries(self) -> Dict[Tuple[str, str], PageArtifacts]:
        """A shallow copy of the entry map (read-only snapshot semantics).

        The process fan-out prebuilds the cache once in the parent and ships
        this snapshot to every worker; entries are immutable-in-practice
        (pure functions of the page bytes), so sharing the
        :class:`PageArtifacts` objects themselves is safe.
        """
        with self._lock:
            return dict(self._entries)

    def seed_entries(
        self, entries: Dict[Tuple[str, str], PageArtifacts]
    ) -> None:
        """Adopt a prebuilt entry map (worker-side of :meth:`snapshot_entries`).

        The mapping is adopted by reference: chunks running in the same
        worker process share one map — any entry built on demand (e.g.
        after a resilient prewarm skipped a page) is reused by later
        chunks.
        """
        with self._lock:
            self._entries = entries

    def invalidate(self, storage_path: Optional[str] = None) -> int:
        """Drop cached artifacts; returns how many entries were removed.

        With a ``storage_path`` only that page's entries go (all content
        versions of it); without one the cache is emptied.
        """
        with self._lock:
            if storage_path is None:
                removed = len(self._entries)
                self._entries.clear()
                return removed
            stale = [key for key in self._entries if key[0] == storage_path]
            for key in stale:
                del self._entries[key]
            return len(stale)

    # -- construction --------------------------------------------------------

    def _build(
        self,
        storage_path: str,
        html: str,
        digest: str,
        fetch: Optional[FetchFunction],
        schedule_lookup: Optional[ScheduleLookup],
    ) -> PageArtifacts:
        document = parse_html(html)
        layout: Optional[LayoutResult] = None
        if document.body is not None:
            engine = LayoutEngine(self.viewport, use_style_index=self.use_style_index)
            layout = engine.layout(document)
        artifacts = PageArtifacts(
            storage_path=storage_path,
            content_hash=digest,
            document=document,
            layout=layout,
        )
        schedule = schedule_lookup(storage_path) if schedule_lookup else None
        if schedule is not None:
            # Seed the uniform-random reveal draw from the page bytes: the
            # replay becomes a deterministic property of the page, shared by
            # every participant and every parallelism level.
            rng = np.random.default_rng(int(digest[:16], 16))
            artifacts.reveal_times = compute_reveal_times(document, schedule, rng=rng)
        for side, frame_path in self._frame_paths(document):
            if fetch is None:
                continue
            frame_html = fetch(frame_path)
            if not frame_html:
                continue
            artifacts.frames[side] = self.get_or_build(
                frame_path, frame_html, fetch=fetch, schedule_lookup=schedule_lookup
            )
        return artifacts

    @staticmethod
    def _frame_paths(document: Document) -> List[Tuple[str, str]]:
        """``(side, storage_path)`` for each iframe of an integrated page."""
        paths = []
        for side, frame_id in zip(("left", "right"), _FRAME_IDS):
            frame = document.get_element_by_id(frame_id)
            if frame is None:
                continue
            src = (frame.get("src") or "").lstrip("/")
            if src:
                paths.append((side, src))
        return paths
