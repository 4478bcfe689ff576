"""Per-layer wall-clock tracing, installed from outside the program.

A traced repetition wraps each layer's public entry point with a
:class:`LayerTracer` call. Every wrapped call becomes one span
``(id, name, start, end, parent id, participant index)`` kept in memory;
:meth:`LayerTracer.self_seconds` derives each layer's self time from the
spans afterwards (span duration minus the part its child spans cover), and
:meth:`LayerTracer.write` saves them when the run ends.

A call into a layer whose innermost open span is already that layer (a
recursive frame build, a merge-sort scheduler nested in the adaptive one)
is part of the open span and records none of its own.

The simulation is single-threaded on a virtual clock, so no span ever
waits on another: wall time inside a span is work done by that layer or
its children.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.core.adaptive
import repro.core.btmodel
import repro.core.campaign
import repro.storage.documentstore
import repro.store.sharded
from repro.core.aggregator import Aggregator
from repro.core.extension import BrowserExtension
from repro.core.quality import QualityControl
from repro.core.scheduling import Scheduler
from repro.net.http import HttpServer
from repro.net.overload import AdmissionController
from repro.net.simnet import Client, SimulatedNetwork
from repro.render.artifacts import PageArtifactCache
from repro.storage.documentstore import Collection
from repro.store.sharded import ShardedCollection, ShardedDocumentStore
from repro.store.stream import StreamingCampaignState

#: Public read/write methods of a document collection, shared by the
#: in-memory ``Collection`` (layer ``storage``) and the WAL-backed
#: ``ShardedCollection`` (layer ``store``).
COLLECTION_METHODS = (
    "insert_one", "insert_many", "update_many", "update_one", "replace_one",
    "delete_many", "find", "find_one", "count", "distinct",
)

#: (owner, attribute, span name, call counter) for every traced entry point.
#: The counter, when set, counts the calls that opened a span.
ENTRY_POINTS = (
    (Aggregator, "prepare", "aggregator", None),
    (BrowserExtension, "run_test", "extension", None),
    (BrowserExtension, "run_adaptive_test", "extension", None),
    (PageArtifactCache, "get_or_build", "render", None),
    (Client, "request", "net.client", "net.client.requests"),
    (SimulatedNetwork, "exchange", "net.exchange", "net.exchanges"),
    (AdmissionController, "decide", "overload", "overload.decisions"),
    (StreamingCampaignState, "ingest", "stream.ingest", "stream.ingests"),
    (StreamingCampaignState, "conclude", "stream.conclude", None),
    (QualityControl, "apply", "quality", "quality.calls"),
    (repro.core.campaign, "analyze_responses", "analysis", None),
    (repro.core.adaptive, "fit_bradley_terry", "btmodel", "btmodel.fits"),
    (repro.core.btmodel, "fit_bradley_terry", "btmodel", "btmodel.fits"),
    (Scheduler, "report", "scheduling", "scheduling.reports"),
    (Scheduler, "retract", "scheduling", None),
    (Scheduler, "release", "scheduling", None),
) + tuple(
    (Collection, method, "storage", "storage.calls")
    for method in COLLECTION_METHODS
) + tuple(
    (ShardedCollection, method, "store", "store.calls")
    for method in COLLECTION_METHODS
)

#: Span name of one ``next()`` on the store's lazy WAL replay.
REPLAY_SPAN = "store.replay"

Span = Tuple[int, str, float, float, Optional[int], int]


class LayerTracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: Index of the participant in flight: the number of uploads the
        #: campaign has checkpointed so far (-1 before the run starts).
        self.participant = -1
        self._stack: List[Tuple[int, str]] = []
        self._next_id = 0
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def call(self, name: str, counter: Optional[str], fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack
        if stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        if counter is not None:
            self.counts[counter] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.participant))

    def wrap(self, name: str, fn: Callable, counter: Optional[str] = None) -> Callable:
        """``fn`` with every call recorded as a ``name`` span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, counter, fn, *args, **kwargs)

        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Patch every layer entry point; :meth:`uninstall` restores them."""
        for owner, attribute, name, counter in ENTRY_POINTS:
            self._patch(owner, attribute, self.wrap(name, getattr(owner, attribute), counter))
        self._patch(HttpServer, "handle", self._wrap_server(HttpServer.handle))
        self._patch(Scheduler, "next_pair", self._wrap_next_pair(Scheduler.next_pair))
        self._patch(
            ShardedDocumentStore, "stream_collection",
            self._wrap_replay(ShardedDocumentStore.stream_collection),
        )
        # Every document a query examines goes through match_document; it is
        # counted, not spanned (a memory-store campaign calls it O(n^2) times).
        for module in (repro.storage.documentstore, repro.store.sharded):
            self._patch(module, "match_document", self._count_matches(module.match_document))

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _wrap_server(self, handle: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(handle)
        def traced(server, request, *args, **kwargs):
            response = self.call("server", "server.requests", handle, server, request, *args, **kwargs)
            if not 200 <= response.status < 300:
                counts["server.errors"] += 1
            return response

        return traced

    def _wrap_next_pair(self, next_pair: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(next_pair)
        def traced(scheduler, *args, **kwargs):
            # The adaptive scheduler's seeding sort serves through a nested
            # next_pair; only the outermost call serves a participant.
            nested = bool(self._stack) and self._stack[-1][1] == "scheduling"
            pair = self.call("scheduling", None, next_pair, scheduler, *args, **kwargs)
            if pair is not None and not nested:
                counts["scheduling.serves"] += 1
            return pair

        return traced

    def _wrap_replay(self, stream_collection: Callable) -> Callable:
        tracer = self

        @functools.wraps(stream_collection)
        def traced(store, *args, **kwargs) -> Iterator[dict]:
            rows = stream_collection(store, *args, **kwargs)
            sentinel = object()
            while True:
                row = tracer.call(REPLAY_SPAN, None, next, rows, sentinel)
                if row is sentinel:
                    return
                tracer.counts["store.replay_rows"] += 1
                yield row

        return traced

    def _count_matches(self, match_document: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(match_document)
        def counted(document, query):
            counts["storage.docs_examined"] += 1
            return match_document(document, query)

        return counted

    # -- analysis -------------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            totals[name] += (end - start) - child_time[span_id]
        return dict(totals)

    def write(self, path) -> None:
        """Save the spans as gzipped JSON (one list per span)."""
        fields = ["id", "name", "start", "end", "parent", "participant"]
        with gzip.open(path, "wt", encoding="utf-8") as out:
            json.dump({"fields": fields, "spans": self.spans}, out)
