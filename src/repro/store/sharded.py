"""A hash-sharded, WAL-backed document store.

:class:`ShardedDocumentStore` is a drop-in replacement for
:class:`~repro.storage.documentstore.DocumentStore` that partitions each
collection's documents across N shards by a stable blake2b hash of the
collection's shard key (``worker_id`` for responses — the participant id —
so one participant's writes always land on one shard). Every mutation is
applied in memory and then journaled to the owning shard's write-ahead log
before the call returns, so a store rebuilt over the same backends recovers
exactly the acknowledged state: snapshot first, then the WAL tail, with
per-shard sequence numbers making double replay a no-op.

Two durability mechanisms compose:

* **Snapshot + compaction** — once ``snapshot_every`` non-spill records
  accumulate on a shard, its in-memory collections are dumped to the
  snapshot file and the WAL is rewritten to keep only records the snapshot
  does not cover (spilled-collection records). Recovery cost is then
  O(snapshot + spill tail), not O(full history).
* **Spill mode** — collections named in ``spill`` (the campaign response
  firehose) are *not* kept in memory at all: the WAL is their primary
  storage, and the shard keeps only a compact identity index — the key
  tuples the server's dedupe point-lookups ask about, per-value counts for
  the :data:`SPILL_COUNT_FIELDS`, and nothing proportional to document size.
  Point lookups answer from the index (returning a stub of the queried
  fields), streaming reads replay the log; anything else falls back to a
  log scan. Spilled collections are append-only by design.

Ids are assigned from a single store-wide monotonic counter, so the global
``_id`` order *is* insertion order even across shards —
:meth:`ShardedDocumentStore.stream_collection` k-way-merges the per-shard
iterators back into exactly the upload order the batch pipeline sees.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.aggregator import RESPONSES_COLLECTION
from repro.errors import StorageError
from repro.obs.metrics import MetricsRegistry
from repro.storage.documentstore import (
    DocumentStore,
    distinct_values,
    highest_numeric_id,
    match_document,
)
from repro.util.jsonutil import deep_copy_json, dumps_canonical, loads
from repro.store.wal import DiskShardBackend, MemoryShardBackend, WriteAheadLog

#: Collections partitioned by a document field (everything else rides on
#: shard 0 — test/integrated records are few and queried whole).
SHARD_KEYS: Dict[str, str] = {RESPONSES_COLLECTION: "worker_id"}

#: Identity-key groups per spilled collection: the exact-equality point
#: lookups the index must answer (the server's duplicate and idempotency
#: checks).
SPILL_IDENTITY: Dict[str, Tuple[Tuple[str, ...], ...]] = {
    RESPONSES_COLLECTION: (
        ("test_id", "worker_id"),
        ("test_id", "idempotency_key"),
    ),
}

#: Fields with per-value counts on spilled collections (``count`` queries).
#: Deliberately *not* ``worker_id``: a million-participant campaign would
#: put a million Counter entries per shard back on the heap.
SPILL_COUNT_FIELDS: Dict[str, Tuple[str, ...]] = {
    RESPONSES_COLLECTION: ("test_id",),
}

DEFAULT_SNAPSHOT_EVERY = 512

#: Sentinel from ``_spill_lookup``: the identity index answered the query
#: authoritatively and the document is absent — no log scan needed.
_SPILL_MISS: Any = object()


def shard_for(value, shard_count: int) -> int:
    """Stable shard index for a routing key (blake2b, like the overload
    plane's admission lottery — independent of ``PYTHONHASHSEED``)."""
    digest = hashlib.blake2b(str(value).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % shard_count


def _scalar(condition) -> bool:
    """True when a query condition is a plain scalar equality operand."""
    return condition is not None and not isinstance(condition, (dict, list))


class _SpillIndex:
    """Compact per-shard index for one spilled collection.

    Holds identity-group tuples (→ ``_id``, insertion-ordered), per-value
    counts for the count fields, and the document count — everything the
    hot-path queries need, nothing proportional to document size.
    """

    def __init__(
        self,
        identity_keys: Tuple[Tuple[str, ...], ...],
        count_fields: Tuple[str, ...],
    ):
        if not identity_keys:
            raise StorageError(
                "spilled collections need at least one identity-key group"
            )
        self.identity_keys = identity_keys
        # Each group under its sorted field names: the query shape it serves.
        self.shapes: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        for group in identity_keys:
            self.shapes.setdefault(tuple(sorted(group)), group)
        self.count_fields = count_fields
        self.groups: Dict[Tuple[str, ...], Dict[tuple, Any]] = {
            group: {} for group in identity_keys
        }
        self.field_counts: Dict[str, Dict[Any, int]] = {
            field: {} for field in count_fields
        }
        self.count = 0

    def add(self, doc: dict) -> None:
        keys = {
            group: tuple(doc[field] for field in group)
            for group in self.identity_keys
            if all(field in doc for field in group)
        }
        values = {field: doc[field] for field in self.count_fields if field in doc}
        # Hash every key before any state changes: an unhashable one (say a
        # list-valued worker_id) raises TypeError and leaves the index whole.
        hash((tuple(keys.values()), tuple(values.values())))
        self.count += 1
        for group, key in keys.items():
            self.groups[group][key] = doc["_id"]
        for field, value in values.items():
            counts = self.field_counts[field]
            counts[value] = counts.get(value, 0) + 1

    def identity_key(self, query: dict) -> Optional[Tuple[Tuple[str, ...], tuple]]:
        """``(group, key)`` for an exact identity-group query, or ``None``
        when no group matches the query's field shape. Every shard's index
        of one collection has the same groups, so a lookup across shards
        works the key out once."""
        group = self.shapes.get(tuple(sorted(query)))
        if group is None or not all(_scalar(query[field]) for field in group):
            return None
        return group, tuple(query[field] for field in group)

    def find_id(self, identity: Tuple[Tuple[str, ...], tuple]) -> Any:
        """The ``_id`` stored under an :meth:`identity_key`, or ``None``."""
        group, key = identity
        return self.groups[group].get(key)

    def count_for(self, query: dict) -> Optional[int]:
        if not query:
            return self.count
        if len(query) == 1:
            (field, condition), = query.items()
            if field in self.field_counts and _scalar(condition):
                return self.field_counts[field].get(condition, 0)
        identity = self.identity_key(query)
        if identity is not None:
            return 0 if self.find_id(identity) is None else 1
        return None

    def distinct_pairs(
        self, field: str, query: dict
    ) -> Optional[List[Tuple[Any, Any]]]:
        """``(_id, value)`` pairs for a distinct over an identity group, or
        ``None`` when the index cannot serve the query shape."""
        group = self.shapes.get(tuple(sorted(set(query) | {field})))
        if group is None or not all(
            _scalar(condition) for condition in query.values()
        ):
            return None
        positions = {name: i for i, name in enumerate(group)}
        field_pos = positions[field]
        out = []
        for key, doc_id in self.groups[group].items():
            if all(key[positions[name]] == query[name] for name in query):
                out.append((doc_id, key[field_pos]))
        return out


class _Shard:
    """One partition: an in-memory store for regular collections, a spill
    index for logged-only ones, and the WAL that makes both durable."""

    def __init__(self, index: int, backend, spill: Tuple[str, ...]):
        self.index = index
        self.backend = backend
        self.wal = WriteAheadLog(backend)
        self.store = DocumentStore()
        #: Names of the collections whose log is their storage.
        self.spilled = spill
        self.spill: Dict[str, _SpillIndex] = {}
        self.next_seq = 1
        self.applied_seq = 0       # non-spill high-water (snapshot-aware)
        self.spill_seen_seq = 0    # spilled-record high-water (replay dedupe)
        self.records_since_snapshot = 0
        self.snapshots = 0
        self.compactions = 0
        self.index_defs: Dict[str, Dict[str, bool]] = {}

    def spill_index(self, name: str) -> _SpillIndex:
        if name not in self.spill:
            self.spill[name] = _SpillIndex(
                SPILL_IDENTITY.get(name, (("_id",),)),
                SPILL_COUNT_FIELDS.get(name, ()),
            )
        return self.spill[name]

    # -- journal + apply ----------------------------------------------------

    def journal(self, record: dict) -> None:
        """Append a record with the next sequence number. Spilled records do
        not count toward the snapshot trigger — their log *is* their
        storage, so snapshotting buys them nothing and compacting after
        every ``snapshot_every`` appends would rewrite the full log
        O(n^2/snapshot_every) times over a million uploads."""
        record = dict(record)
        record["seq"] = self.next_seq
        self.next_seq += 1
        self.wal.append(record)
        if record["c"] not in self.spilled:
            self.records_since_snapshot += 1

    def apply(self, record: dict, replay: bool) -> None:
        """Apply one WAL record; idempotent under double replay thanks to
        the per-shard sequence high-water marks."""
        seq = int(record.get("seq", 0))
        name = record["c"]
        op = record["op"]
        if name in self.spilled:
            if op == "insert":
                if seq > self.spill_seen_seq:
                    self.spill_index(name).add(record["doc"])
                    self.spill_seen_seq = seq
                return
            if op == "index":
                # No in-memory index to build; remember the definition for
                # dump()/snapshot parity. Idempotent, no seq guard needed.
                self.index_defs.setdefault(name, {})[record["field"]] = record[
                    "unique"
                ]
                return
            raise StorageError(
                f"spilled collection {name!r} is append-only; got {op!r}"
            )
        if replay and seq <= self.applied_seq:
            return
        if op == "insert":
            self.store.collection(name).insert_one(record["doc"])
        elif op == "update_many":
            self.store.collection(name).update_many(record["q"], record["u"])
        elif op == "update_one":
            self.store.collection(name).update_one(record["q"], record["u"])
        elif op == "replace_one":
            self.store.collection(name).replace_one(record["q"], record["u"])
        elif op == "delete_many":
            self.store.collection(name).delete_many(record["q"])
        elif op == "index":
            self.store.collection(name).create_index(
                record["field"], unique=record["unique"]
            )
            self.index_defs.setdefault(name, {})[record["field"]] = record[
                "unique"
            ]
        elif op == "drop":
            self.store.drop_collection(name)
        else:
            raise StorageError(f"unknown WAL op {op!r}")
        self.applied_seq = max(self.applied_seq, seq)

    def scan_spilled(self, name: str) -> Iterator[dict]:
        """Replay the WAL yielding this shard's spilled documents for
        ``name`` in insertion order, without materializing the log."""
        for record in self.wal.replay():
            if record.get("c") == name and record.get("op") == "insert":
                yield record["doc"]

    # -- snapshot + compaction ---------------------------------------------

    def write_snapshot(self, next_id: int) -> None:
        payload = {
            "applied_seq": self.applied_seq,
            "next_seq": self.next_seq,
            "next_id": next_id,
            "collections": self.store.dump(),
            "index_defs": self.index_defs,
        }
        self.backend.write_snapshot(dumps_canonical(payload))
        self.snapshots += 1

    def compact(self, next_id: int) -> None:
        """Snapshot the in-memory collections, then rewrite the WAL keeping
        only spilled-collection records (their log *is* their storage).
        Retained records keep their original sequence numbers — compaction
        preserves log order, so the WAL stays seq-monotone."""
        self.write_snapshot(next_id)
        retained = (
            record
            for record in self.wal.replay()
            if record.get("c") in self.spilled
        )
        self.wal.rewrite(retained)
        self.records_since_snapshot = 0
        self.compactions += 1

    def recover(self) -> Tuple[int, int]:
        """Rebuild state from snapshot + WAL; returns ``(max_doc_id,
        snapshot_next_id)`` for the store-wide id counter restore."""
        snapshot_next_id = 0
        text = self.backend.read_snapshot()
        if text:
            payload = loads(text)
            self.store = DocumentStore.load(payload.get("collections", {}))
            self.applied_seq = int(payload.get("applied_seq", 0))
            self.next_seq = int(payload.get("next_seq", self.applied_seq + 1))
            snapshot_next_id = int(payload.get("next_id", 0))
            self.index_defs = {
                name: dict(defs)
                for name, defs in payload.get("index_defs", {}).items()
            }
        max_doc_id = 0
        max_seq = self.next_seq - 1
        for record in self.wal.replay():
            self.apply(record, replay=True)
            max_seq = max(max_seq, int(record.get("seq", 0)))
            if record.get("op") == "insert":
                max_doc_id = max(
                    max_doc_id, highest_numeric_id([record["doc"].get("_id")])
                )
        self.next_seq = max_seq + 1
        for collection in self.store._collections.values():
            max_doc_id = max(
                max_doc_id, highest_numeric_id(collection._documents)
            )
        return max_doc_id, snapshot_next_id

    # -- stats -------------------------------------------------------------

    def spilled_count(self) -> int:
        return sum(index.count for index in self.spill.values())

    def document_count(self) -> int:
        in_memory = sum(len(c) for c in self.store._collections.values())
        return in_memory + self.spilled_count()

    def stats(self) -> dict:
        return {
            "shard": self.index,
            "next_seq": self.next_seq,
            "applied_seq": self.applied_seq,
            "wal_records": self.wal.records_appended,
            "wal_bytes": self.wal.size_bytes(),
            "wal_tail_discarded": self.wal.tail_discarded,
            "snapshots": self.snapshots,
            "compactions": self.compactions,
            "documents": self.document_count(),
            "spilled": self.spilled_count(),
        }


class ShardedCollection:
    """The per-collection facade routing queries to the owning shard(s)."""

    def __init__(self, store: "ShardedDocumentStore", name: str):
        self._store = store
        self.name = name
        self._shard_key = SHARD_KEYS.get(name)
        self._spilled = name in store._spill

    # -- routing ------------------------------------------------------------

    def _shard_for_doc(self, doc: dict) -> _Shard:
        shards = self._store._shards
        if self._shard_key is None:
            return shards[0]
        key = doc.get(self._shard_key, doc.get("_id"))
        return shards[shard_for(key, len(shards))]

    def _shards_for_query(self, query: dict) -> List[_Shard]:
        shards = self._store._shards
        if self._shard_key is None:
            return [shards[0]]
        condition = query.get(self._shard_key)
        if _scalar(condition):
            return [shards[shard_for(condition, len(shards))]]
        return list(shards)

    # -- writes -------------------------------------------------------------

    def insert_one(self, document: dict) -> Any:
        stored = deep_copy_json(document)
        if "_id" not in stored:
            stored["_id"] = next(self._store._id_counter)
        shard = self._shard_for_doc(stored)
        record = {"op": "insert", "c": self.name, "doc": stored}
        # Apply first, journal second: a crash between the two loses only
        # the not-yet-acknowledged record (the caller never saw the insert
        # return), and replayed records always apply cleanly.
        shard.apply({**record, "seq": shard.next_seq}, replay=False)
        shard.journal(record)
        self._store.metrics.add("store.inserts", 1)
        if self._spilled:
            self._store.metrics.add("store.spilled_docs", 1)
        self._store._after_write(shard)
        return stored["_id"]

    def insert_many(self, documents: Iterable[dict]) -> List:
        return [self.insert_one(d) for d in documents]

    def _mutate(self, op: str, query: dict, update) -> int:
        if self._spilled:
            raise StorageError(
                f"spilled collection {self.name!r} is append-only"
            )
        total = 0
        for shard in self._shards_for_query(query):
            collection = shard.store.collection(self.name)
            if op == "update_many":
                changed = collection.update_many(query, update)
            elif op == "update_one":
                changed = collection.update_one(query, update)
            elif op == "replace_one":
                changed = collection.replace_one(query, update)
            else:
                changed = collection.delete_many(query)
            if changed:
                record = {"op": op, "c": self.name, "q": query}
                if update is not None:
                    record["u"] = update
                shard.journal(record)
                shard.applied_seq = shard.next_seq - 1
                self._store._after_write(shard)
            total += changed
            if op in ("update_one", "replace_one") and changed:
                break
        return total

    def update_many(self, query: dict, update: dict) -> int:
        return self._mutate("update_many", query, update)

    def update_one(self, query: dict, update: dict) -> int:
        return self._mutate("update_one", query, update)

    def replace_one(self, query: dict, replacement: dict) -> int:
        return self._mutate("replace_one", query, replacement)

    def delete_many(self, query: dict) -> int:
        return self._mutate("delete_many", query, None)

    def create_index(self, field: str, unique: bool = False) -> None:
        record = {
            "op": "index",
            "c": self.name,
            "field": field,
            "unique": unique,
        }
        if self._spilled:
            # No in-memory index to build; record the definition on shard 0
            # only (dump parity).
            shard = self._store._shards[0]
            shard.apply({**record, "seq": shard.next_seq}, replay=False)
            shard.journal(record)
            return
        for shard in self._store._shards:
            shard.apply({**record, "seq": shard.next_seq}, replay=False)
            shard.journal(record)

    # -- reads --------------------------------------------------------------

    def scan(self, query: Optional[dict] = None) -> Iterator[dict]:
        """Matching documents across shards, merged in global ``_id``
        (insertion) order — the exact order a single Collection yields —
        uncopied, under :meth:`Collection.scan`'s read-only contract.
        Spilled documents are decoded fresh from the WAL; in-memory ones are
        the stored documents themselves."""
        query = query or {}

        def shard_iter(shard: _Shard) -> Iterator[dict]:
            if self._spilled:
                for doc in shard.scan_spilled(self.name):
                    if match_document(doc, query):
                        yield doc
            elif self.name in shard.store._collections:
                yield from shard.store.collection(self.name).scan(query)

        iterators = [shard_iter(s) for s in self._shards_for_query(query)]
        if len(iterators) == 1:
            yield from iterators[0]
            return
        yield from heapq.merge(*iterators, key=lambda d: d["_id"])

    def _owned(self, query: Optional[dict] = None) -> Iterator[dict]:
        """:meth:`scan`, but each document is the caller's to mutate.

        A spilled document is decoded fresh from the WAL on every scan, so
        it is already a private copy; only in-memory documents are copied.
        """
        if self._spilled:
            return self.scan(query)
        return (deep_copy_json(doc) for doc in self.scan(query))

    def find(self, query: Optional[dict] = None) -> List[dict]:
        return list(self._owned(query))

    def find_one(self, query: Optional[dict] = None) -> Optional[dict]:
        query = query or {}
        if self._spilled and query:
            hit = self._spill_lookup(query)
            if hit is _SPILL_MISS:
                return None
            if hit is not None:
                return hit
        return next(self._owned(query), None)

    def _spill_lookup(self, query: dict):
        """Index-served point lookup on a spilled collection.

        Returns a *stub* carrying the queried fields plus ``_id`` when the
        identity index holds the key (the callers — the server's duplicate
        and idempotency checks — only test presence), :data:`_SPILL_MISS`
        when every candidate shard answered authoritatively that the key is
        absent, or ``None`` when the query shape is not index-servable and
        the caller must fall back to a log scan.
        """
        identity = None
        for shard in self._shards_for_query(query):
            if self.name not in shard.spill:
                continue  # nothing ever landed here: authoritative miss
            index = shard.spill_index(self.name)
            if identity is None:
                identity = index.identity_key(query)
                if identity is None:
                    return None  # unservable shape — same on every shard
            doc_id = index.find_id(identity)
            if doc_id is not None:
                stub = dict(query)
                stub["_id"] = doc_id
                return stub
        return _SPILL_MISS

    def count(self, query: Optional[dict] = None) -> int:
        query = query or {}
        total = 0
        for shard in self._shards_for_query(query):
            if self._spilled:
                if self.name not in shard.spill:
                    continue
                served = shard.spill_index(self.name).count_for(query)
                if served is not None:
                    total += served
                else:
                    total += sum(
                        1
                        for doc in shard.scan_spilled(self.name)
                        if match_document(doc, query)
                    )
            elif self.name in shard.store._collections:
                total += shard.store.collection(self.name).count(query)
        return total

    def distinct(self, field: str, query: Optional[dict] = None) -> List:
        query = query or {}
        pairs: List[Tuple[Any, Any]] = []
        for shard in self._shards_for_query(query):
            if self._spilled:
                if self.name not in shard.spill:
                    continue
                served = shard.spill_index(self.name).distinct_pairs(
                    field, query
                )
                if served is None:
                    served = [
                        (doc["_id"], doc[field])
                        for doc in shard.scan_spilled(self.name)
                        if match_document(doc, query) and field in doc
                    ]
                pairs.extend(served)
            elif self.name in shard.store._collections:
                collection = shard.store.collection(self.name)
                for doc in collection.scan(query):
                    if field in doc:
                        pairs.append((doc["_id"], doc[field]))
        pairs.sort(key=lambda item: item[0])
        return deep_copy_json(distinct_values(value for _, value in pairs))

    def __len__(self) -> int:
        return self.count({})


class ShardedDocumentStore:
    """N WAL-backed shards behind the :class:`DocumentStore` interface.

    ``directory=None`` keeps shard logs and snapshots in memory (tests,
    small campaigns); a path gives each shard an on-disk backend under
    ``directory/shard-NN/`` and makes the store crash-recoverable: building
    a new store over the same directory (same shard count and policy)
    replays snapshot + WAL back to the acknowledged state. ``metrics``
    receives the ``store.*`` write counters (a registry of the store's own
    without one).
    """

    def __init__(
        self,
        shards: int = 4,
        directory=None,
        spill: Sequence[str] = (),
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        metrics=None,
    ):
        if shards < 1:
            raise StorageError(f"shards must be >= 1, got {shards}")
        if snapshot_every < 1:
            raise StorageError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        self.shard_count = shards
        self.directory = directory
        self.snapshot_every = snapshot_every
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._spill = tuple(spill)
        self._shards: List[_Shard] = []
        for index in range(shards):
            if directory is None:
                backend = MemoryShardBackend()
            else:
                from pathlib import Path

                backend = DiskShardBackend(Path(directory) / f"shard-{index:02d}")
            self._shards.append(_Shard(index, backend, self._spill))
        self._collections: Dict[str, ShardedCollection] = {}
        self._id_counter = itertools.count(1)
        self.recover()

    def _after_write(self, shard: _Shard) -> None:
        self.metrics.add("store.wal_records", 1)
        if shard.records_since_snapshot >= self.snapshot_every:
            shard.compact(self._peek_next_id())
            self.metrics.add("store.snapshots", 1)
            self.metrics.add("store.compactions", 1)

    def _peek_next_id(self) -> int:
        value = next(self._id_counter)
        self._id_counter = itertools.count(value)
        return value

    # -- DocumentStore interface --------------------------------------------

    def collection(self, name: str) -> ShardedCollection:
        if name not in self._collections:
            self._collections[name] = ShardedCollection(self, name)
        return self._collections[name]

    def drop_collection(self, name: str) -> None:
        if name in self._spill:
            raise StorageError(
                f"spilled collection {name!r} is append-only; cannot drop"
            )
        record = {"op": "drop", "c": name}
        for shard in self._shards:
            if name in shard.store._collections:
                shard.apply({**record, "seq": shard.next_seq}, replay=False)
                shard.journal(record)
        self._collections.pop(name, None)

    def collection_names(self) -> List[str]:
        names = set()
        for shard in self._shards:
            names.update(shard.store._collections)
            names.update(shard.spill)
        return sorted(names)

    # -- durability ---------------------------------------------------------

    def recover(self) -> None:
        """(Re)build in-memory state from each shard's snapshot + WAL.

        Idempotent: per-shard sequence high-water marks make a second
        replay over the same log a no-op, so calling this on a live store
        (or twice after a crash) cannot double-apply records.
        """
        max_id = 0
        for shard in self._shards:
            max_doc_id, snapshot_next_id = shard.recover()
            max_id = max(max_id, max_doc_id, snapshot_next_id - 1)
        if max_id + 1 > self._peek_next_id():
            self._id_counter = itertools.count(max_id + 1)

    def stream_collection(
        self, name: str, query: Optional[dict] = None
    ) -> Iterator[dict]:
        """Every document of ``name`` in global insertion (``_id``) order,
        streamed — spilled shards replay their WAL lazily, so memory stays
        O(shards), not O(documents). Each document is the caller's to
        mutate (see :meth:`ShardedCollection._owned`)."""
        yield from self.collection(name)._owned(query)

    # -- persistence (DocumentStore.dump/load parity) ------------------------

    def dump(self) -> dict:
        """A :meth:`DocumentStore.dump`-shaped snapshot of every collection.

        Each document is copied once: :meth:`stream_collection` copies the
        in-memory ones and decodes the spilled ones fresh from the WAL.
        """
        snapshot: Dict[str, dict] = {}
        for name in self.collection_names():
            index_defs: Dict[str, bool] = {}
            for shard in self._shards:
                index_defs.update(shard.index_defs.get(name, {}))
                if name in shard.store._collections:
                    for field, index in shard.store.collection(
                        name
                    )._indexes.items():
                        index_defs[field] = index.unique
            snapshot[name] = {
                "documents": list(self.stream_collection(name)),
                "indexes": [
                    {"field": field, "unique": unique}
                    for field, unique in sorted(index_defs.items())
                ],
            }
        return snapshot

    @classmethod
    def load(cls, snapshot: dict, **kwargs) -> "ShardedDocumentStore":
        """Rebuild a sharded store from a :meth:`dump` (or a plain
        ``DocumentStore.dump``) snapshot; ``kwargs`` set the shard policy.

        The id counter restore reuses the same shared helper as
        ``DocumentStore.load`` — all-digit string ids count.
        """
        store = cls(**kwargs)
        max_id = 0
        for name, payload in snapshot.items():
            collection = store.collection(name)
            for index in payload.get("indexes", []):
                collection.create_index(index["field"], unique=index["unique"])
            for document in payload.get("documents", []):
                collection.insert_one(document)
                max_id = max(max_id, highest_numeric_id([document.get("_id")]))
        if max_id + 1 > store._peek_next_id():
            store._id_counter = itertools.count(max_id + 1)
        return store

    # -- introspection -------------------------------------------------------

    def digest(self) -> dict:
        """Compact per-shard durability summary, JSON-safe — carried in
        campaign checkpoints so a resume can verify routing consistency."""
        return {
            "mode": "sharded",
            "shards": self.shard_count,
            "documents": [shard.document_count() for shard in self._shards],
            "spilled": [shard.spilled_count() for shard in self._shards],
        }

    def stats(self) -> dict:
        shards = [shard.stats() for shard in self._shards]
        return {
            "shards": shards,
            "wal_records": sum(s["wal_records"] for s in shards),
            "wal_bytes": sum(s["wal_bytes"] for s in shards),
            "snapshots": sum(s["snapshots"] for s in shards),
            "compactions": sum(s["compactions"] for s in shards),
            "documents": sum(s["documents"] for s in shards),
            "spilled_documents": sum(s["spilled"] for s in shards),
        }

    def close(self) -> None:
        for shard in self._shards:
            close = getattr(shard.backend, "close", None)
            if close is not None:
                close()
