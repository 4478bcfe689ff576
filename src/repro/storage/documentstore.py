"""An embedded, Mongo-flavoured document store.

Implements the part of MongoDB the Kaleidoscope core server uses:

* schemaless collections of JSON documents with auto-assigned ``_id``;
* queries that are equality on top-level fields (``{"test_id": "t1"}``;
  a missing field equals ``None``, and ``{}`` matches everything);
* updates of the one form ``{"$set": {field: value, ...}}``, plus
  whole-document replacement through ``replace_one``;
* unique and non-unique single-field indexes (equality lookups use the
  most selective one); a write a unique index refuses changes nothing;
* ``find`` in ``_id`` order, ``count``, ``distinct``, and ``delete``.

A query value is only ever compared for equality, never read as an
operator: ``{"test_id": {"$ne": None}}`` matches a document whose
``test_id`` *is* that dict, so a request field cannot widen a query.

Documents are deep-copied on the way in and out (copy-in/copy-out), so
callers can never mutate stored state through aliasing — the same isolation
a real client/server boundary provides. A copy is what a JSON encode/decode
round trip would return (tuples become lists, non-``str`` keys become
strings), made by :func:`~repro.util.jsonutil.deep_copy_json` walking the
document rather than encoding it.

The one read-only exception is :meth:`Collection.scan`: it yields the stored
documents themselves, for callers that only parse them (the campaign's
conclude pass reads every stored response once and would otherwise copy
each just to throw the copy away). What it yields must not be mutated; use
:meth:`Collection.find` for a copy the caller owns.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.errors import DuplicateKeyError, QueryError
from repro.util.jsonutil import deep_copy_json


def highest_numeric_id(ids: Iterable) -> int:
    """The largest numeric document id in ``ids`` (0 when there is none).

    Counts both integer ids and all-digit string ids: snapshots that passed
    through JSON object keys (or an external system) come back as strings,
    and an auto-id counter that ignores them would hand out ids that collide
    logically with the stored documents.
    """
    highest = 0
    for doc_id in ids:
        if isinstance(doc_id, bool):
            continue
        if isinstance(doc_id, int):
            highest = max(highest, doc_id)
        elif isinstance(doc_id, str) and doc_id.isdigit():
            highest = max(highest, int(doc_id))
    return highest


def match_document(document: dict, query: dict) -> bool:
    """True when each field of ``query`` equals the document's top-level
    field of that name; a missing field equals ``None``."""
    for key, value in query.items():
        if document.get(key) != value:
            return False
    return True


class _Index:
    """A single-field index: value -> set of _id.

    Only hashable values other than ``None`` are indexed. A ``None``
    condition also matches documents that lack the field, which no bucket
    holds, and an unhashable value (an array or embedded document) never
    equals a hashable condition; so neither is ever served from a bucket.
    """

    def __init__(self, field: str, unique: bool):
        self.field = field
        self.unique = unique
        self.entries: Dict[Any, set] = {}

    def check(self, value, doc_ids: List) -> None:
        """Raise :class:`DuplicateKeyError` when a unique index cannot hold
        ``value`` on exactly the documents ``doc_ids``; changes nothing."""
        if not self.unique or not doc_ids or value is None or not _hashable(value):
            return
        holders = self.entries.get(value, ())
        if len(doc_ids) > 1 or any(i not in doc_ids for i in holders):
            raise DuplicateKeyError(
                f"duplicate value {value!r} for unique index on {self.field!r}"
            )

    def add(self, document: dict) -> None:
        """Index ``document``; :meth:`check` it first on a unique index."""
        value = document.get(self.field)
        if value is None or not _hashable(value):
            return
        self.entries.setdefault(value, set()).add(document["_id"])

    def remove(self, document: dict) -> None:
        value = document.get(self.field)
        if value is None or not _hashable(value):
            return
        bucket = self.entries.get(value)
        if bucket is not None:
            bucket.discard(document["_id"])
            if not bucket:
                del self.entries[value]

    def lookup(self, value) -> Optional[set]:
        if not _hashable(value):
            return None
        return self.entries.get(value, set())


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def distinct_values(values: Iterable) -> List:
    """``values`` without repeats, in first-seen order, in linear time.

    Hashable values are deduplicated through a set. Unhashable ones (arrays,
    embedded documents) fall back to a list scan; that split is exact
    because no JSON array or object equals a hashable value.
    """
    distinct: List = []
    hashed: set = set()
    unhashed: List = []
    for value in values:
        if _hashable(value):
            if value in hashed:
                continue
            hashed.add(value)
        else:
            if value in unhashed:
                continue
            unhashed.append(value)
        distinct.append(value)
    return distinct


def _set_fields(update: dict) -> dict:
    """The field -> value map of ``{"$set": {...}}``, the one update form."""
    if list(update) != ["$set"] or not isinstance(update["$set"], dict):
        raise QueryError(f"an update must be {{'$set': {{...}}}}, got {update!r}")
    return update["$set"]


class Collection:
    """A named collection of documents."""

    def __init__(self, name: str):
        self.name = name
        self._documents: Dict[int, dict] = {}
        self._id_counter = itertools.count(1)
        self._indexes: Dict[str, _Index] = {}

    def __len__(self) -> int:
        return len(self._documents)

    def restore_id_counter(self) -> None:
        """Point the auto-id counter past every numeric id already stored.

        Shared by :meth:`DocumentStore.load` and the sharded store's
        snapshot recovery: after bulk-inserting documents that carry
        explicit ids, the counter must resume above them — including
        all-digit *string* ids — or the next auto-assigned id collides
        with an existing document.
        """
        self._id_counter = itertools.count(
            highest_numeric_id(self._documents) + 1
        )

    # -- indexes ----------------------------------------------------------

    def create_index(self, field: str, unique: bool = False) -> None:
        """Create (or replace) a single-field index."""
        index = _Index(field, unique)
        for document in self._documents.values():
            index.check(document.get(field), [document["_id"]])
            index.add(document)
        self._indexes[field] = index

    def _check_unique(self, fields: dict, doc_ids: List) -> None:
        """Raise :class:`DuplicateKeyError`, before any state changes, when
        giving the documents ``doc_ids`` these ``fields`` would break a
        unique index."""
        for index in self._indexes.values():
            if index.unique and index.field in fields:
                index.check(fields[index.field], doc_ids)

    # -- writes -----------------------------------------------------------

    def insert_one(self, document: dict) -> int:
        """Insert a document; returns the assigned (or provided) ``_id``."""
        if not isinstance(document, dict):
            raise QueryError("documents must be dicts")
        stored = deep_copy_json(document)
        if "_id" not in stored:
            stored["_id"] = next(self._id_counter)
        doc_id = stored["_id"]
        if doc_id in self._documents:
            raise DuplicateKeyError(f"_id {doc_id!r} already exists")
        self._check_unique(stored, [doc_id])
        for index in self._indexes.values():
            index.add(stored)
        self._documents[doc_id] = stored
        return doc_id

    def insert_many(self, documents: Iterable[dict]) -> List[int]:
        """Insert several documents; returns their ids."""
        return [self.insert_one(d) for d in documents]

    def update_many(self, query: dict, update: dict) -> int:
        """Apply a ``$set`` update to every match; returns the match count.
        An update a unique index refuses changes no document."""
        fields = deep_copy_json(_set_fields(update))
        matched = list(self._iter_matching(query))
        self._check_unique(fields, [document["_id"] for document in matched])
        for document in matched:
            self._set(document, fields)
        return len(matched)

    def update_one(self, query: dict, update: dict) -> int:
        """Apply a ``$set`` update to the first match; returns 0 or 1."""
        fields = deep_copy_json(_set_fields(update))
        for document in self._iter_matching(query):
            self._check_unique(fields, [document["_id"]])
            self._set(document, fields)
            return 1
        return 0

    def replace_one(self, query: dict, replacement: dict) -> int:
        """Replace the first match wholesale, keeping its ``_id``."""
        for document in self._iter_matching(query):
            doc_id = document["_id"]
            new_doc = deep_copy_json(replacement)
            new_doc["_id"] = doc_id
            self._check_unique(new_doc, [doc_id])
            for index in self._indexes.values():
                index.remove(document)
            self._documents[doc_id] = new_doc
            for index in self._indexes.values():
                index.add(new_doc)
            return 1
        return 0

    def delete_many(self, query: dict) -> int:
        """Delete every match; returns the number removed."""
        matched = list(self._iter_matching(query))
        for document in matched:
            for index in self._indexes.values():
                index.remove(document)
            del self._documents[document["_id"]]
        return len(matched)

    def _set(self, document: dict, fields: dict) -> None:
        for index in self._indexes.values():
            index.remove(document)
        for field, value in fields.items():
            document[field] = deep_copy_json(value)
        for index in self._indexes.values():
            index.add(document)

    # -- reads ------------------------------------------------------------

    def _candidate_ids(self, query: dict) -> Optional[List]:
        """Ids that may match ``query``, served by its most selective index.

        Every equality clause on an indexed field names a bucket; the
        smallest one wins. Its ids hold every match, and come back in
        ascending ``_id`` order, the order a full scan yields. ``None``
        means "scan everything".
        """
        best = None
        for key, condition in query.items():
            index = self._indexes.get(key)
            if index is None or condition is None:
                continue
            bucket = index.lookup(condition)
            if bucket is not None and (best is None or len(bucket) < len(best)):
                best = bucket
        return None if best is None else sorted(best)

    def _indexed_equality_bucket(self, query: dict) -> Optional[set]:
        """The index bucket that *fully* answers ``query``, or ``None``.

        Only a single-clause query on an indexed field qualifies, with a
        hashable condition other than ``None``: then the bucket's members
        are exactly the matching documents, so ``count``/``distinct`` can
        skip per-document matching entirely.
        """
        if len(query) != 1:
            return None
        (key, condition), = query.items()
        if key not in self._indexes or condition is None:
            return None
        return self._indexes[key].lookup(condition)

    def _iter_matching(self, query: dict):
        candidates = self._candidate_ids(query)
        if candidates is None:
            documents = (self._documents[i] for i in sorted(self._documents))
        else:
            documents = (self._documents[i] for i in candidates if i in self._documents)
        for document in documents:
            if match_document(document, query):
                yield document

    def scan(self, query: Optional[dict] = None) -> Iterator[dict]:
        """Matching documents in ``_id`` order, *uncopied*.

        Yields the stored documents themselves: do not mutate them, and do
        not write the collection while the scan is open. Use :meth:`find`
        for copies the caller owns.
        """
        return self._iter_matching(query or {})

    def find(self, query: Optional[dict] = None) -> List[dict]:
        """Deep copies of matching documents, in ``_id`` order."""
        return [deep_copy_json(d) for d in self._iter_matching(query or {})]

    def find_one(self, query: Optional[dict] = None) -> Optional[dict]:
        """Return a deep copy of the first match, or None."""
        for document in self._iter_matching(query or {}):
            return deep_copy_json(document)
        return None

    def count(self, query: Optional[dict] = None) -> int:
        """Number of matching documents.

        An indexed single-field equality query is answered straight from
        the index bucket's size — O(1) instead of a scan.
        """
        query = query or {}
        bucket = self._indexed_equality_bucket(query)
        if bucket is not None:
            return len(bucket)
        return sum(1 for _ in self._iter_matching(query))

    def distinct(self, field: str, query: Optional[dict] = None) -> List:
        """Distinct values of ``field`` over matches, in first-seen order.

        An indexed single-field equality query walks the index
        bucket directly (in ``_id`` order, preserving first-seen order)
        without re-matching each document.
        """
        query = query or {}
        bucket = self._indexed_equality_bucket(query)
        if bucket is not None:
            documents = (
                self._documents[i] for i in sorted(bucket) if i in self._documents
            )
        else:
            documents = self._iter_matching(query)
        return deep_copy_json(
            distinct_values(
                document[field] for document in documents if field in document
            )
        )


class DocumentStore:
    """A named set of collections — the reproduction's "MongoDB"."""

    def __init__(self):
        self._collections: Dict[str, Collection] = {}

    def collection(self, name: str) -> Collection:
        """Get or create a collection."""
        if name not in self._collections:
            self._collections[name] = Collection(name)
        return self._collections[name]

    def drop_collection(self, name: str) -> None:
        """Remove a collection and its documents."""
        self._collections.pop(name, None)

    def collection_names(self) -> List[str]:
        """Sorted names of existing collections."""
        return sorted(self._collections)

    # -- persistence --------------------------------------------------------

    def dump(self) -> dict:
        """A JSON-compatible snapshot of every collection.

        Index definitions travel with the data so :meth:`load` restores an
        equivalent store — the durability a real MongoDB gives the core
        server across restarts. Each document is copied once, by
        :meth:`Collection.find`, so mutating the snapshot leaves the store
        unchanged.
        """
        snapshot: Dict[str, dict] = {}
        for name, collection in self._collections.items():
            snapshot[name] = {
                "documents": collection.find(),
                "indexes": [
                    {"field": index.field, "unique": index.unique}
                    for index in collection._indexes.values()
                ],
            }
        return snapshot

    @classmethod
    def load(cls, snapshot: dict) -> "DocumentStore":
        """Rebuild a store from a :meth:`dump` snapshot."""
        store = cls()
        for name, payload in snapshot.items():
            collection = store.collection(name)
            for document in payload.get("documents", []):
                collection.insert_one(document)
            collection.restore_id_counter()
            for index in payload.get("indexes", []):
                collection.create_index(index["field"], unique=index["unique"])
        return store
