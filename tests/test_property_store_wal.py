"""Property-based fault injection for the WAL-backed sharded store.

Three crash-recovery invariants, each driven by hypothesis:

* a WAL torn at an arbitrary byte yields exactly a prefix of the appended
  records — never a corrupted or reordered one;
* a snapshot plus a torn WAL tail recovers the snapshot state plus a
  prefix of the tail;
* replaying the same log twice (a recovery that itself crashes and is
  retried) never double-applies a record.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import (
    MemoryShardBackend,
    ShardedDocumentStore,
    WriteAheadLog,
    encode_wal_record,
)

field_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
json_scalars = st.one_of(
    st.integers(-1000, 1000),
    st.text(alphabet=string.ascii_letters, max_size=8),
    st.booleans(),
    st.none(),
)
payloads = st.dictionaries(field_names, json_scalars, min_size=0, max_size=4)


def make_records(docs):
    return [
        {"op": "insert", "c": "items", "doc": {**doc, "_id": i + 1}, "seq": i + 1}
        for i, doc in enumerate(docs)
    ]


class TornBackend(MemoryShardBackend):
    """A memory backend whose log can be truncated at an arbitrary byte
    offset, simulating the torn tail a mid-write crash leaves behind."""

    def truncate_at(self, offset: int) -> None:
        text = "".join(line + "\n" for line in self._lines)[:offset]
        self._lines = text.split("\n")
        if self._lines and self._lines[-1] == "":
            self._lines.pop()
        self._bytes = sum(len(line) + 1 for line in self._lines)


class TestTornWal:
    @given(st.lists(payloads, min_size=1, max_size=10), st.integers(0, 2000))
    @settings(max_examples=100)
    def test_truncation_yields_exact_record_prefix(self, docs, offset):
        backend = TornBackend()
        wal = WriteAheadLog(backend)
        records = make_records(docs)
        for record in records:
            wal.append(record)
        total_bytes = sum(
            len(encode_wal_record(r)) + 1 for r in records
        )
        backend.truncate_at(min(offset, total_bytes))
        recovered = list(wal.replay())
        assert recovered == records[: len(recovered)]
        # A cut strictly inside the log loses at most the one torn record
        # (everything after it is whole lines that were never written).
        if offset >= total_bytes:
            assert recovered == records
            assert wal.tail_discarded == 0
        else:
            assert wal.tail_discarded <= 1

    @given(st.lists(payloads, min_size=1, max_size=8), st.integers(0, 4096))
    @settings(max_examples=50, deadline=None)
    def test_snapshot_plus_torn_tail_recovers_prefix(self, docs, cut):
        # Build a store, snapshot midway, keep appending, then tear the
        # post-snapshot WAL tail at an arbitrary byte.
        store = ShardedDocumentStore(shards=1)
        items = store.collection("items")
        half = len(docs) // 2
        for doc in docs[:half]:
            items.insert_one(dict(doc))
        store._shards[0].compact(store._peek_next_id())
        for doc in docs[half:]:
            items.insert_one(dict(doc))

        shard = store._shards[0]
        backend = shard.backend
        text = "".join(line + "\n" for line in backend._lines)
        backend._lines = [
            line for line in text[: min(cut, len(text))].split("\n") if line
        ]

        revived = ShardedDocumentStore(shards=1)
        revived._shards[0].backend._snapshot = backend._snapshot
        revived._shards[0].backend._lines = list(backend._lines)
        revived.recover()
        recovered = revived.collection("items").find({})
        expected_min = half
        assert expected_min <= len(recovered) <= len(docs)
        # What was recovered is a strict prefix of the insert order.
        for i, doc in enumerate(recovered):
            assert doc["_id"] == i + 1
            assert {k: v for k, v in doc.items() if k != "_id"} == docs[i]

    @given(st.lists(payloads, min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_double_replay_is_idempotent(self, docs):
        store = ShardedDocumentStore(shards=2)
        items = store.collection("items")
        responses = store.collection("responses")
        for i, doc in enumerate(docs):
            items.insert_one(dict(doc))
            responses.insert_one(
                {"test_id": "t1", "worker_id": f"w{i}", **doc}
            )
        before = store.dump()
        store.recover()
        assert store.dump() == before
        store.recover()
        assert store.dump() == before
        assert store.collection("responses").count({"test_id": "t1"}) == len(
            docs
        )
