"""Tests for the hash-sharded, WAL-backed document store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregator import RESPONSES_COLLECTION
from repro.core.server import CoreServer
from repro.errors import DuplicateKeyError, QueryError, StorageError, ValidationError
from repro.storage.documentstore import DocumentStore, match_document
from repro.storage.filestore import FileStore
from repro.store import ShardedDocumentStore
from repro.store.sharded import _SpillIndex, shard_for
from repro.store.wal import decode_wal_line, encode_wal_record


def make_store(**kwargs):
    kwargs.setdefault("shards", 4)
    return ShardedDocumentStore(**kwargs)


def response_row(worker_id, test_id="t1", **extra):
    row = {"test_id": test_id, "worker_id": worker_id, "answers": []}
    row.update(extra)
    return row


class TestSharding:
    def test_shard_for_is_stable(self):
        assert shard_for("w1", 4) == shard_for("w1", 4)
        assert 0 <= shard_for("anything", 7) < 7

    def test_documents_partition_by_shard_key(self):
        store = make_store()
        responses = store.collection(RESPONSES_COLLECTION)
        for i in range(40):
            responses.insert_one(response_row(f"w{i}"))
        per_shard = store.digest()["documents"]
        assert sum(per_shard) == 40
        assert sum(1 for count in per_shard if count) > 1  # actually spread

    def test_unsharded_collections_ride_shard_zero(self):
        store = make_store()
        store.collection("tests").insert_one({"test_id": "t1"})
        assert store.digest()["documents"] == [1, 0, 0, 0]

    def test_global_id_order_is_insertion_order(self):
        store = make_store()
        responses = store.collection(RESPONSES_COLLECTION)
        for i in range(25):
            responses.insert_one(response_row(f"w{i}", seq=i))
        rows = responses.find({})
        assert [r["seq"] for r in rows] == list(range(25))

    def test_scalar_shard_key_query_hits_one_shard(self):
        store = make_store()
        responses = store.collection(RESPONSES_COLLECTION)
        for i in range(10):
            responses.insert_one(response_row(f"w{i}"))
        assert responses.find_one({"worker_id": "w3"})["worker_id"] == "w3"
        assert responses.count({"worker_id": "w3"}) == 1


class TestCrud:
    def test_rejected_update_is_neither_applied_nor_journaled(self):
        store = make_store()
        c = store.collection("items")
        c.insert_many([{"n": n} for n in range(5)])
        records = store.stats()["wal_records"]
        with pytest.raises(QueryError):
            c.update_many({}, {"$inc": {"n": 1}})
        with pytest.raises(QueryError):
            c.update_one({"n": 1}, {"n": 2})
        assert sorted(d["n"] for d in c.find({})) == [0, 1, 2, 3, 4]
        assert store.stats()["wal_records"] == records

    def test_update_and_delete(self):
        store = make_store()
        c = store.collection("items")
        c.insert_many([{"n": n, "low": n < 2} for n in range(5)])
        assert c.update_many({"low": True}, {"$set": {"tag": "x"}}) == 2
        assert c.count({"tag": "x"}) == 2
        assert c.count({"low": True}) == 2
        assert c.delete_many({"low": True}) == 2
        assert len(c) == 3

    def test_distinct_dedupes_in_first_seen_order(self):
        store = make_store()
        c = store.collection("items")
        c.insert_many([{"v": v} for v in ("b", "a", "b", "c", "a")])
        assert c.distinct("v") == ["b", "a", "c"]

    def test_distinct_first_seen_order_with_mixed_hashability(self):
        store = make_store()
        c = store.collection("items")
        values = [2, [1], "x", 2, {"k": 1}, [1], "x", {"k": 1}, None, 1, [2]]
        c.insert_many([{"v": v} for v in values])
        assert c.distinct("v") == [2, [1], "x", {"k": 1}, None, 1, [2]]

    def test_drop_collection(self):
        store = make_store()
        store.collection("tmp").insert_one({"a": 1})
        store.drop_collection("tmp")
        assert "tmp" not in store.collection_names()

    def test_dump_load_round_trip(self):
        store = make_store()
        store.collection("tests").insert_one({"test_id": "t1"})
        store.collection("tests").create_index("test_id", unique=True)
        clone = ShardedDocumentStore.load(store.dump(), shards=4)
        assert clone.collection("tests").find_one({"test_id": "t1"}) is not None
        assert clone.dump() == store.dump()

    def test_load_restores_id_counter_with_string_ids(self):
        # The shared highest_numeric_id helper: all-digit strings count,
        # other strings don't, and fresh inserts never collide.
        snapshot = {
            "c": {
                "documents": [{"_id": "7", "a": 1}, {"_id": "x", "a": 2}],
                "indexes": [],
            }
        }
        store = ShardedDocumentStore.load(snapshot, shards=2)
        new_id = store.collection("c").insert_one({"a": 3})
        assert new_id == 8


class TestSpill:
    def test_spilled_rows_not_in_memory_but_streamable(self):
        store = make_store(spill=(RESPONSES_COLLECTION,))
        responses = store.collection(RESPONSES_COLLECTION)
        for i in range(20):
            responses.insert_one(response_row(f"w{i}", seq=i))
        for shard in store._shards:
            assert RESPONSES_COLLECTION not in shard.store._collections
        rows = list(store.stream_collection(RESPONSES_COLLECTION))
        assert [r["seq"] for r in rows] == list(range(20))

    @pytest.mark.parametrize("spill", [(RESPONSES_COLLECTION,), ()])
    def test_mutating_a_streamed_document_leaves_the_next_stream(self, spill):
        # Spilled documents decode fresh from the WAL on every replay;
        # in-memory ones are copied. Either way the store is untouched.
        store = make_store(spill=spill)
        responses = store.collection(RESPONSES_COLLECTION)
        for i in range(6):
            responses.insert_one(response_row(f"w{i}", seq=i, tags=["a"]))
        before = list(store.stream_collection(RESPONSES_COLLECTION))
        for doc in store.stream_collection(RESPONSES_COLLECTION):
            doc["seq"] = -1
            doc["tags"].append("mutated")
            doc.pop("_id")
        assert list(store.stream_collection(RESPONSES_COLLECTION)) == before
        assert [r["seq"] for r in before] == list(range(6))

    def test_identity_point_lookups_served_from_index(self):
        store = make_store(spill=(RESPONSES_COLLECTION,))
        responses = store.collection(RESPONSES_COLLECTION)
        responses.insert_one(response_row("w1", idempotency_key="k1"))
        hit = responses.find_one({"test_id": "t1", "worker_id": "w1"})
        assert hit is not None and "_id" in hit
        assert responses.find_one({"test_id": "t1", "worker_id": "nope"}) is None
        assert (
            responses.find_one({"test_id": "t1", "idempotency_key": "k1"})
            is not None
        )

    def test_count_and_distinct_served_from_index(self):
        store = make_store(spill=(RESPONSES_COLLECTION,))
        responses = store.collection(RESPONSES_COLLECTION)
        for i in range(12):
            responses.insert_one(response_row(f"w{i}"))
        assert responses.count({"test_id": "t1"}) == 12
        assert responses.count({}) == 12
        assert sorted(responses.distinct("worker_id", {"test_id": "t1"})) == sorted(
            f"w{i}" for i in range(12)
        )

    def test_unservable_query_falls_back_to_log_scan(self):
        store = make_store(spill=(RESPONSES_COLLECTION,))
        responses = store.collection(RESPONSES_COLLECTION)
        for i in range(6):
            responses.insert_one(response_row(f"w{i}", score=i))
        assert responses.count({"score": 3}) == 1
        found = responses.find_one({"worker_id": "w2", "score": 2})
        assert found is not None and found["score"] == 2

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["t1", "t2"]),
                st.sampled_from([f"w{i}" for i in range(6)]),
                st.sampled_from([None, "k1", "k2", "k3"]),
                st.integers(0, 2),
            ),
            max_size=14,
        ),
        query=st.dictionaries(
            st.sampled_from(["test_id", "worker_id", "idempotency_key", "score"]),
            st.one_of(
                st.sampled_from(["t1", "t2", "w0", "w3", "k1", "k2"]),
                st.integers(0, 2),
                st.none(),
                st.lists(st.just("w0"), max_size=1),
            ),
            min_size=1,
        ),
        shards=st.sampled_from([1, 3, 4]),
    )
    def test_spilled_lookups_agree_with_a_log_scan(self, rows, query, shards):
        """Index-served ``find_one`` and ``count`` — found, authoritative
        miss or unservable shape, on one shard or across all — give what a
        scan of the log gives."""
        store = make_store(shards=shards, spill=(RESPONSES_COLLECTION,))
        responses = store.collection(RESPONSES_COLLECTION)
        seen = set()
        for test_id, worker_id, key, score in rows:
            identities = {(test_id, "w", worker_id), (test_id, "k", key)}
            if identities & seen:
                continue  # the server stores one row per identity
            seen |= identities - {(test_id, "k", None)}
            extra = {"score": score}
            if key is not None:
                extra["idempotency_key"] = key
            responses.insert_one(response_row(worker_id, test_id=test_id, **extra))
        expected = [
            doc for doc in store.stream_collection(RESPONSES_COLLECTION)
            if match_document(doc, query)
        ]
        found = responses.find_one(query)
        assert (found is not None) == bool(expected)
        if found is not None:
            assert found["_id"] in [doc["_id"] for doc in expected]
            assert match_document(found, query)
        assert responses.count(query) == len(expected)

    def test_spilled_lookup_works_out_the_key_once(self, monkeypatch):
        """A query without the shard key asks every shard, and works out
        its identity key once for all of them."""
        store = make_store(shards=4, spill=(RESPONSES_COLLECTION,))
        responses = store.collection(RESPONSES_COLLECTION)
        for i in range(12):
            responses.insert_one(response_row(f"w{i}", idempotency_key=f"k{i}"))
        assert all(RESPONSES_COLLECTION in shard.spill for shard in store._shards)
        calls = []
        original = _SpillIndex.identity_key

        def counted(index, query):
            calls.append(query)
            return original(index, query)

        monkeypatch.setattr(_SpillIndex, "identity_key", counted)
        for key, found in (("k11", True), ("missing", False)):
            calls.clear()
            hit = responses.find_one({"test_id": "t1", "idempotency_key": key})
            assert (hit is not None) == found
            assert len(calls) == 1
        calls.clear()
        assert responses.find_one({"test_id": "t1", "score": 1}) is None
        assert len(calls) == 1

    def test_unhashable_identity_key_is_refused_whole(self):
        # The identity and count keys are hashed before the index changes,
        # so a refused insert leaves no count, key, WAL record or row.
        store = make_store(spill=(RESPONSES_COLLECTION,))
        responses = store.collection(RESPONSES_COLLECTION)
        responses.insert_one(response_row("w1"))
        with pytest.raises(TypeError):
            responses.insert_one(response_row(["w2", "w3"]))
        assert responses.count({}) == 1
        assert responses.count({"test_id": "t1"}) == 1
        assert store.stats()["wal_records"] == 1
        assert [r["worker_id"] for r in store.stream_collection(RESPONSES_COLLECTION)] == ["w1"]
        responses.insert_one(response_row("w2"))
        assert responses.distinct("worker_id", {"test_id": "t1"}) == ["w1", "w2"]

    def test_spilled_collections_are_append_only(self):
        store = make_store(spill=(RESPONSES_COLLECTION,))
        responses = store.collection(RESPONSES_COLLECTION)
        responses.insert_one(response_row("w1"))
        with pytest.raises(StorageError):
            responses.update_many({}, {"$set": {"x": 1}})
        with pytest.raises(StorageError):
            responses.delete_many({})
        with pytest.raises(StorageError):
            store.drop_collection(RESPONSES_COLLECTION)


class TestDurability:
    def test_disk_recovery_replays_wal(self, tmp_path):
        store = make_store(directory=tmp_path, spill=(RESPONSES_COLLECTION,))
        store.collection("tests").insert_one({"test_id": "t1"})
        for i in range(9):
            store.collection(RESPONSES_COLLECTION).insert_one(
                response_row(f"w{i}", seq=i)
            )
        store.close()
        revived = make_store(directory=tmp_path, spill=(RESPONSES_COLLECTION,))
        assert revived.collection("tests").find_one({"test_id": "t1"}) is not None
        rows = list(revived.stream_collection(RESPONSES_COLLECTION))
        assert [r["seq"] for r in rows] == list(range(9))
        # Fresh inserts continue past the recovered id high-water mark.
        old_ids = {r["_id"] for r in rows}
        new_id = revived.collection(RESPONSES_COLLECTION).insert_one(
            response_row("w-new")
        )
        assert new_id not in old_ids

    def test_refused_unique_write_journals_nothing_and_recovers_alike(self, tmp_path):
        store = make_store(directory=tmp_path)
        c = store.collection("items")
        c.create_index("a")
        c.create_index("email", unique=True)
        c.insert_many([{"a": 1, "email": "x"}, {"a": 2, "email": "b"}])
        records = store.stats()["wal_records"]
        before = store.dump()
        with pytest.raises(DuplicateKeyError):
            c.insert_one({"a": 1, "email": "x"})
        with pytest.raises(DuplicateKeyError):
            c.update_one({"email": "b"}, {"$set": {"email": "x"}})
        with pytest.raises(DuplicateKeyError):
            c.replace_one({"email": "b"}, {"a": 1, "email": "x"})
        assert store.stats()["wal_records"] == records
        assert store.dump() == before
        assert c.count({"a": 1}) == 1 and c.count({"email": "x"}) == 1
        store.close()
        revived = make_store(directory=tmp_path)
        assert revived.dump() == before
        assert revived.collection("items").count({"a": 1}) == 1

    def test_recover_on_live_store_is_idempotent(self, tmp_path):
        store = make_store(directory=tmp_path)
        store.collection("items").insert_many([{"n": n} for n in range(5)])
        before = store.dump()
        store.recover()
        assert store.dump() == before

    def test_snapshot_then_compaction_trims_wal(self, tmp_path):
        store = make_store(
            shards=1, directory=tmp_path, snapshot_every=10
        )
        c = store.collection("items")
        for n in range(35):
            c.insert_one({"n": n})
        stats = store.stats()
        assert stats["compactions"] >= 3
        # Compacted: the on-disk WAL holds fewer records than were appended.
        shard = store._shards[0]
        assert sum(1 for _ in shard.wal.replay()) < 35
        store.close()
        revived = make_store(shards=1, directory=tmp_path, snapshot_every=10)
        assert revived.collection("items").count({}) == 35

    def test_spilled_inserts_do_not_trigger_compaction(self):
        store = make_store(
            shards=1, spill=(RESPONSES_COLLECTION,), snapshot_every=10
        )
        responses = store.collection(RESPONSES_COLLECTION)
        for i in range(100):
            responses.insert_one(response_row(f"w{i}"))
        assert store.stats()["compactions"] == 0

    def test_torn_wal_tail_is_discarded(self, tmp_path):
        store = make_store(shards=1, directory=tmp_path)
        c = store.collection("items")
        for n in range(4):
            c.insert_one({"n": n})
        store.close()
        wal_path = tmp_path / "shard-00" / "wal.log"
        text = wal_path.read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        wal_path.write_text(
            "".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2],
            encoding="utf-8",
        )
        revived = make_store(shards=1, directory=tmp_path)
        assert revived.collection("items").count({}) == 3
        assert revived.stats()["shards"][0]["wal_tail_discarded"] == 1
        # The store keeps accepting writes after a torn-tail recovery.
        revived.collection("items").insert_one({"n": 99})
        assert revived.collection("items").count({}) == 4

    def test_wal_record_round_trip_and_corruption(self):
        record = {"op": "insert", "c": "x", "doc": {"_id": 1, "a": "b"}, "seq": 3}
        line = encode_wal_record(record)
        assert decode_wal_line(line) == record
        assert decode_wal_line(line[:-5]) is None
        corrupted = line.replace('"a"', '"z"')
        assert decode_wal_line(corrupted) is None


class TestObservabilityAndValidation:
    def test_metrics_counted_when_registry_injected(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        store = make_store(spill=(RESPONSES_COLLECTION,), metrics=registry)
        store.collection(RESPONSES_COLLECTION).insert_one(response_row("w1"))
        store.collection("tests").insert_one({"test_id": "t1"})
        snapshot = registry.snapshot()
        assert snapshot["counters"]["store.inserts"] == 2
        assert snapshot["counters"]["store.spilled_docs"] == 1

    def test_invalid_construction_rejected(self):
        with pytest.raises(StorageError):
            ShardedDocumentStore(shards=0)
        with pytest.raises(StorageError):
            ShardedDocumentStore(shards=1, snapshot_every=0)


class TestServerStoreKwargShim:
    def test_both_database_and_store_rejected(self):
        # database= is the only name for the document store.
        with pytest.raises(TypeError):
            CoreServer(
                database=DocumentStore(),
                storage=FileStore(),
                store=DocumentStore(),
            )

    def test_database_still_required(self):
        with pytest.raises(ValidationError):
            CoreServer(storage=FileStore())
