"""Tests for the Mongo-like embedded document store."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateKeyError, QueryError
from repro.storage import documentstore
from repro.storage.documentstore import Collection, DocumentStore, match_document
from repro.store import sharded
from repro.store.sharded import ShardedDocumentStore
from repro.util.jsonutil import dumps_canonical


@pytest.fixture
def people():
    collection = Collection("people")
    collection.insert_many(
        [
            {"name": "ada", "age": 36, "tags": ["math", "eng"], "city": "london"},
            {"name": "grace", "age": 85, "tags": ["navy", "eng"], "city": "nyc"},
            {"name": "alan", "age": 41, "tags": ["math"], "city": "london"},
        ]
    )
    return collection


class TestInsert:
    def test_auto_ids_sequential(self):
        collection = Collection("c")
        assert collection.insert_one({"a": 1}) == 1
        assert collection.insert_one({"a": 2}) == 2

    def test_explicit_id_kept(self):
        collection = Collection("c")
        assert collection.insert_one({"_id": "x", "a": 1}) == "x"

    def test_duplicate_id_rejected(self):
        collection = Collection("c")
        collection.insert_one({"_id": 1})
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"_id": 1})

    def test_non_dict_rejected(self):
        with pytest.raises(QueryError):
            Collection("c").insert_one([1, 2])

    def test_insert_does_not_alias_caller_document(self):
        collection = Collection("c")
        doc = {"xs": [1]}
        collection.insert_one(doc)
        doc["xs"].append(2)
        assert collection.find_one({})["xs"] == [1]


class TestFind:
    def test_equality(self, people):
        assert len(people.find({"name": "ada"})) == 1

    def test_operator_documents_are_plain_values(self, people):
        assert people.find({"age": {"$gt": 40}}) == []
        assert people.find({"name": {"$ne": None}}) == []
        people.insert_one({"name": {"$ne": None}})
        assert [d["_id"] for d in people.find({"name": {"$ne": None}})] == [4]

    def test_arrays_match_whole_not_by_element(self, people):
        assert people.find({"tags": "math"}) == []
        assert [d["name"] for d in people.find({"tags": ["math"]})] == ["alan"]

    def test_find_returns_copies(self, people):
        first = people.find_one({"name": "ada"})
        first["age"] = 0
        assert people.find_one({"name": "ada"})["age"] == 36

    def test_find_one_missing_is_none(self, people):
        assert people.find_one({"name": "zzz"}) is None

    def test_count_and_distinct(self, people):
        assert people.count({"city": "london"}) == 2
        assert people.distinct("city") == ["london", "nyc"]


class TestUpdate:
    def test_set(self, people):
        assert people.update_one({"name": "ada"}, {"$set": {"age": 37, "x": [1]}}) == 1
        ada = people.find_one({"name": "ada"})
        assert (ada["age"], ada["x"]) == (37, [1])

    def test_update_many_returns_count(self, people):
        assert people.update_many({"city": "london"}, {"$set": {"uk": True}}) == 2

    def test_replace_one(self, people):
        assert people.replace_one({"name": "alan"}, {"name": "turing"}) == 1
        assert people.find_one({"name": "turing"}) is not None

    def test_whole_document_replacement_keeps_id(self, people):
        original_id = people.find_one({"name": "ada"})["_id"]
        people.replace_one({"name": "ada"}, {"name": "ada lovelace"})
        assert people.find_one({"name": "ada lovelace"}) == {
            "_id": original_id,
            "name": "ada lovelace",
        }

    def test_unknown_update_operator(self, people):
        with pytest.raises(QueryError):
            people.update_one({"name": "ada"}, {"$rename": {"age": "years"}})
        assert people.find_one({"name": "ada"})["age"] == 36

    @pytest.mark.parametrize(
        "update",
        [
            {"name": "ada lovelace"},
            {"$inc": {"age": 1}},
            {"$set": {"age": 37}, "$unset": {"tags": ""}},
            {"$set": [("age", 37)]},
        ],
    )
    def test_anything_but_set_is_rejected_unapplied(self, people, update):
        people.create_index("name")
        before = people.find()
        with pytest.raises(QueryError):
            people.update_many({}, update)
        with pytest.raises(QueryError):
            people.update_one({"name": "ada"}, update)
        assert people.find() == before
        assert people.count({"name": "ada"}) == 1


class TestDelete:
    def test_delete_many(self, people):
        assert people.delete_many({"city": "london"}) == 2
        assert people.count() == 1


class TestIndexes:
    def test_unique_index_enforced(self):
        collection = Collection("c")
        collection.create_index("email", unique=True)
        collection.insert_one({"email": "a@x"})
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"email": "a@x"})

    def test_unique_index_on_existing_data(self):
        collection = Collection("c")
        collection.insert_one({"k": 1})
        collection.insert_one({"k": 1})
        with pytest.raises(DuplicateKeyError):
            collection.create_index("k", unique=True)

    def test_index_lookup_matches_scan(self, people):
        people.create_index("name")
        assert people.find({"name": "grace"})[0]["age"] == 85

    def test_index_updates_after_update(self, people):
        people.create_index("name")
        people.update_one({"name": "ada"}, {"$set": {"name": "ada2"}})
        assert people.find({"name": "ada"}) == []
        assert len(people.find({"name": "ada2"})) == 1

    def test_index_after_delete(self, people):
        people.create_index("name")
        people.delete_many({"name": "ada"})
        assert people.find({"name": "ada"}) == []

    def test_smallest_bucket_serves_the_query(self):
        collection = Collection("c")
        collection.create_index("test_id")
        collection.create_index("worker_id")
        for i in range(50):
            collection.insert_one({"test_id": "t", "worker_id": f"w{i}"})
        candidates = collection._candidate_ids({"test_id": "t", "worker_id": "w7"})
        assert candidates == [8]
        assert collection.find_one({"test_id": "t", "worker_id": "w7"})["_id"] == 8

    def test_none_condition_is_not_served_from_the_index(self):
        collection = Collection("c")
        collection.create_index("test_id")
        collection.create_index("idempotency_key")
        collection.insert_one({"test_id": "t", "worker_id": "w1"})
        collection.insert_one({"test_id": "t", "idempotency_key": None})
        query = {"test_id": "t", "idempotency_key": None}
        assert [d["_id"] for d in collection.find(query)] == [1, 2]
        assert collection.count({"idempotency_key": None}) == 2

    def test_unhashable_values_stay_unindexed(self):
        collection = Collection("c")
        collection.insert_one({"a": [1, 2]})
        collection.insert_one({"a": 1})
        collection.create_index("a")
        assert collection._indexes["a"].entries == {1: {2}}
        assert [d["_id"] for d in collection.find({"a": 1})] == [2]
        assert [d["_id"] for d in collection.find({"a": [1, 2]})] == [1]
        assert collection.count({"a": [1, 2]}) == 1
        collection.update_one({"_id": 1}, {"$set": {"a": 3}})
        assert collection.count({"a": 3}) == 1


# -- an index never changes a query's answer --------------------------------

INDEXED_FIELDS = ("a", "b", "c")
SCALARS = st.one_of(
    st.none(), st.integers(0, 2), st.sampled_from(["x", "y"]), st.booleans()
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.fixed_dictionaries({"d": SCALARS}),
)
DOCUMENTS = st.dictionaries(st.sampled_from(INDEXED_FIELDS), VALUES, max_size=3)
QUERIES = st.dictionaries(
    st.sampled_from(INDEXED_FIELDS), VALUES, min_size=1, max_size=3
)
SET_UPDATES = st.fixed_dictionaries(
    {"$set": st.dictionaries(st.sampled_from(INDEXED_FIELDS), VALUES, min_size=1, max_size=2)}
)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("insert_one"), DOCUMENTS),
        st.tuples(st.just("update_many"), QUERIES, SET_UPDATES),
        st.tuples(st.just("update_one"), QUERIES, SET_UPDATES),
        st.tuples(st.just("replace_one"), QUERIES, DOCUMENTS),
        st.tuples(st.just("delete_many"), QUERIES),
    ),
    max_size=25,
)


#: Documents and writes over a unique index on ``a`` and a plain one on
#: ``b``, with few enough values that writes often collide.
UNIQUE_DOCUMENTS = st.dictionaries(st.sampled_from(("a", "b")), SCALARS, max_size=2)
UNIQUE_QUERIES = st.dictionaries(st.sampled_from(("a", "b")), SCALARS, max_size=1)
UNIQUE_SETS = st.fixed_dictionaries(
    {"$set": st.dictionaries(st.sampled_from(("a", "b")), SCALARS, min_size=1)}
)
UNIQUE_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("insert_one"), UNIQUE_DOCUMENTS),
        st.tuples(st.just("update_many"), UNIQUE_QUERIES, UNIQUE_SETS),
        st.tuples(st.just("update_one"), UNIQUE_QUERIES, UNIQUE_SETS),
        st.tuples(st.just("replace_one"), UNIQUE_QUERIES, UNIQUE_DOCUMENTS),
    ),
    max_size=20,
)


class TestRefusedWriteChangesNothing:
    """A write a unique index refuses leaves every document and every index
    as it was: each unique index is checked before any state changes."""

    @pytest.fixture
    def emails(self):
        collection = Collection("c")
        collection.create_index("a")
        collection.create_index("email", unique=True)
        collection.insert_one({"a": 1, "email": "x"})
        collection.insert_one({"a": 2, "email": "b"})
        return collection

    def assert_consistent(self, collection, documents):
        assert collection.find() == documents
        for query in ({"a": 1}, {"a": 2}, {"email": "x"}, {"email": "b"}):
            expected = [d for d in documents if match_document(d, query)]
            assert collection.count(query) == len(expected), query
            assert collection.find(query) == expected, query

    def test_insert_leaves_no_phantom_in_an_earlier_index(self, emails):
        before = emails.find()
        with pytest.raises(DuplicateKeyError):
            emails.insert_one({"a": 1, "email": "x"})
        assert len(emails) == 2
        self.assert_consistent(emails, before)
        emails.insert_one({"a": 1, "email": "y"})
        assert emails.count({"a": 1}) == 2

    def test_set_leaves_the_document_unchanged_and_indexed(self, emails):
        before = emails.find()
        with pytest.raises(DuplicateKeyError):
            emails.update_one({"email": "b"}, {"$set": {"email": "x", "a": 1}})
        self.assert_consistent(emails, before)

    def test_replace_leaves_the_document_unchanged_and_indexed(self, emails):
        before = emails.find()
        with pytest.raises(DuplicateKeyError):
            emails.replace_one({"email": "b"}, {"a": 1, "email": "x"})
        self.assert_consistent(emails, before)

    def test_update_many_giving_two_documents_one_value_changes_none(self, emails):
        emails.insert_one({"a": 1, "email": "z"})
        before = emails.find()
        with pytest.raises(DuplicateKeyError):
            emails.update_many({"a": 1}, {"$set": {"email": "new"}})
        self.assert_consistent(emails, before)

    def test_setting_a_document_its_own_value_is_allowed(self, emails):
        assert emails.update_one({"email": "x"}, {"$set": {"email": "x", "a": 3}}) == 1
        assert emails.replace_one({"email": "b"}, {"email": "b"}) == 1
        assert emails.update_many({"a": 7}, {"$set": {"email": "x"}}) == 0
        assert emails.count({"a": 3}) == 1 and emails.count({"email": "b"}) == 1

    @settings(max_examples=120, deadline=None)
    @given(
        initial=st.lists(UNIQUE_DOCUMENTS, max_size=8),
        operations=UNIQUE_OPERATIONS,
    )
    def test_any_refused_write_changes_nothing(self, initial, operations):
        collection = Collection("c")
        collection.create_index("b")
        collection.create_index("a", unique=True)
        for document in initial:
            try:
                collection.insert_one(document)
            except DuplicateKeyError:
                pass
        for method, *args in operations:
            before = collection.find()
            try:
                getattr(collection, method)(*args)
            except DuplicateKeyError:
                assert collection.find() == before
        documents = collection.find()
        for field in ("a", "b"):
            for value in {d.get(field) for d in documents} - {None}:
                expected = [d for d in documents if d.get(field) == value]
                assert collection.count({field: value}) == len(expected)
                assert collection.find({field: value}) == expected


class TestIndexNeverChangesAnswers:
    """An indexed collection answers every query exactly as a full scan."""

    @settings(max_examples=120, deadline=None)
    @given(
        initial=st.lists(DOCUMENTS, max_size=12),
        operations=OPERATIONS,
        queries=st.lists(QUERIES, min_size=1, max_size=6),
    )
    def test_indexed_collection_matches_unindexed(self, initial, operations, queries):
        plain, indexed = Collection("plain"), Collection("indexed")
        for field in INDEXED_FIELDS:
            indexed.create_index(field)
        for document in initial:
            plain.insert_one(document)
            indexed.insert_one(document)
        for method, *args in operations:
            assert getattr(indexed, method)(*args) == getattr(plain, method)(*args)
        assert indexed.find() == plain.find()
        for query in queries:
            assert indexed.find(query) == plain.find(query)
            assert indexed.find_one(query) == plain.find_one(query)
            assert indexed.count(query) == plain.count(query)
            for field in INDEXED_FIELDS + ("_id",):
                assert indexed.distinct(field, query) == plain.distinct(field, query)


class TestScanMatchesFind:
    """``scan`` yields what ``find`` copies: the same documents, in the same
    order, whether or not an index serves the query."""

    @settings(max_examples=120, deadline=None)
    @given(
        indexed=st.booleans(),
        initial=st.lists(DOCUMENTS, max_size=12),
        operations=OPERATIONS,
        queries=st.lists(QUERIES, min_size=1, max_size=6),
    )
    def test_scan_equals_find(self, indexed, initial, operations, queries):
        collection = Collection("scanned")
        if indexed:
            for field in INDEXED_FIELDS:
                collection.create_index(field)
        for document in initial:
            collection.insert_one(document)
        for method, *args in operations:
            getattr(collection, method)(*args)
        assert list(collection.scan()) == collection.find()
        for query in queries:
            scanned = list(collection.scan(query))
            assert scanned == collection.find(query)
            assert [d["_id"] for d in scanned] == sorted(d["_id"] for d in scanned)


class TestDistinct:
    def test_first_seen_order_with_mixed_hashability(self):
        collection = Collection("c")
        values = [2, [1], "x", 2, {"k": 1}, [1], "x", {"k": 1}, None, 1, [2]]
        collection.insert_many([{"v": v} for v in values] + [{"w": 0}])
        assert collection.distinct("v") == [2, [1], "x", {"k": 1}, None, 1, [2]]


class TestMatchDocument:
    def test_missing_field_matches_none(self):
        assert match_document({}, {"x": None})
        assert not match_document({}, {"x": 1})


class TestDocumentStore:
    def test_collections_are_singletons(self):
        store = DocumentStore()
        assert store.collection("a") is store.collection("a")

    def test_drop(self):
        store = DocumentStore()
        store.collection("a").insert_one({"x": 1})
        store.drop_collection("a")
        assert store.collection("a").count() == 0

    def test_collection_names_sorted(self):
        store = DocumentStore()
        store.collection("b")
        store.collection("a")
        assert store.collection_names() == ["a", "b"]


def count_json_encodes(monkeypatch):
    """Count every JSON encode made while the test runs: each ``json.dumps``
    and each call of a shared encoder goes through ``JSONEncoder.encode``."""
    calls = []
    original = json.JSONEncoder.encode

    def counting(self, value):
        calls.append(1)
        return original(self, value)

    monkeypatch.setattr(json.JSONEncoder, "encode", counting)
    return calls


def response_document(i):
    return {
        "test_id": "t1",
        "worker_id": f"w{i}",
        "answers": [{"answer": "left", "score": i / 7, "ok": True, "note": None}],
        "demographics": {"age_range": "25-34", "tech_ability": 4},
    }


class TestScan:
    """``scan`` is the one read that hands out stored documents uncopied."""

    def test_memory_scan_yields_the_stored_documents(self, monkeypatch):
        collection = Collection("responses")
        collection.create_index("worker_id")
        for i in range(5):
            collection.insert_one(response_document(i))
        copies = []
        monkeypatch.setattr(
            documentstore, "deep_copy_json", lambda d: copies.append(d) or d
        )
        (first,) = collection.scan({"worker_id": "w3"})
        (second,) = collection.scan({"worker_id": "w3"})
        assert first is second
        assert [d["worker_id"] for d in collection.scan()] == [f"w{i}" for i in range(5)]
        assert copies == []

    @pytest.mark.parametrize("spill", [(), ("responses",)])
    def test_sharded_scan_merges_in_id_order(self, spill):
        store = ShardedDocumentStore(shards=3, spill=spill)
        collection = store.collection("responses")
        for i in range(9):
            collection.insert_one(response_document(i))
        scanned = list(collection.scan({"test_id": "t1"}))
        assert scanned == collection.find({"test_id": "t1"})
        assert [d["worker_id"] for d in scanned] == [f"w{i}" for i in range(9)]
        assert list(collection.scan({"worker_id": "w4"})) == [scanned[4]]


class TestCopyCost:
    """Plain JSON documents cross the store boundary without an encode: the
    copy walks them. The sharded store encodes each insert once, for its
    WAL line."""

    def test_memory_store_never_encodes(self, monkeypatch):
        collection = Collection("responses")
        collection.create_index("worker_id")
        encodes = count_json_encodes(monkeypatch)
        for i in range(5):
            collection.insert_one(response_document(i))
        assert collection.find_one({"worker_id": "w3"})["answers"][0]["score"] == 3 / 7
        assert len(collection.find({"test_id": "t1"})) == 5
        assert encodes == []

    @pytest.mark.parametrize("spill", [(), ("responses",)])
    def test_sharded_insert_encodes_its_wal_line_only(self, monkeypatch, spill):
        store = ShardedDocumentStore(shards=2, spill=spill)
        collection = store.collection("responses")
        encodes = count_json_encodes(monkeypatch)
        for i in range(5):
            collection.insert_one(response_document(i))
            assert len(encodes) == i + 1
        assert store.stats()["wal_records"] == 5

    @pytest.mark.parametrize("spill", [(), ("responses",)])
    def test_sharded_reads_copy_only_in_memory_documents(self, monkeypatch, spill):
        store = ShardedDocumentStore(shards=2, spill=spill)
        collection = store.collection("responses")
        for i in range(5):
            collection.insert_one(response_document(i))
        copies = []
        real_copy = sharded.deep_copy_json
        monkeypatch.setattr(
            sharded, "deep_copy_json", lambda d: copies.append(d) or real_copy(d)
        )
        found = collection.find({"test_id": "t1"})
        first = collection.find_one({})
        hit = collection.find_one(
            {"worker_id": "w3", "demographics": response_document(3)["demographics"]}
        )
        # A spilled document is decoded fresh from its WAL line: that decode
        # is its one copy. In-memory documents are copied once each.
        assert len(copies) == (0 if spill else 5 + 1 + 1)
        assert [d["worker_id"] for d in found] == [f"w{i}" for i in range(5)]
        assert first["worker_id"] == "w0" and hit["worker_id"] == "w3"
        before = collection.find({"test_id": "t1"})
        for document in found + [first, hit]:
            document["answers"][0]["score"] = -1.0
            document["demographics"].clear()
            document["worker_id"] = "mutated"
        assert collection.find({"test_id": "t1"}) == before
        assert [d["worker_id"] for d in store.stream_collection("responses")] == [
            f"w{i}" for i in range(5)
        ]


def fill_fixed_store(store):
    """A small store exercising indexes, updates, unicode and float edges."""
    tests = store.collection("tests")
    tests.create_index("test_id", unique=True)
    tests.insert_one(
        {
            "test_id": "t1",
            "parameters": {"question": [{"question_id": "q1", "text": "Which?"}]},
            "version_ids": ["a", "b"],
        }
    )
    responses = store.collection("responses")
    responses.create_index("worker_id")
    for i in range(12):
        responses.insert_one(
            {
                "test_id": "t1",
                "worker_id": f"w{i}",
                "answers": [
                    {
                        "answer": ["left", "right"][i % 2],
                        "score": i / 7,
                        "ok": i % 3 == 0,
                        "note": None,
                    }
                ],
                "total_minutes": -0.0 if i == 0 else i * 0.25,
                "label": "é☃",
            }
        )
    tests.update_one(
        {"test_id": "t1"}, {"$set": {"flag": (1, 2), "revisits": 2}}
    )
    return store


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestDump:
    """``dump()`` copies each document once: the snapshot is detached from
    the store, and its canonical bytes are pinned."""

    MEMORY_DUMP_SHA = "394ee119a10558f53abd56df45222ca0e572df44139c263b35e4a7504899c36c"
    SHARDED_DUMP_SHA = "646533920b135c4bfed7941c0050248281f39d054cb3d343f52da3bcadaf5051"
    SHARD_SNAPSHOT_SHAS = [
        "9804275c9942c6d98b1d0ce66d2b24006feaa57f5580790908c0921adea11ca3",
        "2c3068ddaa7c1db7910feb4925be97409416fb002c59541a2c272f5c3e45ec14",
    ]

    @staticmethod
    def stores():
        return [
            fill_fixed_store(DocumentStore()),
            fill_fixed_store(ShardedDocumentStore(shards=2)),
            fill_fixed_store(ShardedDocumentStore(shards=3, spill=("responses",))),
        ]

    def test_mutating_a_dump_leaves_the_store(self):
        for store in self.stores():
            before = dumps_canonical(store.dump())
            snapshot = store.dump()
            for payload in snapshot.values():
                payload["indexes"].clear()
                for document in payload["documents"]:
                    document["test_id"] = "mutated"
                    for answer in document.get("answers", []):
                        answer["answer"] = "mutated"
                payload["documents"].append({"_id": 999})
            assert dumps_canonical(store.dump()) == before

    def test_dump_bytes_are_pinned(self):
        memory, sharded, spilled = self.stores()
        assert sha256(dumps_canonical(memory.dump())) == self.MEMORY_DUMP_SHA
        assert sha256(dumps_canonical(sharded.dump())) == self.SHARDED_DUMP_SHA
        assert sha256(dumps_canonical(spilled.dump())) == self.SHARDED_DUMP_SHA

    def test_shard_snapshot_bytes_are_pinned(self):
        sharded = self.stores()[1]
        written = []
        for shard in sharded._shards:
            shard.write_snapshot(sharded._peek_next_id())
            written.append(sha256(shard.backend.read_snapshot()))
        assert written == self.SHARD_SNAPSHOT_SHAS
