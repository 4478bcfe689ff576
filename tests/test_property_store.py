"""Property-based tests for the document store and file store."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.documentstore import Collection
from repro.storage.filestore import FileStore

field_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
json_scalars = st.one_of(
    st.integers(-1000, 1000),
    st.text(alphabet=string.ascii_letters, max_size=8),
    st.booleans(),
    st.none(),
)
documents = st.dictionaries(field_names, json_scalars, min_size=0, max_size=5)


class TestCollectionProperties:
    @given(st.lists(documents, max_size=20))
    @settings(max_examples=100)
    def test_insert_then_find_all_returns_everything(self, docs):
        collection = Collection("c")
        collection.insert_many(docs)
        assert collection.count() == len(docs)
        found = collection.find()
        stripped = [{k: v for k, v in d.items() if k != "_id"} for d in found]
        assert sorted(map(repr, stripped)) == sorted(map(repr, docs))

    @given(st.lists(documents, min_size=1, max_size=20), field_names)
    @settings(max_examples=100)
    def test_equality_query_partitions_collection(self, docs, field):
        collection = Collection("c")
        collection.insert_many(docs)
        values = {repr(d.get(field)) for d in docs}
        total_matched = 0
        for doc in docs:
            if field in doc:
                total_matched = total_matched  # placeholder for readability
        matched = collection.find({field: {"$exists": True}})
        unmatched = collection.find({field: {"$exists": False}})
        assert len(matched) + len(unmatched) == len(docs)

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_range_query_matches_python_filter(self, values):
        collection = Collection("c")
        collection.insert_many([{"v": v} for v in values])
        threshold = values[0]
        found = collection.find({"v": {"$gt": threshold}})
        assert len(found) == sum(1 for v in values if v > threshold)

    @given(st.lists(documents, max_size=15))
    @settings(max_examples=50)
    def test_delete_inverse_of_insert(self, docs):
        collection = Collection("c")
        ids = collection.insert_many(docs)
        for doc_id in ids:
            collection.delete_many({"_id": doc_id})
        assert collection.count() == 0

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_sort_is_sorted(self, values):
        collection = Collection("c")
        collection.insert_many([{"v": v} for v in values])
        found = [d["v"] for d in collection.find({}, sort=[("v", 1)])]
        assert found == sorted(values)


safe_segment = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8)
safe_paths = st.lists(safe_segment, min_size=1, max_size=4).map("/".join)


class TestFileStoreProperties:
    @given(st.dictionaries(safe_paths, st.text(max_size=50), max_size=15))
    @settings(max_examples=100)
    def test_write_read_round_trip(self, files):
        store = FileStore()
        for path, content in files.items():
            store.write(path, content)
        for path, content in files.items():
            assert store.read(path) == content

    @given(st.dictionaries(safe_paths, st.text(max_size=20), min_size=1, max_size=10))
    @settings(max_examples=50)
    def test_iter_items_complete_and_sorted(self, files):
        store = FileStore()
        for path, content in files.items():
            store.write(path, content)
        listed = [path for path, _ in store.iter_items()]
        assert listed == sorted(listed)
        assert set(listed) == set(files)
