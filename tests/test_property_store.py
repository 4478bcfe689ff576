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
        # A missing field equals None, so one query per distinct value
        # (``None`` included) covers every document exactly once.
        collection = Collection("c")
        collection.insert_many(docs)
        values = []
        for doc in docs:
            if doc.get(field) not in values:
                values.append(doc.get(field))
        assert sum(collection.count({field: value}) for value in values) == len(docs)

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_equality_query_matches_python_filter(self, values):
        collection = Collection("c")
        collection.insert_many([{"v": v} for v in values])
        found = collection.find({"v": values[0]})
        assert [d["v"] for d in found] == [v for v in values if v == values[0]]

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
    def test_find_keeps_insertion_order(self, values):
        collection = Collection("c")
        collection.insert_many([{"v": v} for v in values])
        assert [d["v"] for d in collection.find()] == values


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
