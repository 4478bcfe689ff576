"""Tests for the in-memory file store."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.filestore import FileStore, _normalize

# Path pieces mixing real names with every separator form the store folds.
_PIECES = st.sampled_from(["t", "x", "page.html", "a b", ".", "", "/", "\\", "//"])
_SEPARATORS = st.sampled_from(["/", "\\", "//", "/./"])


class TestWriteRead:
    def test_round_trip(self):
        store = FileStore()
        store.write("test-1/index.html", "<html></html>")
        assert store.read("test-1/index.html") == "<html></html>"

    def test_overwrite(self):
        store = FileStore()
        store.write("a.txt", "one")
        store.write("a.txt", "two")
        assert store.read("a.txt") == "two"

    def test_missing_read_raises(self):
        with pytest.raises(StorageError):
            FileStore().read("nope.txt")

    def test_non_text_rejected(self):
        with pytest.raises(StorageError):
            FileStore().write("a.bin", b"bytes")

    def test_contains(self):
        store = FileStore()
        store.write("x/y.txt", "z")
        assert "x/y.txt" in store
        assert "x/z.txt" not in store


class TestPathNormalization:
    def test_leading_slash_stripped(self):
        store = FileStore()
        store.write("/a/b.txt", "v")
        assert store.read("a/b.txt") == "v"

    def test_backslashes_normalized(self):
        store = FileStore()
        store.write("a\\b.txt", "v")
        assert store.read("a/b.txt") == "v"

    def test_dot_segments_collapsed(self):
        store = FileStore()
        store.write("a/./b.txt", "v")
        assert store.read("a/b.txt") == "v"

    @pytest.mark.parametrize(
        "path",
        ["t/x", "/t/x", "//t/x", "///t/x", "t//x", "./t/./x", "t/x/", "t\\x",
         "\\t\\x", "\\\\t/x"],
    )
    def test_separator_forms_name_one_file(self, path):
        assert _normalize(path) == "t/x"
        store = FileStore()
        store.write(path, "v")
        assert store.read("t/x") == "v"
        assert store.list_files() == ["t/x"]

    def test_escape_rejected(self):
        with pytest.raises(StorageError):
            FileStore().write("../evil.txt", "v")

    def test_empty_rejected(self):
        with pytest.raises(StorageError):
            FileStore().write("", "v")

    @pytest.mark.parametrize("path", ["../evil.txt", "t/../../x", "t/..", "..\\x"])
    def test_escape_forms_rejected(self, path):
        with pytest.raises(StorageError, match="escapes"):
            FileStore().write(path, "v")

    @pytest.mark.parametrize("path", ["", "/", "//", ".", "./.", "\\"])
    def test_empty_forms_rejected(self, path):
        with pytest.raises(StorageError, match="empty path"):
            FileStore().write(path, "v")

    @given(first=_PIECES, rest=st.lists(st.tuples(_SEPARATORS, _PIECES), max_size=6))
    def test_normalizing_is_idempotent_and_reads_back(self, first, rest):
        path = first + "".join(sep + piece for sep, piece in rest)
        try:
            normal = _normalize(path)
        except StorageError:
            return
        assert _normalize(normal) == normal
        assert not normal.startswith("/") and "//" not in normal
        store = FileStore()
        assert store.write(path, "v") == normal
        assert store.read(normal) == "v"
        assert normal in store


class TestTreeOperations:
    @pytest.fixture
    def store(self):
        store = FileStore()
        store.write("t1/a.html", "a")
        store.write("t1/sub/b.html", "b")
        store.write("t2/c.html", "c")
        return store

    def test_list_all_sorted(self, store):
        assert store.list_files() == ["t1/a.html", "t1/sub/b.html", "t2/c.html"]

    def test_list_prefix(self, store):
        assert store.list_files("t1") == ["t1/a.html", "t1/sub/b.html"]

    def test_prefix_does_not_match_partial_names(self, store):
        store.write("t10/d.html", "d")
        assert "t10/d.html" not in store.list_files("t1")

    def test_delete_tree(self, store):
        assert store.delete_tree("t1") == 2
        assert store.list_files() == ["t2/c.html"]

    def test_delete_single(self, store):
        store.delete("t2/c.html")
        with pytest.raises(StorageError):
            store.read("t2/c.html")

    def test_delete_missing_raises(self, store):
        with pytest.raises(StorageError):
            store.delete("missing.txt")

    def test_len_and_bytes(self, store):
        assert len(store) == 3
        assert store.total_bytes() == 3  # 'a' + 'b' + 'c'

    def test_iter_items_sorted(self, store):
        paths = [p for p, _ in store.iter_items()]
        assert paths == sorted(paths)


class TestExport:
    def test_export_to_directory(self, tmp_path):
        store = FileStore()
        store.write("t/x/page.html", "<p>hi</p>")
        written = store.export_to_directory(tmp_path)
        assert (tmp_path / "t/x/page.html").read_text() == "<p>hi</p>"
        assert written == [tmp_path / "t/x/page.html"]
