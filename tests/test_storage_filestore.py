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
        assert [p for p, _ in store.iter_items()] == ["t/x"]

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

    def test_delete_single(self, store):
        store.delete("t2/c.html")
        with pytest.raises(StorageError):
            store.read("t2/c.html")

    def test_delete_missing_raises(self, store):
        with pytest.raises(StorageError):
            store.delete("missing.txt")

    def test_len(self, store):
        assert len(store) == 3

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


class TestAppend:
    def test_creates_then_extends(self):
        store = FileStore()
        store.append("q/journal.log", "a\n")
        store.append("q/journal.log", "b\n")
        assert store.read("q/journal.log") == "a\nb\n"
        assert len(store) == 1

    def test_returns_normal_path(self):
        assert FileStore().append("/q//journal.log", "x") == "q/journal.log"

    def test_appends_to_written_file(self):
        store = FileStore()
        store.write("f.txt", "head ")
        store.append("./f.txt", "tail")
        assert store.read("f.txt") == "head tail"

    @pytest.mark.parametrize("content", [b"bytes", None, 5])
    def test_non_text_rejected(self, content):
        store = FileStore()
        with pytest.raises(StorageError, match="must be text"):
            store.append("f.txt", content)
        assert "f.txt" not in store


class TestContentsAndDeletion:
    def test_write_returns_normal_path(self):
        assert FileStore().write("\\t\\a.html", "a") == "t/a.html"

    def test_iter_items_yields_contents(self):
        store = FileStore()
        store.write("b.txt", "2")
        store.write("a.txt", "1")
        assert list(store.iter_items()) == [("a.txt", "1"), ("b.txt", "2")]

    def test_delete_accepts_any_separator_form(self):
        store = FileStore()
        store.write("t/x.html", "x")
        store.delete("/t//x.html")
        assert len(store) == 0

    def test_empty_text_is_a_file(self):
        store = FileStore()
        store.write("empty.txt", "")
        assert "empty.txt" in store
        assert store.read("empty.txt") == ""

    def test_export_empty_store_writes_nothing(self, tmp_path):
        assert FileStore().export_to_directory(tmp_path) == []
        assert list(tmp_path.iterdir()) == []
