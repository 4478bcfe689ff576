"""In-memory file store mirroring Kaleidoscope's storage system.

The aggregator saves every integrated webpage's resources in a folder named
after the test id; the core server serves those files to the browser
extension. :class:`FileStore` models that area as a tree of UTF-8 text files
addressed by POSIX-style relative paths (``<test_id>/<name>.html``).

An in-memory store keeps tests hermetic; :meth:`export_to_directory` persists
a test's artifacts to a real directory when a user wants to inspect the
generated HTML in a browser.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, List

from repro.errors import StorageError


def _normalize(path: str) -> str:
    """Normalize a store path: POSIX separators, no empty or '.' segments
    (so no leading slash), no '..'.

    ``//t/x``, ``t//x``, ``./t/./x`` and ``t\\x`` all name ``t/x``.
    """
    parts = [
        p for p in str(path).replace("\\", "/").split("/") if p and p != "."
    ]
    if ".." in parts:
        raise StorageError(f"path escapes the store: {path!r}")
    if not parts:
        raise StorageError("empty path")
    return "/".join(parts)


class FileStore:
    """A hierarchical text-file store keyed by relative POSIX paths."""

    def __init__(self):
        self._files: Dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._files)

    def __contains__(self, path: str) -> bool:
        return _normalize(path) in self._files

    def write(self, path: str, content: str) -> str:
        """Store ``content`` at ``path`` (overwrites); returns the normal path."""
        if not isinstance(content, str):
            raise StorageError(f"content must be text, got {type(content).__name__}")
        normal = _normalize(path)
        self._files[normal] = content
        return normal

    def append(self, path: str, content: str) -> str:
        """Append text to ``path``, creating the file when absent.

        This is the primitive journal writers need: each queue transition
        becomes one appended line, so recovery can replay the file in order.
        """
        if not isinstance(content, str):
            raise StorageError(f"content must be text, got {type(content).__name__}")
        normal = _normalize(path)
        self._files[normal] = self._files.get(normal, "") + content
        return normal

    def read(self, path: str) -> str:
        """Return the content at ``path``; raises StorageError when absent."""
        normal = _normalize(path)
        try:
            return self._files[normal]
        except KeyError:
            raise StorageError(f"no such file: {normal!r}") from None

    def delete(self, path: str) -> None:
        """Remove one file; raises when absent."""
        normal = _normalize(path)
        if normal not in self._files:
            raise StorageError(f"no such file: {normal!r}")
        del self._files[normal]

    def iter_items(self) -> Iterator[tuple]:
        """Yield ``(path, content)`` pairs in sorted path order."""
        for path in sorted(self._files):
            yield path, self._files[path]

    def export_to_directory(self, directory) -> List[Path]:
        """Write every stored file under a real directory; returns the paths."""
        root = Path(directory)
        written = []
        for path, content in self.iter_items():
            target = root / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(content, encoding="utf-8")
            written.append(target)
        return written
