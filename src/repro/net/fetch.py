"""Resource fetching for the inliner and the extension.

:class:`StaticResourceMap` satisfies the fetch protocol the inliner expects
(``fetch(url) -> FetchedResource``) from a plain mapping,
which is how experiment datasets seed a synthetic origin server without
standing up network plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

from repro.errors import FetchError
from repro.html.urlutil import guess_content_type, split_url


@dataclass(frozen=True)
class FetchedResource:
    """A fetched resource: final URL, type, raw bytes, transfer time."""

    url: str
    content_type: str
    body_bytes: bytes
    elapsed_seconds: float = 0.0

    @property
    def text(self) -> str:
        return self.body_bytes.decode("utf-8", errors="replace")

    @property
    def size_bytes(self) -> int:
        return len(self.body_bytes)


class StaticResourceMap:
    """An in-memory origin: URL -> content.

    Content values may be ``str`` (encoded as UTF-8) or ``bytes``. Content
    types are guessed from the path unless provided explicitly via
    :meth:`add`.
    """

    def __init__(self, resources: Optional[Dict[str, Union[str, bytes]]] = None):
        self._bodies: Dict[str, bytes] = {}
        self._types: Dict[str, str] = {}
        for url, content in (resources or {}).items():
            self.add(url, content)

    def add(self, url: str, content: Union[str, bytes], content_type: str = "") -> None:
        """Register a resource."""
        body = content.encode("utf-8") if isinstance(content, str) else bytes(content)
        self._bodies[url] = body
        self._types[url] = content_type or guess_content_type(split_url(url).path)

    def __contains__(self, url: str) -> bool:
        return url in self._bodies

    def __len__(self) -> int:
        return len(self._bodies)

    def fetch(self, url: str) -> FetchedResource:
        """Serve from the map; raises :class:`FetchError` when absent."""
        if url not in self._bodies:
            raise FetchError(f"no such resource: {url!r}", url=url, status=404)
        return FetchedResource(
            url=url, content_type=self._types[url], body_bytes=self._bodies[url]
        )

    @classmethod
    def from_directory(cls, directory, base_url: str) -> "StaticResourceMap":
        """Load every file under ``directory`` as ``{base_url}/<relative>``.

        This is how the CLI serves a saved-page folder ("a static webpage
        saved from a browser ... all resources within one folder") to the
        aggregator's inlining step.
        """
        root = Path(directory)
        if not root.is_dir():
            raise FetchError(f"not a directory: {root}", url=str(root))
        resources = cls()
        base = base_url.rstrip("/")
        for path in sorted(root.rglob("*")):
            if not path.is_file():
                continue
            relative = path.relative_to(root).as_posix()
            resources.add(f"{base}/{relative}", path.read_bytes())
        return resources
