"""Checksum-framed write-ahead logging for the sharded document store.

Each shard journals every mutation as one framed line::

    <length>:<crc32 hex>:<canonical JSON payload>\\n

``length`` is the payload's UTF-8 byte length and the CRC covers the
payload bytes, so replay can tell a cleanly-written record from the torn
tail a crash leaves behind: the first line that fails the length or
checksum test (or cannot be parsed) ends the replay — everything before it
is trusted, everything after it is discarded. This is the same
recoverability contract the fleet's JSONL journal provides, hardened with
explicit framing because shard WALs grow far larger and a silently
half-applied record would corrupt a snapshot built on top of it.

Two shard backends carry the bytes:

* :class:`MemoryShardBackend` — lines in a list (unit tests, default
  in-memory campaigns). Deliberately *not* :class:`~repro.storage.
  filestore.FileStore`: its ``append`` re-concatenates the whole file,
  which is O(n^2) over a million appends.
* :class:`DiskShardBackend` — a real append-only file per shard plus a
  snapshot file, read back line-by-line so replay never materializes the
  log in memory.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Iterable, Iterator, List, Optional

from repro.util.jsonutil import dumps_canonical, loads


def encode_wal_record(record: dict) -> str:
    """Frame one record as a single WAL line (no trailing newline)."""
    payload = dumps_canonical(record)
    raw = payload.encode("utf-8")
    return f"{len(raw)}:{zlib.crc32(raw) & 0xFFFFFFFF:08x}:{payload}"


def decode_wal_line(line: str) -> Optional[dict]:
    """Decode one framed line; ``None`` for a torn or corrupt record."""
    line = line.rstrip("\n")
    if not line:
        return None
    head, sep, rest = line.partition(":")
    if not sep:
        return None
    crc_hex, sep, payload = rest.partition(":")
    if not sep:
        return None
    try:
        length = int(head)
        expected_crc = int(crc_hex, 16)
    except ValueError:
        return None
    raw = payload.encode("utf-8")
    if len(raw) != length:
        return None
    if (zlib.crc32(raw) & 0xFFFFFFFF) != expected_crc:
        return None
    try:
        record = loads(payload)
    except Exception:
        return None
    return record if isinstance(record, dict) else None


class MemoryShardBackend:
    """WAL + snapshot storage for one shard, held in process memory."""

    def __init__(self):
        self._lines: List[str] = []
        self._snapshot: Optional[str] = None
        self._bytes = 0

    def append_line(self, line: str) -> None:
        self._lines.append(line)
        self._bytes += len(line) + 1

    def iter_lines(self) -> Iterator[str]:
        return iter(list(self._lines))

    def rewrite(self, lines: Iterable[str]) -> None:
        self._lines = list(lines)
        self._bytes = sum(len(line) + 1 for line in self._lines)

    def wal_size_bytes(self) -> int:
        return self._bytes

    def write_snapshot(self, text: str) -> None:
        self._snapshot = text

    def read_snapshot(self) -> Optional[str]:
        return self._snapshot


class DiskShardBackend:
    """WAL + snapshot storage for one shard, on the real filesystem.

    ``directory`` holds ``wal.log`` (append-only, flushed per record so a
    crashed process leaves at most one torn line) and ``snapshot.json``
    (written to a temp name and atomically renamed).
    """

    WAL_NAME = "wal.log"
    SNAPSHOT_NAME = "snapshot.json"

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._wal_path = self.directory / self.WAL_NAME
        self._snapshot_path = self.directory / self.SNAPSHOT_NAME
        self._handle = open(self._wal_path, "a", encoding="utf-8")

    def append_line(self, line: str) -> None:
        self._handle.write(line + "\n")
        self._handle.flush()

    def iter_lines(self) -> Iterator[str]:
        if not self._wal_path.exists():
            return
        # A fresh read handle: appends keep flowing through self._handle
        # while a replay (or compaction) streams the log from the top.
        with open(self._wal_path, "r", encoding="utf-8") as handle:
            for line in handle:
                yield line

    def rewrite(self, lines: Iterable[str]) -> None:
        self._handle.close()
        tmp = self._wal_path.with_suffix(".log.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
        tmp.replace(self._wal_path)
        self._handle = open(self._wal_path, "a", encoding="utf-8")

    def wal_size_bytes(self) -> int:
        self._handle.flush()
        return self._wal_path.stat().st_size if self._wal_path.exists() else 0

    def write_snapshot(self, text: str) -> None:
        tmp = self._snapshot_path.with_suffix(".json.tmp")
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(self._snapshot_path)

    def read_snapshot(self) -> Optional[str]:
        if not self._snapshot_path.exists():
            return None
        return self._snapshot_path.read_text(encoding="utf-8")

    def close(self) -> None:
        self._handle.close()


class WriteAheadLog:
    """Framed record log over a shard backend.

    ``replay`` yields every decodable record in order and stops at the
    first torn/corrupt line, recording how many trailing lines it
    discarded in :attr:`tail_discarded` — a crashed writer's last partial
    record is dropped, never half-applied.
    """

    def __init__(self, backend):
        self.backend = backend
        self.records_appended = 0
        self.tail_discarded = 0

    def append(self, record: dict) -> None:
        self.backend.append_line(encode_wal_record(record))
        self.records_appended += 1

    def replay(self) -> Iterator[dict]:
        lines = self.backend.iter_lines()
        self.tail_discarded = 0
        for position, line in enumerate(lines):
            record = decode_wal_line(line)
            if record is None:
                # Torn tail: count this and every remaining line as lost.
                self.tail_discarded = 1 + sum(1 for _ in lines)
                return
            yield record

    def rewrite(self, records: Iterable[dict]) -> int:
        """Replace the log's contents with ``records``; returns the count."""
        encoded = [encode_wal_record(record) for record in records]
        self.backend.rewrite(encoded)
        return len(encoded)

    def size_bytes(self) -> int:
        return self.backend.wal_size_bytes()
