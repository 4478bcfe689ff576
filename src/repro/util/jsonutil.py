"""JSON helpers for test-parameter documents and stored records.

The paper stores test parameters and responses as JSON (Table I); these
helpers centralize canonical encoding (sorted keys, stable separators) so the
document store, the file store and the parameter schema all round-trip
byte-identically — which the integration tests rely on. They also hold the
document stores' copy kernel, :func:`deep_copy_json`, which copies a
document the way an encode/decode round trip would, without paying for one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import ValidationError


_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps_canonical(value: Any) -> str:
    """Serialize to canonical JSON: sorted keys, compact separators."""
    return _CANONICAL_ENCODER.encode(value)


def dumps_pretty(value: Any) -> str:
    """Serialize to human-readable JSON (2-space indent, sorted keys)."""
    return json.dumps(value, sort_keys=True, indent=2)


def loads(text: str) -> Any:
    """Parse JSON, wrapping syntax errors in :class:`ValidationError`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc


def load_file(path) -> Any:
    """Read and parse a JSON file."""
    return loads(Path(path).read_text(encoding="utf-8"))


#: Exact types a JSON round trip returns unchanged. Their values are
#: immutable, so a copy may share them.
_SHARED_TYPES = frozenset((str, int, float, bool, type(None)))


def deep_copy_json(value: Any) -> Any:
    """Copy a JSON-compatible value as ``json.loads(json.dumps(value))`` would.

    Used by the document stores so callers can never mutate stored
    documents through aliased references. The copy walks the value: a dict
    whose keys are all exact ``str`` becomes a new dict (same key order), a
    list a new list, and exact ``str``/``int``/``float``/``bool``/``None``
    values are shared. Any other node (a tuple, an enum or other subclass
    value, a dict with non-``str`` keys, a non-JSON type) goes through the
    round trip on its own, so the result and the errors are exactly the
    round trip's: a tuple becomes a list, an ``int`` key becomes a ``str``
    key, a ``set`` raises ``TypeError``. A value too deep to walk (a
    self-referencing one) is redone whole by the round trip, which raises
    json's ``ValueError`` for a cycle.
    """
    try:
        return _walk(value)
    except RecursionError:
        return json.loads(json.dumps(value))


def _walk(value: Any) -> Any:
    kind = type(value)
    if kind is dict:
        copy = {}
        for key, item in value.items():
            if type(key) is not str:
                return json.loads(json.dumps(value))
            copy[key] = item if type(item) in _SHARED_TYPES else _walk(item)
        return copy
    if kind is list:
        return [
            item if type(item) in _SHARED_TYPES else _walk(item) for item in value
        ]
    if kind in _SHARED_TYPES:
        return value
    return json.loads(json.dumps(value))
