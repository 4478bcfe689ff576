"""No program writes a store query or update with an operator key.

The document stores read every query as equality on top-level fields and
accept only ``{"$set": {...}}`` updates, so a dict literal with any other
``$``-prefixed key (``{"$gt": 1}``, ``{"$inc": {...}}``) would silently
match nothing, or be refused when it runs. This walks every dict literal in
``src/``, ``benchmarks/``, ``examples/`` and ``perfbench/`` and fails on a
string key that starts with ``$`` other than ``$set``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "benchmarks", "examples", "perfbench")
ALLOWED = {"$set"}


def operator_keys(source: str):
    """``(line, key)`` of every ``$``-prefixed dict-literal key but ``$set``."""
    return sorted(
        (key.lineno, key.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Dict)
        for key in node.keys
        if isinstance(key, ast.Constant)
        and isinstance(key.value, str)
        and key.value.startswith("$")
        and key.value not in ALLOWED
    )


def test_walker_sees_nested_operator_keys():
    source = 'q = {"a": {"$gt": 1}}\nu = {"$set": {"b": 2}, "$inc": {"c": 1}}\n'
    assert operator_keys(source) == [(1, "$gt"), (2, "$inc")]


def test_programs_use_no_operator_but_set():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {key!r}"
        for directory in SEARCHED
        for path in sorted((ROOT / directory).rglob("*.py"))
        for line, key in operator_keys(path.read_text(encoding="utf-8"))
    ]
    assert found == []
