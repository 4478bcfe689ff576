"""Every definition in ``src/repro`` is named by some program outside ``tests/``.

A top-level function or class, or a method of a top-level class, that only
tests call is a capability no caller asked for. This walks each such
definition (dunders skipped) and fails when its name occurs nowhere in
``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/`` except in its own
definition. A name counts where code uses it: a name, an attribute, a
keyword argument, an import outside a package ``__init__`` or a word of a
string literal that is not a docstring. Comments, docstrings, the
re-exports of a package ``__init__`` (its imports and ``__all__``) and uses
inside the definition itself (a recursive call, a class naming itself) do
not count. The few definitions kept for another reason are in :data:`KEPT`.

Run as a script to print each unnamed definition with its line count.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SEARCHED = ("src", "benchmarks", "examples", "perfbench")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Definitions nothing outside ``tests/`` names that stay, each with why.
KEPT = {
    # Oracles: tests check live behaviour through them.
    "core/loadscript.py::extract_schedule": "oracle: the load script the aggregator injected",
    "core/integrated.py::frame_sources": "oracle: the frames of the integrated pages a campaign stored",
    "html/inliner.py::decode_data_url": "oracle: the bytes the inliner embedded",
    "net/faults.py::BreakerRegistry.open_hosts": "oracle: per-scope breaker trips of clients and the fleet",
    "net/faults.py::BreakerRegistry.scopes": "oracle: which scopes the fleet's breakers were keyed by",
    "obs/tracing.py::Span.signature": "oracle: trace shape equal across parallelism",
    "obs/tracing.py::Span.event_names": "oracle: answer, fault and retry events a campaign traced",
    # Deliverables named by EXPERIMENTS.md, the README or docs/TUTORIAL.md.
    "core/analysis.py::fleiss_kappa": "deliverable: EXPERIMENTS.md and TUTORIAL.md agreement statistics",
    "core/analysis.py::demographic_breakdown": "deliverable: EXPERIMENTS.md and TUTORIAL.md per-group results",
    "core/btmodel.py::BradleyTerryFit.win_probability": "deliverable: TUTORIAL.md prints a win probability",
    "render/filmstrip.py::Filmstrip.render_ascii": "deliverable: TUTORIAL.md prints a filmstrip",
    "fleet/manager.py::CampaignManager.submit_all": "deliverable: the README's fleet example",
    "net/faults.py::FaultPlan.with_outage": "deliverable: the README's fault-plan example",
    "render/artifacts.py::PageArtifactCache.invalidate": "deliverable: the README's artifact-cache section",
}


def definitions(tree):
    """``(qualname, node)`` for each top-level function and class in
    ``tree`` and each method of a top-level class, dunders skipped."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{node.name}.{item.name}", item)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    return [(name, node) for name, node in found if not node.name.startswith("__")]


def _span(node):
    start = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return start, node.end_lineno


def _docstrings(tree):
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                ids.add(id(body[0].value))
    return ids


def _is_reexport(node, package_init):
    if not package_init:
        return False
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(node, (ast.Assign, ast.AugAssign)) and any(
        isinstance(t, ast.Name) and t.id == "__all__"
        for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
    )


def uses(tree, package_init=False):
    """``(name, line)`` for each place ``tree`` names an identifier."""
    skipped = set()
    for node in tree.body:
        if _is_reexport(node, package_init):
            skipped.update(id(n) for n in ast.walk(node))
    docstrings = _docstrings(tree)
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.end_lineno))
        elif isinstance(node, ast.keyword) and node.arg:
            found.append((node.arg, node.value.lineno))
        elif isinstance(node, ast.alias):
            found.append((node.name.rsplit(".", 1)[-1], node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                found += [(w, node.lineno) for w in WORD.findall(node.value)]
    return found


def unnamed_definitions(sources, src):
    """``{"<path under src>::<qualname>": line_count}`` for each definition
    in a module under ``src`` whose name nothing in ``sources`` (a mapping
    of path to source text) uses outside the definition itself."""
    defs = []
    used = defaultdict(list)
    for path, text in sources.items():
        tree = ast.parse(text)
        for name, line in uses(tree, package_init=path.name == "__init__.py"):
            used[name].append((path, line))
        if path.is_relative_to(src):
            defs += [(path, qualname, node) for qualname, node in definitions(tree)]
    found = {}
    for path, qualname, node in defs:
        start, end = _span(node)
        if all(where == path and start <= line <= end for where, line in used[node.name]):
            found[f"{path.relative_to(src).as_posix()}::{qualname}"] = end - start + 1
    return found


@functools.lru_cache(maxsize=None)
def repo_unnamed_definitions():
    sources = {
        path: path.read_text(encoding="utf-8")
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    return unnamed_definitions(sources, SRC)


def test_every_definition_is_named_outside_tests():
    assert sorted(set(repo_unnamed_definitions()) - set(KEPT)) == []


def test_every_kept_definition_still_exists_and_is_still_unnamed():
    assert sorted(set(KEPT) - set(repo_unnamed_definitions())) == []


def test_what_counts_as_a_use():
    src = Path("src/pkg")
    sources = {
        src / "__init__.py": (
            "from .mod import exported\n"
            '__all__ = ["exported"]\n'
        ),
        src / "mod.py": (
            '"""Mentions documented and exported."""\n'
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else 0  # called, by itself\n"
            "def documented():\n"
            "    pass\n"
            "def exported():\n"
            "    pass\n"
            "class Box:\n"
            "    def size(self):\n"
            "        return Box().size()\n"
            "    def shared(self):\n"
            "        pass\n"
            "class Other:\n"
            "    def shared(self):\n"
            "        pass\n"
            "def by_string():\n"
            "    pass\n"
            "def by_keyword():\n"
            "    pass\n"
            "def by_call():\n"
            "    pass\n"
        ),
        Path("benchmarks/bench.py"): (
            'getattr(module, "by_string")\n'
            "run(by_keyword=1)\n"
            "thing.by_call()\n"
            "box.shared()\n"
        ),
    }
    assert sorted(unnamed_definitions(sources, src)) == [
        "mod.py::Box",
        "mod.py::Box.size",
        "mod.py::Other",
        "mod.py::documented",
        "mod.py::exported",
        "mod.py::recursive",
    ]


if __name__ == "__main__":
    table = repo_unnamed_definitions()
    for key, lines in sorted(table.items()):
        print(f"{lines:4d}  {key}{'  (kept)' if key in KEPT else ''}")
    print(f"{len(table)} definitions, {sum(table.values())} lines")
