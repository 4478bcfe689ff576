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

The same holds for settings. Each field of a frozen ``*Config`` or
``*Policy`` dataclass in ``src/repro`` must be passed as a keyword argument
somewhere in those directories; a field only tests set is a setting no
caller asked for, and becomes a constant of the module that reads it. The
keyword is matched by name alone, so a shared name (``seed=`` passed to
some other call) can hide a field nobody sets. The few fields kept for
another reason are in :data:`KEPT_FIELDS`.

Run as a script to print each unnamed definition with its line count and
each field nothing sets.
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
    "net/overload.py::LoadSignal.queue_depth": "oracle: the backlog whose drain Retry-After must cover",
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

#: Fields of frozen ``*Config``/``*Policy`` dataclasses nothing outside
#: ``tests/`` sets that stay, each with why.
KEPT_FIELDS = {
    "core/scheduling.py::SchedulerConfig.refit_every": (
        "digest: rides in Scheduler.snapshot()['config'], so deleting it "
        "moves every adaptive conclusion digest"
    ),
    "core/scheduling.py::SchedulerConfig.stability_rounds": (
        "digest: rides in Scheduler.snapshot()['config'], so deleting it "
        "moves every adaptive conclusion digest"
    ),
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
def _repo_sources():
    return {
        path: path.read_text(encoding="utf-8")
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }


@functools.lru_cache(maxsize=None)
def repo_unnamed_definitions():
    return unnamed_definitions(_repo_sources(), SRC)


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


def _is_frozen_dataclass(node):
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            func = decorator.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name == "dataclass" and any(
                k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
                for k in decorator.keywords
            ):
                return True
    return False


def setting_fields(tree):
    """``(qualname, line)`` for each field of a frozen top-level
    ``*Config``/``*Policy`` dataclass in ``tree``."""
    found = []
    for node in tree.body:
        if (
            isinstance(node, ast.ClassDef)
            and node.name.endswith(("Config", "Policy"))
            and _is_frozen_dataclass(node)
        ):
            found += [
                (f"{node.name}.{item.target.id}", item.lineno)
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
    return found


def unset_fields(sources, src):
    """``{"<path under src>::<Class>.<field>": line}`` for each such field
    in a module under ``src`` that nothing in ``sources`` passes as a
    keyword argument."""
    keywords = set()
    fields = []
    for path, text in sources.items():
        tree = ast.parse(text)
        keywords.update(node.arg for node in ast.walk(tree) if isinstance(node, ast.keyword))
        if path.is_relative_to(src):
            fields += [(path, qualname, line) for qualname, line in setting_fields(tree)]
    return {
        f"{path.relative_to(src).as_posix()}::{qualname}": line
        for path, qualname, line in fields
        if qualname.rsplit(".", 1)[1] not in keywords
    }


@functools.lru_cache(maxsize=None)
def repo_unset_fields():
    return unset_fields(_repo_sources(), SRC)


def test_every_setting_is_set_outside_tests():
    assert sorted(set(repo_unset_fields()) - set(KEPT_FIELDS)) == []


def test_every_kept_field_still_exists_and_is_still_unset():
    assert sorted(set(KEPT_FIELDS) - set(repo_unset_fields())) == []
    assert all(KEPT_FIELDS.values())


def test_what_counts_as_setting_a_field():
    src = Path("src/pkg")
    sources = {
        src / "mod.py": (
            "import dataclasses\n"
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class RunConfig:\n"
            "    by_call: int = 1\n"
            "    by_replace: int = 2\n"
            "    by_other_call: int = 3\n"
            "    unset: int = 4\n"
            "    def bump(self):\n"
            "        return self.unset + 1\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class RetryPolicy:\n"
            "    attempts: int = 1\n"
            "@dataclass\n"
            "class MutableConfig:\n"
            "    unset: int = 0\n"
            "@dataclass(frozen=True)\n"
            "class Record:\n"
            "    unset: int = 0\n"
        ),
        Path("benchmarks/bench.py"): (
            "RunConfig(by_call=1)\n"
            "config.replace(by_replace=2)\n"
            "run(by_other_call=3)\n"
            "RetryPolicy(**{'attempts': 2})\n"
            "print(RunConfig().unset)\n"
        ),
    }
    assert sorted(unset_fields(sources, src)) == [
        "mod.py::RetryPolicy.attempts",
        "mod.py::RunConfig.unset",
    ]


if __name__ == "__main__":
    table = repo_unnamed_definitions()
    for key, lines in sorted(table.items()):
        print(f"{lines:4d}  {key}{'  (kept)' if key in KEPT else ''}")
    print(f"{len(table)} definitions, {sum(table.values())} lines")
    fields = repo_unset_fields()
    for key, line in sorted(fields.items()):
        print(f"{line:4d}  {key}{'  (kept)' if key in KEPT_FIELDS else ''}")
    print(f"{len(fields)} fields nothing outside tests/ sets")
