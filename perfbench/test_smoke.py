"""Smoke profile: a tiny pass of every workload, untraced and traced.

Each pass must conclude correctly (digests equal across repetitions,
accounting invariants and workload checks hold) and print every metric
``BENCHMARK.json`` names, with its unit. Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--scale", "smoke",
        ],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric(workload, trace, section):
    completed = run_benchmark(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    assert any(line.startswith(f"digest {workload} ") for line in lines)
    report = json.loads(lines[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True
    assert report["attempted"] >= 1 and report["failed"] == 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    emitted = {name: metric["unit"] for name, metric in report["metrics"].items()}
    assert emitted == expected
    for metric in report["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    """A checkout holding only the benchmark fails fast and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    completed = run_benchmark(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
