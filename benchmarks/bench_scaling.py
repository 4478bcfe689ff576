"""Scaling-curve benchmark: wall-clock vs worker count, serial vs process.

The deterministic fan-out makes participant simulation embarrassingly
parallel; what limits it in-process is the GIL. This benchmark measures the
same §IV-A font-size campaign (5 versions, C(5,2)=10 pairs) across the
executor grid:

* **executors** — ``serial`` (the inline fan-out loop) and ``process``
  (chunked ``ProcessPoolExecutor`` per :mod:`repro.core.fanout`). A thread
  pool was measured here too and never beat serial (0.73–1.12x in every
  cell of the committed ``BENCH_scaling.json``), so it was deleted;
* **worker counts** — 1 / 2 / 4 / 8 by default;
* **participant scales** — 100 / 1 000 (and 10 000 with ``--full``);
* **scenarios** — ``cached`` (shared artifact cache on: the fast path,
  mostly simulated-I/O bookkeeping) and ``cold_render`` (cache off: every
  visit re-parses and re-lays-out the page — the pure-Python compute
  regime the process pool exists for).

Every cell runs the identical seeded campaign, so before timing anything
the benchmark proves the executor contract: serial and process runs
conclude **bit-identically** at the smallest scale of each scenario.

Wall-clock numbers are only meaningful together with the machine's core
count, so the report's ``config`` block records ``cpu_count``, the executor
grid and the chunking policy. The acceptance target (process ≥ 2.5x serial
at 4 workers, 1 000 participants, cold render) is evaluated only when the
machine actually has ≥ 4 CPUs — on smaller machines it is recorded as not
evaluable rather than silently skipped.

Results land in ``BENCH_scaling.json`` at the repo root.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_scaling.py \
        [--smoke] [--full] [--assert-speedup] [--output BENCH_scaling.json]

or as a pytest smoke check (tiny campaign)::

    PYTHONPATH=src python -m pytest benchmarks/bench_scaling.py -q
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.core.campaign import Campaign
from repro.core.conclusion import conclusion_digest
from repro.core.config import CampaignConfig
from repro.experiments.fontsize import (
    MAIN_TEXT_SELECTOR,
    QUESTION,
    REWARD_USD,
    FontSizeExperiment,
    build_font_variants,
    build_parameters,
    wikipedia_resources_for,
)
from repro.util.executors import available_cpus, resolve_chunk_size

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_scaling.json"

SEED = 2019
DEFAULT_WORKERS = (1, 2, 4, 8)
DEFAULT_SCALES = (100, 1000)
FULL_SCALES = (100, 1000, 10000)

#: The ISSUE's acceptance target, and the CI smoke gate.
TARGET_SPEEDUP = 2.5
TARGET_WORKERS = 4
TARGET_SCALE = 1000
SMOKE_GATE_SPEEDUP = 1.2
SMOKE_GATE_WORKERS = 2

SCENARIOS = {
    "cached": {
        "artifact_cache": True,
        "description": (
            "shared artifact cache prebuilt once; per-participant work is "
            "download accounting + judgment (the production fast path)"
        ),
    },
    "cold_render": {
        "artifact_cache": False,
        "description": (
            "artifact cache disabled: every page visit re-parses, "
            "re-cascades and re-lays-out — the GIL-bound compute regime "
            "the process executor targets"
        ),
    },
}


def _fresh_campaign(participants: int, cached: bool, executor: str, workers: int):
    experiment = FontSizeExperiment(seed=SEED)
    campaign = Campaign(
        config=CampaignConfig(
            seed=experiment.seeds.seed("crowd-campaign"),
            reward_usd=REWARD_USD,
            artifact_cache=cached,
            executor=executor,
            parallelism=workers,
        )
    )
    documents = build_font_variants()
    campaign.prepare(
        build_parameters(participants),
        documents,
        fetcher=wikipedia_resources_for(documents.keys()),
        main_text_selector=MAIN_TEXT_SELECTOR,
        instructions=QUESTION.text,
    )
    return campaign, experiment.make_personal_judge()


def _run_cell(participants: int, cached: bool, executor: str, workers: int):
    """(campaign, result, wall_seconds) for one grid cell — a fresh
    campaign each time."""
    campaign, judge = _fresh_campaign(participants, cached, executor, workers)
    start = time.perf_counter()
    result = campaign.run(judge)
    elapsed = time.perf_counter() - start
    return campaign, result, elapsed


def check_determinism(participants: int, cached: bool, workers: int) -> bool:
    """Serial vs process(workers): identical conclusions."""
    serial, serial_result, _ = _run_cell(participants, cached, "serial", 1)
    pooled, pooled_result, _ = _run_cell(participants, cached, "process", workers)
    return conclusion_digest(pooled, pooled_result) == conclusion_digest(
        serial, serial_result
    )


def run_scaling_benchmark(
    scales: Sequence[int] = DEFAULT_SCALES,
    workers: Sequence[int] = DEFAULT_WORKERS,
    scenarios: Sequence[str] = tuple(SCENARIOS),
    determinism_scale: Optional[int] = None,
) -> dict:
    """The full grid: {scenario -> scale -> executor -> workers -> seconds}."""
    cpu_count = available_cpus()
    report_scenarios = {}
    determinism = {}
    for name in scenarios:
        cached = SCENARIOS[name]["artifact_cache"]
        check_scale = determinism_scale or min(scales)
        determinism[name] = check_determinism(
            min(check_scale, min(scales)), cached, max(workers)
        )
        by_scale = {}
        for participants in scales:
            _, serial_result, serial_s = _run_cell(
                participants, cached, "serial", 1
            )
            cell = {
                "serial_seconds": round(serial_s, 4),
                "participants_uploaded": len(serial_result.raw_results),
                "process": {},
                "speedup_vs_serial": {"process": {}},
            }
            for count in workers:
                _, _, elapsed = _run_cell(
                    participants, cached, "process", count
                )
                cell["process"][str(count)] = round(elapsed, 4)
                cell["speedup_vs_serial"]["process"][str(count)] = (
                    round(serial_s / elapsed, 2) if elapsed else None
                )
            by_scale[str(participants)] = cell
        report_scenarios[name] = {
            "description": SCENARIOS[name]["description"],
            "by_participants": by_scale,
        }

    acceptance = _evaluate_acceptance(report_scenarios, cpu_count, workers)
    return {
        "benchmark": "participant_fanout_scaling",
        "config": {
            "versions": 5,
            "comparison_pairs": 10,
            "seed": SEED,
            "participant_scales": list(scales),
            "worker_counts": list(workers),
            "executor_modes": ["serial", "process"],
            "cpu_count": cpu_count,
            "chunk_size_policy": "pending / (workers * 4), floor 1",
            "chunk_size_at_target": resolve_chunk_size(
                TARGET_SCALE, TARGET_WORKERS
            ),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "determinism": {
            "contract": (
                "serial and process runs of the same seed conclude "
                "to the same conclusion_digest"
            ),
            "verified": determinism,
        },
        "scenarios": report_scenarios,
        "acceptance": acceptance,
    }


def _evaluate_acceptance(scenarios: dict, cpu_count: int, workers) -> dict:
    """The ISSUE target, honestly gated on the machine's core count."""
    target = (
        f"process({TARGET_WORKERS}) >= {TARGET_SPEEDUP}x serial at "
        f"{TARGET_SCALE} participants (cold_render)"
    )
    cell = (
        scenarios.get("cold_render", {})
        .get("by_participants", {})
        .get(str(TARGET_SCALE))
    )
    speedup = None
    if cell is not None:
        speedup = cell["speedup_vs_serial"]["process"].get(str(TARGET_WORKERS))
    if cpu_count < TARGET_WORKERS:
        return {
            "target": target,
            "evaluated": False,
            "met": None,
            "measured_speedup": speedup,
            "reason": (
                f"machine has {cpu_count} CPU(s); a {TARGET_WORKERS}-worker "
                "speedup target is not evaluable here — rerun on a "
                f">= {TARGET_WORKERS}-core machine"
            ),
        }
    if speedup is None:
        return {
            "target": target,
            "evaluated": False,
            "met": None,
            "measured_speedup": None,
            "reason": (
                f"grid did not include {TARGET_SCALE} participants at "
                f"{TARGET_WORKERS} workers (run without --smoke)"
            ),
        }
    return {
        "target": target,
        "evaluated": True,
        "met": speedup >= TARGET_SPEEDUP,
        "measured_speedup": speedup,
        "reason": None,
    }


def write_report(report: dict, output: Path = DEFAULT_OUTPUT) -> Path:
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return output


# -- pytest smoke check ------------------------------------------------------


def test_scaling_smoke(report_writer):
    """Tiny grid: executors agree bit-for-bit; the report has its env block."""
    report = run_scaling_benchmark(
        scales=(12,), workers=(1, 2), scenarios=("cold_render",)
    )
    assert report["determinism"]["verified"]["cold_render"]
    config = report["config"]
    assert config["cpu_count"] >= 1
    assert config["executor_modes"] == ["serial", "process"]
    cell = report["scenarios"]["cold_render"]["by_participants"]["12"]
    assert cell["participants_uploaded"] == 12
    assert cell["process"]["2"] > 0
    report_writer("scaling_smoke", json.dumps(report, indent=2))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI profile: 100 participants, workers 1 and 2 only",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="add the 10000-participant tier to the grid",
    )
    parser.add_argument(
        "--participants", type=int, nargs="+", default=None,
        help="participant scales to run (overrides --smoke/--full presets)",
    )
    parser.add_argument(
        "--workers", type=int, nargs="+", default=None,
        help="worker counts to run (default: 1 2 4 8)",
    )
    parser.add_argument(
        "--scenarios", nargs="+", choices=sorted(SCENARIOS), default=None,
        help="scenarios to run (default: all)",
    )
    parser.add_argument(
        "--assert-speedup", action="store_true",
        help="exit nonzero unless process(2) beats serial by "
        f">= {SMOKE_GATE_SPEEDUP}x on cold_render (skipped below 2 CPUs)",
    )
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    if args.participants is not None:
        scales = tuple(args.participants)
    elif args.smoke:
        scales = (100,)
    elif args.full:
        scales = FULL_SCALES
    else:
        scales = DEFAULT_SCALES
    if args.workers is not None:
        workers = tuple(args.workers)
    elif args.smoke:
        workers = (1, 2)
    else:
        workers = DEFAULT_WORKERS
    scenarios = tuple(args.scenarios) if args.scenarios else tuple(SCENARIOS)

    report = run_scaling_benchmark(
        scales=scales, workers=workers, scenarios=scenarios
    )
    path = write_report(report, args.output)
    print(json.dumps(report, indent=2))
    print(f"\nreport written to {path}")

    for name, ok in report["determinism"]["verified"].items():
        if not ok:
            print(f"ERROR: {name}: executors diverged from the serial run")
            return 1
    if args.assert_speedup:
        cpu_count = report["config"]["cpu_count"]
        if cpu_count < 2:
            print(
                f"speedup gate skipped: {cpu_count} CPU available, "
                "parallel speedup is not measurable"
            )
            return 0
        largest = str(max(scales))
        cell = (
            report["scenarios"].get("cold_render", {})
            .get("by_participants", {})
            .get(largest)
        )
        if cell is None:
            print("ERROR: speedup gate needs the cold_render scenario")
            return 1
        speedup = cell["speedup_vs_serial"]["process"].get(
            str(SMOKE_GATE_WORKERS)
        )
        if speedup is None:
            print(
                f"ERROR: speedup gate needs workers={SMOKE_GATE_WORKERS} "
                "in the grid"
            )
            return 1
        if speedup < SMOKE_GATE_SPEEDUP:
            print(
                f"ERROR: process({SMOKE_GATE_WORKERS}) speedup {speedup}x "
                f"< {SMOKE_GATE_SPEEDUP}x over serial at {largest} participants"
            )
            return 1
        print(
            f"speedup gate passed: process({SMOKE_GATE_WORKERS}) = "
            f"{speedup}x serial at {largest} participants"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
