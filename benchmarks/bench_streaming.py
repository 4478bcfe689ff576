"""Streaming-store benchmark: million-participant campaigns in bounded RSS.

Two phases prove the `sharded-streaming` store mode (ISSUE 9):

* **bounded_rss** — a 1 000 000-simulated-participant campaign runs end to
  end (prepare → per-participant upload through the core server → streaming
  conclude) inside an isolated subprocess, with the response firehose
  spilled to per-shard on-disk WALs. The child reports its own
  ``ru_maxrss``; the phase asserts a peak-RSS ceiling and that the
  streaming aggregator's sufficient-statistics size is O(pairs) — the cell
  count at 1M participants must equal the cell count of a tiny run.
* **crosscheck** — a 10 000-participant campaign concludes byte-identically
  on the in-memory store and the sharded streaming store, across the
  serial and process executors and a process crash-resume run (checkpoint
  after half the chunks, resume on a fresh campaign). Every campaign
  concludes from the upload-time fold, so the reference is computed
  independently: the whole-batch ``QualityControl.apply``,
  ``analyze_responses`` and ``counts_from_results`` over the memory run's
  ``raw_results``. Identity
  covers the conclusion, quality keeps/drops, raw + controlled tallies,
  ranking matrices, and the Bradley-Terry fit.

Results land in ``BENCH_streaming.json`` at the repo root.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_streaming.py \
        [--smoke] [--assert-bounded-rss] [--assert-crosscheck] \
        [--participants N] [--crosscheck-participants N] [--output PATH]

or as a pytest smoke check (small scales)::

    PYTHONPATH=src python -m pytest benchmarks/bench_streaming.py -q
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.core.analysis import analyze_responses
from repro.core.btmodel import counts_from_results, fit_bradley_terry
from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.core.quality import QualityControl
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.crowd.workers import FIGURE_EIGHT_TRUSTWORTHY_MIX, generate_population
from repro.html.parser import parse_html
from repro.util.executors import available_cpus, chunk_indices

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_streaming.json"

SEED = 2027
SHARDS = 4
PAGES = ("a", "b")
UTILITIES = {"a": 0.0, "b": 0.6, "__contrast__": -5.0}

DEFAULT_RSS_PARTICIPANTS = 1_000_000
SMOKE_RSS_PARTICIPANTS = 20_000
DEFAULT_CROSSCHECK_PARTICIPANTS = 10_000
SMOKE_CROSSCHECK_PARTICIPANTS = 1_000

#: The bounded-memory claim: a million participants, all executors' worth
#: of responses on disk, and the Python process never exceeds this.
RSS_CEILING_MB = 800

ROSTER_CHUNK = 5_000


def build_documents():
    return {
        page: parse_html(
            f"<html><body><div id='m'><p>{page} content text</p></div>"
            "</body></html>"
        )
        for page in PAGES
    }


def build_parameters(participants: int) -> TestParameters:
    return TestParameters(
        test_id="streaming-bench",
        test_description="streaming store benchmark",
        participant_num=participants,
        question=[Question("q1", "Which looks better?")],
        webpages=[
            WebpageSpec(web_path=page, web_page_load=1000) for page in PAGES
        ],
    )


def build_judge():
    return make_utility_judge(UTILITIES, ThurstoneChoiceModel())


class SyntheticRoster(Sequence):
    """A million-worker roster that never exists in memory at once.

    Profiles are generated deterministically in fixed chunks (one cached
    chunk at a time), so the sequential fan-out can iterate a 1M roster
    while the roster itself stays O(chunk). Worker ids embed the chunk
    index, keeping them unique across chunks.
    """

    def __init__(self, count: int, chunk: int = ROSTER_CHUNK, seed: int = SEED):
        self._count = count
        self._chunk = chunk
        self._seed = seed
        self._cached_index: Optional[int] = None
        self._cached: List = []

    def _chunk_for(self, index: int) -> List:
        if self._cached_index != index:
            start = index * self._chunk
            size = min(self._chunk, self._count - start)
            self._cached = generate_population(
                size,
                FIGURE_EIGHT_TRUSTWORTHY_MIX,
                seed=self._seed + index,
                id_prefix=f"b{index:05d}-",
            )
            self._cached_index = index
        return self._cached

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int):
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(index)
        return self._chunk_for(index // self._chunk)[index % self._chunk]

    def __iter__(self):
        for chunk_index in range((self._count + self._chunk - 1) // self._chunk):
            yield from self._chunk_for(chunk_index)


# -- phase 1: bounded-RSS streaming run (isolated child process) -------------


def run_rss_child(participants: int, shards: int, directory: str) -> dict:
    """The measured run: executes in its own process so ``ru_maxrss``
    reflects exactly this campaign."""
    campaign = Campaign(
        config=CampaignConfig(
            seed=SEED,
            store="sharded-streaming",
            store_shards=shards,
            store_directory=directory,
        )
    )
    campaign.prepare(build_parameters(participants), build_documents())
    roster = SyntheticRoster(participants)
    start = time.perf_counter()
    result = campaign.run_with_workers(roster, build_judge())
    wall = time.perf_counter() - start
    state = campaign._streaming_state
    stats = campaign.database.stats()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "participants": participants,
        "uploaded": campaign.last_streaming.uploaded,
        "kept": result.quality_report.kept_count,
        "dropped": len(result.quality_report.dropped),
        "aggregator_cells": state.raw.cell_count(),
        "peak_rss_mb": round(peak_mb, 1),
        "wal_records": stats["wal_records"],
        "wal_bytes": stats["wal_bytes"],
        "snapshots": stats["snapshots"],
        "compactions": stats["compactions"],
        "spilled_documents": stats["spilled_documents"],
        "wall_seconds": round(wall, 2),
        "participants_per_second": round(participants / wall, 1) if wall else None,
    }


def reference_cell_count() -> int:
    """Aggregator cells for a tiny run of the same test — the O(pairs)
    yardstick the 1M run must not exceed."""
    campaign = Campaign(
        config=CampaignConfig(seed=SEED, store="sharded-streaming")
    )
    campaign.prepare(build_parameters(16), build_documents())
    campaign.run_with_workers(
        generate_population(16, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=SEED),
        build_judge(),
    )
    return campaign._streaming_state.raw.cell_count()


def run_rss_phase(participants: int, shards: int, ceiling_mb: float) -> dict:
    small_cells = reference_cell_count()
    with tempfile.TemporaryDirectory(prefix="bench-streaming-") as tmp:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        completed = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--rss-child",
                str(participants),
                "--shards",
                str(shards),
                "--directory",
                tmp,
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"rss child failed:\n{completed.stderr[-4000:]}"
            )
        child = json.loads(completed.stdout.strip().splitlines()[-1])
    child.update(
        {
            "store": "sharded-streaming (disk WAL, responses spilled)",
            "ceiling_mb": ceiling_mb,
            "within_ceiling": child["peak_rss_mb"] <= ceiling_mb,
            "reference_cells_small_run": small_cells,
            "cells_o_pairs": child["aggregator_cells"] == small_cells,
        }
    )
    return child


# -- phase 2: batch reference vs both stores ---------------------------------


def conclusion_digest(
    conclusion, report, raw_analysis, controlled_analysis, bt, question_ids
) -> str:
    """SHA-256 over everything the acceptance criterion names: conclusion,
    quality keeps/drops, per-pair stats, rankings, and the BT fit."""
    payload = {
        "conclusion": conclusion.to_dict(),
        "kept": report.kept_ids,
        "dropped": [(d.worker_id, d.reason, d.detail) for d in report.dropped],
        "raw_tallies": sorted(
            (list(key), (t.left_count, t.right_count, t.same_count))
            for key, t in raw_analysis.tallies.items()
        ),
        "controlled_tallies": sorted(
            (list(key), (t.left_count, t.right_count, t.same_count))
            for key, t in controlled_analysis.tallies.items()
        ),
        "rankings": {
            q: controlled_analysis.rankings[q].matrix for q in question_ids
        },
        "bt": {
            q: {
                "wins": sorted(
                    (list(pair), wins) for pair, wins in bt[q].wins.items()
                ),
                "scores": fit_bradley_terry(bt[q]).scores,
            }
            for q in question_ids
        },
    }
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _question_ids(campaign: Campaign) -> List[str]:
    return [q.question_id for q in campaign.prepared.parameters.question]


def campaign_digest(campaign: Campaign, result) -> str:
    """The digest of what a campaign concluded from its upload-time fold."""
    return conclusion_digest(
        result.conclusion, result.quality_report, result.raw_analysis,
        result.controlled_analysis, campaign.last_streaming.controlled_bt,
        _question_ids(campaign),
    )


def reference_digest(campaign: Campaign, result) -> str:
    """The digest of the whole-batch pipeline over ``result.raw_results``
    (the fold is not consulted, except for the conclusion record)."""
    prepared = campaign.prepared
    question_ids = _question_ids(campaign)
    version_ids = [v for v in prepared.version_ids if v != "__contrast__"]
    raw = result.raw_results
    expected = (len(prepared.comparison_pairs()) + 1) * len(question_ids)
    report = QualityControl(campaign.config.quality).apply(raw, expected)
    bt = {q: counts_from_results(report.kept, q, version_ids) for q in question_ids}
    return conclusion_digest(
        result.conclusion, report,
        analyze_responses(raw, question_ids, version_ids),
        analyze_responses(report.kept, question_ids, version_ids),
        bt, question_ids,
    )


class _Crash(Exception):
    pass


def _crosscheck_campaign(store: str, participants: int, executor: str,
                         parallelism: int, shards: int) -> Campaign:
    campaign = Campaign(
        config=CampaignConfig(
            seed=SEED + 1,
            store=store,
            store_shards=shards,
            executor=executor,
            parallelism=parallelism,
        )
    )
    campaign.prepare(build_parameters(participants), build_documents())
    return campaign


def run_crosscheck_phase(
    participants: int,
    shards: int,
    executors: Sequence[str] = ("serial", "process"),
    parallelism: int = 4,
) -> dict:
    roster = generate_population(
        participants, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=SEED + 1
    )
    judge = build_judge()

    memory = _crosscheck_campaign("memory", participants, "serial", parallelism, shards)
    memory_result = memory.run_with_workers(roster, judge)

    digests = {
        "batch-reference": reference_digest(memory, memory_result),
        "memory/serial": campaign_digest(memory, memory_result),
    }
    kept = memory_result.quality_report.kept_count
    for executor in executors:
        campaign = _crosscheck_campaign(
            "sharded-streaming", participants, executor, parallelism, shards
        )
        result = campaign.run_with_workers(roster, judge)
        digests[f"streaming/{executor}"] = campaign_digest(campaign, result)

    # Crash-resume: die at the process fan-out's halfway checkpoint (one
    # per merged chunk), then resume a fresh campaign from the serialized
    # checkpoint.
    chunks = chunk_indices(range(participants), parallelism)
    crash_at = max(1, len(chunks) // 2)
    crashed = _crosscheck_campaign(
        "sharded-streaming", participants, "process", parallelism, shards
    )
    seen = [0]

    def hook(_campaign):
        seen[0] += 1
        if seen[0] == crash_at:
            raise _Crash()

    crashed.checkpoint_hook = hook
    try:
        crashed.run_with_workers(roster, judge)
    except _Crash:
        pass
    checkpoint = crashed.resume_state()
    resumed = _crosscheck_campaign(
        "sharded-streaming", participants, "process", parallelism, shards
    )
    resumed_result = resumed.run_with_workers(
        roster, judge, resume_from=checkpoint
    )
    digests["streaming/process+crash-resume"] = campaign_digest(
        resumed, resumed_result
    )

    return {
        "participants": participants,
        "parallelism": parallelism,
        "kept": kept,
        "reference": (
            "batch-reference (QualityControl.apply + analyze_responses + "
            "counts_from_results over the serial memory run's raw_results)"
        ),
        "digest_covers": [
            "conclusion",
            "quality kept/dropped (ids, reasons, details, order)",
            "raw + controlled tallies",
            "ranking matrices",
            "bradley-terry wins + fit",
        ],
        "digests": digests,
        "crash_resume_checkpoint": crash_at,
        "identical": len(set(digests.values())) == 1,
    }


# -- report ------------------------------------------------------------------


def run_streaming_benchmark(
    rss_participants: int = DEFAULT_RSS_PARTICIPANTS,
    crosscheck_participants: int = DEFAULT_CROSSCHECK_PARTICIPANTS,
    shards: int = SHARDS,
    ceiling_mb: float = RSS_CEILING_MB,
    executors: Sequence[str] = ("serial", "process"),
) -> dict:
    crosscheck = run_crosscheck_phase(
        crosscheck_participants, shards, executors=executors
    )
    bounded = run_rss_phase(rss_participants, shards, ceiling_mb)
    return {
        "benchmark": "streaming_store",
        "config": {
            "seed": SEED,
            "shards": shards,
            "pages": list(PAGES),
            "comparison_pairs": 1,
            "questions": 1,
            "roster_chunk": ROSTER_CHUNK,
            "cpu_count": available_cpus(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "bounded_rss": bounded,
        "crosscheck": crosscheck,
        "acceptance": {
            "rss_target": (
                f"{rss_participants} participants conclude with peak RSS "
                f"<= {ceiling_mb} MB and O(pairs) aggregator cells"
            ),
            "rss_met": bounded["within_ceiling"] and bounded["cells_o_pairs"],
            "crosscheck_target": (
                f"{crosscheck_participants}-participant conclusion "
                "byte-identical: batch reference vs memory/serial and streaming x "
                f"{'/'.join(executors)} + crash-resume"
            ),
            "crosscheck_met": crosscheck["identical"],
        },
    }


def write_report(report: dict, output: Path = DEFAULT_OUTPUT) -> Path:
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return output


# -- pytest smoke check ------------------------------------------------------


def test_streaming_smoke(report_writer):
    """Small scales: identity holds, the RSS child stays bounded."""
    report = run_streaming_benchmark(
        rss_participants=4_000,
        crosscheck_participants=240,
        executors=("serial",),
    )
    assert report["crosscheck"]["identical"]
    assert report["bounded_rss"]["within_ceiling"]
    assert report["bounded_rss"]["cells_o_pairs"]
    assert report["bounded_rss"]["uploaded"] == 4_000
    report_writer("streaming_smoke", json.dumps(report, indent=2))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"CI profile: {SMOKE_RSS_PARTICIPANTS} RSS participants, "
        f"{SMOKE_CROSSCHECK_PARTICIPANTS} cross-check participants",
    )
    parser.add_argument(
        "--participants", type=int, default=None,
        help=f"bounded-RSS scale (default {DEFAULT_RSS_PARTICIPANTS})",
    )
    parser.add_argument(
        "--crosscheck-participants", type=int, default=None,
        help="batch-reference identity scale "
        f"(default {DEFAULT_CROSSCHECK_PARTICIPANTS})",
    )
    parser.add_argument("--shards", type=int, default=SHARDS)
    parser.add_argument(
        "--rss-ceiling-mb", type=float, default=RSS_CEILING_MB
    )
    parser.add_argument(
        "--assert-bounded-rss", action="store_true",
        help="exit nonzero unless peak RSS stays under the ceiling and the "
        "aggregator is O(pairs)",
    )
    parser.add_argument(
        "--assert-crosscheck", action="store_true",
        help="exit nonzero unless every campaign's conclusion digest equals "
        "the batch reference",
    )
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--rss-child", type=int, default=None, help=argparse.SUPPRESS
    )
    parser.add_argument("--directory", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.rss_child is not None:
        print(json.dumps(run_rss_child(args.rss_child, args.shards, args.directory)))
        return 0

    rss_participants = args.participants or (
        SMOKE_RSS_PARTICIPANTS if args.smoke else DEFAULT_RSS_PARTICIPANTS
    )
    crosscheck_participants = args.crosscheck_participants or (
        SMOKE_CROSSCHECK_PARTICIPANTS
        if args.smoke
        else DEFAULT_CROSSCHECK_PARTICIPANTS
    )

    report = run_streaming_benchmark(
        rss_participants=rss_participants,
        crosscheck_participants=crosscheck_participants,
        shards=args.shards,
        ceiling_mb=args.rss_ceiling_mb,
    )
    path = write_report(report, args.output)
    print(json.dumps(report, indent=2))
    print(f"\nreport written to {path}")

    failed = False
    if args.assert_bounded_rss:
        bounded = report["bounded_rss"]
        if not bounded["within_ceiling"]:
            print(
                f"ERROR: peak RSS {bounded['peak_rss_mb']} MB exceeds the "
                f"{bounded['ceiling_mb']} MB ceiling"
            )
            failed = True
        if not bounded["cells_o_pairs"]:
            print(
                f"ERROR: aggregator grew to {bounded['aggregator_cells']} "
                f"cells vs {bounded['reference_cells_small_run']} on a "
                "small run — not O(pairs)"
            )
            failed = True
        if not failed:
            print(
                f"bounded-RSS gate passed: {bounded['peak_rss_mb']} MB peak "
                f"at {bounded['participants']} participants "
                f"({bounded['aggregator_cells']} aggregator cells)"
            )
    if args.assert_crosscheck:
        crosscheck = report["crosscheck"]
        if not crosscheck["identical"]:
            print("ERROR: conclusion digests diverged:")
            for name, digest in crosscheck["digests"].items():
                print(f"  {name}: {digest}")
            failed = True
        else:
            print(
                "cross-check gate passed: "
                f"{len(crosscheck['digests'])} digests identical at "
                f"{crosscheck['participants']} participants"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
