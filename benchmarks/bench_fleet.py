"""Fleet control-plane benchmark: durability, recovery, and worker scaling.

The fleet (ISSUE "Fleet control plane") turns the single-campaign engine
into a multi-campaign service: a durable at-least-once :class:`JobQueue`
with leases on the virtual clock, checkpointing workers, dead-lettering,
and journal-based recovery. This benchmark drives it at fleet scale —
100+ tiny seeded campaigns, a handful of deliberately poisoned ones, and
seeded worker chaos — and reports:

* **correctness** — every chaos-crashed job is redelivered, resumes from
  its journaled checkpoint, and concludes **bit-identically** to an
  uncrashed reference run of the same submission; dead-lettered jobs are
  exactly the poisoned ones, each carrying a full failure chain; no job
  is ever lost (completed + dead == submitted);
* **recovery** — a control plane killed mid-drain is rebuilt from the
  journal alone and finishes the fleet with zero lost jobs;
* **throughput** — virtual makespan and jobs-per-virtual-hour across
  1/2/4/8 workers (fresh manager and store per cell), plus the crash /
  redelivery / lease-expiry counts behind each number;
* **determinism** — the per-run result payloads are identical between the
  1-worker and the widest fleet.

Results land in ``BENCH_fleet.json`` at the repo root.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_fleet.py \
        [--smoke] [--assert-recovery] [--output BENCH_fleet.json]

or as a pytest smoke check (tiny fleet)::

    PYTHONPATH=src python -m pytest benchmarks/bench_fleet.py -q
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.fleet import CampaignManager, CampaignSubmission, FleetStore, WorkerChaos

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_fleet.json"

SEED = 2019
VERSIONS = ("a", "b")
PARTICIPANTS = 4
DEFAULT_CAMPAIGNS = 120
DEFAULT_POISON = 5
DEFAULT_WORKERS = (1, 2, 4, 8)
SMOKE_CAMPAIGNS = 24
SMOKE_POISON = 2
SMOKE_WORKERS = (1, 2)

KILL_RATE = 0.25
CHAOS_SEED = 77
MAX_DELIVERIES = 3
VISIBILITY_TIMEOUT = 120.0
BACKOFF_BASE = 5.0

#: How many crashed jobs get a full uncrashed reference re-run in the
#: correctness pass (each reference doubles that job's cost).
REFERENCE_SAMPLE = 12


class PoisonJudge:
    """Always raises — the deliberately-broken campaign for the DLQ path."""

    def __call__(self, *args, **kwargs):
        raise RuntimeError("poison campaign: judge rejects every stimulus")


def make_submission(seed: int, poison: bool = False) -> CampaignSubmission:
    params = TestParameters(
        test_id="fleet-bench",
        test_description="fleet benchmark campaign",
        participant_num=PARTICIPANTS,
        question=[Question("q1", "Which looks better?")],
        webpages=[WebpageSpec(web_path=p, web_page_load=1000) for p in VERSIONS],
    )
    documents = {
        p: f"<html><body><div><p>{p} stimulus body text</p></div></body></html>"
        for p in VERSIONS
    }
    judge = (
        PoisonJudge()
        if poison
        else make_utility_judge(
            {"a": 0.0, "b": 0.5, "__contrast__": -5.0}, ThurstoneChoiceModel()
        )
    )
    return CampaignSubmission(
        parameters=params,
        documents=documents,
        judge=judge,
        config=CampaignConfig(seed=seed),
        population_seed=seed,
    )


def build_fleet(campaigns: int, poison: int, store: Optional[FleetStore] = None):
    """A fresh manager with the standard bench queue/chaos settings, loaded
    with ``campaigns`` submissions of which the last ``poison`` are broken.
    Returns ``(manager, run_ids, poison_run_ids)``."""
    manager = CampaignManager(
        store=store,
        visibility_timeout=VISIBILITY_TIMEOUT,
        max_deliveries=MAX_DELIVERIES,
        backoff_base_seconds=BACKOFF_BASE,
        chaos=WorkerChaos(seed=CHAOS_SEED, kill_rate=KILL_RATE, max_kills_per_job=1),
    )
    run_ids, poison_ids = [], []
    for i in range(campaigns):
        is_poison = i >= campaigns - poison
        run_id = manager.submit(make_submission(SEED + i, poison=is_poison))
        run_ids.append(run_id)
        if is_poison:
            poison_ids.append(run_id)
    return manager, run_ids, poison_ids


# -- correctness -------------------------------------------------------------


def run_correctness(campaigns: int, poison: int) -> dict:
    """One chaotic 2-worker drain, checked job by job."""
    manager, run_ids, poison_ids = build_fleet(campaigns, poison)
    report = manager.run_fleet(num_workers=2)

    no_jobs_lost = report.completed + report.dead == campaigns
    dead_matches_poison = sorted(report.dead_job_ids) == sorted(poison_ids)
    chains_full = all(
        len(manager.dead_letter(run_id)["failures"]) == MAX_DELIVERIES
        for run_id in report.dead_job_ids
    )

    crashed_ids = sorted(
        {o.job_id for o in report.outcomes if o.status == "crashed"}
    )
    resumed_and_completed = [r for r in crashed_ids if r not in poison_ids]
    sampled = resumed_and_completed[:REFERENCE_SAMPLE]
    index = {run_id: i for i, run_id in enumerate(run_ids)}
    resumed_match_reference = all(
        manager.result(run_id)
        == make_submission(SEED + index[run_id]).reference_run()
        for run_id in sampled
    )
    return {
        "campaigns": campaigns,
        "poison_campaigns": poison,
        "crashes": report.crashes,
        "redeliveries": report.redeliveries,
        "lease_expiries": report.lease_expiries,
        "no_jobs_lost": no_jobs_lost,
        "dead_letters_are_exactly_the_poison_jobs": dead_matches_poison,
        "dead_letter_failure_chains_full": chains_full,
        "crashed_then_completed_jobs": len(resumed_and_completed),
        "reference_checked_jobs": len(sampled),
        "resumed_results_match_uncrashed_references": resumed_match_reference,
        "ok": (
            no_jobs_lost
            and dead_matches_poison
            and chains_full
            and resumed_match_reference
            and report.crashes > 0  # chaos actually bit
        ),
    }


# -- control-plane recovery ---------------------------------------------------


def run_recovery_check(campaigns: int = 12, poison: int = 1) -> dict:
    """Kill the plane mid-drain (one job leased), rebuild from the journal,
    finish the fleet, and account for every job."""
    store = FleetStore()
    manager, run_ids, poison_ids = build_fleet(campaigns, poison, store=store)
    claimed = manager.queue.claim("doomed-worker", 0.0)
    revived = CampaignManager.recover(
        store,
        now=1.0,
        visibility_timeout=VISIBILITY_TIMEOUT,
        max_deliveries=MAX_DELIVERIES,
        backoff_base_seconds=BACKOFF_BASE,
        chaos=WorkerChaos(seed=CHAOS_SEED, kill_rate=KILL_RATE, max_kills_per_job=1),
    )
    resubmitted = sorted(revived.submissions) == sorted(run_ids)
    report = revived.run_fleet(num_workers=2)
    no_jobs_lost = report.completed + report.dead == campaigns
    interrupted_recovered = (
        claimed is not None and revived.result(claimed.job_id) is not None
    )
    return {
        "campaigns": campaigns,
        "interrupted_job": claimed.job_id if claimed else None,
        "submissions_rebuilt_from_journal": resubmitted,
        "no_jobs_lost": no_jobs_lost,
        "interrupted_job_recovered": interrupted_recovered,
        "dead_letters": report.dead,
        "ok": resubmitted and no_jobs_lost and interrupted_recovered,
    }


# -- throughput ---------------------------------------------------------------


def run_throughput(
    campaigns: int, poison: int, workers: Sequence[int]
) -> dict:
    """Makespan and jobs/virtual-hour per worker count (fresh fleet each)."""
    by_workers: Dict[str, dict] = {}
    payloads: Dict[int, Dict[str, Optional[dict]]] = {}
    for count in workers:
        manager, run_ids, _ = build_fleet(campaigns, poison)
        wall_start = time.perf_counter()
        report = manager.run_fleet(num_workers=count)
        wall = time.perf_counter() - wall_start
        by_workers[str(count)] = {
            "makespan_virtual_seconds": round(report.makespan_seconds, 3),
            "jobs_per_virtual_hour": round(report.jobs_per_virtual_hour, 3),
            "wall_seconds": round(wall, 4),
            "completed": report.completed,
            "dead": report.dead,
            "crashes": report.crashes,
            "redeliveries": report.redeliveries,
            "lease_expiries": report.lease_expiries,
        }
        if count in (min(workers), max(workers)):
            payloads[count] = {r: manager.result(r) for r in run_ids}
    single = by_workers[str(min(workers))]["makespan_virtual_seconds"]
    for cell in by_workers.values():
        makespan = cell["makespan_virtual_seconds"]
        cell["speedup_vs_one_worker"] = (
            round(single / makespan, 2) if makespan else None
        )
    deterministic = payloads[min(workers)] == payloads[max(workers)]
    return {
        "by_workers": by_workers,
        "results_identical_across_worker_counts": deterministic,
    }


# -- the report ---------------------------------------------------------------


def run_fleet_benchmark(
    campaigns: int = DEFAULT_CAMPAIGNS,
    poison: int = DEFAULT_POISON,
    workers: Sequence[int] = DEFAULT_WORKERS,
) -> dict:
    correctness = run_correctness(campaigns, poison)
    recovery = run_recovery_check()
    throughput = run_throughput(campaigns, poison, workers)
    return {
        "benchmark": "fleet_control_plane",
        "config": {
            "campaigns": campaigns,
            "poison_campaigns": poison,
            "participants_per_campaign": PARTICIPANTS,
            "versions": list(VERSIONS),
            "worker_counts": list(workers),
            "chaos": {
                "seed": CHAOS_SEED,
                "kill_rate": KILL_RATE,
                "max_kills_per_job": 1,
            },
            "queue": {
                "visibility_timeout_seconds": VISIBILITY_TIMEOUT,
                "max_deliveries": MAX_DELIVERIES,
                "backoff_base_seconds": BACKOFF_BASE,
            },
            "seed": SEED,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "correctness": correctness,
        "recovery": recovery,
        "throughput": throughput,
    }


def write_report(report: dict, output: Path = DEFAULT_OUTPUT) -> Path:
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return output


# -- pytest smoke check ------------------------------------------------------


def test_fleet_smoke(report_writer):
    """Tiny fleet: chaos bites, nothing is lost, resumes match references."""
    report = run_fleet_benchmark(
        campaigns=SMOKE_CAMPAIGNS, poison=SMOKE_POISON, workers=SMOKE_WORKERS
    )
    assert report["correctness"]["ok"]
    assert report["recovery"]["ok"]
    assert report["throughput"]["results_identical_across_worker_counts"]
    report_writer("fleet_smoke", json.dumps(report, indent=2))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"CI profile: {SMOKE_CAMPAIGNS} campaigns, workers 1 and 2 only",
    )
    parser.add_argument(
        "--campaigns", type=int, default=None,
        help=f"fleet size (default {DEFAULT_CAMPAIGNS})",
    )
    parser.add_argument(
        "--poison", type=int, default=None,
        help=f"how many campaigns are poisoned (default {DEFAULT_POISON})",
    )
    parser.add_argument(
        "--workers", type=int, nargs="+", default=None,
        help="worker counts to run (default: 1 2 4 8)",
    )
    parser.add_argument(
        "--assert-recovery", action="store_true",
        help="exit nonzero unless the crash-recovery and zero-lost-jobs "
        "checks all pass",
    )
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    campaigns = args.campaigns or (SMOKE_CAMPAIGNS if args.smoke else DEFAULT_CAMPAIGNS)
    poison = args.poison if args.poison is not None else (
        SMOKE_POISON if args.smoke else DEFAULT_POISON
    )
    workers = tuple(args.workers) if args.workers else (
        SMOKE_WORKERS if args.smoke else DEFAULT_WORKERS
    )

    report = run_fleet_benchmark(
        campaigns=campaigns, poison=poison, workers=workers
    )
    path = write_report(report, args.output)
    print(json.dumps(report, indent=2))
    print(f"\nreport written to {path}")

    if args.assert_recovery:
        failures = []
        if not report["correctness"]["ok"]:
            failures.append("correctness checks failed (see 'correctness')")
        if not report["recovery"]["ok"]:
            failures.append("journal recovery checks failed (see 'recovery')")
        if not report["throughput"]["results_identical_across_worker_counts"]:
            failures.append("results diverged across worker counts")
        for failure in failures:
            print(f"ERROR: {failure}")
        if failures:
            return 1
        print(
            "recovery gate passed: no lost jobs, dead letters == poison "
            "jobs, crashed jobs resumed to reference-identical conclusions"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
