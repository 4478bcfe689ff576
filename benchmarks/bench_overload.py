"""Overload control-plane benchmark: surviving a flash crowd.

The overload plane (ISSUE "Overload control plane") puts a deterministic
token-bucket rate limiter, a bounded admission queue, and a load-shedding
ladder in front of the core server, and teaches clients, retry policies and
the fleet queue to respect the server's pushback. This benchmark drives a
flash crowd — 80% of the roster arriving in a burst at several times the
server's sustainable request rate — against both a **protected** server
(admission control on) and an **unprotected** baseline (same queue, no
admission control), and reports:

* **survival** — the protected server reaches a (possibly degraded)
  conclusion: bounded virtual queue depth (never past ``queue_limit``),
  zero lost uploads, and real 429/shed activity proving the ladder bit;
* **collapse** — the unprotected baseline's queue grows without bound and
  its responses rot into timeout/retry storms (lost responses, burned
  client retry budgets);
* **determinism** — the protected run's conclusion, metric snapshot and
  traffic counters are **bit-identical** across the serial and process
  executors, and an overloaded fleet drains to identical per-run payloads
  at 1/2/4/8 workers.

Results land in ``BENCH_overload.json`` at the repo root.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_overload.py \
        [--smoke] [--assert-survival] [--output BENCH_overload.json]

or as a pytest smoke check (tiny crowd)::

    PYTHONPATH=src python -m pytest benchmarks/bench_overload.py -q
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.campaign import Campaign
from repro.core.conclusion import conclusion_digest
from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.fleet import CampaignManager, CampaignSubmission
from repro.html.parser import parse_html
from repro.net.faults import RetryPolicy
from repro.net.overload import OverloadConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_overload.json"

SEED = 2019
VERSIONS = ("a", "b")
DEFAULT_PARTICIPANTS = 32
SMOKE_PARTICIPANTS = 16
DEFAULT_FLEET_WORKERS = (1, 2, 4, 8)
SMOKE_FLEET_WORKERS = (1, 2)
FLEET_CAMPAIGNS = 6
SMOKE_FLEET_CAMPAIGNS = 3

#: Sized so the flash peak offers ~5x the protected server's sustainable
#: rate (the report records the exact ratio; the gate requires >= 4x).
CAPACITY_RPS = 0.45
BURST = 4.0
QUEUE_LIMIT = 16

#: Generous client budget: retries with Retry-After must be able to land
#: after the flash drains, not die mid-burst.
RETRY = RetryPolicy(
    max_attempts=10, backoff_base_seconds=1.0, retry_budget_seconds=1800.0
)


def overload_config(protected: bool, participants: int) -> OverloadConfig:
    return OverloadConfig(
        capacity_rps=CAPACITY_RPS,
        burst=BURST,
        queue_limit=QUEUE_LIMIT,
        protected=protected,
        seed=SEED,
    )


def make_campaign(protected: bool, participants: int,
                  executor: str = "serial", parallelism: int = 1) -> Campaign:
    config = CampaignConfig(
        seed=SEED,
        observe=True,
        arrival="flash",
        overload=overload_config(protected, participants),
        retry_policy=RETRY,
        executor=executor,
        parallelism=parallelism,
    )
    campaign = Campaign(config=config)
    params = TestParameters(
        test_id="overload-bench",
        test_description="flash-crowd overload benchmark",
        participant_num=participants,
        question=[Question("q1", "Which looks better?")],
        webpages=[WebpageSpec(web_path=p, web_page_load=1000) for p in VERSIONS],
    )
    documents = {
        p: parse_html(
            f"<html><body><div><p>{p} stimulus body text</p></div></body></html>"
        )
        for p in VERSIONS
    }
    campaign.prepare(params, documents)
    return campaign


def make_judge():
    return make_utility_judge(
        {"a": 0.0, "b": 0.5, "__contrast__": -5.0}, ThurstoneChoiceModel()
    )


def run_flash(protected: bool, participants: int,
              executor: str = "serial", parallelism: int = 1) -> dict:
    """One flash-crowd campaign; returns the full observable fingerprint."""
    campaign = make_campaign(
        protected, participants, executor=executor, parallelism=parallelism,
    )
    wall_start = time.perf_counter()
    result = campaign.run(make_judge())
    wall = time.perf_counter() - wall_start
    stats = campaign.network.stats
    signal = campaign._overload_signal
    counters = campaign.metrics.deterministic_snapshot().get("counters", {})
    return {
        "protected": protected,
        "participants_concluded": result.participants,
        "roster": participants,
        "duration_virtual_hours": round(result.duration_days * 24, 3),
        "wall_seconds": round(wall, 4),
        "lost_uploads": len(campaign.lost_uploads),
        "rejections_429": stats.rejections,
        "deferrals_503": stats.deferrals,
        "shed_responses": stats.shed_responses,
        "overload_timeouts": stats.overload_timeouts,
        "client_retries": int(counters.get("net.retries", 0)),
        "queue_delay_virtual_seconds": round(stats.queue_delay_ms / 1000.0, 3),
        "max_queue_depth": round(signal.max_queue_depth(), 3),
        "peak_utilization": round(signal.peak_utilization(), 3),
        "peak_offered_rps": round(signal.peak_offered_rps(), 3),
        "flash_overload_ratio": round(
            signal.peak_offered_rps() / CAPACITY_RPS, 2
        ),
        "ladder_transitions": signal.transitions(),
        "conclusion": conclusion_digest(campaign, result),
        "metrics_snapshot": json.dumps(
            campaign.metrics.deterministic_snapshot(), sort_keys=True
        ),
    }


# -- survival vs collapse -----------------------------------------------------


def run_survival(participants: int) -> dict:
    """Protected vs unprotected under the identical flash crowd."""
    protected = run_flash(True, participants)
    unprotected = run_flash(False, participants)

    survived = (
        protected["participants_concluded"] > 0
        and protected["lost_uploads"] == 0
        and protected["max_queue_depth"] <= QUEUE_LIMIT + 1e-9
        and protected["rejections_429"] + protected["shed_responses"] > 0
    )
    collapsed = (
        unprotected["overload_timeouts"] > 0
        and unprotected["max_queue_depth"] > QUEUE_LIMIT
        and unprotected["peak_utilization"] > protected["peak_utilization"]
        and unprotected["client_retries"] > protected["client_retries"]
    )
    overloaded_enough = protected["flash_overload_ratio"] >= 4.0

    def visible(run):
        return {
            k: v for k, v in run.items()
            if k not in ("conclusion", "metrics_snapshot")
        }

    return {
        "protected": visible(protected),
        "unprotected_baseline": visible(unprotected),
        "flash_exceeds_4x_sustainable": overloaded_enough,
        "protected_survived": survived,
        "unprotected_collapsed": collapsed,
        "ok": survived and collapsed and overloaded_enough,
        "_protected_fingerprint": (
            protected["conclusion"], protected["metrics_snapshot"]
        ),
    }


# -- cross-executor determinism ----------------------------------------------


def run_determinism(participants: int) -> dict:
    """The protected flash run must be bit-identical on every backend."""
    cells = [
        ("serial-1", dict(executor="serial", parallelism=1)),
        ("process-4", dict(executor="process", parallelism=4)),
        ("process-2", dict(executor="process", parallelism=2)),
    ]
    runs = {
        tag: run_flash(True, participants, **kwargs) for tag, kwargs in cells
    }
    base_tag = cells[0][0]
    base = runs[base_tag]
    identical = {
        tag: (
            run["conclusion"] == base["conclusion"]
            and run["metrics_snapshot"] == base["metrics_snapshot"]
            and run["rejections_429"] == base["rejections_429"]
            and run["shed_responses"] == base["shed_responses"]
            and run["queue_delay_virtual_seconds"]
            == base["queue_delay_virtual_seconds"]
        )
        for tag, run in runs.items()
    }
    return {
        "cells": list(identical),
        "identical_to_serial": identical,
        "ok": all(identical.values()),
    }


# -- overloaded fleet drain ---------------------------------------------------


def make_submission(seed: int, participants: int) -> CampaignSubmission:
    params = TestParameters(
        test_id="overload-fleet",
        test_description="overloaded fleet campaign",
        participant_num=participants,
        question=[Question("q1", "Which looks better?")],
        webpages=[WebpageSpec(web_path=p, web_page_load=1000) for p in VERSIONS],
    )
    documents = {
        p: f"<html><body><div><p>{p} stimulus body text</p></div></body></html>"
        for p in VERSIONS
    }
    return CampaignSubmission(
        parameters=params,
        documents=documents,
        judge=make_judge(),
        config=CampaignConfig(
            seed=seed,
            arrival="flash",
            overload=overload_config(True, participants),
            retry_policy=RETRY,
        ),
        population_seed=seed,
    )


def run_fleet(campaigns: int, participants: int,
              workers: Sequence[int]) -> dict:
    """Drain a fleet of protected flash campaigns at each worker count; the
    per-run result payloads must be identical across counts."""
    payloads: Dict[int, Dict[str, Optional[dict]]] = {}
    by_workers: Dict[str, dict] = {}
    for count in workers:
        manager = CampaignManager()
        run_ids = [
            manager.submit(make_submission(SEED + i, participants))
            for i in range(campaigns)
        ]
        report = manager.run_fleet(num_workers=count)
        payloads[count] = {r: manager.result(r) for r in run_ids}
        by_workers[str(count)] = {
            "completed": report.completed,
            "dead": report.dead,
            "makespan_virtual_seconds": round(report.makespan_seconds, 3),
        }
    counts = sorted(payloads)
    identical = all(payloads[c] == payloads[counts[0]] for c in counts[1:])
    all_completed = all(
        cell["completed"] == campaigns and cell["dead"] == 0
        for cell in by_workers.values()
    )
    return {
        "campaigns": campaigns,
        "by_workers": by_workers,
        "no_jobs_lost": all_completed,
        "results_identical_across_worker_counts": identical,
        "ok": identical and all_completed,
    }


# -- the report ---------------------------------------------------------------


def run_overload_benchmark(
    participants: int = DEFAULT_PARTICIPANTS,
    fleet_campaigns: int = FLEET_CAMPAIGNS,
    fleet_workers: Sequence[int] = DEFAULT_FLEET_WORKERS,
) -> dict:
    survival = run_survival(participants)
    fingerprint = survival.pop("_protected_fingerprint")
    determinism = run_determinism(participants)
    fleet = run_fleet(fleet_campaigns, max(participants // 2, 8), fleet_workers)
    return {
        "benchmark": "overload_control_plane",
        "config": {
            "participants": participants,
            "versions": list(VERSIONS),
            "arrival": "flash",
            "overload": overload_config(True, participants).to_dict(),
            "retry_policy": {
                "max_attempts": RETRY.max_attempts,
                "retry_budget_seconds": RETRY.retry_budget_seconds,
            },
            "fleet": {
                "campaigns": fleet_campaigns,
                "worker_counts": list(fleet_workers),
            },
            "seed": SEED,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "survival": survival,
        "determinism": determinism,
        "fleet": fleet,
        "protected_conclusion_sha": fingerprint[0][:16],
        "protected_metrics_sha": _sha(fingerprint[1]),
    }


def _sha(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def write_report(report: dict, output: Path = DEFAULT_OUTPUT) -> Path:
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return output


# -- pytest smoke check ------------------------------------------------------


def test_overload_smoke(report_writer):
    """Tiny flash crowd: protected survives, unprotected collapses,
    everything deterministic."""
    report = run_overload_benchmark(
        participants=SMOKE_PARTICIPANTS,
        fleet_campaigns=SMOKE_FLEET_CAMPAIGNS,
        fleet_workers=SMOKE_FLEET_WORKERS,
    )
    assert report["survival"]["ok"], report["survival"]
    assert report["determinism"]["ok"], report["determinism"]
    assert report["fleet"]["ok"], report["fleet"]
    report_writer("overload_smoke", json.dumps(report, indent=2))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"CI profile: {SMOKE_PARTICIPANTS} participants, fleet workers "
        "1 and 2 only",
    )
    parser.add_argument(
        "--participants", type=int, default=None,
        help=f"flash-crowd roster size (default {DEFAULT_PARTICIPANTS})",
    )
    parser.add_argument(
        "--fleet-workers", type=int, nargs="+", default=None,
        help="fleet worker counts to drain at (default: 1 2 4 8)",
    )
    parser.add_argument(
        "--assert-survival", action="store_true",
        help="exit nonzero unless the protected server survives the flash "
        "crowd, the unprotected baseline collapses, and every determinism "
        "check passes",
    )
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    participants = args.participants or (
        SMOKE_PARTICIPANTS if args.smoke else DEFAULT_PARTICIPANTS
    )
    fleet_workers = tuple(args.fleet_workers) if args.fleet_workers else (
        SMOKE_FLEET_WORKERS if args.smoke else DEFAULT_FLEET_WORKERS
    )
    fleet_campaigns = SMOKE_FLEET_CAMPAIGNS if args.smoke else FLEET_CAMPAIGNS

    report = run_overload_benchmark(
        participants=participants,
        fleet_campaigns=fleet_campaigns,
        fleet_workers=fleet_workers,
    )
    path = write_report(report, args.output)
    print(json.dumps(report, indent=2))
    print(f"\nreport written to {path}")

    if args.assert_survival:
        failures = []
        if not report["survival"]["ok"]:
            failures.append(
                "survival gate failed (see 'survival': protected must "
                "conclude with bounded queue depth and zero lost uploads "
                "while the unprotected baseline collapses)"
            )
        if not report["determinism"]["ok"]:
            failures.append("results diverged across executor backends")
        if not report["fleet"]["ok"]:
            failures.append("fleet drain diverged across worker counts")
        for failure in failures:
            print(f"ERROR: {failure}")
        if failures:
            return 1
        print(
            "survival gate passed: protected server concluded under a "
            f"{report['survival']['protected']['flash_overload_ratio']}x "
            "flash crowd with bounded queue depth and zero lost uploads; "
            "unprotected baseline collapsed into timeout/retry storms"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
