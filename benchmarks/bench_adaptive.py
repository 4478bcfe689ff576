"""Adaptive-scheduler benchmark: answers needed to recover a known ranking.

Three phases prove the adaptive Bradley-Terry scheduler (ISSUE 10):

* **answers_to_recover** — for N ∈ {10, 30, 50, 100} versions with a known
  ground-truth quality order, a seeded judge drives each registered
  scheduler (``full``, ``bubble``, ``insertion``, ``merge``, ``adaptive``)
  to completion and the phase records how many answers each collected and
  whether its final ranking matches the truth. Two conditions: **clean**
  (perfect judge) and **chaos** (noisy judge + participants abandoning
  served pairs + one participant's whole session retracted as a quality
  drop, shared-tally schedulers only — the campaign's retraction path).
* **savings gate** — at N=50 the adaptive scheduler must recover the
  ground-truth ranking, clean and under chaos, with at most 40% of the
  full C(N,2) answer count, and no Bradley-Terry refit anywhere in the
  sweep may stop unconverged (``--assert-savings`` exits nonzero
  otherwise).
* **identity** — a small adaptive campaign concludes byte-identically
  across the serial and process executors and a crash-resumed run
  (checkpoint mid-roster, resume on a fresh campaign), and the N=50 clean
  drive replays bit-identically through a JSON snapshot/restore at the
  halfway point.

Results land in ``BENCH_adaptive.json`` at the repo root.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_adaptive.py \
        [--smoke] [--assert-savings] [--assert-identity] [--output PATH]

or as a pytest smoke check (small scales)::

    PYTHONPATH=src python -m pytest benchmarks/bench_adaptive.py -q
"""

from __future__ import annotations

import argparse
import json
import platform
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro.core.campaign import Campaign
from repro.core.conclusion import conclusion_digest
from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.core.scheduling import (
    ANSWER_LEFT,
    ANSWER_RIGHT,
    SchedulerConfig,
    make_scheduler,
    scheduler_from_snapshot,
)
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.crowd.workers import FIGURE_EIGHT_TRUSTWORTHY_MIX, generate_population
from repro.html.parser import parse_html
from repro.obs import MetricsRegistry
from repro.util.executors import available_cpus

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_adaptive.json"

SEED = 1047
SCHEDULERS = ("full", "bubble", "insertion", "merge", "adaptive")
DEFAULT_NS = (10, 30, 50, 100)
SMOKE_NS = (10, 50)
GATE_N = 50
#: The headline claim: adaptive recovers the ranking with at most this
#: fraction of the full C(N,2) answer count at N=50.
SAVINGS_CEILING = 0.40

#: Chaos condition: per-answer flip probability, per-served-pair
#: abandonment probability, and the roster index whose whole session is
#: retracted as a quality drop (shared-tally schedulers only). The noise
#: rate is deliberately below the single-pass breaking point: at a few
#: per-cent flips, one answer per pair no longer determines adjacent
#: boundaries, so *no* scheduler recovers the exact ranking from a
#: single pass and "fraction of full" stops being a meaningful budget
#: comparison — adaptive re-sampling is then the only recovering
#: scheduler, at a cost above the savings ceiling.
CHAOS_NOISE = 0.015
CHAOS_ABANDON = 0.05
CHAOS_BAD_PARTICIPANT = 2

#: Runaway guard for the drive loop (well above 3*C(100,2)).
MAX_SERVED = 40_000

IDENTITY_PAGES = ("p0", "p1", "p2", "p3", "p4")
IDENTITY_UTILITIES = {
    "p0": 2.0, "p1": 1.2, "p2": 0.5, "p3": -0.4, "p4": -1.3,
    "__contrast__": -5.0,
}
IDENTITY_PARTICIPANTS = 14


def full_pair_count(n: int) -> int:
    return n * (n - 1) // 2


# -- phase 1: answers to recover a known ground truth ------------------------


def drive_run(
    mode: str,
    n: int,
    chaos: bool,
    seed: int = SEED,
    resume_at: Optional[int] = None,
) -> dict:
    """Drive one scheduler against the seeded judge until it finishes.

    Ground truth is a seeded permutation of the version ids (the same
    permutation for clean and chaos at a given N), so no scheduler gets the
    answer for free from the input order. Sort
    schedulers are driven as one participant's schedule — their cost is
    per-participant in a real campaign — while the shared adaptive
    scheduler rotates participants whenever a session budget is exhausted,
    exactly as the campaign's roster does. ``resume_at`` replays the run
    through a JSON snapshot/restore once that many answers are in
    (checkpoint/resume identity check). Refit convergence is counted
    through ``btmodel.*`` metrics.
    """
    version_ids = [f"v{i:03d}" for i in range(n)]
    perm = np.random.default_rng([seed, n, 17]).permutation(n)
    truth = [version_ids[i] for i in perm]
    rank = {v: i for i, v in enumerate(truth)}
    metrics = MetricsRegistry()
    scheduler = make_scheduler(
        mode, version_ids, SchedulerConfig(seed=seed), metrics=metrics
    )
    rng = np.random.default_rng([seed, n, 1 if chaos else 0])
    noise = CHAOS_NOISE if chaos else 0.0
    abandon = CHAOS_ABANDON if chaos else 0.0
    bad = CHAOS_BAD_PARTICIPANT if (chaos and scheduler.shared) else None
    sessions: dict = {}
    participant = 0
    resumed = False
    retracted = False
    while not scheduler.done and scheduler.comparisons_used < MAX_SERVED:
        pid = f"w{participant:04d}"
        pair = scheduler.next_pair(pid)
        if pair is None:
            if scheduler.done:
                break
            participant += 1  # session budget spent; next participant
            continue
        if abandon and rng.random() < abandon:
            scheduler.release(pid)
            participant += 1
            continue
        left, right = pair
        answer = ANSWER_LEFT if rank[left] < rank[right] else ANSWER_RIGHT
        if noise and rng.random() < noise:
            answer = ANSWER_RIGHT if answer == ANSWER_LEFT else ANSWER_LEFT
        scheduler.report(answer, pid)
        sessions.setdefault(participant, []).append((left, right, answer))
        if bad is not None and not retracted and participant > bad:
            # The campaign's quality screen drops a whole upload at once;
            # model it as one participant's session retracted in a burst.
            for l, r, a in sessions.get(bad, []):
                scheduler.retract(l, r, a)
            retracted = True
        if resume_at is not None and not resumed and len(scheduler.history) >= resume_at:
            payload = json.loads(json.dumps(scheduler.snapshot()))
            scheduler = scheduler_from_snapshot(payload, metrics=metrics)
            resumed = True
    ranking = scheduler.ranking()
    full = full_pair_count(n)
    answers = len(scheduler.history)
    stop = getattr(scheduler, "conclusion", None)
    conclusion = stop() if callable(stop) else None
    return {
        "scheduler": mode,
        "n": n,
        "condition": "chaos" if chaos else "clean",
        "answers": answers,
        "served": scheduler.comparisons_used,
        "full_pairs": full,
        "fraction_of_full": round(answers / full, 3),
        "recovered": ranking == truth,
        "participants_used": participant + 1,
        "retracted_session": retracted,
        "early_stop": conclusion.to_dict() if conclusion is not None else None,
        "unconverged_refits": int(metrics.counter("btmodel.unconverged")),
        "resumed_mid_run": resumed if resume_at is not None else None,
    }


def run_recovery_phase(ns: Sequence[int]) -> dict:
    rows = []
    for n in ns:
        for mode in SCHEDULERS:
            for chaos in (False, True):
                row = drive_run(mode, n, chaos)
                row.pop("resumed_mid_run")
                rows.append(row)
    return {"ground_truth": "seeded permutation of version ids", "runs": rows}


def savings_gate(rows: List[dict], n: int = GATE_N) -> dict:
    """The acceptance criterion at N=50: recovered, clean and under chaos,
    at <= 40% of the full C(N,2) answer count, with every refit of the
    sweep converged."""
    gate = {}
    for condition in ("clean", "chaos"):
        row = next(
            r for r in rows
            if r["scheduler"] == "adaptive" and r["n"] == n
            and r["condition"] == condition
        )
        gate[condition] = {
            "answers": row["answers"],
            "full_pairs": row["full_pairs"],
            "fraction_of_full": row["fraction_of_full"],
            "recovered": row["recovered"],
            "within_ceiling": row["fraction_of_full"] <= SAVINGS_CEILING,
            "met": row["recovered"]
            and row["fraction_of_full"] <= SAVINGS_CEILING,
        }
    gate["n"] = n
    gate["ceiling"] = SAVINGS_CEILING
    gate["unconverged_refits"] = sum(r["unconverged_refits"] for r in rows)
    gate["met"] = (
        gate["clean"]["met"] and gate["chaos"]["met"]
        and gate["unconverged_refits"] == 0
    )
    return gate


# -- phase 2: identity across executors + checkpoint/resume ------------------


def _identity_campaign(executor: str, parallelism: int) -> Campaign:
    campaign = Campaign(
        config=CampaignConfig(
            seed=SEED + 1,
            scheduler="adaptive",
            executor=executor,
            parallelism=parallelism,
        )
    )
    spec = TestParameters(
        test_id="adaptive-bench",
        test_description="adaptive scheduler identity benchmark",
        participant_num=IDENTITY_PARTICIPANTS,
        question=[Question("q1", "Which looks better?")],
        webpages=[
            WebpageSpec(web_path=page, web_page_load=1000)
            for page in IDENTITY_PAGES
        ],
    )
    documents = {
        page: parse_html(
            f"<html><body><div id='m'><p>{page} content text</p></div>"
            "</body></html>"
        )
        for page in IDENTITY_PAGES
    }
    campaign.prepare(spec, documents)
    return campaign


class _Crash(Exception):
    pass


def run_identity_phase(resume_at: int = 60) -> dict:
    roster = generate_population(
        IDENTITY_PARTICIPANTS, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=SEED + 1
    )
    judge = make_utility_judge(IDENTITY_UTILITIES, ThurstoneChoiceModel())

    digests = {}
    verdicts = set()
    for executor, parallelism in (
        ("serial", 4), ("process", 2)
    ):
        campaign = _identity_campaign(executor, parallelism)
        result = campaign.run_with_workers(roster, judge)
        digests[f"adaptive/{executor}"] = conclusion_digest(campaign, result)
        verdicts.add(
            (result.early_stop.reason, tuple(result.early_stop.ranking))
        )

    # Crash-resume: die at the mid-roster checkpoint, resume on a fresh
    # campaign from the serialized state (which carries the scheduler
    # snapshot), and require the same digest.
    crash_at = max(2, IDENTITY_PARTICIPANTS // 2)
    crashed = _identity_campaign("serial", 1)
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
    checkpoint = json.loads(json.dumps(crashed.resume_state()))
    resumed = _identity_campaign("serial", 1)
    resumed_result = resumed.run_with_workers(roster, judge, resume_from=checkpoint)
    digests["adaptive/crash-resume"] = conclusion_digest(
        resumed, resumed_result
    )
    verdicts.add(
        (resumed_result.early_stop.reason,
         tuple(resumed_result.early_stop.ranking))
    )

    # Scheduler-level snapshot/restore replay of the N=50 clean drive.
    straight = drive_run("adaptive", GATE_N, chaos=False)
    replayed = drive_run(
        "adaptive", GATE_N, chaos=False, resume_at=straight["answers"] // 2
    )
    replayed_matches = all(
        replayed[key] == straight[key]
        for key in ("answers", "served", "recovered", "early_stop")
    )

    return {
        "participants": IDENTITY_PARTICIPANTS,
        "versions": len(IDENTITY_PAGES),
        "digest_covers": [
            "result summary (conclusion, early stop, counts)",
            "quality kept/dropped", "raw + controlled tallies", "rankings",
            "bradley-terry wins + fit",
            "checkpoint (root entropy, stored rows, scheduler state)",
        ],
        "digests": digests,
        "crash_resume_checkpoint": crash_at,
        "identical": len(set(digests.values())) == 1,
        "verdict": {
            "reason": next(iter(verdicts))[0],
            "ranking": list(next(iter(verdicts))[1]),
        } if len(verdicts) == 1 else None,
        "snapshot_replay": {
            "resume_at": straight["answers"] // 2,
            "identical": replayed_matches,
        },
        "met": len(set(digests.values())) == 1 and replayed_matches,
    }


# -- report ------------------------------------------------------------------


def run_adaptive_benchmark(ns: Sequence[int] = DEFAULT_NS) -> dict:
    recovery = run_recovery_phase(ns)
    gate = (
        savings_gate(recovery["runs"]) if GATE_N in ns else None
    )
    identity = run_identity_phase()
    return {
        "benchmark": "adaptive_scheduling",
        "config": {
            "seed": SEED,
            "ns": list(ns),
            "schedulers": list(SCHEDULERS),
            "chaos": {
                "noise": CHAOS_NOISE,
                "abandon": CHAOS_ABANDON,
                "retracted_session": CHAOS_BAD_PARTICIPANT,
            },
            "cpu_count": available_cpus(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "answers_to_recover": recovery,
        "savings_gate": gate,
        "identity": identity,
        "acceptance": {
            "savings_target": (
                f"adaptive recovers the ground-truth ranking at N={GATE_N}, "
                f"clean and under chaos, with <= {SAVINGS_CEILING:.0%} of "
                "the full C(N,2) answers, and no refit of the sweep "
                "unconverged"
            ),
            "savings_met": gate["met"] if gate else None,
            "identity_target": (
                "adaptive conclusion byte-identical across serial/process "
                "executors and a crash-resumed run; scheduler "
                "snapshot replay bit-identical"
            ),
            "identity_met": identity["met"],
        },
    }


def write_report(report: dict, output: Path = DEFAULT_OUTPUT) -> Path:
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return output


# -- pytest smoke check ------------------------------------------------------


def test_adaptive_smoke(report_writer):
    """Small scale: the gate logic holds at N=10, identity holds."""
    report = run_adaptive_benchmark(ns=(10,))
    adaptive = [
        r for r in report["answers_to_recover"]["runs"]
        if r["scheduler"] == "adaptive"
    ]
    assert all(r["recovered"] for r in adaptive)
    assert report["identity"]["met"]
    report_writer("adaptive_smoke", json.dumps(report, indent=2))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"CI profile: N in {SMOKE_NS} (the gate's N={GATE_N} included)",
    )
    parser.add_argument(
        "--ns", type=int, nargs="+", default=None,
        help=f"version counts to sweep (default {DEFAULT_NS})",
    )
    parser.add_argument(
        "--assert-savings", action="store_true",
        help=f"exit nonzero unless adaptive recovers the ranking at "
        f"N={GATE_N} with <= {SAVINGS_CEILING:.0%} of full-pair answers, "
        "clean and under chaos, and every refit converged",
    )
    parser.add_argument(
        "--assert-identity", action="store_true",
        help="exit nonzero unless conclusions are byte-identical across "
        "executors and crash-resume",
    )
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    ns = tuple(args.ns) if args.ns else (SMOKE_NS if args.smoke else DEFAULT_NS)
    report = run_adaptive_benchmark(ns=ns)
    path = write_report(report, args.output)
    print(json.dumps(report, indent=2))
    print(f"\nreport written to {path}")

    failed = False
    if args.assert_savings:
        gate = report["savings_gate"]
        if gate is None:
            print(f"ERROR: --assert-savings needs N={GATE_N} in the sweep")
            failed = True
        elif not gate["met"]:
            print(
                "ERROR: savings gate failed: "
                + json.dumps(
                    {
                        c: gate[c]
                        for c in ("clean", "chaos", "unconverged_refits")
                    },
                    indent=2,
                )
            )
            failed = True
        else:
            print(
                "savings gate passed: adaptive used "
                f"{gate['clean']['answers']} (clean) / "
                f"{gate['chaos']['answers']} (chaos) of "
                f"{gate['clean']['full_pairs']} full-pair answers at "
                f"N={GATE_N}; no refit unconverged"
            )
    if args.assert_identity:
        identity = report["identity"]
        if not identity["met"]:
            print("ERROR: identity gate failed:")
            for name, digest in identity["digests"].items():
                print(f"  {name}: {digest}")
            print(f"  snapshot_replay: {identity['snapshot_replay']}")
            failed = True
        else:
            print(
                "identity gate passed: "
                f"{len(identity['digests'])} digests identical; snapshot "
                "replay bit-identical"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
