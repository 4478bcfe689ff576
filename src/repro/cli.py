"""Command-line interface: run Kaleidoscope tests from spec files.

The experimenter-facing surface a deployment would ship:

* ``validate`` — check a Table-I JSON spec;
* ``prepare`` — run the aggregator on a spec + a directory of saved pages
  and export the generated artifacts (compressed versions, integrated
  two-iframe pages) to a browsable directory;
* ``run`` — execute a full simulated campaign (recruitment, extension flow,
  quality control, analysis) and print the concluded tallies;
* ``builder`` — emit the §III-B parameter-builder web form HTML;
* ``replay`` — compute the visual metrics of one page under a schedule.

Page directories follow the paper's layout: one folder per version, named
by its ``web_path``, containing ``web_main_file`` plus its resources::

    pages/
      version-a/index.html
      version-a/styles/site.css
      version-b/index.html
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, Optional

from repro.core.campaign import Campaign
from repro.core.config import STORE_MODES, CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.scheduling import SCHEDULER_MODES
from repro.core.parameters import TestParameters
from repro.core.reporting import format_question_tally, format_table
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.errors import ReproError
from repro.html.parser import parse_html
from repro.net.fetch import StaticResourceMap
from repro.render.metrics import compute_visual_metrics
from repro.render.paint import build_paint_timeline
from repro.render.replay import schedule_from_parameter
from repro.util import jsonutil

BASE_URL = "http://test.local"


def _load_spec(path: str) -> TestParameters:
    return TestParameters.from_json(Path(path).read_text(encoding="utf-8"))


def _load_documents(spec: TestParameters, pages_dir: str) -> Dict[str, object]:
    root = Path(pages_dir)
    documents = {}
    for webpage in spec.webpages:
        main = root / webpage.web_path / webpage.web_main_file
        if not main.is_file():
            raise ReproError(f"missing page file: {main}")
        documents[webpage.web_path] = parse_html(main.read_text(encoding="utf-8"))
    return documents


def _prepare_campaign(args) -> Campaign:
    spec = _load_spec(args.spec)
    documents = _load_documents(spec, args.pages)
    fetcher = StaticResourceMap.from_directory(args.pages, BASE_URL)
    observe = bool(getattr(args, "observe", False) or getattr(args, "trace_out", None))
    scheduler = getattr(args, "scheduler", None)
    config = CampaignConfig(
        seed=args.seed,
        reward_usd=getattr(args, "reward", CampaignConfig.reward_usd),
        parallelism=getattr(args, "parallelism", 1),
        observe=observe,
        arrival=getattr(args, "arrival", None),
        store=getattr(args, "store", None) or "memory",
        store_shards=getattr(args, "store_shards", None) or 4,
        store_directory=getattr(args, "store_directory", None),
        scheduler=scheduler or "full",
    )
    campaign = Campaign(config=config)
    campaign.prepare(
        spec,
        documents,
        fetcher=fetcher,
        main_text_selector=args.main_text_selector,
    )
    return campaign


def cmd_validate(args) -> int:
    spec = _load_spec(args.spec)
    print(f"OK: test {spec.test_id!r} with {spec.webpage_num} versions, "
          f"{len(spec.question)} question(s), {spec.pair_count} comparison pairs, "
          f"{spec.participant_num} participants.")
    return 0


def cmd_prepare(args) -> int:
    campaign = _prepare_campaign(args)
    out = Path(args.out)
    written = campaign.storage.export_to_directory(out)
    prepared = campaign.prepared
    print(f"Prepared test {prepared.test_id!r}:")
    print(f"  versions:         {len(prepared.webpages)}")
    print(f"  integrated pages: {len(prepared.comparison_pairs())} "
          f"(+{len(prepared.control_pairs())} control)")
    print(f"  files exported:   {len(written)} under {out}")
    return 0


def cmd_run(args) -> int:
    campaign = _prepare_campaign(args)
    spec = campaign.prepared.parameters
    utilities = _load_utilities(args.utilities, campaign)
    judge = make_utility_judge(utilities, ThurstoneChoiceModel())
    result = campaign.run(judge)
    print(f"Campaign {spec.test_id!r}: {result.participants} participants in "
          f"{result.duration_days * 24:.1f} h for ${result.total_cost_usd:.2f}; "
          f"quality control kept {result.quality_report.kept_count}.")
    if result.early_stop is not None:
        print(f"  {result.early_stop.summary()}")
    if args.trace_out:
        timeline = campaign.timeline()
        timeline.write_json(args.trace_out)
        print(f"\nTrace written to {args.trace_out}")
        print(timeline.text_report())
    version_ids = [v for v in campaign.prepared.version_ids if v != "__contrast__"]
    for question in spec.question:
        print(f"\n{question.text}")
        for key, tally in sorted(result.controlled_analysis.tallies.items()):
            if key[0] != question.question_id:
                continue
            print(f"\n  {tally.left_version} vs {tally.right_version}:")
            block = format_question_tally(tally)
            print("  " + block.replace("\n", "\n  "))
        if len(version_ids) > 2:
            from repro.core.btmodel import fit_bradley_terry

            # Fit straight from the win counts the conclude pass folded.
            fit = fit_bradley_terry(
                campaign.last_streaming.controlled_bt[question.question_id]
            )
            print("\n  Bradley-Terry ranking (best first): "
                  + " > ".join(fit.ranking()))
    return 0


def _load_utilities(path: Optional[str], campaign: Campaign) -> Dict[str, float]:
    version_ids = campaign.prepared.version_ids
    if path is None:
        # Neutral utilities: the crowd answers mostly "Same" — useful for
        # pipeline smoke runs without a perceptual model.
        utilities = {v: 0.0 for v in version_ids}
    else:
        loaded = jsonutil.load_file(path)
        missing = [v for v in version_ids if v != "__contrast__" and v not in loaded]
        if missing:
            raise ReproError(
                f"utilities file missing versions: {', '.join(missing)}"
            )
        utilities = {v: float(loaded.get(v, 0.0)) for v in version_ids}
    utilities.setdefault("__contrast__", -9.0)
    return utilities


def cmd_fleet(args) -> int:
    """Drive a fleet of campaigns through the durable control plane."""
    from repro.fleet import CampaignManager, CampaignSubmission, WorkerChaos

    spec = _load_spec(args.spec)
    root = Path(args.pages)
    documents = {}
    for webpage in spec.webpages:
        main = root / webpage.web_path / webpage.web_main_file
        if not main.is_file():
            raise ReproError(f"missing page file: {main}")
        documents[webpage.web_path] = main.read_text(encoding="utf-8")
    fetcher = StaticResourceMap.from_directory(args.pages, BASE_URL)
    version_ids = [w.web_path for w in spec.webpages]
    if args.utilities:
        loaded = jsonutil.load_file(args.utilities)
        missing = [v for v in version_ids if v not in loaded]
        if missing:
            raise ReproError(
                f"utilities file missing versions: {', '.join(missing)}"
            )
        utilities = {v: float(loaded[v]) for v in version_ids}
    else:
        utilities = {v: 0.0 for v in version_ids}
    utilities.setdefault("__contrast__", -9.0)
    judge = make_utility_judge(utilities, ThurstoneChoiceModel())
    template = CampaignSubmission(
        parameters=spec,
        documents=documents,
        judge=judge,
        config=CampaignConfig(seed=args.seed),
        participants=args.participants,
        main_text_selector=args.main_text_selector,
        fetcher=fetcher,
    )
    chaos = (
        WorkerChaos(seed=args.seed, kill_rate=args.kill_rate)
        if args.kill_rate > 0
        else None
    )
    manager = CampaignManager(
        chaos=chaos,
        visibility_timeout=args.visibility_timeout,
        max_deliveries=args.max_deliveries,
        max_in_flight_per_resource=args.max_per_host,
    )
    run_ids = [
        manager.submit(template.with_seed(args.seed + i))
        for i in range(args.campaigns)
    ]
    report = manager.run_fleet(num_workers=args.workers)
    print(
        f"Fleet of {report.workers} worker(s) drained {report.submitted} "
        f"campaign(s) in {report.makespan_seconds / 3600:.2f} virtual hours "
        f"({report.wall_seconds:.2f}s wall): {report.completed} completed, "
        f"{report.dead} dead-lettered, {report.crashes} worker crash(es), "
        f"{report.redeliveries} redelivery(ies)."
    )
    for run_id in run_ids:
        payload = manager.result(run_id)
        if payload is not None:
            print(f"  {run_id}: concluded with {payload['participants']} "
                  f"participants ({'degraded' if payload['degraded'] else 'clean'})")
            continue
        dead = manager.dead_letter(run_id)
        if dead is not None:
            last = dead["failures"][-1]["error"] if dead["failures"] else "?"
            print(f"  {run_id}: DEAD after {dead['deliveries']} deliveries "
                  f"— {last}")
    if args.json:
        payload = {
            "report": report.to_dict(),
            "results": {r: manager.result(r) for r in run_ids},
            "dead_letters": {
                r: manager.dead_letter(r)
                for r in report.dead_job_ids
            },
        }
        Path(args.json).write_text(
            jsonutil.dumps_pretty(payload), encoding="utf-8"
        )
        print(f"\nFleet report written to {args.json}")
    return 0


def cmd_builder(args) -> int:
    from repro.core.webui import render_builder_form

    print(render_builder_form(questions=args.questions, webpages=args.webpages))
    return 0


def cmd_replay(args) -> int:
    page = parse_html(Path(args.page).read_text(encoding="utf-8"))
    if args.schedule:
        schedule = schedule_from_parameter(jsonutil.loads(args.schedule))
    else:
        schedule = schedule_from_parameter(args.load)
    timeline = build_paint_timeline(page, schedule, seed=args.seed)
    metrics = compute_visual_metrics(timeline)
    rows = [[name, round(value, 1)] for name, value in metrics.as_dict().items()]
    print(format_table(["metric", "value"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Kaleidoscope crowdsourced web-QoE testing"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="validate a Table-I spec file")
    validate.add_argument("spec")
    validate.set_defaults(func=cmd_validate)

    prepare = sub.add_parser("prepare", help="aggregate a test and export artifacts")
    prepare.add_argument("spec")
    prepare.add_argument("pages", help="directory of saved page folders")
    prepare.add_argument("out", help="output directory for generated artifacts")
    prepare.add_argument("--seed", type=int, default=0)
    prepare.add_argument("--main-text-selector", default="p")
    prepare.set_defaults(func=cmd_prepare)

    run = sub.add_parser("run", help="run a full simulated campaign")
    run.add_argument("spec")
    run.add_argument("pages")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--reward", type=float, default=0.10,
        help="reward per participant in USD; it also paces --arrival "
             "(arrivals are reward-elastic)",
    )
    run.add_argument("--main-text-selector", default="p")
    run.add_argument(
        "--utilities",
        help="JSON file mapping version ids to latent utilities for the "
        "simulated crowd's judgment model",
    )
    run.add_argument(
        "--scheduler", choices=SCHEDULER_MODES, default=None,
        help="comparison scheduler: 'full' (every C(N,2) pair — the "
        "default), a participant-driven sort ('bubble', 'insertion', "
        "'merge'), or 'adaptive' (shared information-gain scheduling with "
        "early stopping); non-'full' modes require single-question tests",
    )
    run.add_argument(
        "--parallelism", type=int, default=1,
        help="worker count for participant simulation: 1 (default) runs "
        "the roster inline, N > 1 chunks it across N worker processes; "
        "every N gives bit-identical results for a fixed --seed",
    )
    run.add_argument(
        "--arrival", default=None, metavar="MODE",
        help="participant arrival schedule: 'uniform' (steady Poisson "
        "trickle), 'diurnal' (pay- and time-of-day-modulated), or 'flash' "
        "(80%% of the roster in a burst — the overload stress case); "
        "default: everyone at once. Unknown modes raise a CampaignError "
        "listing the valid choices",
    )
    run.add_argument(
        "--store", choices=sorted(STORE_MODES), default=None,
        help="storage backend: 'memory' (default, in-RAM store) or "
        "'sharded-streaming' (WAL-backed shards with responses spilled to "
        "the log); both fold every upload into O(pairs) streaming "
        "sufficient statistics at upload time and conclude from that fold",
    )
    run.add_argument(
        "--store-shards", type=int, default=None, metavar="N",
        help="shard count for --store sharded-streaming (default: 4)",
    )
    run.add_argument(
        "--store-directory", default=None, metavar="DIR",
        help="directory for the sharded store's WALs and snapshots "
        "(default: in-process memory — streamed but not crash-durable)",
    )
    run.add_argument(
        "--observe", action="store_true",
        help="record tracing spans and per-run metrics for the campaign",
    )
    run.add_argument(
        "--trace-out", metavar="FILE",
        help="write a Chrome trace-event JSON timeline (implies --observe)",
    )
    run.set_defaults(func=cmd_run)

    fleet = sub.add_parser(
        "fleet",
        help="run a fleet of campaigns through the durable job queue",
        description="Stamp N campaigns out of one spec (distinct seeds), "
        "enqueue them on the durable at-least-once job queue, and drain "
        "them through a worker fleet on the virtual clock — with optional "
        "seeded worker-crash chaos to exercise requeue-on-crash resume.",
    )
    fleet.add_argument("spec")
    fleet.add_argument("pages")
    fleet.add_argument("--campaigns", type=int, default=8, metavar="N",
                       help="how many campaigns to stamp out (default 8)")
    fleet.add_argument("--workers", type=int, default=2,
                       help="fleet worker count (default 2)")
    fleet.add_argument("--participants", type=int, default=None,
                       help="override the spec's roster size per campaign")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--kill-rate", type=float, default=0.0, metavar="P",
                       help="seeded chaos: probability a delivery's worker "
                       "crashes mid-campaign (default 0)")
    fleet.add_argument("--visibility-timeout", type=float, default=120.0,
                       metavar="S", help="lease length in virtual seconds "
                       "(default 120)")
    fleet.add_argument("--max-deliveries", type=int, default=4,
                       help="delivery budget before dead-lettering (default 4)")
    fleet.add_argument("--max-per-host", type=int, default=None, metavar="N",
                       help="per-stimulus-host in-flight concurrency guard")
    fleet.add_argument("--utilities",
                       help="JSON file mapping version ids to latent utilities")
    fleet.add_argument("--main-text-selector", default="p")
    fleet.add_argument("--json", metavar="FILE",
                       help="write the full fleet report + results as JSON")
    fleet.set_defaults(func=cmd_fleet)

    builder = sub.add_parser("builder", help="print the parameter-builder form HTML")
    builder.add_argument("--questions", type=int, default=1)
    builder.add_argument("--webpages", type=int, default=2)
    builder.set_defaults(func=cmd_builder)

    replay = sub.add_parser("replay", help="visual metrics of a page under a schedule")
    replay.add_argument("page", help="HTML file")
    replay.add_argument("--load", type=float, default=3000,
                        help="scalar web_page_load (ms)")
    replay.add_argument("--schedule",
                        help='JSON selector schedule, e.g. \'[{"#main": 1000}]\'')
    replay.add_argument("--seed", type=int, default=0)
    replay.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
