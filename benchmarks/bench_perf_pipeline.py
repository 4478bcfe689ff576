"""Campaign fast-path benchmark: brute force vs indexed/cached/parallel.

Runs the §IV-A font-size campaign (5 versions, C(5,2)=10 pairs, 100
participants by default) end to end in two configurations:

* **baseline** — every participant re-renders every downloaded page
  (artifact cache disabled), the style cascade tests every rule against
  every element (rule index disabled), and participants run sequentially
  on one worker;
* **optimized** — the shared :class:`~repro.render.artifacts.PageArtifactCache`
  renders each stored page once per campaign, the cascade goes through the
  :class:`~repro.html.cssom.RuleIndex`, and participants fan out across
  worker processes on independent RNG substreams.

A third **lossy-network** scenario reruns the optimized configuration under
a seeded :class:`~repro.net.faults.FaultPlan` (drops, timeouts, injected
5xx, latency spikes) with client retries and participant dropout, reporting
retry counts, the abandonment rate and the degraded conclusion's coverage —
and asserting the faulted run still reproduces bit-identically across
parallelism levels.

Both configurations are also run at ``parallelism=1`` vs ``parallelism=N``
to assert the deterministic-mode guarantee: the concluded result is
bit-identical regardless of the parallelism level.

Results land in ``BENCH_pipeline.json`` at the repo root — machine-readable
wall-clock numbers plus the perf-registry counters behind them.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_perf_pipeline.py \
        [--participants 100] [--parallelism 4] [--output BENCH_pipeline.json]

or as a pytest smoke check (small participant count)::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_pipeline.py -q
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import List, Optional

from repro.core.campaign import Campaign, CampaignResult
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
from repro.net.faults import CircuitBreakerConfig, FaultPlan, RetryPolicy
from repro.render.artifacts import PageArtifactCache
from repro.util.executors import available_cpus, resolve_chunk_size
from repro.obs.metrics import GLOBAL_METRICS, MetricsRegistry

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_pipeline.json"

DEFAULT_PARTICIPANTS = 100
DEFAULT_PARALLELISM = 4
SEED = 2019


def _fresh_campaign(
    participants: int, optimized: bool, parallelism: int, seed: int = SEED
) -> tuple:
    """A prepared campaign plus its judge, in one of the two configurations."""
    experiment = FontSizeExperiment(seed=seed)
    campaign = Campaign(
        config=CampaignConfig(
            seed=experiment.seeds.seed("crowd-campaign"),
            artifact_cache=optimized,
            parallelism=parallelism,
        )
    )
    if not optimized:
        # Full brute force: re-render per visit *and* cascade without the
        # rule index.
        campaign.artifacts = PageArtifactCache(enabled=False, use_style_index=False)
    documents = build_font_variants()
    parameters = build_parameters(participants)
    campaign.prepare(
        parameters,
        documents,
        fetcher=wikipedia_resources_for(documents.keys()),
        main_text_selector=MAIN_TEXT_SELECTOR,
        instructions=QUESTION.text,
    )
    return campaign, experiment.make_personal_judge()


def _reset_metrics(campaign: Campaign) -> None:
    """Forget prepare-time counts: the perf block covers the run only."""
    campaign.metrics.reset()
    GLOBAL_METRICS.reset()


def _perf_snapshot(campaign: Campaign) -> dict:
    """The campaign's own registry plus the render-internal counters
    (``cascade.*``, ``layout.*``) that only the process-global one sees."""
    merged = MetricsRegistry()
    merged.merge_state(GLOBAL_METRICS.export_state())
    merged.merge_state(campaign.metrics.export_state())
    return merged.snapshot()


def _executor_used(campaign: Campaign) -> str:
    """The roster path the last run actually took."""
    pooled = campaign._last_fanout_pool > 1
    return campaign.config.executor if pooled else "serial"


def _run(participants: int, optimized: bool, parallelism: int) -> tuple:
    """(campaign, result, wall_seconds, perf) for one configuration."""
    campaign, judge = _fresh_campaign(participants, optimized, parallelism)
    _reset_metrics(campaign)
    start = time.perf_counter()
    result = campaign.run(judge, reward_usd=REWARD_USD)
    elapsed = time.perf_counter() - start
    return campaign, result, elapsed, _perf_snapshot(campaign)


def _concluded_fingerprint(result: CampaignResult) -> List[dict]:
    """Everything the conclusion depends on, as comparable plain data."""
    return [r.as_dict() for r in result.raw_results]


def _run_lossy(participants: int, parallelism: int) -> tuple:
    """One lossy-network campaign: seeded faults, retries, dropout."""
    experiment = FontSizeExperiment(seed=SEED)
    campaign = Campaign(
        config=CampaignConfig(
            seed=experiment.seeds.seed("crowd-campaign"),
            fault_plan=FaultPlan.lossy(
                seed=SEED,
                drop_rate=0.05,
                timeout_rate=0.02,
                error_rate=0.02,
                latency_rate=0.05,
            ),
            retry_policy=RetryPolicy(max_attempts=4, backoff_base_seconds=0.5),
            breaker_config=CircuitBreakerConfig(failure_threshold=6),
            dropout_rate=0.03,
            parallelism=parallelism,
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
    _reset_metrics(campaign)
    start = time.perf_counter()
    result = campaign.run(experiment.make_personal_judge(), reward_usd=REWARD_USD)
    elapsed = time.perf_counter() - start
    return campaign, result, elapsed, _perf_snapshot(campaign)


def run_lossy_benchmark(
    participants: int = DEFAULT_PARTICIPANTS,
    parallelism: int = DEFAULT_PARALLELISM,
) -> dict:
    """The resilience scenario: a 5%-drop lossy network with retries.

    Reports how much the faults cost (retries, abandonment, lost uploads)
    and what the degraded conclusion still covered — and asserts the lossy
    run reproduces bit-identically across parallelism levels.
    """
    campaign, result, elapsed, perf = _run_lossy(participants, parallelism)
    serial_campaign, serial_result, _, _ = _run_lossy(participants, 1)
    deterministic = (
        _concluded_fingerprint(result) == _concluded_fingerprint(serial_result)
        and campaign.lost_uploads == serial_campaign.lost_uploads
    )
    counters = perf.get("counters", {})
    stats = campaign.network.stats
    degraded = result.degraded.as_dict() if result.degraded else None
    abandoned = sum(1 for r in result.raw_results if r.abandoned)
    return {
        "description": (
            "5% drops + 2% timeouts + 2% 5xx + 5% latency spikes, "
            "4-attempt retries, 3% base dropout"
        ),
        "wall_seconds": round(elapsed, 4),
        "retries": counters.get("net.retries", 0),
        "faults_injected": stats.faults_injected,
        "fault_breakdown": {
            "drops": stats.drops,
            "timeouts": stats.timeouts,
            "injected_5xx": stats.injected_errors,
            "latency_spikes": stats.latency_spikes,
        },
        "participants_uploaded": len(result.raw_results),
        "abandoned": abandoned,
        "abandonment_rate": (
            round(abandoned / len(result.raw_results), 4)
            if result.raw_results
            else None
        ),
        "lost_uploads": len(campaign.lost_uploads),
        "degraded_conclusion": degraded,
        "parallel_matches_sequential": deterministic,
    }


def run_traced_campaign(
    participants: int,
    parallelism: int,
    trace_out: Path,
) -> dict:
    """One observed campaign: spans + metrics exported as Chrome trace JSON."""
    experiment = FontSizeExperiment(seed=SEED)
    campaign = Campaign(
        config=CampaignConfig(
            seed=experiment.seeds.seed("crowd-campaign"),
            parallelism=parallelism,
            observe=True,
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
    start = time.perf_counter()
    result = campaign.run(experiment.make_personal_judge(), reward_usd=REWARD_USD)
    elapsed = time.perf_counter() - start
    timeline = campaign.timeline()
    path = timeline.write_json(trace_out)
    root = campaign.obs.trace_root()
    return {
        "trace_file": str(path),
        "observed_wall_seconds": round(elapsed, 4),
        "span_count": root.span_count() if root is not None else 0,
        "participants_uploaded": len(result.raw_results),
    }


def measure_indexed_count_distinct(documents: int = 20_000) -> dict:
    """Micro-benchmark: indexed vs scanned ``count()``/``distinct()``.

    Builds the responses-shaped collection twice — once with a ``test_id``
    index, once without — and times the equality queries the campaign hot
    path issues (progress checks and version enumeration). The indexed
    variant answers from the index bucket; the scan re-matches every
    document.
    """
    from repro.storage.documentstore import DocumentStore

    def build(indexed: bool):
        store = DocumentStore()
        responses = store.collection("responses")
        if indexed:
            responses.create_index("test_id")
        responses.insert_many(
            [
                {"test_id": f"t{i % 50}", "worker_id": f"w{i}", "score": i % 5}
                for i in range(documents)
            ]
        )
        return responses

    def clock(responses, repeats: int = 20) -> float:
        start = time.perf_counter()
        for _ in range(repeats):
            responses.count({"test_id": "t7"})
            responses.distinct("worker_id", {"test_id": "t7"})
        return (time.perf_counter() - start) / repeats

    scan_s = clock(build(indexed=False))
    indexed_s = clock(build(indexed=True))
    return {
        "documents": documents,
        "query": {"test_id": "t7"},
        "scan_ms": round(scan_s * 1000, 3),
        "indexed_ms": round(indexed_s * 1000, 3),
        "speedup": round(scan_s / indexed_s, 1) if indexed_s else None,
    }


def run_pipeline_benchmark(
    participants: int = DEFAULT_PARTICIPANTS,
    parallelism: int = DEFAULT_PARALLELISM,
) -> dict:
    """Run both configurations and return the report dictionary."""
    _, baseline_result, baseline_s, baseline_perf = _run(
        participants, optimized=False, parallelism=1
    )
    optimized_campaign, optimized_result, optimized_s, optimized_perf = _run(
        participants, optimized=True, parallelism=parallelism
    )

    # Determinism guarantee: the same seed concludes identically at every
    # parallelism level.
    _, serial_result, serial_s, _ = _run(
        participants, optimized=True, parallelism=1
    )
    deterministic = _concluded_fingerprint(serial_result) == _concluded_fingerprint(
        optimized_result
    )

    question_id = QUESTION.question_id
    return {
        "benchmark": "campaign_pipeline_fast_path",
        "config": {
            "versions": 5,
            "comparison_pairs": 10,
            "participants": participants,
            "parallelism": parallelism,
            "seed": SEED,
            # Execution environment: the numbers below are wall-clock, so
            # they are only comparable for a known core count and executor.
            "cpu_count": available_cpus(),
            "executor": _executor_used(optimized_campaign),
            "chunk_size": resolve_chunk_size(participants, parallelism),
            # Store micro-benchmark: equality count()/distinct() answered
            # from the index bucket instead of a full collection scan.
            "indexed_count_distinct": measure_indexed_count_distinct(),
        },
        "baseline": {
            "description": "uncached rendering, brute-force cascade, sequential",
            "wall_seconds": round(baseline_s, 4),
            "perf": baseline_perf,
        },
        "optimized": {
            "description": (
                "shared artifact cache, indexed cascade, "
                f"{parallelism}-way parallel participants"
            ),
            "wall_seconds": round(optimized_s, 4),
            "perf": optimized_perf,
        },
        "optimized_serial_wall_seconds": round(serial_s, 4),
        "speedup": round(baseline_s / optimized_s, 2) if optimized_s else None,
        "parallel_matches_sequential": deterministic,
        "modal_best_version": (
            optimized_result.controlled_analysis.rankings[question_id]
            .modal_version_at_rank("A")
        ),
        "lossy_network": run_lossy_benchmark(participants, parallelism),
    }


def write_report(report: dict, output: Path = DEFAULT_OUTPUT) -> Path:
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return output


# -- pytest smoke check ------------------------------------------------------


def test_pipeline_fast_path_smoke(report_writer):
    """Small-scale run: fast path must win and stay deterministic."""
    report = run_pipeline_benchmark(participants=20, parallelism=4)
    write_report(report)
    assert report["parallel_matches_sequential"]
    assert report["speedup"] is not None and report["speedup"] > 1.0
    artifacts = report["optimized"]["perf"]["counters"]
    assert artifacts.get("artifacts.hits", 0) > artifacts.get("artifacts.misses", 0)
    lossy = report["lossy_network"]
    assert lossy["parallel_matches_sequential"]
    assert lossy["faults_injected"] > 0
    assert lossy["retries"] > 0
    assert lossy["participants_uploaded"] > 0
    report_writer(
        "perf_pipeline",
        json.dumps(report, indent=2),
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--participants", type=int, default=DEFAULT_PARTICIPANTS,
        help="campaign size (paper scale: 100)",
    )
    parser.add_argument(
        "--parallelism", type=int, default=DEFAULT_PARALLELISM,
        help="worker processes for the optimized configuration",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--trace-out", type=Path, default=None, metavar="FILE",
        help="additionally run one observed campaign and write its "
        "Chrome trace-event JSON timeline here",
    )
    args = parser.parse_args(argv)
    report = run_pipeline_benchmark(args.participants, args.parallelism)
    if args.trace_out is not None:
        report["tracing"] = run_traced_campaign(
            args.participants, args.parallelism, args.trace_out
        )
        base = report["optimized"]["wall_seconds"]
        observed = report["tracing"]["observed_wall_seconds"]
        if base:
            report["tracing"]["overhead_vs_unobserved"] = round(
                observed / base - 1, 4
            )
    path = write_report(report, args.output)
    print(json.dumps(report, indent=2))
    print(f"\nreport written to {path}")
    if not report["parallel_matches_sequential"]:
        print("ERROR: parallel run diverged from sequential run")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
