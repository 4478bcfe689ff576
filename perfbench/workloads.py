"""The benchmark's three campaign workloads and their correctness checks.

Each workload builds its inputs from the seed (documents, roster, judge),
sets a campaign up through ``Campaign(config=...)`` + ``prepare()``, runs it
through a public run entry point, and checks the concluded result. Every
campaign runs serially (``executor="serial"``, ``parallelism=1``) on the
non-deprecated configuration API. Why each workload exists, and which layer
metric should move which end-to-end metric on it, is in ``WORKLOADS.md``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.btmodel import counts_from_results, fit_bradley_terry
from repro.core.campaign import Campaign, CampaignResult
from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.core.quality import QualityConfig
from repro.core.scheduling import SchedulerConfig
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.crowd.workers import FIGURE_EIGHT_TRUSTWORTHY_MIX, generate_population
from repro.experiments import fontsize
from repro.experiments.datasets import wikipedia_resources_for
from repro.html.parser import parse_html
from repro.net.faults import FaultPlan, RetryPolicy
from repro.net.overload import OverloadConfig

CONTRAST = "__contrast__"


@dataclass
class Inputs:
    """Everything generated from the seed before the set-up clock starts."""

    seed: int
    parameters: TestParameters
    documents: Dict[str, Any]
    judge: Any
    roster: Optional[list] = None
    prepare_kwargs: dict = field(default_factory=dict)


def simple_documents(pages) -> Dict[str, Any]:
    return {
        page: parse_html(
            f"<html><body><div id='m'><p>{page} content text</p></div></body></html>"
        )
        for page in pages
    }


def simple_parameters(test_id: str, pages, participants: int) -> TestParameters:
    return TestParameters(
        test_id=test_id,
        test_description=f"{test_id} benchmark workload",
        participant_num=participants,
        question=[Question("q1", "Which looks better?")],
        webpages=[WebpageSpec(web_path=page, web_page_load=1000) for page in pages],
    )


class Workload:
    """One named campaign shape; subclasses fix its sizes and config."""

    name = "?"
    #: Participants per campaign at each scale. At full scale every
    #: campaign yields >= 1000 per-participant samples, so its p99 has at
    #: least ten samples beyond it.
    participants: Dict[str, int] = {}

    def inputs(self, seed: int, scale: str) -> Inputs:
        raise NotImplementedError

    def config(self, inputs: Inputs, scale: str, workdir: str) -> CampaignConfig:
        raise NotImplementedError

    def setup(self, inputs: Inputs, scale: str, workdir: str) -> Campaign:
        """The timed set-up: campaign construction (opens the store) plus
        ``prepare()`` (the aggregator)."""
        campaign = Campaign(config=self.config(inputs, scale, workdir))
        campaign.prepare(inputs.parameters, inputs.documents, **inputs.prepare_kwargs)
        return campaign

    def run(self, campaign: Campaign, inputs: Inputs, judge) -> CampaignResult:
        raise NotImplementedError

    def checks(self, campaign: Campaign, result: CampaignResult, scale: str) -> List[str]:
        """Workload-specific problems with the concluded result."""
        return []


class PaperFontsize(Workload):
    """§IV-A: 5 font sizes, 10 pairs + 1 control page, platform recruitment."""

    name = "paper-fontsize"
    # Fixed: each upload's duplicate check scans the whole memory collection,
    # so the roster size is part of this workload's identity.
    participants = {"full": 1100, "smoke": 24}

    def inputs(self, seed: int, scale: str) -> Inputs:
        experiment = fontsize.FontSizeExperiment(seed=seed)
        documents = fontsize.build_font_variants()
        return Inputs(
            seed=seed,
            parameters=fontsize.build_parameters(self.participants[scale]),
            documents=documents,
            judge=experiment.make_personal_judge(),
            prepare_kwargs={
                "fetcher": wikipedia_resources_for(documents.keys()),
                "main_text_selector": fontsize.MAIN_TEXT_SELECTOR,
                "instructions": fontsize.QUESTION.text,
            },
        )

    def config(self, inputs: Inputs, scale: str, workdir: str) -> CampaignConfig:
        return CampaignConfig(
            seed=inputs.seed, parallelism=1, executor="serial",
            reward_usd=fontsize.REWARD_USD,
        )

    def run(self, campaign: Campaign, inputs: Inputs, judge) -> CampaignResult:
        return campaign.run(judge)

    def checks(self, campaign, result, scale):
        problems = []
        if result.conclusion.recruited != self.participants[scale]:
            problems.append(
                f"recruited {result.conclusion.recruited}, "
                f"expected {self.participants[scale]}"
            )
        if scale == "full":
            top = result.controlled_analysis.rankings[
                fontsize.QUESTION.question_id
            ].modal_version_at_rank("A")
            if top != fontsize.version_id_for(12):
                problems.append(f"controlled rank-A version is {top}, not 12pt")
        return problems


class RosterWorkload(Workload):
    """Simple one-paragraph pages, a utility judge and a pre-generated roster
    driven through ``run_with_workers``."""

    pages: tuple = ()
    utilities: Dict[str, float] = {}

    def inputs(self, seed: int, scale: str) -> Inputs:
        count = self.participants[scale]
        return Inputs(
            seed=seed,
            parameters=simple_parameters(self.name, self.pages, count),
            documents=simple_documents(self.pages),
            judge=make_utility_judge(self.utilities, ThurstoneChoiceModel()),
            roster=generate_population(count, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=seed),
        )

    def run(self, campaign: Campaign, inputs: Inputs, judge) -> CampaignResult:
        return campaign.run_with_workers(inputs.roster, judge)


class StreamingLossy(RosterWorkload):
    """2-page test on the sharded WAL store, a lossy network, a flash crowd."""

    name = "streaming-lossy"
    participants = {"full": 3000, "smoke": 60}
    pages = ("a", "b")
    utilities = {"a": 0.0, "b": 0.6, CONTRAST: -5.0}
    #: Sustainable service rate of the protected server. Flash arrivals
    #: come ~3 s apart whatever the roster size, so at full scale this puts
    #: peak utilization past the shedding rungs of the ladder (a smoke-size
    #: burst is too short to be sure of it).
    capacity_rps = 5.0
    retry = RetryPolicy(
        max_attempts=6, backoff_base_seconds=1.0, retry_budget_seconds=1800.0
    )

    def config(self, inputs: Inputs, scale: str, workdir: str) -> CampaignConfig:
        return CampaignConfig(
            seed=inputs.seed, parallelism=1, executor="serial",
            store="sharded-streaming", store_shards=4, store_directory=workdir,
            fault_plan=FaultPlan.lossy(
                seed=inputs.seed, drop_rate=0.05, timeout_rate=0.02,
                error_rate=0.02, latency_rate=0.05,
            ),
            retry_policy=self.retry,
            arrival="flash",
            overload=OverloadConfig(
                capacity_rps=self.capacity_rps, protected=True, seed=inputs.seed
            ),
        )

    def checks(self, campaign, result, scale):
        stats = campaign.network.stats
        problems = []
        if stats.faults_injected == 0:
            problems.append("no network faults were injected")
        if scale == "full" and stats.shed_responses == 0:
            problems.append("the overload ladder never engaged")
        return problems


class AdaptiveClose(RosterWorkload):
    """8 closely spaced versions under the shared adaptive scheduler."""

    name = "adaptive-close"
    participants = {"full": 1100, "smoke": 40}
    #: Eight is the most versions a campaign accepts (RANK_LABELS).
    pages = tuple(f"v{i}" for i in range(8))
    #: Utilities spread over 1.0 in total, so neighbours are hard to tell apart.
    utilities = {**{page: i / 7.0 for i, page in enumerate(pages)}, CONTRAST: -5.0}
    #: Answer budget. ``min_answers`` equal to it pins the stop to the
    #: budget, so the refit count does not depend on the seed's answers.
    #: With one pair per session about a quarter of the full roster answers
    #: a pair and about half of those trigger a refit.
    answers = {"full": 240, "smoke": 24}

    def config(self, inputs: Inputs, scale: str, workdir: str) -> CampaignConfig:
        budget = self.answers[scale]
        return CampaignConfig(
            seed=inputs.seed, parallelism=1, executor="serial",
            scheduler="adaptive",
            scheduler_config=SchedulerConfig(
                seed=inputs.seed, session_pairs=1,
                min_answers=budget, max_answers=budget,
            ),
            quality=QualityConfig(),
        )

    def checks(self, campaign, result, scale):
        stop = result.early_stop
        if stop is None:
            return ["the adaptive scheduler never stopped"]
        if sorted(stop.ranking) != sorted(self.pages):
            return [f"early-stop ranking {stop.ranking} is not a ranking of the versions"]
        return []


WORKLOADS = {w.name: w for w in (PaperFontsize(), StreamingLossy(), AdaptiveClose())}


def conclusion_digest(campaign: Campaign, result: CampaignResult) -> str:
    """SHA-256 over the conclusion, the early-stop certificate, quality
    keeps/drops, raw and controlled tallies, rankings and the BT fit."""
    question_ids = [q.question_id for q in campaign.prepared.parameters.question]
    version_ids = [v for v in campaign.prepared.version_ids if v != CONTRAST]
    if campaign.last_streaming is not None:
        bt = {q: campaign.last_streaming.controlled_bt[q] for q in question_ids}
    else:
        bt = {
            q: counts_from_results(result.quality_report.kept, q, version_ids)
            for q in question_ids
        }
    payload = {
        "conclusion": result.conclusion.to_dict(),
        "early_stop": result.early_stop.to_dict() if result.early_stop else None,
        "kept": result.quality_report.kept_ids,
        "dropped": [
            (d.worker_id, d.reason, d.detail) for d in result.quality_report.dropped
        ],
        "raw_tallies": sorted(
            (list(key), (t.left_count, t.right_count, t.same_count))
            for key, t in result.raw_analysis.tallies.items()
        ),
        "controlled_tallies": sorted(
            (list(key), (t.left_count, t.right_count, t.same_count))
            for key, t in result.controlled_analysis.tallies.items()
        ),
        "rankings": {
            q: result.controlled_analysis.rankings[q].matrix for q in question_ids
        },
        "bt": {
            q: {
                "wins": sorted((list(pair), wins) for pair, wins in bt[q].wins.items()),
                "scores": (
                    fit_bradley_terry(bt[q]).scores
                    if bt[q].total_comparisons() > 0 else None
                ),
            }
            for q in question_ids
        },
    }
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def invariant_problems(campaign: Campaign, result: CampaignResult) -> List[str]:
    """Accounting invariants every concluded campaign must satisfy."""
    conclusion = result.conclusion
    uploaded = result.participants
    lost = len(campaign.lost_uploads)
    report = result.quality_report
    problems = []
    if conclusion.recruited != uploaded + lost:
        problems.append(
            f"recruited {conclusion.recruited} != uploaded {uploaded} + lost {lost}"
        )
    if conclusion.uploaded != uploaded:
        problems.append(f"conclusion uploaded {conclusion.uploaded} != {uploaded}")
    if report.kept_count + len(report.dropped) != uploaded:
        problems.append(
            f"kept {report.kept_count} + dropped {len(report.dropped)} "
            f"!= uploaded {uploaded}"
        )
    return problems
