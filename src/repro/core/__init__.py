"""Kaleidoscope core: the paper's contribution.

The three components of Figure 2 — aggregator, core server, browser
extension — plus the pieces they share: the Table-I test-parameter schema,
the injected page-load replay script, integrated-webpage composition,
comparison scheduling, quality control, result analysis, and end-to-end
campaign orchestration.
"""

from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.core.loadscript import generate_load_script
from repro.core.integrated import IntegratedWebpage, compose_integrated_page
from repro.core.aggregator import Aggregator, TestWebpage, PreparedTest
from repro.core.scheduling import (
    SCHEDULER_MODES,
    all_pairs,
    make_scheduler,
    scheduler_from_snapshot,
    InsertionSortScheduler,
    BubbleSortScheduler,
    MergeSortScheduler,
    FullPairScheduler,
    Scheduler,
    SchedulerConfig,
)
from repro.core.adaptive import AdaptiveScheduler, EarlyStoppedConclusion
from repro.core.extension import BrowserExtension, ParticipantResult
from repro.core.quality import QualityControl, QualityReport
from repro.core.server import CoreServer
from repro.core.analysis import (
    QuestionTally,
    RankingDistribution,
    analyze_responses,
)
from repro.core.campaign import Campaign, CampaignResult
from repro.core.conclusion import (
    Conclusion,
    DegradedConclusion,
    conclusion_digest,
)
from repro.core.config import CampaignConfig
from repro.core.btmodel import BradleyTerryFit, fit_bradley_terry, fit_from_results

__all__ = [
    "BradleyTerryFit",
    "fit_bradley_terry",
    "fit_from_results",
    "Question",
    "TestParameters",
    "WebpageSpec",
    "generate_load_script",
    "IntegratedWebpage",
    "compose_integrated_page",
    "Aggregator",
    "TestWebpage",
    "PreparedTest",
    "all_pairs",
    "make_scheduler",
    "scheduler_from_snapshot",
    "SCHEDULER_MODES",
    "InsertionSortScheduler",
    "BubbleSortScheduler",
    "MergeSortScheduler",
    "FullPairScheduler",
    "Scheduler",
    "SchedulerConfig",
    "AdaptiveScheduler",
    "EarlyStoppedConclusion",
    "BrowserExtension",
    "ParticipantResult",
    "QualityControl",
    "QualityReport",
    "CoreServer",
    "QuestionTally",
    "RankingDistribution",
    "analyze_responses",
    "Campaign",
    "CampaignConfig",
    "CampaignResult",
    "Conclusion",
    "DegradedConclusion",
    "conclusion_digest",
]
