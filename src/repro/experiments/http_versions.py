"""Extension experiment: HTTP/1.1 vs HTTP/2 user-perceived load time.

The paper's closing §IV-C remark — "Kaleidoscope can do more with replaying
page loading, e.g., comparing http/1.1 and http/2.0" — made concrete:

1. derive the Wikipedia article's object inventory per region;
2. simulate each protocol's fetch timing over a chosen network profile
   (:mod:`repro.net.objectload`);
3. convert both into ``web_page_load`` replay schedules;
4. run a standard Kaleidoscope campaign asking "which version seems ready
   to use first?", with perception driven by each version's measured main
   vs auxiliary reveal times.

Expected shape: over high-latency links HTTP/2's multiplexing lands the
text content earlier (no connection queueing), so the crowd should prefer
the h2 replay — and the objective Speed Index should agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.analysis import QuestionTally
from repro.core.campaign import Campaign, CampaignResult
from repro.core.config import CampaignConfig
from repro.core.extension import make_uplt_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.crowd.judgment import UPLTPerceptionModel
from repro.experiments.datasets import build_wikipedia_page, wikipedia_resources_for
from repro.net.objectload import protocol_schedules
from repro.net.profiles import NetworkProfile, get_profile
from repro.render.metrics import VisualMetrics, compute_visual_metrics
from repro.render.paint import build_paint_timeline
from repro.render.replay import SelectorSchedule
from repro.util.rng import SeedSequenceFactory

VERSION_H1 = "load-http1"
VERSION_H2 = "load-http2"
REGIONS = ("#navbar", "#infobox", "#mw-content-text")
MAIN_REGION = "#mw-content-text"

QUESTION = Question(
    "http-q1", "Which version of the webpage seems ready to use first?"
)
CROWD_PARTICIPANTS = 100
REWARD_USD = 0.10


def region_times_of(schedule: SelectorSchedule) -> Dict[str, float]:
    """Split a protocol schedule into main/auxiliary reveal times."""
    by_selector = dict(schedule.entries)
    main = by_selector[MAIN_REGION]
    auxiliary = max(
        time_ms for selector, time_ms in by_selector.items() if selector != MAIN_REGION
    )
    return {"main": main, "auxiliary": auxiliary}


@dataclass
class HttpVersionsOutcome:
    """Everything the h1-vs-h2 comparison reports."""

    raw_tally: QuestionTally
    controlled_tally: QuestionTally
    metrics_h1: VisualMetrics
    metrics_h2: VisualMetrics
    schedule_h1: SelectorSchedule
    schedule_h2: SelectorSchedule
    result: CampaignResult
    profile_name: str

    @property
    def h2_speed_index_gain(self) -> float:
        """Relative Speed-Index improvement of h2 over h1."""
        if self.metrics_h1.speed_index == 0:
            return 0.0
        return 1.0 - self.metrics_h2.speed_index / self.metrics_h1.speed_index

    @property
    def crowd_prefers_h2(self) -> bool:
        return self.controlled_tally.right_count > self.controlled_tally.left_count


class HttpVersionsExperiment:
    """Runs the h1-vs-h2 page-load comparison end to end."""

    def __init__(
        self,
        seed: int = 2019,
        profile: Optional[NetworkProfile] = None,
        perception: Optional[UPLTPerceptionModel] = None,
    ):
        self.seeds = SeedSequenceFactory(seed)
        self.profile = profile or get_profile("3g")
        self.perception = perception or UPLTPerceptionModel()

    def build_schedules(self) -> Dict[str, SelectorSchedule]:
        """Protocol fetch simulation -> replay schedules."""
        page = build_wikipedia_page()
        return protocol_schedules(page, REGIONS, self.profile)

    def build_parameters(self, schedules, participants: int) -> TestParameters:
        return TestParameters(
            test_id=f"http1-vs-http2-{self.profile.name}",
            test_description=(
                f"HTTP/1.1 vs HTTP/2 page-load replay over {self.profile.name}"
            ),
            participant_num=participants,
            question=[QUESTION],
            webpages=[
                WebpageSpec(
                    web_path=VERSION_H1,
                    web_page_load=schedules["http1"].to_parameter(),
                    web_description="objects fetched over 6 HTTP/1.1 connections",
                ),
                WebpageSpec(
                    web_path=VERSION_H2,
                    web_page_load=schedules["http2"].to_parameter(),
                    web_description="objects multiplexed over one HTTP/2 connection",
                ),
            ],
        )

    def measure(self, schedules) -> Dict[str, VisualMetrics]:
        page = build_wikipedia_page()
        return {
            VERSION_H1: compute_visual_metrics(
                build_paint_timeline(page, schedules["http1"])
            ),
            VERSION_H2: compute_visual_metrics(
                build_paint_timeline(page, schedules["http2"])
            ),
        }

    def run(
        self,
        participants: int = CROWD_PARTICIPANTS,
    ) -> HttpVersionsOutcome:
        schedules = self.build_schedules()
        campaign = Campaign(
            config=CampaignConfig(
                seed=self.seeds.seed("http-campaign"), reward_usd=REWARD_USD
            )
        )
        base = build_wikipedia_page()
        documents = {VERSION_H1: base.clone(), VERSION_H2: base.clone()}
        parameters = self.build_parameters(schedules, participants)
        fetcher = wikipedia_resources_for(documents.keys())
        campaign.prepare(
            parameters,
            documents,
            fetcher=fetcher,
            main_text_selector="#mw-content-text p",
            instructions=QUESTION.text,
        )
        region_times = {
            VERSION_H1: region_times_of(schedules["http1"]),
            VERSION_H2: region_times_of(schedules["http2"]),
            "__contrast__": region_times_of(schedules["http1"]),
        }
        judge = make_uplt_judge(region_times, self.perception)
        result = campaign.run(judge)
        raw = result.raw_analysis.tallies[(QUESTION.question_id, VERSION_H1, VERSION_H2)]
        controlled = result.controlled_analysis.tallies[
            (QUESTION.question_id, VERSION_H1, VERSION_H2)
        ]
        metrics = self.measure(schedules)
        return HttpVersionsOutcome(
            raw_tally=raw,
            controlled_tally=controlled,
            metrics_h1=metrics[VERSION_H1],
            metrics_h2=metrics[VERSION_H2],
            schedule_h1=schedules["http1"],
            schedule_h2=schedules["http2"],
            result=result,
            profile_name=self.profile.name,
        )
