"""Experiment 2 (§IV-B): Kaleidoscope vs A/B testing.

The research-group landing page grows a redesigned "Expand" button (text
1.5x larger, captivating symbol, moved next to the main text). Two ways to
find out whether the redesign helps:

* **A/B testing** on the live site: serve A/B 50/50 until 100 visitors,
  record only button clicks (privacy constraint). The paper observed 3/51
  clicks on A vs 6/49 on B over 12 days — p = 0.133, inconclusive.
* **Kaleidoscope**: 100 crowd workers at $0.10, three explicit questions —
  (A) which webpage is graphically more appealing? (B) which version of the
  'Expand' button looks better? (C) which version of the 'Expand' button is
  more visible? Collected in about a day; question C lands 46 vs 14 with
  p = 6.8e-8.

The latent utility gaps per question encode how visually large each asked
difference is: nearly nothing for overall appeal (the edit is tiny relative
to the page), moderate for button looks, large for button visibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.abtest.experiment import ABExperiment, ABResult
from repro.abtest.traffic import SiteTrafficModel
from repro.core.analysis import QuestionTally
from repro.core.campaign import Campaign, CampaignResult
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.experiments.datasets import build_group_page_variant, group_resources_for
from repro.sim.clock import SECONDS_PER_DAY, SimulationEnvironment
from repro.util.rng import SeedSequenceFactory

VERSION_A = "group-a"
VERSION_B = "group-b"
PAGE_LOAD_MS = 3000

QUESTION_A = Question("q-appeal", "Which webpage is graphically more appealing?")
QUESTION_B = Question("q-looks", "Which version of the 'Expand' button looks better?")
QUESTION_C = Question("q-visible", "Which version of the 'Expand' button is more visible?")
QUESTIONS = (QUESTION_A, QUESTION_B, QUESTION_C)

# Latent utility advantage of version B per question (B minus A), on the
# same scale as the Thurstone noise (trustworthy sigma ~0.16).
UTILITY_GAPS = {
    QUESTION_A.question_id: 0.02,   # page-level appeal: nearly invisible edit
    QUESTION_B.question_id: 0.10,   # button looks: modest preference
    QUESTION_C.question_id: 0.16,   # button visibility: the actual design goal
}

CROWD_PARTICIPANTS = 100
REWARD_USD = 0.10
AB_VISITORS = 100
AB_VISITORS_PER_DAY = 8.3
CLICK_RATE_A = 0.059   # ≈ 3/51 in the paper's run
CLICK_RATE_B = 0.122   # ≈ 6/49


def build_parameters(participants: int = CROWD_PARTICIPANTS) -> TestParameters:
    """The Table-I document for this experiment."""
    return TestParameters(
        test_id="expand-button-redesign",
        test_description="Original vs redesigned 'Expand' button on the group page",
        participant_num=participants,
        question=[q for q in QUESTIONS],
        webpages=[
            WebpageSpec(
                web_path=VERSION_A,
                web_page_load=PAGE_LOAD_MS,
                web_description="original page (small grey Expand button)",
            ),
            WebpageSpec(
                web_path=VERSION_B,
                web_page_load=PAGE_LOAD_MS,
                web_description="variant page (larger symbol Expand button)",
            ),
        ],
    )


def make_multi_question_judge(choice_model: ThurstoneChoiceModel):
    """A judge that applies the per-question utility gap.

    Versions map to utilities {A: 0, B: gap(question)}; the Thurstone model
    does the rest.
    """

    def judge(worker, question, left_version, right_version, rng):
        gap = UTILITY_GAPS[question.question_id]
        utilities = {VERSION_A: 0.0, VERSION_B: gap, "__contrast__": -5.0}
        return choice_model.choose(
            utilities[left_version], utilities[right_version], worker, rng=rng
        )

    return judge


@dataclass
class ExpandButtonOutcome:
    """Everything Figures 7 and 8 need."""

    kaleidoscope_result: CampaignResult
    ab_result: ABResult
    kaleidoscope_arrival_days: List[float]       # Figure 7(a), Kaleidoscope curve
    ab_arrival_days: List[float]                 # Figure 7(a), A/B curve
    tallies: Dict[str, QuestionTally]            # Figure 8 (and 7(c) via q-visible)
    kaleidoscope_duration_days: float
    ab_duration_days: float

    @property
    def speedup(self) -> float:
        """How many times faster Kaleidoscope reached its quota (paper: >12x)."""
        if self.kaleidoscope_duration_days <= 0:
            return float("inf")
        return self.ab_duration_days / self.kaleidoscope_duration_days

    @property
    def visibility_p_value(self) -> float:
        """The question-C p-value (paper: 6.8e-8)."""
        return self.tallies[QUESTION_C.question_id].preference_p_value()

    @property
    def ab_p_value(self) -> float:
        """The A/B p-value (paper: 0.133)."""
        return self.ab_result.test.p_value


class ExpandButtonExperiment:
    """Runs both arms of §IV-B."""

    def __init__(self, seed: int = 2019):
        self.seeds = SeedSequenceFactory(seed)
        self.choice_model = ThurstoneChoiceModel()

    def run_kaleidoscope(
        self,
        participants: int = CROWD_PARTICIPANTS,
    ) -> CampaignResult:
        """The Kaleidoscope arm."""
        campaign = Campaign(seed=self.seeds.seed("kaleidoscope"))
        documents = {
            VERSION_A: build_group_page_variant("A"),
            VERSION_B: build_group_page_variant("B"),
        }
        parameters = build_parameters(participants)
        fetcher = group_resources_for(documents.keys())
        campaign.prepare(
            parameters,
            documents,
            fetcher=fetcher,
            main_text_selector=".blurb",
            instructions="Compare the two versions of our group webpage.",
        )
        judge = make_multi_question_judge(self.choice_model)
        return campaign.run(judge, reward_usd=REWARD_USD)

    def run_ab(self, visitors: int = AB_VISITORS) -> Tuple[ABResult, ABExperiment]:
        """The A/B arm on simulated live traffic."""
        env = SimulationEnvironment()
        traffic = SiteTrafficModel(env, visitors_per_day=AB_VISITORS_PER_DAY)
        experiment = ABExperiment(
            traffic, click_rate_a=CLICK_RATE_A, click_rate_b=CLICK_RATE_B
        )
        result = experiment.run(visitors=visitors, seed=self.seeds.seed("ab"))
        return result, experiment

    def run(self, participants: int = CROWD_PARTICIPANTS) -> ExpandButtonOutcome:
        """Run both arms and assemble the Figure 7/8 data."""
        kaleidoscope = self.run_kaleidoscope(participants)
        ab_result, ab_experiment = self.run_ab()
        tallies = {
            question.question_id: kaleidoscope.raw_analysis.tallies[
                (question.question_id, VERSION_A, VERSION_B)
            ]
            for question in QUESTIONS
        }
        job = kaleidoscope.job
        arrivals = (
            [t / SECONDS_PER_DAY for t in job.cumulative_arrivals()] if job else []
        )
        ab_days = [v.arrival_day for v in sorted(
            ab_experiment.traffic.visits, key=lambda v: v.arrival_time_s
        )]
        return ExpandButtonOutcome(
            kaleidoscope_result=kaleidoscope,
            ab_result=ab_result,
            kaleidoscope_arrival_days=arrivals,
            ab_arrival_days=ab_days,
            tallies=tallies,
            kaleidoscope_duration_days=kaleidoscope.duration_days,
            ab_duration_days=ab_result.duration_days,
        )
