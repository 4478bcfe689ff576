"""Experiment 1 (§IV-A): Kaleidoscope vs in-lab testing.

"What is the best font size for online reading?" — the Wikipedia article is
rendered at five main-text font sizes (10, 12, 14, 18, 22pt), every pair is
compared side by side under identical 3-second page-load settings, and the
same Kaleidoscope configuration is run against two pools:

* 100 "historically trustworthy" FigureEight workers at $0.11 each
  (~12 hours, $11 total);
* 50 trusted in-lab friends/colleagues over about a week, with the
  experimenter walking through every step.

Outputs map one-to-one onto the paper's figures: three ranking
distributions (Figure 4 a/b/c: raw, quality-controlled, in-lab) and three
sets of behaviour CDFs (Figure 5 a/b/c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.analysis import BehaviorCdfs, RankingDistribution, behavior_cdfs
from repro.core.campaign import Campaign, CampaignResult
from repro.core.config import CampaignConfig
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.crowd.inlab import InLabStudy
from repro.crowd.judgment import FontReadabilityModel, ThurstoneChoiceModel
from repro.html.mutations import set_font_size
from repro.experiments.datasets import build_wikipedia_page, wikipedia_resources_for
from repro.sim.clock import SimulationEnvironment
from repro.util.rng import SeedSequenceFactory

FONT_SIZES_PT = (10, 12, 14, 18, 22)
MAIN_TEXT_SELECTOR = "#mw-content-text p"
PAGE_LOAD_MS = 3000  # "the original page load time when accessing from our premises"
QUESTION = Question(
    "font-q1", "Which webpage's font size is more suitable (easier) for reading?"
)
CROWD_PARTICIPANTS = 100
INLAB_PARTICIPANTS = 50
REWARD_USD = 0.11


def version_id_for(size_pt: int) -> str:
    """Stable version id for a font size."""
    return f"font-{size_pt}pt"


def build_font_variants() -> Dict[str, "object"]:
    """{web_path: document} for the five font-size versions."""
    base = build_wikipedia_page()
    documents = {}
    for size in FONT_SIZES_PT:
        variant = base.clone()
        changed = set_font_size(variant, MAIN_TEXT_SELECTOR, size)
        assert changed > 0, "main-text selector must match"
        documents[version_id_for(size)] = variant
    return documents


def build_parameters(participants: int = CROWD_PARTICIPANTS) -> TestParameters:
    """The Table-I document for this experiment."""
    return TestParameters(
        test_id="fontsize-online-reading",
        test_description=(
            "Best font size for online reading: rock hyrax Wikipedia page at "
            "five main-text font sizes"
        ),
        participant_num=participants,
        question=[QUESTION],
        webpages=[
            WebpageSpec(
                web_path=version_id_for(size),
                web_page_load=PAGE_LOAD_MS,
                web_description=f"main text at {size}pt",
            )
            for size in FONT_SIZES_PT
        ],
    )


@dataclass
class FontSizeOutcome:
    """Everything Figures 4 and 5 need."""

    raw_ranking: RankingDistribution            # Figure 4(a)
    controlled_ranking: RankingDistribution     # Figure 4(b)
    inlab_ranking: RankingDistribution          # Figure 4(c)
    raw_behavior: BehaviorCdfs                  # Figure 5 series "raw"
    controlled_behavior: BehaviorCdfs           # Figure 5 series "quality control"
    inlab_behavior: BehaviorCdfs                # Figure 5 series "in-lab"
    crowd_result: CampaignResult
    inlab_result: CampaignResult
    crowd_duration_hours: float
    crowd_cost_usd: float
    inlab_duration_days: float

    @property
    def version_ids(self) -> List[str]:
        return self.raw_ranking.version_ids

    def top_choice_agreement(self) -> Tuple[str, str, str]:
        """Modal rank-"A" version per condition (the headline check:
        12pt everywhere)."""
        return (
            self.raw_ranking.modal_version_at_rank("A"),
            self.controlled_ranking.modal_version_at_rank("A"),
            self.inlab_ranking.modal_version_at_rank("A"),
        )


# Individual differences: each participant's preferred size drifts around
# the population peak (vision, age, display density). Log-normal with this
# sigma puts ~1 in 8 readers' peak nearer 10pt than 12pt and ~1 in 3 nearer
# 14pt — the spread visible across the Figure 4 rank-A bars.
PERSONAL_PEAK_LOG_SIGMA = 0.11


class PersonalFontJudge:
    """Per-worker readability heterogeneity as a picklable callable.

    A worker's personal model is a pure function of ``(hetero_seed,
    worker_id)``, so rebuilding the per-worker cache in another process
    yields exactly the same models — what makes this judge safe to ship to
    the process-pool fan-out. The cache itself is dropped from the pickle:
    it is only memoization.
    """

    def __init__(self, base: FontReadabilityModel, hetero_seed: int, choice_model):
        self.base = base
        self.hetero_seed = int(hetero_seed)
        self.choice_model = choice_model
        self.size_of = {version_id_for(size): float(size) for size in FONT_SIZES_PT}
        self._models: Dict[str, FontReadabilityModel] = {}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_models"] = {}
        return state

    def _model_for(self, worker_id: str) -> FontReadabilityModel:
        import numpy as np

        from repro.util.rng import derive_rng

        model = self._models.get(worker_id)
        if model is None:
            rng = derive_rng(self.hetero_seed, worker_id)
            peak = float(
                self.base.peak_pt * np.exp(rng.normal(0.0, PERSONAL_PEAK_LOG_SIGMA))
            )
            model = FontReadabilityModel(
                peak_pt=peak,
                width=self.base.width,
                small_penalty=self.base.small_penalty,
            )
            self._models[worker_id] = model
        return model

    def __call__(self, worker, question, left_version, right_version, rng) -> str:
        model = self._model_for(worker.worker_id)
        return self.choice_model.choose(
            model.utility(self.size_of[left_version]),
            model.utility(self.size_of[right_version]),
            worker,
            rng=rng,
        )


class FontSizeExperiment:
    """Runs the full §IV-A comparison."""

    def __init__(self, seed: int = 2019, readability: Optional[FontReadabilityModel] = None):
        self.seeds = SeedSequenceFactory(seed)
        self.readability = readability or FontReadabilityModel()
        self.choice_model = ThurstoneChoiceModel()

    def utilities(self) -> Dict[str, float]:
        """Population-level readability utility per version id."""
        return {
            version_id_for(size): self.readability.utility(size)
            for size in FONT_SIZES_PT
        }

    def make_personal_judge(self) -> "PersonalFontJudge":
        """A judge with per-worker preference heterogeneity.

        Each worker gets a personal readability curve (peak drawn once per
        worker); their pairwise answers then come from the Thurstone model
        over *their* utilities. The judge is a picklable
        :class:`PersonalFontJudge`, so it survives the process-pool fan-out.
        """
        return PersonalFontJudge(
            base=self.readability,
            hetero_seed=self.seeds.seed("personal-peaks"),
            choice_model=self.choice_model,
        )

    # -- arms -------------------------------------------------------------

    def run_crowd(
        self,
        participants: int = CROWD_PARTICIPANTS,
        parallelism: int = 1,
        artifact_cache: Optional[bool] = True,
    ) -> CampaignResult:
        """The Kaleidoscope arm: FigureEight recruitment + extension flow.

        ``parallelism`` and ``artifact_cache`` go into the campaign's
        :class:`~repro.core.config.CampaignConfig` — the perf benchmark
        drives this arm in both its brute-force and fast-path
        configurations.
        """
        campaign = Campaign(
            seed=self.seeds.seed("crowd-campaign"),
            config=CampaignConfig(
                parallelism=parallelism, artifact_cache=artifact_cache
            ),
        )
        documents = build_font_variants()
        parameters = build_parameters(participants)
        fetcher = wikipedia_resources_for(documents.keys())
        campaign.prepare(
            parameters,
            documents,
            fetcher=fetcher,
            main_text_selector=MAIN_TEXT_SELECTOR,
            instructions=QUESTION.text,
        )
        judge = self.make_personal_judge()
        return campaign.run(judge, reward_usd=REWARD_USD)

    def run_inlab(self, participants: int = INLAB_PARTICIPANTS) -> Tuple[CampaignResult, float]:
        """The in-lab arm: same configuration, trusted walked-through pool.

        Returns (result, duration_days); recruitment takes about a week.
        """
        env = SimulationEnvironment()
        campaign = Campaign(env=env, seed=self.seeds.seed("inlab-campaign"))
        documents = build_font_variants()
        parameters = build_parameters(participants)
        fetcher = wikipedia_resources_for(documents.keys())
        campaign.prepare(
            parameters,
            documents,
            fetcher=fetcher,
            main_text_selector=MAIN_TEXT_SELECTOR,
            instructions=QUESTION.text,
        )
        study = InLabStudy(env, participants_needed=participants)
        study.run(seed=self.seeds.seed("inlab-recruitment"))
        judge = self.make_personal_judge()
        result = campaign.run_with_workers(study.participants, judge, in_lab=True)
        return result, study.duration_days

    # -- the full comparison ----------------------------------------------------

    def run(
        self,
        crowd_participants: int = CROWD_PARTICIPANTS,
        inlab_participants: int = INLAB_PARTICIPANTS,
    ) -> FontSizeOutcome:
        """Run both arms and assemble the Figure 4/5 data."""
        crowd = self.run_crowd(crowd_participants)
        inlab, inlab_days = self.run_inlab(inlab_participants)
        question_id = QUESTION.question_id
        return FontSizeOutcome(
            raw_ranking=crowd.raw_analysis.rankings[question_id],
            controlled_ranking=crowd.controlled_analysis.rankings[question_id],
            inlab_ranking=inlab.raw_analysis.rankings[question_id],
            raw_behavior=behavior_cdfs(crowd.raw_results),
            controlled_behavior=behavior_cdfs(crowd.controlled_results),
            inlab_behavior=behavior_cdfs(inlab.raw_results),
            crowd_result=crowd,
            inlab_result=inlab,
            crowd_duration_hours=crowd.duration_days * 24.0,
            crowd_cost_usd=crowd.total_cost_usd,
            inlab_duration_days=inlab_days,
        )
