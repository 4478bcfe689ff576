"""Campaign submissions: the unit of work the fleet queues and executes.

A :class:`CampaignSubmission` is everything needed to rebuild and run one
campaign from scratch, anywhere, any number of times: the frozen
:class:`~repro.core.config.CampaignConfig`, the stimulus spec (parameters +
raw version HTML), the judge, and the roster seed. It must be picklable —
the queue persists it so a control-plane restart can still redeliver the
job — and rebuilding from it must be deterministic, because requeue-on-
crash correctness is defined as "the redelivered run concludes identically
to an uncrashed one".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.core.campaign import Campaign
from repro.core.conclusion import conclusion_digest
from repro.core.config import CampaignConfig
from repro.core.parameters import TestParameters
from repro.crowd.workers import (
    FIGURE_EIGHT_TRUSTWORTHY_MIX,
    WorkerProfile,
    generate_population,
)
from repro.errors import FleetError
from repro.html.parser import parse_html


@dataclass
class CampaignSubmission:
    """One experimenter's campaign request, self-contained and picklable.

    ``documents`` maps version id -> raw HTML markup (text, not parsed DOM:
    parsing is cheap and Document objects are heavyweight to pickle).
    ``participants`` overrides the roster size when set (the spec's
    ``participant_num`` otherwise). ``resource`` names the stimulus host the
    campaign loads against for the queue's per-resource concurrency guard;
    it defaults to the config's serving host.
    """

    parameters: TestParameters
    documents: Dict[str, str]
    judge: Any
    config: CampaignConfig = field(default_factory=CampaignConfig)
    population_seed: int = 0
    participants: Optional[int] = None
    resource: str = ""
    main_text_selector: str = "p"
    instructions: str = ""
    fetcher: Any = None

    def __post_init__(self):
        if not self.documents:
            raise FleetError("a submission needs at least one version document")

    def stimulus_host(self) -> str:
        """The resource key for concurrency guards and breaker scoping."""
        return self.resource or self.config.host

    def roster_size(self) -> int:
        return self.participants or self.parameters.participant_num

    def roster(self) -> List[WorkerProfile]:
        """The campaign's worker roster — a pure function of the seed."""
        return generate_population(
            self.roster_size(),
            FIGURE_EIGHT_TRUSTWORTHY_MIX,
            seed=self.population_seed,
        )

    def build_campaign(self) -> Campaign:
        """A fresh, prepared campaign on fresh infrastructure.

        Every call re-parses the stimulus and re-runs aggregation, so two
        builds (an original delivery and a post-crash redelivery) start from
        identical state.
        """
        campaign = Campaign(config=self.config)
        documents = {
            version: parse_html(markup)
            for version, markup in self.documents.items()
        }
        campaign.prepare(
            self.parameters,
            documents,
            fetcher=self.fetcher,
            main_text_selector=self.main_text_selector,
            instructions=self.instructions,
        )
        return campaign

    def execute(
        self, resume_from: Optional[dict] = None, campaign: Optional[Campaign] = None
    ) -> dict:
        """Run (or resume) the campaign to its result record: the
        concluded ``CampaignResult.to_dict()``, the finished campaign's
        ``resume_state()`` under ``"resume"`` and its
        :func:`conclusion_digest` under ``"digest"``, so comparing two
        records compares every stored row and the whole conclusion."""
        if campaign is None:
            campaign = self.build_campaign()
        result = campaign.run_with_workers(
            self.roster(), self.judge, resume_from=resume_from
        )
        record = result.to_dict()
        record["resume"] = campaign.resume_state()
        record["digest"] = conclusion_digest(campaign, result)
        return record

    def reference_run(self) -> dict:
        """An uncrashed, un-fleeted run's record — the correctness oracle
        the bench compares crashed-and-resumed fleet results against."""
        return self.execute()

    def with_seed(self, seed: int) -> "CampaignSubmission":
        """A copy re-seeded for both the campaign RNG and the roster — how
        the bench stamps out N distinct campaigns from one template."""
        return replace(
            self, config=self.config.replace(seed=seed), population_seed=seed
        )
