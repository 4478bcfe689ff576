"""Kaleidoscope: a crowdsourcing testing tool for Web quality of experience.

A from-scratch Python reproduction of the ICDCS 2019 system by Wang,
Varvello and Kuzmanovic: the aggregator / core server / browser extension
pipeline, the page-load replay mechanism, the quality-control stack, and
every substrate they need (HTML engine, layout + visual metrics, simulated
network, document store, crowd and A/B simulators).

Quickstart::

    from repro import Campaign, CampaignConfig, TestParameters, Question, WebpageSpec
    from repro.core.extension import make_utility_judge
    from repro.crowd import ThurstoneChoiceModel
    from repro.html import parse_html

    params = TestParameters(
        test_id="demo",
        test_description="two-version style test",
        participant_num=30,
        question=[Question("q1", "Which webpage looks better?")],
        webpages=[
            WebpageSpec(web_path="a", web_page_load=3000),
            WebpageSpec(web_path="b", web_page_load=3000),
        ],
    )
    campaign = Campaign(config=CampaignConfig(seed=7, reward_usd=0.10))
    campaign.prepare(params, documents={"a": page_a, "b": page_b})
    judge = make_utility_judge({"a": 0.5, "b": 0.8}, ThurstoneChoiceModel())
    result = campaign.run(judge)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.core.campaign import Campaign, CampaignResult
from repro.core.conclusion import Conclusion, DegradedConclusion
from repro.core.config import CampaignConfig
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.core.quality import QualityConfig, QualityControl, QualityReport
from repro.core.aggregator import Aggregator, PreparedTest, TestWebpage
from repro.core.server import CoreServer
from repro.core.extension import (
    BrowserExtension,
    ParticipantResult,
    make_uplt_judge,
    make_utility_judge,
)

__version__ = "1.0.0"

__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignResult",
    "Conclusion",
    "DegradedConclusion",
    "Question",
    "TestParameters",
    "WebpageSpec",
    "QualityConfig",
    "QualityControl",
    "QualityReport",
    "Aggregator",
    "PreparedTest",
    "TestWebpage",
    "CoreServer",
    "BrowserExtension",
    "ParticipantResult",
    "make_uplt_judge",
    "make_utility_judge",
    "__version__",
]
