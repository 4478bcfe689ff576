"""Null-sweep gate for sequential stopping (§IV-B "more visits (and time)").

``Campaign.run_until_significant`` checks its stopping rule after every
upload. On two identical versions it may stop (declare a preference) in at
most ``alpha`` of campaigns, however often it looks. This sweep runs a null
campaign — utilities 0 and 0 under the Thurstone choice model — on each of
the seeds 1-200, fixed in advance, at ``alpha = 0.01`` with a cap of 400
participants, and counts the campaigns that stopped before the cap.

A rule whose false-stop rate is exactly 0.01 stops more than 6 times in 200
with probability 0.43% (binomial tail), so the gate allows at most 6. A
z test re-checked after every batch of 10 stopped in about one null
campaign in five.
"""

from __future__ import annotations

from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.html.parser import parse_html

SEEDS = range(1, 201)
ALPHA = 0.01
MAX_PARTICIPANTS = 400
MAX_FALSE_STOPS = 6


def null_campaign(seed: int) -> Campaign:
    campaign = Campaign(config=CampaignConfig(seed=seed))
    campaign.prepare(
        TestParameters(
            test_id="seq-null",
            test_description="sequential stopping under no preference",
            participant_num=MAX_PARTICIPANTS,
            question=[Question("q1", "Which?")],
            webpages=[
                WebpageSpec(web_path="a", web_page_load=500),
                WebpageSpec(web_path="b", web_page_load=500),
            ],
        ),
        {
            p: parse_html(f"<html><body><p>{p} text</p></body></html>")
            for p in ("a", "b")
        },
    )
    return campaign


def test_null_campaigns_rarely_stop(report_writer):
    judge = make_utility_judge(
        {"a": 0.0, "b": 0.0, "__contrast__": -9.0}, ThurstoneChoiceModel()
    )
    stopped = {}
    for seed in SEEDS:
        result = null_campaign(seed).run_until_significant(
            judge, "q1", ("a", "b"), alpha=ALPHA, max_participants=MAX_PARTICIPANTS
        )
        if result.participants < MAX_PARTICIPANTS:
            stopped[seed] = result.participants
    lines = [
        f"null campaigns: seeds {SEEDS.start}-{SEEDS.stop - 1}, alpha={ALPHA}, "
        f"cap {MAX_PARTICIPANTS} participants",
        f"false stops: {len(stopped)} (gate: at most {MAX_FALSE_STOPS})",
    ]
    lines += [f"  seed {seed}: stopped at {n}" for seed, n in stopped.items()]
    report_writer("sequential_stop_null", "\n".join(lines))
    assert len(stopped) <= MAX_FALSE_STOPS, stopped
