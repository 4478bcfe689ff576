"""Seeded fault-matrix smoke: 3 seeds x {no-faults, lossy, outage}.

Each cell runs the same small campaign twice at different parallelism levels
and asserts equal conclusion digests — the reproducibility contract of the
fault-injection layer. The no-faults cell additionally asserts equality with
a plain (pre-resilience) campaign, so the default path provably did not
move.
"""

import pytest

from repro.core.campaign import Campaign
from repro.core.conclusion import conclusion_digest
from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.crowd.workers import FIGURE_EIGHT_TRUSTWORTHY_MIX, generate_population
from repro.html.parser import parse_html
from repro.net.faults import FaultPlan, RetryPolicy

SEEDS = (101, 202, 303)
SCENARIOS = ("no-faults", "lossy", "outage")


def scenario_kwargs(name, seed):
    if name == "no-faults":
        return {}
    if name == "lossy":
        return {
            "fault_plan": FaultPlan.lossy(seed=seed, drop_rate=0.08, error_rate=0.05),
            "retry_policy": RetryPolicy(max_attempts=3, backoff_base_seconds=0.3),
            "dropout_rate": 0.15,
        }
    # outage: the server is unreachable for the first 2 virtual seconds of
    # each client's session; backoff carries retries past the window.
    return {
        "fault_plan": FaultPlan(seed=seed).with_outage(0.0, 2.0),
        "retry_policy": RetryPolicy(max_attempts=4, backoff_base_seconds=1.5),
    }


def run_cell(name, seed, parallelism):
    campaign = Campaign(
        config=CampaignConfig(
            seed=seed,
            parallelism=parallelism, **scenario_kwargs(name, seed)
        ),
    )
    campaign.prepare(
        TestParameters(
            test_id="chaos-test",
            test_description="chaos matrix cell",
            participant_num=5,
            question=[Question("q1", "Which looks better?")],
            webpages=[
                WebpageSpec(web_path="a", web_page_load=1000),
                WebpageSpec(web_path="b", web_page_load=1000),
            ],
        ),
        {
            p: parse_html(
                f"<html><body><div id='m'><p>{p} text</p></div></body></html>"
            )
            for p in ("a", "b")
        },
    )
    judge = make_utility_judge(
        {"a": 0.0, "b": 0.6, "__contrast__": -5.0}, ThurstoneChoiceModel()
    )
    workers = generate_population(
        5, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=seed, id_prefix="w"
    )
    return campaign, campaign.run_with_workers(workers, judge)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cell_reproduces_across_parallelism(scenario, seed):
    assert conclusion_digest(
        *run_cell(scenario, seed, parallelism=1)
    ) == conclusion_digest(*run_cell(scenario, seed, parallelism=4))


@pytest.mark.parametrize("seed", SEEDS)
def test_no_faults_cell_matches_plain_campaign(seed):
    campaign, result = run_cell("no-faults", seed, parallelism=2)
    assert campaign.lost_uploads == []
    assert result.degraded is None
    # The explicit empty plan must not perturb the plain pipeline either.
    plain = run_cell("no-faults", seed, parallelism=1)
    assert conclusion_digest(*plain) == conclusion_digest(campaign, result)


@pytest.mark.parametrize("seed", SEEDS)
def test_faulted_cells_still_conclude(seed):
    for scenario in ("lossy", "outage"):
        _, result = run_cell(scenario, seed, parallelism=2)
        assert result.participants  # survivors uploaded; the campaign concluded
