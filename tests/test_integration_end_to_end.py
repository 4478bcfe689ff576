"""Cross-module integration tests: the whole Figure 2 pipeline.

These drive aggregator -> storage/database -> core server -> simulated
network -> browser extension -> quality control -> analysis in one piece,
asserting the invariants that only hold when every seam lines up.
"""

import pytest

from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.loadscript import extract_schedule
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.html.inliner import is_self_contained
from repro.html.parser import parse_html
from repro.net.fetch import StaticResourceMap
from repro.render.paint import build_paint_timeline
from repro.render.metrics import compute_visual_metrics


def build_site():
    """Two versions with external resources on a shared synthetic origin."""
    markup = """<!DOCTYPE html>
<html><head>
  <title>Product page</title>
  <link rel="stylesheet" href="styles/site.css">
</head><body>
  <div id="hero"><img src="images/hero.png" width="600" height="200"><h1>Product</h1></div>
  <div id="details"><p>{pitch}</p></div>
</body></html>"""
    version_a = parse_html(markup.format(pitch="The reliable choice since 2003."))
    version_b = parse_html(markup.format(pitch="Now with a refreshed design and faster checkout."))
    resources = StaticResourceMap()
    for path in ("va", "vb"):
        resources.add(f"http://test.local/{path}/styles/site.css", "h1 { color: navy }")
        resources.add(f"http://test.local/{path}/images/hero.png", b"\x89PNGhero")
    return {"va": version_a, "vb": version_b}, resources


def make_params(load=2500):
    return TestParameters(
        test_id="e2e",
        test_description="end to end",
        participant_num=20,
        question=[Question("q1", "Which page looks better?")],
        webpages=[
            WebpageSpec(web_path="va", web_page_load=load),
            WebpageSpec(web_path="vb", web_page_load=load),
        ],
    )


@pytest.fixture(scope="module")
def finished_campaign():
    campaign = Campaign(config=CampaignConfig(seed=99))
    documents, resources = build_site()
    campaign.prepare(make_params(), documents, fetcher=resources)
    judge = make_utility_judge(
        {"va": 0.0, "vb": 0.4, "__contrast__": -9.0}, ThurstoneChoiceModel()
    )
    result = campaign.run(judge)
    return campaign, result


class TestPipelineInvariants:
    def test_every_stored_version_is_self_contained(self, finished_campaign):
        campaign, _ = finished_campaign
        for webpage in campaign.prepared.webpages:
            stored = parse_html(campaign.storage.read(webpage.storage_path))
            assert is_self_contained(stored)

    def test_stored_versions_carry_executable_schedules(self, finished_campaign):
        campaign, _ = finished_campaign
        for webpage in campaign.prepared.webpages:
            stored = parse_html(campaign.storage.read(webpage.storage_path))
            schedule = extract_schedule(stored)
            assert schedule is not None
            timeline = build_paint_timeline(stored, schedule, seed=1)
            metrics = compute_visual_metrics(timeline)
            assert 0 <= metrics.page_load_time_ms <= 2500

    def test_integrated_pages_resolve_to_stored_versions(self, finished_campaign):
        campaign, _ = finished_campaign
        from repro.core.integrated import frame_sources

        for pair in campaign.prepared.integrated:
            page = parse_html(campaign.storage.read(pair.storage_path))
            left_src, right_src = frame_sources(page)
            assert campaign.storage.read(left_src.lstrip("/"))
            assert campaign.storage.read(right_src.lstrip("/"))

    def test_response_count_matches_roster(self, finished_campaign):
        campaign, result = finished_campaign
        assert campaign.server.response_count("e2e") == 20
        assert result.participants == 20

    def test_every_participant_complete(self, finished_campaign):
        campaign, result = finished_campaign
        pairs = len(campaign.prepared.comparison_pairs())
        for participant in result.raw_results:
            assert len(participant.answers) == pairs + 1  # + control

    def test_results_endpoint_agrees_with_analysis(self, finished_campaign):
        campaign, result = finished_campaign
        payload = campaign.network.get(campaign.server.url("/results/e2e")).json()
        assert payload["participants"] == 20
        tally_row = next(
            t
            for t in payload["tallies"]
            if {t["left_version"], t["right_version"]} == {"va", "vb"}
        )
        local = result.raw_analysis.tallies[("q1", "va", "vb")]
        assert tally_row["left"] == local.left_count
        assert tally_row["right"] == local.right_count

    def test_quality_control_never_invents_participants(self, finished_campaign):
        _, result = finished_campaign
        kept = set(result.quality_report.kept_ids)
        dropped = set(result.quality_report.dropped_ids)
        everyone = {p.worker_id for p in result.raw_results}
        assert kept | dropped == everyone
        assert not kept & dropped

    def test_network_accounting_positive(self, finished_campaign):
        campaign, _ = finished_campaign
        assert campaign.network.stats.requests > 40
        assert campaign.network.stats.errors == 0

    def test_preferred_version_wins(self, finished_campaign):
        _, result = finished_campaign
        tally = result.controlled_analysis.tallies[("q1", "va", "vb")]
        assert tally.right_count >= tally.left_count


class TestExportedArtifacts:
    def test_storage_exports_browsable_tree(self, finished_campaign, tmp_path):
        campaign, _ = finished_campaign
        written = campaign.storage.export_to_directory(tmp_path)
        assert any(p.suffix == ".html" for p in written)
        index = [p for p in written if "integrated" in str(p)]
        assert index, "integrated pages exported"
