"""End-to-end trace tests: the exported timeline is a deterministic artifact.

The acceptance contract of the observability layer: a seeded, observed
campaign emits a valid Chrome trace-event JSON covering every level of the
pipeline (campaign → participant → integrated page → network exchange), and
the artifact is *bit-identical* no matter the parallelism level. A chaos run
additionally surfaces every injected fault and retry as span events.
"""

import json

import pytest

from repro.core.campaign import Campaign
from repro.core.conclusion import conclusion_digest
from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.errors import CampaignError
from repro.html.parser import parse_html
from repro.net.faults import FaultPlan, RetryPolicy
from repro.obs.timeline import validate_trace_events

VERSIONS = ("a", "b", "c")
PARTICIPANTS = 20


def make_documents():
    return {
        p: parse_html(
            f"<html><body><div><p>{p} body text for the page</p></div></body></html>"
        )
        for p in VERSIONS
    }


def make_params(participants=PARTICIPANTS):
    return TestParameters(
        test_id="trace-test",
        test_description="observed campaign",
        participant_num=participants,
        question=[Question("q1", "Which looks better?")],
        webpages=[WebpageSpec(web_path=p, web_page_load=1000) for p in VERSIONS],
    )


def make_judge():
    return make_utility_judge(
        {"a": 0.0, "b": 0.4, "c": 0.8, "__contrast__": -5.0},
        ThurstoneChoiceModel(),
    )


def run_observed(parallelism=1, seed=71, config=None):
    """One observed 3-version / 20-participant campaign."""
    if config is None:
        config = CampaignConfig(seed=seed, observe=True)
    campaign = Campaign(config=config.replace(parallelism=parallelism))
    campaign.prepare(make_params(), make_documents())
    result = campaign.run(make_judge())
    return campaign, result


class TestSpanTree:
    def test_covers_every_pipeline_level(self):
        campaign, result = run_observed()
        root = campaign.obs.trace_root()
        assert root is not None
        campaigns = root.find_all("campaign")
        participants = root.find_all("participant")
        pages = root.find_all("page")
        exchanges = root.find_all("exchange")
        assert len(campaigns) == 1
        assert len(participants) == PARTICIPANTS
        # Every participant views pages; every page view triggered answers.
        assert len(pages) >= PARTICIPANTS
        assert len(exchanges) > len(pages)  # downloads + uploads
        # Participant subtrees actually nest the page spans.
        assert all(p.find_all("page") for p in participants)

    def test_spans_carry_virtual_timestamps(self):
        campaign, _ = run_observed()
        root = campaign.obs.trace_root()
        for span in root.iter():
            assert span.end is not None, f"unfinished span {span.name}"
            assert span.end >= span.start

    def test_answers_recorded_as_events(self):
        campaign, result = run_observed()
        root = campaign.obs.trace_root()
        answers = [n for n in root.event_names() if n == "answer"]
        expected = sum(len(r.answers) for r in result.raw_results)
        assert len(answers) == expected

    def test_timeline_requires_observation(self):
        campaign = Campaign(config=CampaignConfig(seed=1))
        with pytest.raises(CampaignError):
            campaign.timeline()


class TestCrossParallelismDeterminism:
    def test_trace_and_metrics_bit_identical(self, tmp_path):
        serial_campaign, serial_result = run_observed(parallelism=1)
        parallel_campaign, parallel_result = run_observed(parallelism=4)

        # The conclusion agrees...
        assert conclusion_digest(serial_campaign, serial_result) == (
            conclusion_digest(parallel_campaign, parallel_result)
        )
        # ...the span trees agree down to timestamps, attrs and events...
        assert (
            serial_campaign.obs.trace_root().signature()
            == parallel_campaign.obs.trace_root().signature()
        )
        # ...the deterministic metric sections agree...
        assert (
            serial_campaign.metrics.deterministic_snapshot()
            == parallel_campaign.metrics.deterministic_snapshot()
        )
        # ...and the exported artifacts are byte-identical.
        p1 = serial_campaign.timeline().write_json(tmp_path / "p1.json")
        p4 = parallel_campaign.timeline().write_json(tmp_path / "p4.json")
        assert p1.read_bytes() == p4.read_bytes()


class TestExportedArtifact:
    def test_trace_event_json_validates(self, tmp_path):
        campaign, _ = run_observed(parallelism=2)
        path = campaign.timeline().write_json(tmp_path / "trace.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert validate_trace_events(payload) == []
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert {"campaign", "participant", "page", "exchange"} <= names

    def test_metadata_and_metrics_attached(self, tmp_path):
        campaign, _ = run_observed()
        payload = campaign.timeline().to_trace_events()
        other = payload["otherData"]
        assert other["meta"]["test_id"] == "trace-test"
        counters = other["metrics"]["counters"]
        assert counters.get("campaign.participants", 0) == PARTICIPANTS

    def test_text_report_summarizes_the_run(self):
        campaign, _ = run_observed()
        report = campaign.timeline().text_report()
        assert "campaign" in report
        assert "participant" in report


class TestChaosRunEvents:
    def chaos_config(self, seed=71):
        return CampaignConfig(
            seed=seed,
            observe=True,
            fault_plan=FaultPlan.lossy(
                seed=seed,
                drop_rate=0.08,
                timeout_rate=0.03,
                error_rate=0.03,
                latency_rate=0.05,
            ),
            retry_policy=RetryPolicy(max_attempts=4, backoff_base_seconds=0.5),
        )

    def test_faults_and_retries_appear_as_events(self):
        campaign, result = run_observed(
            config=self.chaos_config()
        )
        root = campaign.obs.trace_root()
        names = root.event_names()
        faults = [n for n in names if n.startswith("fault:")]
        retries = [n for n in names if n == "retry"]
        assert faults, "seeded fault plan injected nothing"
        assert retries, "no retry events recorded"
        # Event counts line up with the campaign's own accounting.
        assert len(faults) == campaign.network.stats.faults_injected
        assert len(retries) == campaign.metrics.counter("net.retries")

    def test_chaos_trace_still_deterministic(self):
        serial, _ = run_observed(parallelism=1, config=self.chaos_config())
        threaded, _ = run_observed(parallelism=4, config=self.chaos_config())
        assert (
            serial.obs.trace_root().signature()
            == threaded.obs.trace_root().signature()
        )
