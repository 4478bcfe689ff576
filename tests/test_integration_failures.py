"""Failure-injection tests: what happens when components break mid-flow.

A production-quality pipeline must fail loudly and precisely, not corrupt
results: dead servers, vanished resources, malformed uploads, duplicate
submissions, and crashed judges all get distinct, diagnosable behaviour.
"""

import pytest

from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.extension import BrowserExtension, make_utility_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.crowd.workers import IN_LAB_MIX, generate_population
from repro.errors import ExtensionError, NetworkError
from repro.html.parser import parse_html
from repro.net.http import Request

from tests.conftest import make_worker


def build_campaign(seed=50, test_id="fault"):
    campaign = Campaign(config=CampaignConfig(seed=seed))
    params = TestParameters(
        test_id=test_id,
        test_description="fault injection",
        participant_num=5,
        question=[Question("q1", "Which?")],
        webpages=[
            WebpageSpec(web_path="a", web_page_load=500),
            WebpageSpec(web_path="b", web_page_load=500),
        ],
    )
    documents = {
        p: parse_html(f"<html><body><p>{p} body</p></body></html>") for p in ("a", "b")
    }
    campaign.prepare(params, documents)
    return campaign


def make_judge():
    return make_utility_judge(
        {"a": 0.0, "b": 0.5, "__contrast__": -9.0}, ThurstoneChoiceModel()
    )


class TestServerFailures:
    def test_server_closed_mid_campaign_raises_network_error(self):
        campaign = build_campaign()
        campaign.network.detach(campaign.server.http.host)
        with pytest.raises(NetworkError):
            campaign.run(make_judge())

    def test_deleted_resource_fails_participant_loudly(self):
        campaign = build_campaign()
        # Sabotage one stored integrated page.
        doomed = campaign.prepared.comparison_pairs()[0].storage_path
        campaign.storage.delete(doomed)
        with pytest.raises(ExtensionError):
            campaign.run(make_judge())

    def test_results_endpoint_consistent_after_failed_run(self):
        campaign = build_campaign()
        doomed = campaign.prepared.comparison_pairs()[0].storage_path
        content = campaign.storage.read(doomed)
        campaign.storage.delete(doomed)
        with pytest.raises(ExtensionError):
            campaign.run(make_judge())
        # Restore and verify the server never stored a partial upload.
        campaign.storage.write(doomed, content)
        assert campaign.server.response_count("fault") == 0


class TestUploadFailures:
    def test_duplicate_worker_submission_rejected_409(self):
        campaign = build_campaign(test_id="dup")
        workers = generate_population(1, IN_LAB_MIX, seed=1, id_prefix="dup")
        campaign.run_with_workers(workers, make_judge())
        # Replaying the same worker's upload hits the duplicate guard.
        stored = campaign.server.stored_results("dup")[0]
        response = campaign.network.post_json(
            campaign.server.url("/responses"), stored.as_dict()
        )
        assert response.status == 409
        assert campaign.server.response_count("dup") == 1

    def test_upload_for_foreign_test_rejected(self):
        campaign = build_campaign(test_id="own")
        workers = generate_population(1, IN_LAB_MIX, seed=2, id_prefix="own")
        campaign.run_with_workers(workers, make_judge())
        stolen = campaign.server.stored_results("own")[0].as_dict()
        stolen["test_id"] = "someone-elses-test"
        response = campaign.network.post_json(
            campaign.server.url("/responses"), stolen
        )
        assert response.status == 400

    def test_garbage_body_rejected_not_500(self):
        campaign = build_campaign(test_id="garbage")
        response = campaign.network.exchange(
            Request(
                "POST",
                campaign.server.url("/responses"),
                headers={"content-type": "application/json"},
                body=b"{broken json",
            )
        )[0]
        assert response.status == 500  # json parse error surfaces as server error
        assert campaign.server.response_count("garbage") == 0


class TestJudgeFailures:
    def test_crashing_judge_propagates(self, rng):
        def broken_judge(worker, question, left, right, generator):
            raise RuntimeError("model exploded")

        extension = BrowserExtension(make_worker(), broken_judge, rng=rng)
        from repro.core.integrated import IntegratedWebpage

        pages = [IntegratedWebpage("p", "t", "a", "b", "t/p.html")]
        with pytest.raises(RuntimeError, match="model exploded"):
            extension.run_test("t", [Question("q1", "Which?")], pages)

    def test_judge_returning_garbage_is_extension_error(self, rng):
        extension = BrowserExtension(make_worker(), lambda *a: None, rng=rng)
        from repro.core.integrated import IntegratedWebpage

        pages = [IntegratedWebpage("p", "t", "a", "b", "t/p.html")]
        with pytest.raises(ExtensionError):
            extension.run_test("t", [Question("q1", "Which?")], pages)


class TestRecoveryPaths:
    def test_campaign_recovers_after_transient_server_closure(self):
        campaign = build_campaign(test_id="recover")
        campaign.network.detach(campaign.server.http.host)
        with pytest.raises(NetworkError):
            campaign.run(make_judge())
        # "Restart" the server and run a fixed roster; earlier failures left
        # no partial state behind.
        campaign.network.attach(campaign.server.http)
        workers = generate_population(5, IN_LAB_MIX, seed=3, id_prefix="rec")
        result = campaign.run_with_workers(workers, make_judge())
        assert result.participants == 5

    def test_second_campaign_isolated_from_first(self):
        first = build_campaign(seed=1, test_id="iso-1")
        second = build_campaign(seed=2, test_id="iso-2")
        workers = generate_population(3, IN_LAB_MIX, seed=4, id_prefix="iso")
        first.run_with_workers(workers, make_judge())
        assert first.server.response_count("iso-1") == 3
        assert second.server.response_count("iso-2") == 0
