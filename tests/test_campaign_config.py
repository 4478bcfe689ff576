"""Tests for the unified CampaignConfig API and the uniform Conclusion."""

import dataclasses
import inspect
import warnings
from pathlib import Path

import pytest

import repro
from repro.core.campaign import Campaign
from repro.core.config import DEFAULT_HOST, CampaignConfig
from repro.core.conclusion import Conclusion, DegradedConclusion
from repro.core.extension import BrowserExtension, make_utility_judge
from repro.core.fanout import FanoutSpec
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.core.server import CoreServer
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.errors import ValidationError
from repro.html.parser import parse_html
from repro.net.faults import FaultPlan, RetryPolicy
from repro.net.overload import OverloadConfig
from repro.storage.documentstore import DocumentStore
from repro.storage.filestore import FileStore


def make_documents():
    return {
        p: parse_html(f"<html><body><p>{p} text</p></body></html>")
        for p in ("a", "b")
    }


def make_params(participants=8):
    return TestParameters(
        test_id="config-test",
        test_description="config test",
        participant_num=participants,
        question=[Question("q1", "Which looks better?")],
        webpages=[
            WebpageSpec(web_path="a", web_page_load=1000),
            WebpageSpec(web_path="b", web_page_load=1000),
        ],
    )


def make_judge():
    return make_utility_judge(
        {"a": 0.0, "b": 0.5, "__contrast__": -5.0}, ThurstoneChoiceModel()
    )


class TestConfigObject:
    def test_frozen(self):
        config = CampaignConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.parallelism = 4

    def test_replace_derives_variant(self):
        base = CampaignConfig(seed=7)
        variant = base.replace(parallelism=4, observe=True)
        assert base.parallelism == 1 and not base.observe
        assert variant.seed == 7 and variant.parallelism == 4 and variant.observe

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"parallelism": 0},
            {"min_participants": -1},
            {"quorum": 0.0},
            {"quorum": 1.5},
            {"dropout_rate": -0.1},
            {"dropout_rate": 1.1},
            {"reward_usd": -0.5},
            {"host": ""},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValidationError):
            CampaignConfig(**kwargs)

    def test_resilient_property(self):
        assert not CampaignConfig().resilient
        assert CampaignConfig(dropout_rate=0.1).resilient
        assert CampaignConfig(retry_policy=RetryPolicy(max_attempts=2)).resilient
        assert CampaignConfig(
            fault_plan=FaultPlan.lossy(seed=1, drop_rate=0.1)
        ).resilient

    def test_to_dict_is_json_friendly(self):
        import json

        config = CampaignConfig(
            seed=3,
            parallelism=2,
            fault_plan=FaultPlan.lossy(seed=1, drop_rate=0.1),
            retry_policy=RetryPolicy(max_attempts=3),
        )
        data = config.to_dict()
        json.dumps(data)
        assert data["seed"] == 3
        assert data["retry_policy"] == {"max_attempts": 3}
        assert data["fault_plan"]["seed"] == 1


class TestOneDoor:
    """Settings reach a campaign only through its config (and prepare()'s
    test inputs): no constructor or run argument shadows a config field."""

    def test_signatures_take_no_shadowing_arguments(self):
        def params(fn):
            return set(inspect.signature(fn).parameters)

        assert not params(Campaign.__init__) & {"seed", "rng"}
        assert not params(Campaign.run) & {
            "reward_usd", "participants", "controls_per_participant",
        }
        assert not params(Campaign.run_until_significant) & {
            "reward_usd", "batch_size",
        }
        assert "controls_per_participant" not in params(Campaign.run_with_workers)
        assert "config" not in params(BrowserExtension.__init__)
        assert "host" not in params(CoreServer.__init__)
        overload_fields = {f.name for f in dataclasses.fields(OverloadConfig)}
        assert "max_in_flight_per_host" not in overload_fields
        spec_fields = {f.name for f in dataclasses.fields(FanoutSpec)}
        assert not spec_fields & {"controls_per_participant", "randomize_orientation"}

    def test_removed_names_are_gone_from_the_package(self):
        gone = (
            "InflightLimiter", "_randomize_orientation",
            "_screen_scheduled_upload", "accepts_participants",
        )
        root = Path(repro.__file__).parent
        for path in root.rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            for name in gone:
                assert name not in text, f"{name} in {path.relative_to(root)}"

    def test_removed_arguments_raise_type_error(self):
        import numpy as np

        from repro.crowd.workers import IN_LAB_MIX, generate_population

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Campaign(config=CampaignConfig(seed=5, dropout_rate=0.02))
        with pytest.raises(TypeError):
            Campaign(seed=5)
        with pytest.raises(TypeError):
            Campaign(rng=np.random.default_rng(5))
        campaign = Campaign(config=CampaignConfig(seed=5))
        campaign.prepare(make_params(), make_documents())
        worker = generate_population(1, IN_LAB_MIX, seed=0)[0]
        with pytest.raises(TypeError):
            campaign.run(make_judge(), reward_usd=0.5)
        with pytest.raises(TypeError):
            campaign.run(make_judge(), participants=4)
        with pytest.raises(TypeError):
            campaign.run(make_judge(), controls_per_participant=2)
        with pytest.raises(TypeError):
            campaign.run_until_significant(
                make_judge(), "q1", ("a", "b"), reward_usd=0.5
            )
        with pytest.raises(TypeError):
            campaign.run_with_workers(
                [worker], make_judge(), controls_per_participant=2
            )
        with pytest.raises(TypeError):
            CoreServer(DocumentStore(), FileStore(), host="direct.example")
        with pytest.raises(TypeError):
            BrowserExtension(
                worker, make_judge(), seed=0,
                config=CampaignConfig(dropout_rate=0.25),
            )


class TestConfigReachesComponents:
    def test_campaign_run_uses_config_knobs(self):
        config = CampaignConfig(seed=11, parallelism=2, min_participants=1)
        campaign = Campaign(config=config)
        campaign.prepare(make_params(), make_documents())
        result = campaign.run(make_judge())
        assert result.participants == 8
        assert result.conclusion.min_participants == 1

    def test_core_server_host_from_config(self):
        database, storage = DocumentStore(), FileStore()
        assert CoreServer(database, storage).host == DEFAULT_HOST
        configured = CoreServer(
            database, storage, config=CampaignConfig(host="qoe.example")
        )
        assert configured.host == "qoe.example"
        campaign = Campaign(config=CampaignConfig(host="qoe.example"))
        assert campaign.server.host == "qoe.example"

    def test_extension_dropout_from_config(self, monkeypatch):
        import repro.core.campaign as campaign_module

        rates = []

        class SpyExtension(BrowserExtension):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                rates.append(self.dropout_rate)

        monkeypatch.setattr(campaign_module, "BrowserExtension", SpyExtension)
        campaign = Campaign(config=CampaignConfig(seed=5, dropout_rate=0.25))
        campaign.prepare(make_params(), make_documents())
        campaign.run(make_judge())
        assert rates == [0.25] * 8
        from repro.crowd.workers import IN_LAB_MIX, generate_population

        worker = generate_population(1, IN_LAB_MIX, seed=0)[0]
        assert BrowserExtension(worker, make_judge(), seed=0).dropout_rate == 0.0


class TestUniformConclusion:
    def test_clean_run_gets_base_conclusion(self):
        campaign = Campaign(config=CampaignConfig(seed=21))
        campaign.prepare(make_params(), make_documents())
        result = campaign.run(make_judge())
        assert isinstance(result.conclusion, Conclusion)
        assert not isinstance(result.conclusion, DegradedConclusion)
        assert not result.conclusion.is_degraded
        assert result.degraded is None  # legacy surface unchanged
        assert result.conclusion.complete == result.conclusion.recruited == 8

    def test_floors_mark_conclusion_degraded_subclass(self):
        campaign = Campaign(config=CampaignConfig(seed=22, min_participants=1))
        campaign.prepare(make_params(), make_documents())
        result = campaign.run(make_judge())
        assert isinstance(result.conclusion, DegradedConclusion)
        assert result.conclusion.quorum_met
        assert result.degraded is result.conclusion

    def test_conclusion_to_dict(self):
        campaign = Campaign(config=CampaignConfig(seed=23))
        campaign.prepare(make_params(), make_documents())
        result = campaign.run(make_judge())
        data = result.conclusion.to_dict()
        assert data["degraded"] is False
        assert data["recruited"] == 8
        assert data["quorum_met"] is True
        assert all("/" in key for key in data["pair_coverage"])

    def test_campaign_result_to_dict_embeds_conclusion(self):
        campaign = Campaign(config=CampaignConfig(seed=24))
        campaign.prepare(make_params(), make_documents())
        result = campaign.run(make_judge())
        data = result.to_dict()
        assert data["conclusion"]["recruited"] == 8
        assert data["participants"] == 8
