"""Streaming aggregation tests: the `sharded-streaming` store mode must be
decision-identical to the batch pipeline, across executors and crashes."""

from types import SimpleNamespace

import pytest

from tests.test_core_campaign import make_documents, make_judge, make_params

from repro.core.analysis import analyze_responses
from repro.core.btmodel import counts_from_results, fit_bradley_terry
from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.core.quality import QualityConfig, QualityControl
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.crowd.workers import FIGURE_EIGHT_TRUSTWORTHY_MIX, generate_population
from repro.errors import CampaignError
from repro.html.parser import parse_html


def result_digest(result):
    """Everything conclusion-relevant, hashable for equality checks."""
    return (
        result.conclusion.to_dict(),
        result.quality_report.kept_ids,
        [(d.worker_id, d.reason, d.detail) for d in result.quality_report.dropped],
        sorted(
            (key, (t.left_count, t.right_count, t.same_count))
            for key, t in result.controlled_analysis.tallies.items()
        ),
    )


def run_campaign(store, participants=25, seed=7, **config_kwargs):
    config = CampaignConfig(seed=seed, store=store, **config_kwargs)
    campaign = Campaign(config=config)
    campaign.prepare(make_params(participants=participants), make_documents())
    result = campaign.run(make_judge(), reward_usd=0.1)
    return campaign, result


class Boom(Exception):
    pass


def batch_reference(campaign, raw):
    """The whole-batch pipeline over ``raw``: quality control, both
    analyses and the Bradley-Terry counts, computed without the fold."""
    prepared = campaign.prepared
    question_ids = [q.question_id for q in prepared.parameters.question]
    version_ids = [v for v in prepared.version_ids if v != "__contrast__"]
    expected = (len(prepared.comparison_pairs()) + 1) * len(question_ids)
    report = QualityControl(campaign.config.quality).apply(raw, expected)
    return SimpleNamespace(
        report=report,
        raw_analysis=analyze_responses(raw, question_ids, version_ids),
        controlled_analysis=analyze_responses(
            report.kept, question_ids, version_ids
        ),
        bt={
            q: counts_from_results(report.kept, q, version_ids)
            for q in question_ids
        },
    )


class TestBatchStreamingIdentity:
    """Both stores conclude from the upload-time fold; the reference is the
    batch quality control and analysis over the memory run's raw results."""

    @pytest.fixture(scope="class")
    def runs(self):
        memory = run_campaign("memory", parallelism=2)
        streaming = run_campaign("sharded-streaming", parallelism=2)
        return {"memory": memory, "sharded-streaming": streaming}

    @pytest.fixture(scope="class")
    def reference(self, runs):
        campaign, result = runs["memory"]
        return batch_reference(campaign, result.raw_results)

    def test_conclusion_identical(self, runs):
        _, memory = runs["memory"]
        _, streaming = runs["sharded-streaming"]
        assert memory.conclusion.to_dict() == streaming.conclusion.to_dict()
        assert memory.participants == streaming.participants == 25
        assert len(memory.raw_results) == 25

    def test_quality_decisions_identical(self, runs, reference):
        expected = [
            (d.worker_id, d.reason, d.detail) for d in reference.report.dropped
        ]
        for _, result in runs.values():
            report = result.quality_report
            assert report.kept_count == reference.report.kept_count
            assert report.kept_ids == reference.report.kept_ids
            assert [(d.worker_id, d.reason, d.detail) for d in report.dropped] == expected
        _, memory = runs["memory"]
        assert memory.quality_report.kept == reference.report.kept

    def test_tallies_and_rankings_identical(self, runs, reference):
        for _, result in runs.values():
            assert result.raw_analysis.tallies == reference.raw_analysis.tallies
            assert (
                result.controlled_analysis.tallies
                == reference.controlled_analysis.tallies
            )
            for question_id, ranking in reference.raw_analysis.rankings.items():
                assert (
                    ranking.matrix
                    == result.raw_analysis.rankings[question_id].matrix
                )
                assert (
                    reference.controlled_analysis.rankings[question_id].matrix
                    == result.controlled_analysis.rankings[question_id].matrix
                )

    def test_bradley_terry_identical(self, runs, reference):
        batch_counts = reference.bt["q1"]
        for campaign, _ in runs.values():
            folded = campaign.last_streaming.controlled_bt["q1"]
            assert batch_counts.wins == folded.wins
            assert (
                fit_bradley_terry(batch_counts).scores
                == fit_bradley_terry(folded).scores
            )

    def test_streaming_result_shape(self, runs):
        stream_campaign, streaming = runs["sharded-streaming"]
        # Streaming never materializes participants: raw_results stays
        # empty, the counts come from the sufficient statistics.
        assert streaming.raw_results == []
        assert streaming.quality_report.kept == []
        assert streaming.participants == 25
        assert streaming.participant_count == 25
        assert stream_campaign.last_streaming.uploaded == 25
        assert stream_campaign.database.stats()["spilled_documents"] > 0


class TestOneConcludePath:
    def test_memory_store_concludes_without_the_batch_pipeline(
        self, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("conclude ran the batch pipeline")

        monkeypatch.setattr(QualityControl, "apply", forbidden)
        monkeypatch.setattr(
            "repro.core.campaign.analyze_responses", forbidden
        )
        campaign, result = run_campaign("memory", participants=8, seed=3)
        assert campaign.last_streaming is not None
        assert campaign.last_streaming.uploaded == 8
        assert result.participant_count == 8
        assert len(result.raw_results) == 8
        assert result.quality_report.kept_count + len(
            result.quality_report.dropped
        ) == 8


class TestExecutorIdentity:
    @pytest.fixture(scope="class")
    def baseline(self):
        _, result = run_campaign(
            "memory", participants=16, seed=11, executor="serial", parallelism=3
        )
        return result_digest(result)

    @pytest.mark.parametrize("store", ["memory", "sharded-streaming"])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_every_executor_matches_serial_memory(
        self, baseline, store, executor
    ):
        _, result = run_campaign(
            store, participants=16, seed=11, executor=executor, parallelism=3
        )
        assert result_digest(result) == baseline


class TestCrashRecovery:
    @pytest.fixture(scope="class")
    def roster(self):
        return generate_population(12, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=5)

    @pytest.fixture(scope="class")
    def reference(self, roster):
        # The inline loop checkpoints after every upload, so the crash points
        # below land mid-roster.
        config = CampaignConfig(seed=9, store="sharded-streaming")
        campaign = Campaign(config=config)
        campaign.prepare(make_params(), make_documents())
        result = campaign.run_with_workers(roster, make_judge())
        return config, result

    def crash_after(self, config, roster, entropy, checkpoints):
        campaign = Campaign(config=config.replace(root_entropy=entropy))
        campaign.prepare(make_params(), make_documents())
        seen = [0]

        def hook(_checkpoint):
            seen[0] += 1
            if seen[0] == checkpoints:
                raise Boom()

        campaign.checkpoint_hook = hook
        with pytest.raises(Boom):
            campaign.run_with_workers(roster, make_judge())
        return campaign

    def test_checkpoint_resume_identical(self, roster, reference):
        config, ref = reference
        crashed = self.crash_after(
            config, roster, ref.resume_state["root_entropy"], checkpoints=5
        )
        checkpoint = crashed.resume_state()
        assert checkpoint["store"]["shards"] == config.store_shards
        resumed = Campaign(config=config)
        resumed.prepare(make_params(), make_documents())
        result = resumed.run_with_workers(
            roster, make_judge(), resume_from=checkpoint
        )
        assert result_digest(result) == result_digest(ref)

    def test_disk_wal_recovery_refolds_and_resumes(
        self, roster, reference, tmp_path
    ):
        config, ref = reference
        entropy = ref.resume_state["root_entropy"]
        disk_config = config.replace(store_directory=tmp_path)
        crashed = self.crash_after(disk_config, roster, entropy, checkpoints=7)
        crashed.database.close()
        del crashed
        # A new campaign over the same directory recovers the WALs and
        # re-folds the stored rows before resuming the fan-out.
        revived = Campaign(config=disk_config.replace(root_entropy=entropy))
        revived.prepare(make_params(), make_documents())
        assert revived._streaming_state.ingested == 7
        result = revived.run_with_workers(roster, make_judge())
        assert result_digest(result) == result_digest(ref)

    def test_shard_count_mismatch_rejected(self, roster, reference):
        config, ref = reference
        crashed = self.crash_after(
            config, roster, ref.resume_state["root_entropy"], checkpoints=5
        )
        checkpoint = crashed.resume_state()
        mismatched = Campaign(config=config.replace(store_shards=8))
        mismatched.prepare(make_params(), make_documents())
        with pytest.raises(CampaignError, match="shard"):
            mismatched.run_with_workers(
                roster, make_judge(), resume_from=checkpoint
            )


def scheduled_campaign(store, scheduler, seed=21):
    """A four-version, one-question campaign under ``scheduler``."""
    pages = ("p0", "p1", "p2", "p3")
    campaign = Campaign(
        config=CampaignConfig(
            seed=seed, store=store, scheduler=scheduler, executor="serial"
        )
    )
    campaign.prepare(
        TestParameters(
            test_id="scheduled-stream",
            test_description="scheduled campaign on either store",
            participant_num=8,
            question=[Question("q1", "Which looks better?")],
            webpages=[WebpageSpec(web_path=p, web_page_load=1000) for p in pages],
        ),
        {
            p: parse_html(f"<html><body><p>{p} body</p></body></html>")
            for p in pages
        },
    )
    return campaign


class TestScheduledStreaming:
    @pytest.mark.parametrize("scheduler", ["adaptive", "merge"])
    def test_sharded_store_concludes_like_memory(self, scheduler):
        roster = generate_population(8, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=21)
        judge = make_utility_judge(
            {"p0": 1.5, "p1": 0.6, "p2": -0.2, "p3": -1.0, "__contrast__": -5.0},
            ThurstoneChoiceModel(),
        )
        outcomes = {}
        for store in ("memory", "sharded-streaming"):
            result = scheduled_campaign(store, scheduler).run_with_workers(
                roster, judge
            )
            early_stop = result.early_stop.to_dict() if result.early_stop else None
            outcomes[store] = (result_digest(result), early_stop)
        assert outcomes["sharded-streaming"] == outcomes["memory"]
        if scheduler == "adaptive":
            assert outcomes["memory"][1] is not None


class TestStreamingGuards:
    def test_conclude_with_matching_quality_config_allowed(self):
        quality = QualityConfig(enable_majority_vote=False)
        config = CampaignConfig(
            seed=15, store="sharded-streaming", quality=quality
        )
        campaign = Campaign(config=config)
        campaign.prepare(make_params(participants=4), make_documents())
        result = campaign.run(make_judge())
        assert result.participants == 4
        assert campaign._streaming_state.screen.config == quality

    def test_conclude_without_responses_rejected(self):
        config = CampaignConfig(seed=16, store="sharded-streaming")
        campaign = Campaign(config=config)
        campaign.prepare(make_params(), make_documents())
        with pytest.raises(CampaignError, match="no responses"):
            campaign.conclude(job=None, duration_days=0)


class TestBoundedDiagnostics:
    def test_streaming_caps_network_and_request_logs(self):
        from collections import deque

        from repro.core.config import STREAMING_NETWORK_LOG_LIMIT

        campaign, _ = run_campaign("sharded-streaming", participants=4)
        assert isinstance(campaign.network.log, deque)
        assert campaign.network.log.maxlen == STREAMING_NETWORK_LOG_LIMIT
        assert isinstance(campaign.server.http.request_log, deque)
        assert campaign.server.http.request_log.maxlen == STREAMING_NETWORK_LOG_LIMIT

    def test_memory_mode_keeps_unbounded_lists(self):
        campaign, _ = run_campaign("memory", participants=4)
        assert isinstance(campaign.network.log, list)
        assert isinstance(campaign.server.http.request_log, list)
