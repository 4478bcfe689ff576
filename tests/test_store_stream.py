"""Streaming aggregation tests: the `sharded-streaming` store mode must be
decision-identical to the batch pipeline, across executors and crashes."""

import pytest

from tests.test_core_campaign import make_documents, make_judge, make_params

from repro.core.btmodel import counts_from_results, fit_bradley_terry
from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.quality import QualityConfig
from repro.crowd.workers import FIGURE_EIGHT_TRUSTWORTHY_MIX, generate_population
from repro.errors import CampaignError, ValidationError


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


class TestBatchStreamingIdentity:
    @pytest.fixture(scope="class")
    def pair(self):
        batch = run_campaign("memory", executor="thread", parallelism=2)
        streaming = run_campaign(
            "sharded-streaming", executor="thread", parallelism=2
        )
        return batch, streaming

    def test_conclusion_identical(self, pair):
        (_, batch), (_, streaming) = pair
        assert batch.conclusion.to_dict() == streaming.conclusion.to_dict()
        assert batch.participants == streaming.participants

    def test_quality_decisions_identical(self, pair):
        (_, batch), (_, streaming) = pair
        assert batch.quality_report.kept_count == streaming.quality_report.kept_count
        assert batch.quality_report.kept_ids == streaming.quality_report.kept_ids
        assert [
            (d.worker_id, d.reason, d.detail)
            for d in batch.quality_report.dropped
        ] == [
            (d.worker_id, d.reason, d.detail)
            for d in streaming.quality_report.dropped
        ]

    def test_tallies_and_rankings_identical(self, pair):
        (_, batch), (_, streaming) = pair
        assert batch.raw_analysis.tallies == streaming.raw_analysis.tallies
        assert (
            batch.controlled_analysis.tallies
            == streaming.controlled_analysis.tallies
        )
        for question_id, ranking in batch.raw_analysis.rankings.items():
            assert (
                ranking.matrix
                == streaming.raw_analysis.rankings[question_id].matrix
            )
            assert (
                batch.controlled_analysis.rankings[question_id].matrix
                == streaming.controlled_analysis.rankings[question_id].matrix
            )

    def test_bradley_terry_identical(self, pair):
        (batch_campaign, batch), (stream_campaign, _) = pair
        version_ids = [
            v for v in batch_campaign.prepared.version_ids if v != "__contrast__"
        ]
        batch_counts = counts_from_results(
            batch.quality_report.kept, "q1", version_ids
        )
        stream_counts = stream_campaign.last_streaming.controlled_bt["q1"]
        assert batch_counts.wins == stream_counts.wins
        assert (
            fit_bradley_terry(batch_counts).scores
            == fit_bradley_terry(stream_counts).scores
        )

    def test_streaming_result_shape(self, pair):
        _, (stream_campaign, streaming) = pair
        # Streaming never materializes participants: raw_results stays
        # empty, the counts come from the sufficient statistics.
        assert streaming.raw_results == []
        assert streaming.participants == 25
        assert streaming.participant_count == 25
        assert stream_campaign.last_streaming.uploaded == 25
        assert stream_campaign.database.stats()["spilled_documents"] > 0


class TestExecutorIdentity:
    @pytest.fixture(scope="class")
    def baseline(self):
        _, result = run_campaign(
            "memory", participants=16, seed=11, executor="serial", parallelism=3
        )
        return result_digest(result)

    @pytest.mark.parametrize("store", ["memory", "sharded-streaming"])
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
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
        config = CampaignConfig(seed=9, store="sharded-streaming", parallelism=2)
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


class TestStreamingGuards:
    def test_adaptive_mode_rejected(self):
        with pytest.raises(ValidationError, match="sharded-streaming"):
            CampaignConfig(
                seed=13, store="sharded-streaming", scheduler="adaptive"
            )

    def test_conclude_quality_config_conflict_rejected(self):
        config = CampaignConfig(seed=14, store="sharded-streaming")
        campaign = Campaign(config=config)
        campaign.prepare(make_params(participants=4), make_documents())
        conflicting = QualityConfig(enable_majority_vote=False)
        with pytest.raises(CampaignError, match="quality"):
            campaign.run(make_judge(), quality_config=conflicting)

    def test_conclude_with_matching_quality_config_allowed(self):
        quality = QualityConfig(enable_majority_vote=False)
        config = CampaignConfig(
            seed=15, store="sharded-streaming", quality=quality
        )
        campaign = Campaign(config=config)
        campaign.prepare(make_params(participants=4), make_documents())
        result = campaign.run(make_judge(), quality_config=quality)
        assert result.participants == 4

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
