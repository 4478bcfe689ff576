"""Tests for graceful campaign degradation under injected faults."""

import pytest

from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.core.quality import REASON_ABANDONED, QualityConfig
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.crowd.workers import FIGURE_EIGHT_TRUSTWORTHY_MIX, generate_population
from repro.errors import CampaignError
from repro.html.parser import parse_html
from repro.net.faults import (
    FAULT_DROP,
    CircuitBreakerConfig,
    FaultPlan,
    FaultRule,
    RetryPolicy,
)


def make_documents(versions=("a", "b")):
    return {
        p: parse_html(
            f"<html><body><div id='m'><p>{p} content text</p></div></body></html>"
        )
        for p in versions
    }


def make_params(participants=10, versions=("a", "b")):
    return TestParameters(
        test_id="resilience-test",
        test_description="resilience test",
        participant_num=participants,
        question=[Question("q1", "Which looks better?")],
        webpages=[WebpageSpec(web_path=p, web_page_load=1000) for p in versions],
    )


def make_judge():
    return make_utility_judge(
        {"a": 0.0, "b": 0.6, "__contrast__": -5.0}, ThurstoneChoiceModel()
    )


RETRIES = RetryPolicy(max_attempts=4, backoff_base_seconds=0.2)


def fingerprint(result, campaign):
    return (
        [r.as_dict() for r in result.raw_results],
        sorted(campaign.lost_uploads),
        result.degraded.as_dict() if result.degraded else None,
    )


class TestDefaultUnchanged:
    def test_none_plan_bit_identical_to_no_plan(self):
        def run(fault_plan):
            campaign = Campaign(
                seed=11, config=CampaignConfig(fault_plan=fault_plan)
            )
            campaign.prepare(make_params(), make_documents())
            result = campaign.run(make_judge())
            return (
                [r.as_dict() for r in result.raw_results],
                result.duration_days,
                result.degraded,
            )

        baseline = run(None)
        assert run(FaultPlan.none()) == baseline
        assert baseline[2] is None  # no degraded report on a clean run

    def test_none_plan_bit_identical_across_parallelism(self):
        def run(parallelism, fault_plan):
            campaign = Campaign(
                seed=12,
                config=CampaignConfig(
                    fault_plan=fault_plan, parallelism=parallelism
                ),
            )
            campaign.prepare(make_params(participants=6), make_documents())
            workers = generate_population(6, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=5, id_prefix="w")
            result = campaign.run_with_workers(workers, make_judge())
            return [r.as_dict() for r in result.raw_results]

        assert (
            run(1, None)
            == run(4, None)
            == run(1, FaultPlan.none())
            == run(4, FaultPlan.none())
        )


class TestDegradedConclusion:
    def lossy_campaign(self, seed=21, dropout=0.25, participants=10, **floors):
        campaign = Campaign(
            seed=seed,
            config=CampaignConfig(
                fault_plan=FaultPlan.lossy(seed=seed, drop_rate=0.05),
                retry_policy=RETRIES,
                dropout_rate=dropout,
                **floors,
            ),
        )
        campaign.prepare(
            make_params(participants=participants), make_documents()
        )
        return campaign

    def test_lossy_campaign_concludes_with_report(self):
        campaign = self.lossy_campaign()
        result = campaign.run(make_judge())
        degraded = result.degraded
        assert degraded is not None
        assert degraded.recruited == 10
        assert degraded.uploaded + degraded.lost == degraded.recruited
        assert degraded.abandoned > 0  # 25% base dropout over 2 pages bites
        assert degraded.complete < degraded.recruited
        assert result.is_degraded

    def test_abandoned_results_are_partial_and_flagged(self):
        campaign = self.lossy_campaign()
        result = campaign.run(make_judge())
        expected = result.degraded.expected_answers
        abandoned = [r for r in result.raw_results if r.abandoned]
        assert abandoned
        for partial in abandoned:
            assert partial.abandon_reason
            assert len(partial.answers) < expected
        # Quality control names abandonment, not generic incompleteness.
        reasons = result.quality_report.drop_reasons()
        assert reasons[REASON_ABANDONED] == len(abandoned)

    def test_pair_coverage_reported(self):
        campaign = self.lossy_campaign()
        result = campaign.run(make_judge())
        degraded = result.degraded
        assert set(degraded.pair_coverage) == {("q1", "a", "b")}
        assert 0 < degraded.coverage_fraction <= 1.0
        assert degraded.min_pair_coverage == degraded.pair_coverage[("q1", "a", "b")]
        payload = degraded.as_dict()
        assert payload["pair_coverage"] == {"q1/a/b": degraded.min_pair_coverage}
        assert payload["quorum_met"] is True

    def test_min_participants_floor_enforced(self):
        campaign = self.lossy_campaign(dropout=0.6, min_participants=10)
        with pytest.raises(CampaignError, match="conclusion floor"):
            campaign.run(make_judge())

    def test_quorum_floor_enforced(self):
        campaign = self.lossy_campaign(dropout=0.6, quorum=0.95)
        with pytest.raises(CampaignError, match="conclusion floor"):
            campaign.run(make_judge())

    def test_met_floor_passes(self):
        campaign = self.lossy_campaign(dropout=0.1, min_participants=1)
        result = campaign.run(make_judge())
        assert result.degraded.quorum_met
        assert result.degraded.min_participants == 1


class TestLossyDeterminism:
    def run_lossy(self, parallelism, seed=31):
        campaign = Campaign(
            seed=seed,
            config=CampaignConfig(
                fault_plan=FaultPlan.lossy(
                    seed=seed, drop_rate=0.08, error_rate=0.03, latency_rate=0.05
                ),
                retry_policy=RETRIES,
                breaker_config=CircuitBreakerConfig(failure_threshold=5),
                dropout_rate=0.2,
                parallelism=parallelism,
            ),
        )
        campaign.prepare(make_params(participants=8), make_documents())
        workers = generate_population(8, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=9, id_prefix="w")
        result = campaign.run_with_workers(workers, make_judge())
        return fingerprint(result, campaign)

    def test_identical_across_parallelism(self):
        assert self.run_lossy(1) == self.run_lossy(3) == self.run_lossy(8)

    def test_seed_changes_outcome(self):
        assert self.run_lossy(1, seed=31) != self.run_lossy(1, seed=32)


class CrashingJudge:
    """Delegates to a real judge but crashes once for one worker."""

    def __init__(self, judge, crash_worker_id):
        self.judge = judge
        self.crash_worker_id = crash_worker_id
        self.armed = True

    def __call__(self, worker, question, left_version, right_version, rng):
        if self.armed and worker.worker_id == self.crash_worker_id:
            raise RuntimeError("simulated mid-campaign crash")
        return self.judge(worker, question, left_version, right_version, rng)


class TestCheckpointResume:
    def build(self, seed=41):
        campaign = Campaign(
            seed=seed,
            config=CampaignConfig(
                fault_plan=FaultPlan.lossy(seed=seed, drop_rate=0.05),
                retry_policy=RETRIES,
                dropout_rate=0.15,
                quality=QualityConfig(),
            ),
        )
        campaign.prepare(make_params(participants=8), make_documents())
        return campaign

    def test_resume_matches_uncrashed_run(self):
        workers = generate_population(8, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=13, id_prefix="w")

        reference = self.build()
        clean = reference.run_with_workers(workers, make_judge())

        crashed = self.build()
        judge = CrashingJudge(make_judge(), workers[4].worker_id)
        with pytest.raises(RuntimeError, match="simulated mid-campaign crash"):
            crashed.run_with_workers(workers, judge)
        # The crash left a checkpoint: the first participants' uploads landed.
        stored = crashed.server.uploaded_worker_ids("resilience-test")
        assert 0 < len(stored) < len(workers)

        judge.armed = False
        crashed.config = crashed.config.replace(
            root_entropy=crashed.last_root_entropy
        )
        resumed = crashed.run_with_workers(workers, judge)
        assert fingerprint(resumed, crashed) == fingerprint(clean, reference)

    def test_resume_skips_completed_participants(self):
        workers = generate_population(6, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=14, id_prefix="w")
        campaign = self.build(seed=42)
        judge = CrashingJudge(make_judge(), workers[3].worker_id)
        with pytest.raises(RuntimeError):
            campaign.run_with_workers(workers, judge)
        completed_before = set(campaign.server.uploaded_worker_ids("resilience-test"))
        judge.armed = False
        campaign.run_with_workers(
            workers, judge, resume_from=campaign.resume_state()
        )
        # Completed participants were not re-simulated: still one upload each.
        uploads = campaign.server.uploaded_worker_ids("resilience-test")
        assert len(uploads) == len(set(uploads)) == len(workers)
        assert completed_before <= set(uploads)


class TestSerializedResume:
    """Resume state travels inside ``CampaignResult.to_dict()`` — a crashed
    campaign's partial conclusion is enough to finish the run on a fresh
    campaign object (the fleet's crash-recovery path, minus the queue)."""

    def build(self, seed=44):
        campaign = Campaign(
            seed=seed,
            config=CampaignConfig(
                fault_plan=FaultPlan.lossy(seed=seed, drop_rate=0.05),
                retry_policy=RETRIES,
                dropout_rate=0.15,
                quality=QualityConfig(),
            ),
        )
        campaign.prepare(make_params(participants=8), make_documents())
        return campaign

    def test_result_payload_carries_resume_state(self):
        workers = generate_population(
            6, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=15, id_prefix="w"
        )
        campaign = Campaign(seed=43)
        campaign.prepare(make_params(participants=6), make_documents())
        result = campaign.run_with_workers(workers, make_judge())
        resume = result.to_dict()["resume"]
        assert resume["root_entropy"] == campaign.last_root_entropy
        assert sorted(resume["completed_worker_ids"]) == sorted(
            w.worker_id for w in workers
        )
        assert len(resume["rows"]) == len(workers)
        assert resume["lost_uploads"] == []

    def test_resume_from_serialized_result_on_fresh_campaign(self):
        workers = generate_population(
            8, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=13, id_prefix="w"
        )
        reference = self.build()
        clean = reference.run_with_workers(workers, make_judge())

        crashed = self.build()
        judge = CrashingJudge(make_judge(), workers[4].worker_id)
        with pytest.raises(RuntimeError, match="simulated mid-campaign crash"):
            crashed.run_with_workers(workers, judge)
        # Conclude what landed: the serialized partial result is the whole
        # checkpoint — rows, recorded losses, and the RNG root entropy.
        partial = crashed.conclude(job=None, duration_days=0.0)
        payload = partial.to_dict()

        fresh = self.build()
        resumed = fresh.run_with_workers(
            workers, make_judge(), resume_from=payload
        )
        assert fingerprint(resumed, fresh) == fingerprint(clean, reference)


class TestResumeAfterLostUploads:
    def build(self):
        campaign = Campaign(
            seed=1,
            config=CampaignConfig(
                fault_plan=FaultPlan(seed=1).with_rule(
                    FaultRule(FAULT_DROP, 0.5, path_prefix="/responses")
                ),
                retry_policy=RetryPolicy(max_attempts=2, backoff_base_seconds=0.1),
            ),
        )
        campaign.prepare(make_params(participants=12), make_documents())
        return campaign

    def test_lost_uploads_are_not_resimulated(self):
        workers = generate_population(
            12, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=1, id_prefix="w"
        )
        reference = self.build()
        clean = reference.run_with_workers(workers, make_judge())

        crashed = self.build()
        checkpoints = []

        def crash(campaign):
            checkpoints.append(campaign)
            if len(checkpoints) == 8:
                raise RuntimeError("simulated worker crash")

        crashed.checkpoint_hook = crash
        with pytest.raises(RuntimeError, match="simulated worker crash"):
            crashed.run_with_workers(workers, make_judge())
        assert crashed.lost_uploads  # a loss precedes the crash point

        fresh = self.build()
        resumed = fresh.run_with_workers(
            workers, make_judge(), resume_from=crashed.resume_state()
        )
        assert fresh.lost_uploads == reference.lost_uploads
        assert resumed.conclusion.recruited == len(workers)
        assert fingerprint(resumed, fresh) == fingerprint(clean, reference)


class TestLostUploads:
    def test_server_outage_during_upload_recorded_as_loss(self):
        # An outage window pinned over upload time: participants finish the
        # test but cannot upload; a resilient campaign records losses and
        # still concludes from the survivors.
        campaign = Campaign(
            seed=51,
            config=CampaignConfig(
                fault_plan=FaultPlan(seed=51).with_rule(
                    FaultRule(FAULT_DROP, 0.7, path_prefix="/responses")
                ),
                retry_policy=RetryPolicy(max_attempts=2, backoff_base_seconds=0.1),
            ),
        )
        campaign.prepare(make_params(participants=8), make_documents())
        result = campaign.run(make_judge())
        assert campaign.lost_uploads  # 0.7^2 per upload: some are lost
        assert result.degraded is not None
        assert result.degraded.lost == len(campaign.lost_uploads)
        assert result.degraded.uploaded == len(result.raw_results)
        assert result.degraded.uploaded + result.degraded.lost == 8
