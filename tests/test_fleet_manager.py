"""End-to-end fleet control-plane tests.

The acceptance story (ISSUE 7): campaigns submitted to the
:class:`~repro.fleet.manager.CampaignManager` drain through N workers; a
chaos-killed worker's job is redelivered after its lease expires and
*resumes from its journaled checkpoint* to a conclusion bit-identical to
an uncrashed run; poison jobs dead-letter with their failure chains; and
per-job breaker scoping keeps a poison campaign from tripping a healthy
campaign on the same stimulus host.
"""

import pytest

from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.errors import FleetError
from repro.fleet import (
    CampaignManager,
    CampaignSubmission,
    FleetStore,
    WorkerChaos,
)

VERSIONS = ("a", "b")
PARTICIPANTS = 4


class PoisonJudge:
    """A judge that always blows up — the poison-campaign stand-in.

    Module-level class so the submission payload stays picklable.
    """

    def __call__(self, *args, **kwargs):
        raise RuntimeError("poison judge: corrupted stimulus")


def make_submission(seed, poison=False, participants=PARTICIPANTS, resource=""):
    params = TestParameters(
        test_id="fleet-test",
        test_description="fleet end-to-end",
        participant_num=participants,
        question=[Question("q1", "Which looks better?")],
        webpages=[WebpageSpec(web_path=p, web_page_load=1000) for p in VERSIONS],
    )
    documents = {
        p: f"<html><body><div><p>{p} body text for the page</p></div></body></html>"
        for p in VERSIONS
    }
    judge = (
        PoisonJudge()
        if poison
        else make_utility_judge(
            {"a": 0.0, "b": 0.5, "__contrast__": -5.0}, ThurstoneChoiceModel()
        )
    )
    return CampaignSubmission(
        parameters=params,
        documents=documents,
        judge=judge,
        config=CampaignConfig(seed=seed),
        population_seed=seed,
        resource=resource,
    )


class TestCleanFleet:
    def test_all_jobs_complete_and_match_references(self):
        manager = CampaignManager()
        subs = [make_submission(100 + i) for i in range(4)]
        run_ids = manager.submit_all(subs)
        report = manager.run_fleet(num_workers=2)
        assert report.completed == 4 and report.dead == 0
        assert report.crashes == 0 and report.redeliveries == 0
        for run_id, sub in zip(run_ids, subs):
            assert manager.result(run_id) == sub.reference_run()

    def test_results_identical_across_worker_counts(self):
        payloads = []
        for workers in (1, 3):
            manager = CampaignManager()
            run_ids = manager.submit_all(
                make_submission(200 + i) for i in range(5)
            )
            report = manager.run_fleet(num_workers=workers)
            assert report.completed == 5
            payloads.append({r: manager.result(r) for r in run_ids})
        assert payloads[0] == payloads[1]

    def test_more_workers_shrink_makespan(self):
        makespans = []
        for workers in (1, 4):
            manager = CampaignManager()
            manager.submit_all(make_submission(300 + i) for i in range(8))
            makespans.append(
                manager.run_fleet(num_workers=workers).makespan_seconds
            )
        assert makespans[1] < makespans[0]


class TestCrashRecovery:
    def test_crashed_jobs_resume_to_reference_conclusions(self):
        manager = CampaignManager(
            chaos=WorkerChaos(seed=9, kill_rate=1.0, max_kills_per_job=1),
            visibility_timeout=90.0,
        )
        subs = [make_submission(400 + i) for i in range(4)]
        run_ids = manager.submit_all(subs)
        report = manager.run_fleet(num_workers=2)
        # kill_rate=1: every first delivery crashes, every job still lands.
        assert report.crashes == 4
        assert report.lease_expiries == 4
        assert report.redeliveries == 4
        assert report.completed == 4 and report.dead == 0
        for run_id, sub in zip(run_ids, subs):
            record = manager.result(run_id)
            assert record == sub.reference_run()
            # The record carries every stored row, so the identity above
            # covers what was stored, not just the conclusion.
            assert len(record["resume"]["rows"]) == record["participants"] > 0

    def test_resume_starts_from_checkpoint_not_scratch(self):
        store = FleetStore()
        manager = CampaignManager(
            store=store,
            chaos=WorkerChaos(seed=9, kill_rate=1.0, max_kills_per_job=1),
            visibility_timeout=90.0,
        )
        run_id = manager.submit(make_submission(500))
        manager.run_fleet(num_workers=1)
        result = manager.result(run_id)
        assert result is not None
        # The completed job's checkpoint was cleaned up...
        assert store.load_checkpoint(run_id) is None
        # ...but the crash left its trace: a redelivery in the journal.
        deliveries = [
            e for e in store.read_journal()
            if e["event"] == "claim" and e["job_id"] == run_id
        ]
        assert len(deliveries) == 2

    def test_crash_chaos_identical_across_worker_counts(self):
        payloads = []
        for workers in (1, 4):
            manager = CampaignManager(
                chaos=WorkerChaos(seed=11, kill_rate=0.6, max_kills_per_job=1),
                visibility_timeout=90.0,
            )
            run_ids = manager.submit_all(
                make_submission(600 + i) for i in range(6)
            )
            report = manager.run_fleet(num_workers=workers)
            assert report.completed == 6
            payloads.append(
                (report.crashes, {r: manager.result(r) for r in run_ids})
            )
        # Chaos decisions hash (seed, job, delivery) — not worker identity —
        # so both fleets crash the same jobs and conclude identically.
        assert payloads[0] == payloads[1]


class TestDeadLetters:
    def test_poison_jobs_dead_letter_with_failure_chain(self):
        manager = CampaignManager(max_deliveries=3, backoff_base_seconds=2.0)
        healthy = [manager.submit(make_submission(700 + i)) for i in range(2)]
        poison = manager.submit(make_submission(799, poison=True))
        report = manager.run_fleet(num_workers=2)
        assert report.completed == 2 and report.dead == 1
        assert report.dead_job_ids == [poison]
        dead = manager.dead_letter(poison)
        assert dead["deliveries"] == 3
        assert len(dead["failures"]) == 3
        assert all(
            "poison judge" in failure["error"] for failure in dead["failures"]
        )
        for run_id in healthy:
            assert manager.result(run_id) is not None
            assert manager.dead_letter(run_id) is None

    def test_poison_does_not_trip_healthy_campaign_on_same_host(self):
        # Both campaigns target the same stimulus host; the poison one fails
        # repeatedly. Per-job breaker scoping must keep the healthy one clean.
        manager = CampaignManager(max_deliveries=4, backoff_base_seconds=2.0)
        poison = manager.submit(
            make_submission(800, poison=True, resource="shared.host")
        )
        healthy = manager.submit(make_submission(801, resource="shared.host"))
        report = manager.run_fleet(num_workers=1)
        assert report.dead == 1 and report.completed == 1
        assert manager.result(healthy) is not None
        scopes = manager.breakers.scopes()
        assert poison in scopes
        # The healthy job's scope never accumulated failures on the host.
        assert manager.breakers.open_hosts(scope=healthy) == []


class TestResourceGuard:
    def test_same_host_jobs_never_overlap_under_guard(self):
        manager = CampaignManager(max_in_flight_per_resource=1)
        manager.submit_all(
            make_submission(900 + i, resource="guarded.host") for i in range(3)
        )
        report = manager.run_fleet(num_workers=3)
        assert report.completed == 3
        intervals = sorted(
            (o.started_at, o.finished_at) for o in report.outcomes
        )
        for (_, first_end), (second_start, _) in zip(intervals, intervals[1:]):
            assert second_start >= first_end


class TestControlPlaneRecovery:
    def test_manager_recovery_resumes_pending_jobs(self):
        store = FleetStore()
        manager = CampaignManager(store=store)
        subs = [make_submission(1000 + i) for i in range(3)]
        run_ids = manager.submit_all(subs)
        # Simulate the plane dying mid-drain: one job claimed, none finished.
        manager.queue.claim("doomed-worker", 0.0)
        revived = CampaignManager.recover(store, now=1.0)
        assert sorted(revived.submissions) == run_ids
        report = revived.run_fleet(num_workers=2)
        assert report.completed == 3
        for run_id, sub in zip(run_ids, subs):
            assert revived.result(run_id) == sub.reference_run()


class TestValidation:
    def test_submit_rejects_non_submissions(self):
        manager = CampaignManager()
        with pytest.raises(FleetError):
            manager.submit({"not": "a submission"})

    def test_run_fleet_rejects_zero_workers(self):
        manager = CampaignManager()
        manager.submit(make_submission(1))
        with pytest.raises(FleetError):
            manager.run_fleet(num_workers=0)

    def test_observed_fleet_records_job_spans(self):
        manager = CampaignManager(observe=True)
        manager.submit(make_submission(1100))
        manager.run_fleet(num_workers=1)
        root = manager.obs.trace_root()
        assert root is not None and root.name == "fleet"
        assert any(child.name == "job" for child in root.children)
