"""Executor-layer tests: inline loop / process fan-out equivalence.

The contract under test: at a fixed seed, the campaign's concluded
results, deterministic metrics, and exported timeline are
**byte-identical** across both roster paths and every worker count —
the process pool buys wall-clock speed, never a different answer. Plus the
guardrails around the pool itself: worker counts cap at the pending roster,
unpicklable user hooks fail with a clear :class:`CampaignError`, and the
chunking math is sane.
"""

import pickle

import pytest

import repro.core.campaign as campaign_module
from repro.core.campaign import Campaign
from repro.core.conclusion import conclusion_digest
from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.fanout import ensure_picklable
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.crowd.workers import FIGURE_EIGHT_TRUSTWORTHY_MIX, generate_population
from repro.errors import CampaignError, ValidationError
from repro.html.parser import parse_html
from repro.net.faults import FaultPlan, RetryPolicy
from repro.util.executors import (
    EXECUTOR_MODES,
    available_cpus,
    chunk_indices,
    effective_pool_size,
    resolve_chunk_size,
    validate_executor_mode,
)

VERSIONS = ("a", "b", "c")
PARTICIPANTS = 12


def make_documents():
    return {
        p: parse_html(
            f"<html><body><div><p>{p} body text for the page</p></div></body></html>"
        )
        for p in VERSIONS
    }


def make_params(participants=PARTICIPANTS):
    return TestParameters(
        test_id="executor-test",
        test_description="executor equivalence",
        participant_num=participants,
        question=[Question("q1", "Which looks better?")],
        webpages=[WebpageSpec(web_path=p, web_page_load=1000) for p in VERSIONS],
    )


def make_judge():
    return make_utility_judge(
        {"a": 0.0, "b": 0.4, "c": 0.8, "__contrast__": -5.0},
        ThurstoneChoiceModel(),
    )


def chaos_config(**overrides):
    """A faulty network + retrying clients (mirrors the obs-trace chaos run)."""
    settings = dict(
        seed=71,
        observe=True,
        fault_plan=FaultPlan.lossy(
            seed=71, drop_rate=0.08, timeout_rate=0.03,
            error_rate=0.03, latency_rate=0.05,
        ),
        retry_policy=RetryPolicy(max_attempts=4, backoff_base_seconds=0.5),
    )
    settings.update(overrides)
    return CampaignConfig(**settings)


def run_campaign(
    executor, parallelism, config=None, participants=PARTICIPANTS,
    randomize_orientation=False,
):
    if config is None:
        config = CampaignConfig(seed=71, observe=True)
    campaign = Campaign(
        config=config.replace(parallelism=parallelism, executor=executor)
    )
    campaign.prepare(
        make_params(participants), make_documents(),
        randomize_orientation=randomize_orientation,
    )
    result = campaign.run(make_judge())
    return campaign, result


def fingerprint(campaign, result, tmp_path, tag):
    """(conclusion digest, metrics snapshot, timeline bytes) for equality."""
    snapshot = campaign.metrics.deterministic_snapshot()
    trace_path = tmp_path / f"trace-{tag}.json"
    campaign.timeline().write_json(trace_path)
    return conclusion_digest(campaign, result), snapshot, trace_path.read_bytes()


# -- the cross-executor determinism suite -----------------------------------


class TestCrossExecutorDeterminism:
    def test_serial_process_identical(self, tmp_path):
        # Mirrored orientations ride the prepared test into every worker
        # process; nothing else carries the flag across the pool boundary.
        for randomize in (False, True):
            base_campaign, base_result = run_campaign(
                "serial", 1, randomize_orientation=randomize
            )
            base = fingerprint(
                base_campaign, base_result, tmp_path, f"serial-{randomize}"
            )
            shown_mirrored = any(
                answer.integrated_id.endswith("-m")
                for r in base_result.raw_results
                for answer in r.answers
            )
            assert shown_mirrored == randomize
            campaign, result = run_campaign(
                "process", 4, randomize_orientation=randomize
            )
            conclusion, snapshot, trace = fingerprint(
                campaign, result, tmp_path, f"process-{randomize}"
            )
            assert conclusion == base[0]
            assert snapshot == base[1]
            assert trace == base[2]
            assert result.duration_days == base_result.duration_days

    def test_process_identical_across_worker_counts(self, tmp_path):
        reference = None
        for workers in (2, 3):
            campaign, result = run_campaign("process", workers)
            fp = fingerprint(campaign, result, tmp_path, f"w{workers}")
            if reference is None:
                reference = fp
            else:
                assert fp == reference

    def test_chaos_variant_identical(self, tmp_path):
        base_campaign, base_result = run_campaign(
            "serial", 1, config=chaos_config()
        )
        base = fingerprint(base_campaign, base_result, tmp_path, "chaos-serial")
        assert base_campaign.network.stats.faults_injected > 0
        campaign, result = run_campaign("process", 4, config=chaos_config())
        assert campaign.network.stats == base_campaign.network.stats
        assert fingerprint(campaign, result, tmp_path, "chaos-process") == base

    def test_unobserved_campaign_metrics_merge(self):
        base_campaign, base_result = run_campaign(
            "serial", 1, config=CampaignConfig(seed=71)
        )
        campaign, result = run_campaign(
            "process", 3, config=CampaignConfig(seed=71)
        )
        assert conclusion_digest(campaign, result) == conclusion_digest(
            base_campaign, base_result
        )
        # Every chunk's registry delta lands in the parent campaign's own
        # registry, exactly once.
        assert campaign.metrics.deterministic_snapshot() == (
            base_campaign.metrics.deterministic_snapshot()
        )
        participants = campaign.metrics.counter("campaign.participants")
        assert participants == PARTICIPANTS

    def test_unobserved_campaigns_do_not_share_metrics(self):
        first, _ = run_campaign("serial", 1, config=CampaignConfig(seed=71),
                                participants=5)
        second, _ = run_campaign("serial", 1, config=CampaignConfig(seed=71),
                                 participants=5)
        assert first.metrics is not second.metrics
        assert first.metrics.counter("campaign.participants") == 5
        assert second.metrics.counter("campaign.participants") == 5


# -- checkpoint / resume across a process-executor crash ----------------------


class ChunkCrashHook:
    """Checkpoint hook that dies after N chunk merges (parent-side crash)."""

    def __init__(self, crash_after):
        self.crash_after = crash_after
        self.calls = 0

    def __call__(self, campaign):
        self.calls += 1
        if self.calls == self.crash_after:
            raise RuntimeError("simulated crash between chunks")


class TestProcessCheckpointResume:
    def run_reference(self, workers, config):
        campaign = Campaign(config=config)
        campaign.prepare(make_params(), make_documents())
        result = campaign.run_with_workers(workers, make_judge())
        return campaign, result

    def test_midrun_crash_between_chunks_resumes_bit_identical(self):
        workers = generate_population(
            PARTICIPANTS, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=7, id_prefix="w"
        )
        # Automatic chunking over 12 participants and 2 workers: 6 chunks of
        # 2, checkpoint after each.
        config = CampaignConfig(seed=71, parallelism=2)
        reference = self.run_reference(workers, config)

        crashed = Campaign(config=config)
        crashed.prepare(make_params(), make_documents())
        crashed.checkpoint_hook = ChunkCrashHook(crash_after=2)
        with pytest.raises(RuntimeError, match="between chunks"):
            crashed.run_with_workers(workers, make_judge())
        # The crash landed between chunks: a proper prefix of the roster's
        # uploads is durable, the rest never ran.
        stored = crashed.server.uploaded_worker_ids("executor-test")
        assert 0 < len(stored) < PARTICIPANTS

        # Resume on a *fresh* campaign from the serialized checkpoint state —
        # the same payload a fleet worker journals — and conclude
        # bit-identically to the uncrashed reference.
        state = crashed.resume_state()
        fresh = Campaign(config=config)
        fresh.prepare(make_params(), make_documents())
        resumed = fresh.run_with_workers(
            workers, make_judge(), resume_from=state
        )
        assert conclusion_digest(fresh, resumed) == conclusion_digest(*reference)
        # The resumed run only re-simulated the missing suffix: every worker
        # still uploaded exactly once.
        uploads = fresh.server.uploaded_worker_ids("executor-test")
        assert len(uploads) == len(set(uploads)) == PARTICIPANTS

    def test_resume_on_same_campaign_via_checkpoint(self):
        workers = generate_population(
            PARTICIPANTS, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=7, id_prefix="w"
        )
        config = CampaignConfig(seed=71, parallelism=2)
        reference = self.run_reference(workers, config)
        campaign = Campaign(config=config)
        campaign.prepare(make_params(), make_documents())
        campaign.checkpoint_hook = ChunkCrashHook(crash_after=3)
        with pytest.raises(RuntimeError, match="between chunks"):
            campaign.run_with_workers(workers, make_judge())
        campaign.checkpoint_hook = None
        resumed = campaign.run_with_workers(
            workers, make_judge(), resume_from=campaign.resume_state()
        )
        assert conclusion_digest(campaign, resumed) == conclusion_digest(
            *reference
        )


# -- pool-size guardrails ----------------------------------------------------


class TestPoolSizing:
    def test_effective_pool_size_caps_at_pending(self):
        assert effective_pool_size(8, 3) == 3
        assert effective_pool_size(2, 100) == 2
        assert effective_pool_size(4, 0) == 1  # floor: never zero workers
        with pytest.raises(ValidationError):
            effective_pool_size(0, 10)

    def test_process_fanout_records_capped_pool(self):
        campaign, _ = run_campaign("process", 64, participants=4)
        assert campaign._last_fanout_pool == 4

    def test_resolve_chunk_size(self):
        # default: pending / (workers * 4), at least 1
        assert resolve_chunk_size(100, 4) == 7
        assert resolve_chunk_size(3, 8) == 1
        assert resolve_chunk_size(0, 4) == 1

    def test_chunk_indices_partition_in_order(self):
        chunks = chunk_indices(list(range(10)), 1)
        assert chunks == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
        assert chunk_indices([], 4) == []
        flat = [i for chunk in chunk_indices(list(range(23)), 4) for i in chunk]
        assert flat == list(range(23))


# -- hook picklability -------------------------------------------------------


class TestPicklability:
    def test_unpicklable_judge_raises_campaign_error(self):
        campaign = Campaign(
            config=CampaignConfig(seed=71, parallelism=2, executor="process")
        )
        campaign.prepare(make_params(4), make_documents())
        with pytest.raises(CampaignError, match="picklable"):
            campaign.run(lambda w, q, left, right, rng: left)

    def test_ensure_picklable_passthrough(self):
        ensure_picklable(make_judge(), "judge")
        with pytest.raises(CampaignError, match="executor='process'"):
            ensure_picklable(lambda: None, "judge")

    def test_span_pickle_round_trip(self):
        campaign, _ = run_campaign("serial", 1, participants=3)
        root = campaign.obs.trace_root()
        clone = pickle.loads(pickle.dumps(root))
        assert clone.signature() == root.signature()


# -- mode validation ---------------------------------------------------------


class TestModeValidation:
    def test_config_rejects_unknown_executor(self):
        with pytest.raises(ValidationError, match="executor"):
            CampaignConfig(executor="gpu")

    def test_config_rejects_thread_executor(self):
        with pytest.raises(ValidationError, match="executor"):
            CampaignConfig(executor="thread")

    def test_config_rejects_bad_chunk_size(self):
        # Automatic chunking is the only policy: any chunk_size is refused.
        with pytest.raises(TypeError, match="chunk_size"):
            CampaignConfig(chunk_size=2)

    def test_default_config_parallel_roster_uses_process_pool(
        self, monkeypatch
    ):
        calls = []
        real = campaign_module.run_process_fanout

        def spy(*args, **kwargs):
            calls.append(args[4])  # pool_size
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign_module, "run_process_fanout", spy)
        campaign = Campaign(config=CampaignConfig(seed=71, parallelism=3))
        campaign.prepare(make_params(6), make_documents())
        result = campaign.run(make_judge())
        assert calls == [3]
        assert result.participants == 6

    def test_run_rejects_unknown_executor(self):
        campaign = Campaign(config=CampaignConfig(seed=71))
        with pytest.raises(ValidationError, match="executor"):
            campaign.config.replace(parallelism=2, executor="fiber")

    def test_validate_executor_mode(self):
        for mode in EXECUTOR_MODES:
            assert validate_executor_mode(mode) == mode
        with pytest.raises(ValidationError):
            validate_executor_mode("serial ")

    def test_available_cpus_positive(self):
        assert available_cpus() >= 1

    def test_executor_in_config_dict(self):
        payload = CampaignConfig(executor="serial").to_dict()
        assert payload["executor"] == "serial"
        assert "chunk_size" not in payload
        assert CampaignConfig().executor == "process"
