"""Streaming aggregation tests: the `sharded-streaming` store mode must be
decision-identical to the batch pipeline, across executors and crashes."""

import copy
import json
import pickle
from types import SimpleNamespace

import pytest

from tests.test_core_campaign import make_documents, make_judge, make_params

from repro.core.aggregator import RESPONSES_COLLECTION
from repro.core.analysis import analyze_responses
from repro.core.btmodel import counts_from_results, fit_bradley_terry
from repro.core.campaign import Campaign
from repro.core.conclusion import (
    conclusion_digest,
    conclusion_payload,
    payload_digest,
)
from repro.core.config import CampaignConfig
from repro.core.extension import ParticipantResult, make_utility_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.core.quality import QualityConfig, QualityControl
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.crowd.workers import FIGURE_EIGHT_TRUSTWORTHY_MIX, generate_population
from repro.errors import CampaignError
from repro.html.parser import parse_html
from repro.storage import documentstore
from repro.store import wal
from repro.store.sharded import ShardedDocumentStore
from repro.util.jsonutil import dumps_canonical


def run_campaign(store, participants=25, seed=7, **config_kwargs):
    config = CampaignConfig(seed=seed, store=store, **config_kwargs)
    campaign = Campaign(config=config)
    campaign.prepare(make_params(participants=participants), make_documents())
    result = campaign.run(make_judge())
    return campaign, result


def reconclude(campaign, result):
    """Conclude ``campaign`` again, as the run that produced ``result`` did."""
    return campaign.conclude(job=result.job, duration_days=result.duration_days)


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

    def test_fold_digest_equals_the_batch_digest(self, runs, reference):
        """The batch outputs, hashed in the conclusion digest's form, equal
        each store's digest of its fold."""
        campaign, memory = runs["memory"]
        checkpoint = campaign.resume_state()
        batch = payload_digest(
            conclusion_payload(
                memory.to_dict(),
                reference.report,
                reference.raw_analysis,
                reference.controlled_analysis,
                reference.bt,
                checkpoint,
            )
        )
        for campaign, result in runs.values():
            assert conclusion_digest(campaign, result) == batch

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
        return conclusion_digest(*run_campaign(
            "memory", participants=16, seed=11, executor="serial", parallelism=3
        ))

    @pytest.mark.parametrize("store", ["memory", "sharded-streaming"])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_every_executor_matches_serial_memory(
        self, baseline, store, executor
    ):
        assert conclusion_digest(*run_campaign(
            store, participants=16, seed=11, executor=executor, parallelism=3
        )) == baseline


class TestConcludeReadsOnce:
    @pytest.mark.parametrize("store", ["memory", "sharded-streaming"])
    def test_one_conclude_streams_the_responses_once(self, store, monkeypatch):
        """Conclude builds no checkpoint on the side (resume_state() reads
        only when asked). The sharded store reads no row at all; the memory
        store reads its responses in one uncopied ``scan`` (no ``find`` and
        no document copy), only to fill ``raw_results``."""
        campaign, result = run_campaign(store, participants=6, seed=5)
        digest = conclusion_digest(campaign, result)
        calls = {}

        def count_calls(owner, name):
            calls[name] = 0
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        if isinstance(campaign.database, ShardedDocumentStore):
            count_calls(campaign.database, "stream_collection")
            expected = {"stream_collection": 0}
        else:
            count_calls(campaign.database.collection(RESPONSES_COLLECTION), "find")
            count_calls(campaign.database.collection(RESPONSES_COLLECTION), "scan")
            count_calls(documentstore, "deep_copy_json")
            expected = {"find": 0, "scan": 1, "deep_copy_json": 0}
        again = reconclude(campaign, result)
        assert calls == expected
        assert conclusion_digest(campaign, again) == digest

    @pytest.mark.parametrize("store", ["memory", "sharded-streaming"])
    def test_neither_store_conclude_parses_rows(self, store, monkeypatch):
        """Conclude parses no row on either store: the memory store parses
        ``raw_results`` and ``quality_report.kept`` on first read."""
        campaign, result = run_campaign(store, participants=25, seed=5)
        digest = conclusion_digest(campaign, result)
        assert len(campaign._streaming_state.screen.dropped_ids) > 0
        parsed = count_parses(monkeypatch)
        again = reconclude(campaign, result)
        assert conclusion_digest(campaign, again) == digest
        assert again.to_dict() == result.to_dict()
        assert parsed == []
        if store == "sharded-streaming":
            assert again.raw_results == [] and again.quality_report.kept == []

    def test_sharded_conclude_decodes_no_wal_line(self, monkeypatch):
        """After a run whose responses spilled to the WAL, conclude decodes
        no WAL line: it reads the answer codes recorded at upload."""
        campaign, result = run_campaign("sharded-streaming", participants=25, seed=5)
        assert campaign.database.stats()["spilled_documents"] > 0
        digest = conclusion_digest(campaign, result)
        decoded = [0]
        original = wal.decode_wal_line

        def counted(line):
            decoded[0] += 1
            return original(line)

        monkeypatch.setattr(wal, "decode_wal_line", counted)
        again = reconclude(campaign, result)
        assert decoded[0] == 0
        monkeypatch.undo()
        assert conclusion_digest(campaign, again) == digest

    @pytest.mark.parametrize("store", ["memory", "sharded-streaming"])
    def test_concluding_twice_gives_the_same_conclusion(self, store):
        """Conclude changes no state: two concludes of the streaming state
        agree, and so do two campaign concludes' digests."""
        campaign, result = run_campaign(store, participants=12, seed=5)
        digest = conclusion_digest(campaign, result)
        state = campaign._streaming_state
        first, second = state.conclude(), state.conclude()
        assert first.report.kept_ids == second.report.kept_ids
        assert [
            (d.worker_id, d.reason, d.detail) for d in first.report.dropped
        ] == [(d.worker_id, d.reason, d.detail) for d in second.report.dropped]
        assert first.controlled_analysis.tallies == second.controlled_analysis.tallies
        for question_id, counts in first.controlled_bt.items():
            assert list(counts.wins.items()) == list(
                second.controlled_bt[question_id].wins.items()
            )
        assert state.ingested == 12
        for _ in range(2):
            assert conclusion_digest(campaign, reconclude(campaign, result)) == digest


def count_parses(monkeypatch):
    """Record the worker id of every ``ParticipantResult.from_dict`` call."""
    parsed = []
    original = ParticipantResult.from_dict.__func__

    def counted(cls, row):
        parsed.append(row["worker_id"])
        return original(cls, row)

    monkeypatch.setattr(ParticipantResult, "from_dict", classmethod(counted))
    return parsed


def dump_text(campaign):
    return dumps_canonical(campaign.database.dump())


def as_dicts(results):
    return dumps_canonical([r.as_dict() for r in results])


class TestResultsParsedOnRead:
    """The memory store's ``raw_results`` and ``quality_report.kept`` are
    parsed from the rows stored at conclude, on first read, once."""

    def test_first_read_parses_each_row_once(self, monkeypatch):
        campaign, result = run_campaign("memory", participants=25, seed=5)
        again = reconclude(campaign, result)
        parsed = count_parses(monkeypatch)
        assert len(again.quality_report.kept) < len(again.raw_results) == 25
        uploaded = campaign.server.uploaded_worker_ids(campaign.prepared.test_id)
        assert sorted(parsed) == sorted(uploaded)
        before = list(parsed)
        assert len(again.raw_results) == 25
        assert len(again.quality_report.kept) == again.quality_report.kept_count
        assert list(again.raw_results) and list(again.controlled_results)
        assert parsed == before

    def test_kept_read_first_shares_the_raw_parse(self, monkeypatch):
        campaign, result = run_campaign("memory", participants=25, seed=5)
        again = reconclude(campaign, result)
        parsed = count_parses(monkeypatch)
        kept = list(again.quality_report.kept)
        assert len(parsed) == 25
        raw = list(again.raw_results)
        assert len(parsed) == 25
        assert all(any(k is r for r in raw) for k in kept)

    def test_results_equal_the_eager_lists(self):
        campaign, result = run_campaign("memory", participants=25, seed=5)
        eager = campaign.server.stored_results(campaign.prepared.test_id)
        report = result.quality_report
        kept_ids = set(report.kept_ids)
        eager_kept = [r for r in eager if r.worker_id in kept_ids]
        assert result.raw_results == eager and eager == result.raw_results
        assert report.kept == eager_kept and eager_kept == report.kept
        assert [r.worker_id for r in report.kept] == report.kept_ids
        assert [r.worker_id for r in result.raw_results] == [
            r.worker_id for r in eager
        ]
        assert result.raw_results != eager[:-1]
        reference = batch_reference(campaign, eager)
        assert report.kept == reference.report.kept

    def test_results_stay_the_rows_stored_at_conclude(self):
        campaign, result = run_campaign("memory", participants=8, seed=5)
        test_id = campaign.prepared.test_id
        eager = as_dicts(campaign.server.stored_results(test_id))
        after_uploads = reconclude(campaign, result)
        after_drop = reconclude(campaign, result)
        responses = campaign.database.collection(RESPONSES_COLLECTION)
        late = responses.find({"test_id": test_id})[0]
        late.pop("_id")
        late["worker_id"] = "late-worker"
        responses.insert_one(late)
        assert len(campaign.server.stored_results(test_id)) == 9
        assert as_dicts(after_uploads.raw_results) == eager
        assert "late-worker" not in after_uploads.quality_report.kept_ids
        kept = as_dicts(after_uploads.quality_report.kept)
        campaign.database.drop_collection(RESPONSES_COLLECTION)
        assert campaign.server.stored_results(test_id) == []
        assert as_dicts(after_drop.raw_results) == eager
        assert as_dicts(after_drop.quality_report.kept) == kept

    def test_list_operations_read_the_loaded_list(self, monkeypatch):
        campaign, result = run_campaign("memory", participants=6, seed=5)
        lazy, eager = reconclude(campaign, result).raw_results, result.raw_results
        assert copy.copy(lazy) == list(eager)
        assert lazy[1:3] == list(eager)[1:3] and len(lazy + eager) == 12
        assert pickle.loads(pickle.dumps(lazy)) == eager


class TestStoredRowsStayPrivate:
    """The conclude pass reads stored rows uncopied; nothing it, the
    streaming re-fold or ``stored_results`` hands out may alias them."""

    @pytest.mark.parametrize("store", ["memory", "sharded-streaming"])
    def test_read_paths_leave_the_store_unchanged(self, store):
        campaign, result = run_campaign(store, participants=6, seed=5)
        digest = conclusion_digest(campaign, result)
        before = dump_text(campaign)
        again = reconclude(campaign, result)
        campaign._ensure_streaming()
        stored = campaign.server.stored_results(campaign.prepared.test_id)
        assert len(stored) == again.participant_count == 6
        assert dump_text(campaign) == before
        final = reconclude(campaign, result)
        assert conclusion_digest(campaign, final) == digest

    @pytest.mark.parametrize("store", ["memory", "sharded-streaming"])
    def test_mutating_handed_out_rows_and_results(self, store):
        campaign, result = run_campaign(store, participants=6, seed=5)
        digest = conclusion_digest(campaign, result)
        before = dump_text(campaign)
        raw_before = dumps_canonical([r.as_dict() for r in result.raw_results])
        checkpoint = campaign.resume_state()
        assert len(checkpoint["rows"]) == 6
        for row in checkpoint["rows"]:
            row["worker_id"] = "mallory"
            row["demographics"]["country"] = "XX"
            row["answers"][0]["answer"] = "same"
            row["answers"][0]["behavior"]["duration_minutes"] = 99.0
            row["answers"].append({})
        stored = campaign.server.stored_results(campaign.prepared.test_id)
        for parsed in list(result.raw_results) + stored:
            parsed.demographics.clear()
        assert dump_text(campaign) == before
        again = reconclude(campaign, result)
        assert conclusion_digest(campaign, again) == digest
        assert dumps_canonical([r.as_dict() for r in again.raw_results]) == raw_before
        assert len(again.raw_results) == (6 if store == "memory" else 0)

    def test_results_parsed_on_read_alias_no_stored_row(self):
        campaign, result = run_campaign("memory", participants=6, seed=5)
        before = dump_text(campaign)
        again = reconclude(campaign, result)
        rows = list(
            campaign.database.collection(RESPONSES_COLLECTION).scan(
                {"test_id": campaign.prepared.test_id}
            )
        )
        stored = [
            id(part) for row in rows
            for part in (row, row["demographics"], row["answers"], *row["answers"])
        ]
        kept = again.quality_report.kept
        assert kept
        for parsed in list(again.raw_results) + list(kept):
            assert id(parsed.demographics) not in stored
            assert id(parsed.answers) not in stored
            parsed.demographics["country"] = "XX"
            parsed.answers.clear()
        assert dump_text(campaign) == before
        final = reconclude(campaign, result)
        assert as_dicts(final.raw_results) == as_dicts(result.raw_results)


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
        return config, campaign, result

    def crash_after(self, config, roster, checkpoints):
        campaign = Campaign(config=config)
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
        config, ref_campaign, ref = reference
        crashed = self.crash_after(config, roster, checkpoints=5)
        # The same seed draws the same roster entropy.
        assert crashed.last_root_entropy == ref_campaign.last_root_entropy
        checkpoint = json.loads(json.dumps(crashed.resume_state()))
        assert checkpoint["store"]["shards"] == config.store_shards
        assert len(checkpoint["rows"]) == 5
        resumed = Campaign(config=config)
        resumed.prepare(make_params(), make_documents())
        result = resumed.run_with_workers(
            roster, make_judge(), resume_from=checkpoint
        )
        assert conclusion_digest(resumed, result) == conclusion_digest(
            ref_campaign, ref
        )

    def test_disk_wal_recovery_refolds_and_resumes(
        self, roster, reference, tmp_path
    ):
        config, ref_campaign, ref = reference
        disk_config = config.replace(store_directory=tmp_path)
        crashed = self.crash_after(disk_config, roster, checkpoints=7)
        crashed.database.close()
        del crashed
        # A new campaign over the same directory recovers the WALs and
        # re-folds the stored rows; its seed replays the crashed roster's
        # entropy, so the fan-out resumes where the crash left it.
        revived = Campaign(config=disk_config)
        revived.prepare(make_params(), make_documents())
        assert revived._streaming_state.ingested == 7
        result = revived.run_with_workers(roster, make_judge())
        assert conclusion_digest(revived, result) == conclusion_digest(
            ref_campaign, ref
        )

    def test_shard_count_mismatch_rejected(self, roster, reference):
        config, _, _ = reference
        crashed = self.crash_after(config, roster, checkpoints=5)
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
        # The default screen drops three of the first eight uploads and the
        # adaptive scheduler retracts their answers, so the stop needs ten.
        roster = generate_population(10, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=21)
        judge = make_utility_judge(
            {"p0": 1.5, "p1": 0.6, "p2": -0.2, "p3": -1.0, "__contrast__": -5.0},
            ThurstoneChoiceModel(),
        )
        digests = {}
        for store in ("memory", "sharded-streaming"):
            campaign = scheduled_campaign(store, scheduler)
            result = campaign.run_with_workers(roster, judge)
            digests[store] = conclusion_digest(campaign, result)
            if scheduler == "adaptive":
                assert result.early_stop is not None
        assert digests["sharded-streaming"] == digests["memory"]


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

