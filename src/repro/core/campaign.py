"""End-to-end campaign orchestration.

A :class:`Campaign` wires every component together the way Figure 2 draws
them: the aggregator prepares test data into the database and storage, the
core server exposes it over the simulated network, the task is posted to the
crowdsourcing platform, each recruited worker runs the browser-extension
flow (download integrated pages, answer, upload), and the conclusion step
applies quality control and analysis. One call to :meth:`run` is one
complete Kaleidoscope test — the unit the evaluation benchmarks drive.

Configuration lives in one frozen :class:`~repro.core.config.CampaignConfig`
(``Campaign(config=...)``), the single source of truth for every run entry
point: recruitment always yields a roster, and one roster pipeline simulates,
uploads and checkpoints it. With ``observe=True`` the campaign
records a deterministic trace — campaign → participant → page → exchange
spans on virtual clocks, plus a metrics registry — exportable through
:meth:`Campaign.timeline` as Chrome trace-event JSON or a text report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import log
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aggregator import RESPONSES_COLLECTION, Aggregator, PreparedTest
# Unused here; kept because perfbench/layers.py patches it on this module by name.
from repro.core.analysis import AnalysisBundle, analyze_responses  # noqa: F401
from repro.core.analysis import preference_log_evidence, tally_question
from repro.core.conclusion import Conclusion, DegradedConclusion, floors_met
from repro.core.config import CampaignConfig
from repro.core.extension import BrowserExtension, JudgeFunction, ParticipantResult
from repro.core.fanout import run_process_fanout
from repro.core.integrated import IntegratedWebpage
from repro.core.parameters import TestParameters
from repro.core.adaptive import EarlyStoppedConclusion
from repro.core.quality import QualityReport, record_report
from repro.core.scheduling import (
    SCHEDULER_FULL,
    Scheduler,
    all_pairs,
    make_scheduler,
    scheduler_class,
)
from repro.core.server import CoreServer, ResultsOnRead, parse_rows
from repro.store import ShardedDocumentStore, StreamingCampaignState
from repro.crowd.arrivals import arrival_offsets
from repro.crowd.platform import CrowdJob, CrowdPlatform
from repro.crowd.workers import WorkerProfile
from repro.errors import (
    CampaignError,
    NetworkError,
    ParticipantAbandoned,
    ServerOverloaded,
)
from repro.html.dom import Document
from repro.net.http import Request
from repro.net.overload import (
    OVERLOAD_HEADER,
    RETRY_AFTER_HEADER,
    LoadSignal,
)
from repro.net.profiles import PROFILES, NetworkProfile
from repro.net.simnet import Client, SimulatedNetwork
from repro.obs import Observability, TraceClock
from repro.render.artifacts import PageArtifactCache
from repro.sim.clock import SECONDS_PER_DAY, SimulationEnvironment
from repro.storage.documentstore import DocumentStore
from repro.storage.filestore import FileStore
from repro.util.executors import EXECUTOR_SERIAL, effective_pool_size
from repro.util.jsonutil import deep_copy_json
from repro.util.rng import Categorical, RosterStreams, coerce_rng

# Participants arrive on whatever access network they have; the replay
# design makes the *test* insensitive to this, but downloads still take
# realistically different times.
_PARTICIPANT_PROFILES = Categorical(
    ("fiber", "cable", "dsl", "4g", "3g"), (0.25, 0.30, 0.15, 0.20, 0.10)
)

#: Control pages shown per participant: §IV-A shows each one control page.
CONTROLS_PER_PARTICIPANT = 1


def _comparison_versions(prepared: PreparedTest) -> List[str]:
    """The test's version ids without the contrast-control pseudo-version."""
    return [v for v in prepared.version_ids if v != "__contrast__"]


def _kept_results(
    results: Sequence[ParticipantResult], kept_ids: Sequence[str]
) -> List[ParticipantResult]:
    """The results whose worker the quality screen kept, in upload order
    (the order the screen keeps them in)."""
    kept = set(kept_ids)
    return [r for r in results if r.worker_id in kept]


@dataclass
class CampaignResult:
    """Everything one finished campaign produced.

    ``conclusion`` is always attached: a plain :class:`~repro.core.
    conclusion.Conclusion` for clean runs, the :class:`~repro.core.
    conclusion.DegradedConclusion` subclass whenever participants were lost
    or conclusion floors were requested. The historical ``degraded``
    attribute survives as a property with its exact old contract (``None``
    unless a degradation report was warranted). A result is not a
    checkpoint: resuming takes :meth:`Campaign.resume_state`.
    """

    test_id: str
    raw_results: List[ParticipantResult]
    quality_report: QualityReport
    raw_analysis: AnalysisBundle
    controlled_analysis: AnalysisBundle
    job: Optional[CrowdJob]
    duration_days: float
    total_cost_usd: float
    conclusion: Conclusion
    #: Uploaded-participant count. Conclude parses no row on either store:
    #: memory-store results parse ``raw_results`` on first read, and
    #: sharded-store results keep it empty by design (the rows were folded
    #: into sufficient statistics, never materialized), so this is the
    #: count that costs no parse.
    participant_count: int
    #: The adaptive scheduler's structured stopping verdict (ranking,
    #: answers used, stability evidence); ``None`` for every other
    #: scheduler mode, and for adaptive campaigns concluded before the
    #: scheduler stopped.
    early_stop: Optional[EarlyStoppedConclusion] = None

    @property
    def controlled_results(self) -> List[ParticipantResult]:
        return self.quality_report.kept

    @property
    def participants(self) -> int:
        return self.participant_count

    @property
    def degraded(self) -> Optional[DegradedConclusion]:
        """The degradation report, or ``None`` for a clean, floor-free run."""
        if isinstance(self.conclusion, DegradedConclusion):
            return self.conclusion
        return None

    @property
    def is_degraded(self) -> bool:
        """True when the campaign concluded on partial data."""
        return self.conclusion.is_degraded

    def to_dict(self) -> dict:
        """JSON-friendly summary (CLI output, timeline metadata, reports)."""
        return {
            "test_id": self.test_id,
            "participants": self.participants,
            "kept": self.quality_report.kept_count,
            "dropped": len(self.quality_report.dropped),
            "duration_days": round(self.duration_days, 4),
            "total_cost_usd": round(self.total_cost_usd, 2),
            "degraded": self.is_degraded,
            "conclusion": self.conclusion.to_dict(),
            "early_stop": self.early_stop.to_dict() if self.early_stop else None,
        }


class Campaign:
    """Owns one test's full lifecycle over shared infrastructure."""

    def __init__(
        self,
        env: Optional[SimulationEnvironment] = None,
        network: Optional[SimulatedNetwork] = None,
        database: Optional[DocumentStore] = None,
        storage: Optional[FileStore] = None,
        platform: Optional[CrowdPlatform] = None,
        config: Optional[CampaignConfig] = None,
    ):
        """Build a campaign over (optionally shared) infrastructure.

        Every setting lives in ``config`` (a :class:`~repro.core.config.
        CampaignConfig`), the seed included.

        ``config.artifact_cache`` controls participant-side page rendering:
        ``True`` (default) renders each downloaded page through a shared
        :class:`~repro.render.artifacts.PageArtifactCache`; ``False`` still
        renders but rebuilds per visit; ``None`` skips rendering entirely.

        The resilience knobs default off — with none of them set the campaign
        is bit-identical to the fault-free pipeline; any of them switches the
        campaign into graceful-degradation mode (see
        :attr:`~repro.core.config.CampaignConfig.resilient`).

        ``config.observe`` records a deterministic trace + metrics for the
        run, exportable via :meth:`timeline`.
        """
        if config is None:
            config = CampaignConfig()
        self.config = config
        self.rng = coerce_rng(None, config.seed)
        self.env = env if env is not None else SimulationEnvironment()
        self.obs = (
            Observability.enabled_for(lambda: self.env.now)
            if config.observe
            else Observability.disabled()
        )
        self.tracer = self.obs.tracer
        self.metrics = self.obs.metrics
        self.network = (
            network
            if network is not None
            else SimulatedNetwork(
                self.env, fault_plan=config.fault_plan,
                tracer=self.tracer, metrics=self.metrics,
            )
        )
        if network is not None:
            if config.fault_plan is not None:
                self.network.faults = config.fault_plan
            self.network.metrics = self.metrics
            if self.obs.enabled:
                self.network.tracer = self.tracer
        if database is not None:
            self.database = database
        elif config.streaming:
            # Responses spill to the shard WALs (their log is their storage);
            # everything else stays small and in memory as usual.
            self.database = ShardedDocumentStore(
                shards=config.store_shards,
                directory=config.store_directory,
                spill=(RESPONSES_COLLECTION,),
                metrics=self.metrics,
            )
        else:
            self.database = DocumentStore()
        self.storage = storage if storage is not None else FileStore()
        # Streaming sufficient statistics + online quality screen, built by
        # prepare() and fed by the server on every accepted upload; the
        # only evidence conclude reads.
        self._streaming_state: Optional[StreamingCampaignState] = None
        self.last_streaming = None
        self.platform = (
            platform
            if platform is not None
            else CrowdPlatform(self.env, rng=self.rng)
        )
        self.aggregator = Aggregator(
            self.database, self.storage, metrics=self.metrics
        )
        self.server = CoreServer(
            self.database, self.storage, platform=self.platform,
            config=config,
            metrics=self.metrics,
        )
        self.network.attach(self.server.http)
        self.prepared: Optional[PreparedTest] = None
        if config.artifact_cache is None:
            self.artifacts: Optional[PageArtifactCache] = None
        else:
            self.artifacts = PageArtifactCache(
                enabled=bool(config.artifact_cache),
                metrics=self.metrics, tracer=self.tracer,
            )
        # (worker_id, reason) for every participant whose upload never landed.
        self.lost_uploads: List[Tuple[str, str]] = []
        # Entropy of the last roster run; resume_state() carries it so a
        # resume replays a crashed campaign's RNG substreams.
        self.last_root_entropy: Optional[int] = None
        # Optional callable invoked with this campaign after every durable
        # unit of roster progress (each upload in the inline loop, each
        # merged chunk in process mode). The fleet worker installs one to
        # journal checkpoints and heartbeat its lease; it may raise to
        # simulate the worker dying at exactly that point.
        self.checkpoint_hook = None
        # Overload control plane: the LoadSignal built from the arrival
        # schedule, attached to the server's admission controller before
        # the first session.
        # ``overload_pushback=True`` (set by the fleet worker) makes a
        # terminally rejected upload raise :class:`ServerOverloaded` — so
        # the job queue can requeue the campaign for the server-suggested
        # Retry-After — instead of recording a degraded-mode loss.
        self.overload_pushback = False
        self._overload_signal: Optional[LoadSignal] = None
        # Shared comparison scheduler (scheduler="adaptive"): one instance
        # serves the whole roster, carrying the cross-participant tally.
        # The snapshot slot holds a resume checkpoint's scheduler state
        # until the scheduled fan-out restores it.
        self._shared_scheduler: Optional[Scheduler] = None
        self._scheduler_snapshot: Optional[dict] = None
        # Root span of the run in progress; participant subtrees are adopted
        # under the innermost open span, in roster order.
        self._root_span = None
        # Worker count the last fan-out actually used (after capping at the
        # pending roster size). Plain attribute, not a gauge: gauges land in
        # deterministic_snapshot(), which must not vary with pool size.
        self._last_fanout_pool: Optional[int] = None

    # -- step 1: aggregation -------------------------------------------------

    def prepare(
        self,
        parameters: TestParameters,
        documents: Dict[str, Document],
        fetcher=None,
        main_text_selector: str = "p",
        instructions: str = "",
        randomize_orientation: bool = False,
    ) -> PreparedTest:
        """Run the aggregator; must precede :meth:`run`.

        ``randomize_orientation`` stores every pair in both left/right
        orientations (:attr:`PreparedTest.mirrored`) and shows each
        participant a random one — the standard counterbalancing against
        position bias.
        """
        if self.config.streaming and isinstance(
            self.database, ShardedDocumentStore
        ):
            # A disk-backed store that recovered a crashed run's WALs still
            # holds the old test/integrated records. Re-preparing the same
            # parameters regenerates them deterministically, so clear the
            # stale copies (the spilled responses are append-only and stay)
            # rather than refusing the restart.
            from repro.core.aggregator import (
                INTEGRATED_COLLECTION,
                TESTS_COLLECTION,
            )

            tests = self.database.collection(TESTS_COLLECTION)
            if tests.find_one({"test_id": parameters.test_id}) is not None:
                tests.delete_many({"test_id": parameters.test_id})
                self.database.collection(INTEGRATED_COLLECTION).delete_many(
                    {"test_id": parameters.test_id}
                )
        with self.tracer.span("prepare", category="campaign"):
            self.prepared = self.aggregator.prepare(
                parameters,
                documents,
                fetcher=fetcher,
                main_text_selector=main_text_selector,
                instructions=instructions,
                mirror_pairs=randomize_orientation,
            )
        self._ensure_streaming()
        return self.prepared

    def _ensure_streaming(self) -> None:
        """Build the streaming state for the prepared test and attach it to
        the server, then re-fold any rows the store already holds.

        The re-fold covers the two ways rows can predate the state: a
        disk-backed :class:`~repro.store.sharded.ShardedDocumentStore` that
        recovered a crashed run's WALs, and an externally shared database.
        Rows stream in global ``_id`` (upload) order, so the rebuilt
        aggregates match what an uncrashed run would hold.
        """
        prepared = self._require_prepared()
        questions = len(prepared.parameters.question)
        version_ids = _comparison_versions(prepared)
        if self._scheduler_is_shared():
            # Shared information-gain scheduling: per-participant answer
            # counts legitimately vary (session budgets, early stop can
            # leave late arrivals only the control page), so completeness
            # is just the control floor.
            expected_answers = 1 * questions
        elif self.config.scheduler != SCHEDULER_FULL:
            # Sorting-based reduction: any correct sort of N versions asks
            # at least N-1 questions; completeness is that floor + control.
            expected_answers = (len(version_ids) - 1 + 1) * questions
        else:
            # Hard-rule completeness: every comparison pair answered for
            # every question, plus at least one control page.
            expected_answers = (len(prepared.comparison_pairs()) + 1) * questions
        question_ids = [q.question_id for q in prepared.parameters.question]
        state = StreamingCampaignState(
            prepared.test_id,
            question_ids,
            version_ids,
            all_pairs(version_ids),
            expected_answers,
            quality=self.config.quality,
        )
        for row in self._stream_rows(prepared.test_id):
            state.ingest_row(row)
        self._streaming_state = state
        self.server.attach_streaming(state)

    def _stream_rows(self, test_id: str):
        """Stored response rows in global ``_id`` (upload) order, streamed,
        for reading only.

        Uses the sharded store's lazy WAL replay when available; a plain
        :class:`DocumentStore` yields its stored documents uncopied through
        :meth:`~repro.storage.documentstore.Collection.scan`. Callers parse
        the rows, or keep references for a result to parse on first read
        (:meth:`conclude`), and must not mutate them (:meth:`resume_state`
        copies the rows it hands out).
        """
        stream = getattr(self.database, "stream_collection", None)
        if stream is not None:
            yield from stream(RESPONSES_COLLECTION, {"test_id": test_id})
        else:
            yield from self.database.collection(RESPONSES_COLLECTION).scan(
                {"test_id": test_id}
            )

    # -- step 2+3: post task, recruit, run participants ---------------------------

    def run(self, judge: JudgeFunction) -> CampaignResult:
        """Execute the campaign to completion and conclude the results.

        Posts the task for the test's ``participant_num`` at the config's
        ``reward_usd``, lets the platform recruit the roster, runs it through
        the roster pipeline (:meth:`_run_roster`) and concludes. Everything
        else — executor, worker count, controls, conclusion floors, root
        entropy — comes from the campaign's :class:`~repro.core.config.
        CampaignConfig` (derive a variant with ``config.replace(...)``). The
        concluded result is bit-identical for every executor and
        ``parallelism`` at a fixed seed.
        """
        prepared = self._require_prepared()
        self._check_scheduler_applies(prepared)
        needed = prepared.parameters.participant_num
        with self.tracer.span(
            "campaign", category="campaign", test_id=prepared.test_id,
            mode="recruited", participants=needed,
        ) as root:
            self._root_span = root
            job = self._post_task(prepared, needed)
            start_time = self.env.now
            roster = self._recruit(job)
            self._run_roster(roster, judge)
            duration_days = (self.env.now - start_time) / SECONDS_PER_DAY
            return self.conclude(job=job, duration_days=duration_days)

    def run_until_significant(
        self,
        judge: JudgeFunction,
        question_id: str,
        pair: tuple,
        alpha: float = 0.01,
        max_participants: int = 400,
    ) -> CampaignResult:
        """Recruit one participant at a time until a pair's preference is
        significant on an always-valid test, or ``max_participants`` ran.

        The §IV-B discussion notes that an inconclusive test simply needs
        "more visits (and time)". After every upload this stops once the
        decided answers for ``(question_id, *pair)`` in the uploads the
        upload-time quality screen kept reach a Beta(1,1)-mixture likelihood
        ratio of ``1/alpha`` (:func:`~repro.core.analysis.
        preference_log_evidence`): by Ville's inequality it stops on two
        equally good versions with chance at most ``alpha``, however often
        it looks. It never stops before the config's conclusion floors are
        met, and raises :class:`~repro.errors.CampaignError` if
        ``max_participants`` ends below them. Recruit *i* simulates on
        substream *i*; cost and duration count only those who ran. Shared
        schedulers (``scheduler="adaptive"``) are rejected: they carry
        their own certified early stop.
        """
        prepared = self._require_prepared()
        self._check_scheduler_applies(prepared)
        if not 0 < alpha < 1 or max_participants <= 0:
            raise CampaignError("need 0 < alpha < 1 and max_participants > 0")
        if self._scheduler_is_shared():
            raise CampaignError(
                f"run_until_significant cannot drive scheduler="
                f"{self.config.scheduler!r}: a shared scheduler stops on its "
                "own certificate; use run() or run_with_workers()"
            )
        cfg = self.config
        state = self._streaming_state
        threshold = -log(alpha)
        left = right = 0

        def significant(stored: Optional[ParticipantResult]) -> bool:
            nonlocal left, right
            if stored is not None and stored.worker_id not in state.screen.dropped_ids:
                tally = tally_question([stored], question_id, *pair)
                left += tally.left_count
                right += tally.right_count
            return preference_log_evidence(left, right) >= threshold and floors_met(
                state.complete, job.participants_recruited,
                cfg.min_participants, cfg.quorum,
            )

        def recruits():
            while job.participants_recruited < max_participants:
                job.participants_needed = job.participants_recruited + 1
                yield from self._recruit(job)

        with self.tracer.span(
            "campaign", category="campaign", test_id=prepared.test_id,
            mode="sequential",
        ) as root:
            self._root_span = root
            job = self._post_task(prepared, max_participants)
            start_time = self.env.now
            self._run_roster(
                recruits(), judge, stop=significant, slots=max_participants,
            )
            # The job keeps its posted quota; an early stop closes it short.
            job.participants_needed = max_participants
            if job.participants_recruited < max_participants:
                self.platform.close_job(job.job_id)
            duration_days = (self.env.now - start_time) / SECONDS_PER_DAY
            return self.conclude(job=job, duration_days=duration_days)

    def run_with_workers(
        self,
        workers: Sequence[WorkerProfile],
        judge: JudgeFunction,
        in_lab: bool = False,
        resume_from: Optional[dict] = None,
    ) -> CampaignResult:
        """Run a fixed roster (the in-lab path, or unit-style driving).

        Skips platform recruitment; the roster goes straight through the
        roster pipeline (:meth:`_run_roster`), every knob coming from the
        campaign's :class:`~repro.core.config.CampaignConfig`.

        ``resume_from`` is the one way to resume: pass a crashed campaign's
        :meth:`resume_state` checkpoint (as is, or after a JSON round-trip —
        a fleet worker journals exactly this payload). This campaign seeds
        its database with the stored rows, carries over recorded upload
        losses and the scheduler state, and replays the checkpoint's
        ``root_entropy``: workers already stored (or recorded lost) are
        skipped, the rest re-simulate on exactly the streams they would
        have had. A bare ``{"root_entropy": e}`` replays a roster's streams
        with nothing to seed.
        """
        root_entropy = None
        if resume_from is not None:
            root_entropy = self._apply_resume_state(resume_from)
        prepared = self._require_prepared()
        self._check_scheduler_applies(prepared)
        with self.tracer.span(
            "campaign", category="campaign", test_id=prepared.test_id,
            mode="roster", participants=len(workers),
        ) as root:
            self._root_span = root
            self._run_roster(
                workers, judge, in_lab=in_lab, root_entropy=root_entropy,
            )
            return self.conclude(job=None, duration_days=0.0)

    # -- config-driven comparison scheduling ---------------------------------

    def _check_scheduler_applies(self, prepared: PreparedTest) -> None:
        """Scheduled campaigns inherit §III-D's single-question restriction:
        every non-``"full"`` scheduler reduces one comparison question."""
        if self.config.scheduler == SCHEDULER_FULL:
            return
        if len(prepared.parameters.question) != 1:
            raise CampaignError(
                "scheduled campaigns (scheduler != 'full') apply only when "
                "one comparison question is asked (§III-D); this test has "
                f"{len(prepared.parameters.question)} questions"
            )

    def _scheduler_is_shared(self) -> bool:
        """True when the configured scheduler pools state across the whole
        roster (one instance, sequential dependency chain)."""
        if self.config.scheduler == SCHEDULER_FULL:
            return False
        return bool(scheduler_class(self.config.scheduler).shared)

    def _post_task(self, prepared: PreparedTest, needed: int) -> CrowdJob:
        """Post the task to the platform through the core server, at the
        config's reward (the same reward that paces the arrivals)."""
        with self.tracer.span("post_task", category="campaign", participants=needed):
            post = self.network.exchange(
                Request.post_json(
                    self.server.url("/tasks"),
                    {
                        "test_id": prepared.test_id,
                        "participants_needed": needed,
                        "reward_usd": self.config.reward_usd,
                    },
                )
            )[0]
        if not post.ok:
            raise CampaignError(f"task post failed: {post.text}")
        return self.platform.get_job(post.json()["job_id"])

    def _recruit(self, job: CrowdJob) -> List[WorkerProfile]:
        """Drive the platform's recruitment up to ``job``'s quota; the
        recruits, in arrival order, are the roster."""
        roster: List[WorkerProfile] = []
        with self.tracer.span("recruitment", category="campaign"):
            self.platform.run_recruitment(
                job, on_recruit=lambda worker, arrival_time_s: roster.append(worker)
            )
        return roster

    def _adopt(self, span) -> None:
        """Attach a finished participant subtree under the open span.

        Called only in roster order — that single rule keeps child order
        (and every exported span id) independent of pool scheduling.
        """
        if span is None:
            return
        parent = self.tracer.current_span() or self._root_span
        if parent is not None and parent is not span:
            parent.adopt(span)

    def _simulate_participant(
        self,
        worker: WorkerProfile,
        judge: JudgeFunction,
        rng: np.random.Generator,
        in_lab: bool = False,
        session_start: Optional[float] = None,
        trace_index: int = 0,
        shared_scheduler: Optional[Scheduler] = None,
        scheduled_pages: Optional[Tuple[dict, list]] = None,
    ):
        """One participant's full extension flow, minus the upload.

        All randomness comes from ``rng``, the participant's own substream,
        so the simulation is order-independent — what makes every executor
        conclude identically. ``session_start`` anchors the client's session
        clock (breaker cooldowns, outage windows); the roster pipeline passes
        the pre-fan-out time so it is execution-order free.
        ``shared_scheduler`` serves the comparisons when the campaign pools one scheduler across
        the roster; otherwise the configured mode builds a fresh one per
        participant (``"full"`` keeps the all-pairs page plan).
        ``scheduled_pages`` is :meth:`_scheduled_pages`, built once per roster;
        every mode but ``"full"`` needs it.

        Returns ``(result, client, participant_span)``; the span is a
        *detached* trace subtree (or the shared null span) that the caller
        adopts into the campaign tree in roster order.

        In resilient mode a :class:`~repro.errors.ParticipantAbandoned` is
        absorbed here: the partial result is marked ``abandoned`` and returned
        for upload, matching a real participant whose extension flushes what
        they answered before walking away.
        """
        prepared = self._require_prepared()
        profile = self._sample_profile(rng)
        client = Client(
            self.network, profile,
            retry_policy=self.config.retry_policy,
            client_id=worker.worker_id,
            rng=rng,
            breaker_config=self.config.breaker_config,
            session_start=session_start,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        trace_clock: Optional[TraceClock] = None
        if self.obs.enabled:
            # The participant's own virtual timeline: session transfer +
            # backoff time (execution-order free) plus locally-accumulated
            # page-viewing time added by the extension.
            trace_clock = TraceClock(lambda: client.session_now)
            client.trace_clock = trace_clock
        with self.tracer.detached_span(
            "participant", category="participant", clock=trace_clock,
            track=trace_index + 1, worker_id=worker.worker_id,
            seq=trace_index, profile=profile.name,
        ) as pspan:
            with self.metrics.timed("campaign.participant"):
                extension = BrowserExtension(
                    worker, judge, rng=rng, in_lab=in_lab,
                    download=self._make_downloader(client),
                    artifacts=self.artifacts,
                    schedule_lookup=self._schedule_for_path,
                    dropout_rate=self.config.dropout_rate,
                    tracer=self.tracer,
                    trace_clock=trace_clock,
                    metrics=self.metrics,
                )
                scheduler = shared_scheduler
                if scheduler is None and self.config.scheduler != SCHEDULER_FULL:
                    # Sort modes build a fresh scheduler per worker on every
                    # executor path, including process-pool workers.
                    scheduler = make_scheduler(
                        self.config.scheduler,
                        _comparison_versions(prepared),
                        self.config.scheduler_config,
                    )
                try:
                    if scheduler is None:
                        pages = self._pages_for_participant(prepared, rng)
                        result = extension.run_test(
                            prepared.test_id, prepared.parameters.question, pages
                        )
                    else:
                        pages_by_pair, controls = scheduled_pages
                        order = rng.permutation(len(controls))
                        chosen = [
                            controls[i]
                            for i in order[:CONTROLS_PER_PARTICIPANT]
                        ]
                        result = extension.run_adaptive_test(
                            prepared.test_id,
                            prepared.parameters.question[0],
                            scheduler,
                            pages_by_pair,
                            control_pages=chosen,
                        )
                except ParticipantAbandoned as exc:
                    if not self.config.resilient:
                        raise
                    result = exc.result
                    if result is None:
                        result = ParticipantResult(
                            test_id=prepared.test_id,
                            worker_id=worker.worker_id,
                            demographics=worker.demographics.as_dict(),
                        )
                    result.abandoned = True
                    result.abandon_reason = exc.reason or "abandoned"
                    self.tracer.event("abandoned", reason=result.abandon_reason)
                    self.metrics.add("campaign.abandoned", 1)
            pspan.set_attr("answers", len(result.answers))
            if self.obs.enabled:
                self.metrics.observe(
                    "participant.transfer_seconds", client.total_transfer_seconds
                )
        self.metrics.add("campaign.participants", 1)
        return result, client, pspan

    def _scheduled_pages(
        self, prepared: PreparedTest
    ) -> Tuple[Dict[frozenset, IntegratedWebpage], List[IntegratedWebpage]]:
        """A scheduler's page lookup: each comparison page by its unordered
        version pair, and the control pages."""
        pages_by_pair = {
            frozenset((p.left_version, p.right_version)): p
            for p in prepared.comparison_pairs()
        }
        return pages_by_pair, list(prepared.control_pairs())

    def _upload_result(
        self,
        client: Client,
        worker: WorkerProfile,
        result: ParticipantResult,
        detached: bool = False,
    ):
        """Upload one participant's result through their own client.

        Non-resilient campaigns keep the historical contract: any failure is
        fatal (network errors propagate unchanged, HTTP failures raise
        :class:`~repro.errors.CampaignError`). Resilient campaigns record the
        loss — ``(worker_id, reason)`` in :attr:`lost_uploads` — and move on,
        so one flaky upload degrades the conclusion instead of killing the
        whole run.

        Returns ``(upload_span, lost_reason)``; ``lost_reason`` is ``None``
        on success. ``detached=True`` (the process fan-out) records the
        upload span as a detached subtree for the parent to adopt, and
        leaves :attr:`lost_uploads` untouched — the merge records the loss
        on the parent campaign instead.
        """
        opener = self.tracer.detached_span if detached else self.tracer.span
        with opener(
            "upload", category="net", clock=client.trace_clock,
            worker_id=worker.worker_id,
        ) as uspan:
            try:
                upload = client.post_json(
                    self.server.url("/responses"), result.as_dict()
                )
            except NetworkError as exc:
                if not self.config.resilient:
                    raise
                reason = f"network:{type(exc).__name__}"
                if not detached:
                    self.lost_uploads.append((worker.worker_id, reason))
                self.metrics.add("campaign.lost_uploads", 1)
                self.tracer.event("upload_lost", worker_id=worker.worker_id,
                                  reason=reason)
                uspan.set_attr("lost", reason)
                return uspan, reason
            if not upload.ok:
                overloaded = bool(upload.headers.get(OVERLOAD_HEADER, ""))
                pushback = overloaded and self.overload_pushback
                if (
                    self.config.resilient
                    and not pushback
                    and (upload.status >= 500 or overloaded)
                ):
                    reason = (
                        f"overload:{upload.status}" if overloaded
                        else f"http:{upload.status}"
                    )
                    if not detached:
                        self.lost_uploads.append((worker.worker_id, reason))
                    self.metrics.add("campaign.lost_uploads", 1)
                    self.tracer.event("upload_lost", worker_id=worker.worker_id,
                                      reason=reason)
                    uspan.set_attr("lost", reason)
                    return uspan, reason
                if overloaded:
                    # Surface the server-suggested delay so schedulers (the
                    # fleet queue) can requeue with it instead of blind
                    # exponential backoff.
                    try:
                        suggested = float(
                            upload.headers.get(RETRY_AFTER_HEADER, "0") or 0.0
                        )
                    except ValueError:
                        suggested = 0.0
                    raise ServerOverloaded(
                        f"upload for {worker.worker_id} rejected under "
                        f"overload: {upload.text}",
                        retry_after=suggested,
                    )
                raise CampaignError(
                    f"upload for {worker.worker_id} failed: {upload.text}"
                )
            uspan.set_attr("status", upload.status)
        return uspan, None

    def _apply_resume_state(self, payload: dict) -> int:
        """Seed this campaign from a :meth:`resume_state` checkpoint;
        returns the entropy to replay.

        Stored rows are inserted for every completed participant the server
        does not already hold, and recorded upload losses are carried over,
        so the roster pipeline skips both — without the losses a resumed
        resilient run would re-simulate those workers and conclude
        differently from an uncrashed one.
        """
        if not isinstance(payload, dict) or payload.get("root_entropy") is None:
            raise CampaignError(
                "resume_from must be a Campaign.resume_state() checkpoint "
                "carrying a root_entropy"
            )
        entropy = int(payload["root_entropy"])
        prepared = self._require_prepared()
        store_digest = payload.get("store")
        if (
            isinstance(store_digest, dict)
            and isinstance(self.database, ShardedDocumentStore)
            and store_digest.get("shards") != self.database.shard_count
        ):
            raise CampaignError(
                f"resume_from checkpoint was written by a "
                f"{store_digest.get('shards')}-shard store but this campaign "
                f"runs {self.database.shard_count} shards; hash routing "
                "would diverge — resume with the original store_shards"
            )
        responses = self.database.collection(RESPONSES_COLLECTION)
        stored = set(self.server.uploaded_worker_ids(prepared.test_id))
        for row in payload.get("rows") or []:
            worker_id = row.get("worker_id")
            if worker_id in stored:
                continue
            row = dict(row)
            row.pop("_id", None)
            responses.insert_one(row)
            # Fold-exactly-once: rows the store already held were folded by
            # _ensure_streaming; only the newly seeded ones fold here.
            if self._streaming_state is not None:
                self._streaming_state.ingest_row(row)
            stored.add(worker_id)
        known = {tuple(item) for item in self.lost_uploads}
        for item in payload.get("lost_uploads") or []:
            pair = (str(item[0]), str(item[1]))
            if pair not in known:
                self.lost_uploads.append(pair)
                known.add(pair)
        snapshot = payload.get("scheduler")
        if snapshot is not None:
            self._scheduler_snapshot = dict(snapshot)
        return entropy

    def _checkpoint(self) -> None:
        """Fire the installed checkpoint hook after a durable progress unit.

        Called after every roster-order upload in the inline loop and
        after every merged chunk in process fan-out — the points where the
        server-side row store (the real checkpoint) has just grown. A hook
        that raises kills the run exactly as a worker crash would, with the
        rows up to (but not including) this unit already durable.
        """
        if self.checkpoint_hook is not None:
            self.checkpoint_hook(self)

    def _install_overload(self, offsets, session_start: float = 0.0) -> None:
        """Build the arrival-derived :class:`LoadSignal` and attach it to
        the server's admission controller.

        No-op without an overload config. ``offsets`` are roster-relative;
        anchoring them at ``session_start`` keeps the signal's windows on
        the same absolute virtual timeline the clients' session clocks use,
        so a pure ``window_of(now)`` lookup is all a decision needs.
        """
        if self.config.overload is None:
            return
        admission = self.server.http.admission
        if admission is None:
            return
        anchored = [session_start + float(o) for o in offsets]
        signal = LoadSignal.from_offsets(
            anchored or [session_start], self.config.overload
        )
        admission.attach_signal(signal)
        self._overload_signal = signal

    def _retract_from_scheduler(
        self, scheduler: Scheduler, result: ParticipantResult
    ) -> None:
        """Retract one participant's comparison answers from the tally.

        ``answers_for`` already excludes control pages; unknown versions
        (the contrast control) are skipped defensively.
        """
        prepared = self._require_prepared()
        question_id = prepared.parameters.question[0].question_id
        known = set(scheduler.version_ids)
        for answer in result.answers_for(question_id):
            if (
                answer.left_version in known
                and answer.right_version in known
                and answer.left_version != answer.right_version
            ):
                scheduler.retract(
                    answer.left_version, answer.right_version, answer.answer
                )

    def _run_roster(
        self,
        workers: Iterable[WorkerProfile],
        judge: JudgeFunction,
        in_lab: bool = False,
        root_entropy: Optional[int] = None,
        stop: Optional[Callable[[Optional[ParticipantResult]], bool]] = None,
        slots: Optional[int] = None,
    ) -> None:
        """The roster pipeline: simulate every pending worker on an
        independent RNG substream and upload in roster order.

        Worker ``i``'s stream is child ``i`` of ``SeedSequence(root_entropy)``
        (:class:`~repro.util.rng.RosterStreams`), so
        no draw by one participant can perturb another — results are
        identical whether the roster runs serially or across
        ``parallelism`` workers. Uploads
        land in roster order, progressively as each participant (or, in
        process mode, each chunk) completes — so a crash mid-roster leaves a
        checkpoint of finished uploads on the server. Participant trace
        subtrees are adopted in the same roster order, which is what makes
        the exported timeline bit-identical at every parallelism level.

        ``CampaignConfig.parallelism`` selects the backend: ``1`` runs the
        inline loop; more chunks the roster across worker processes (see
        :mod:`repro.core.fanout`), unless ``executor="serial"`` pins the
        inline loop. The pool is capped at the pending roster size — idle
        workers are never spawned — and the capped size is recorded in
        :attr:`_last_fanout_pool`. In process mode the crash checkpoint is
        chunk-granular rather than participant-granular.

        A shared scheduler (``scheduler="adaptive"``) makes the roster a
        sequential dependency chain — every pair it serves depends on all
        previously absorbed answers — so it always takes the inline loop,
        plus three per-upload hooks that keep the evidence exact: an
        abandoning participant's unanswered serve is released, and a lost
        upload or a quality-screen drop retracts every absorbed answer. The
        scheduler state rides the checkpoint (:meth:`resume_state`), and a
        resumed campaign restores it before continuing.

        ``root_entropy`` (default: a draw from the campaign RNG) replays a
        previous roster: slot ``i`` always gets substream ``i``, keeping
        stream alignment, and workers whose uploads the server
        already stores, or whose loss is already recorded, are skipped — the
        resume path after a crash (fed from a :meth:`resume_state`
        checkpoint by :meth:`run_with_workers`). The entropy actually used
        is recorded in :attr:`last_root_entropy`.

        ``stop`` makes the roster lazy: ``workers`` may then be an iterator
        of at most ``slots`` recruits, and after each upload ``stop(result)``
        (``None`` for a lost upload) may end the roster. A lazy roster has no
        length to chunk, so it always takes the inline loop.
        """
        cfg = self.config
        prepared = self._require_prepared()
        with self.tracer.span("prewarm", category="campaign"):
            self._prewarm_artifacts()
        if root_entropy is None:
            root_entropy = int(self.rng.integers(0, 2**63))
        self.last_root_entropy = root_entropy
        if slots is None:
            slots = len(workers)
        # Worker i always gets substream i, resumed or not (alignment).
        streams = RosterStreams(root_entropy, slots)
        done = set(self.server.uploaded_worker_ids(prepared.test_id))
        done.update(worker_id for worker_id, _ in self.lost_uploads)
        # Captured once before the fan-out so every client's session clock has
        # the same execution-order-free anchor.
        session_start = self.env.now
        # The arrival schedule staggers session starts per *full-roster*
        # index (resume keeps alignment: a redelivered job derives the same
        # offsets), and drives the admission controller's load signal.
        offsets = arrival_offsets(
            cfg.arrival, slots, cfg.seed, reward_usd=cfg.reward_usd,
        )
        self._install_overload(offsets, session_start)
        scheduler = None
        if self._scheduler_is_shared():
            scheduler = make_scheduler(
                cfg.scheduler, _comparison_versions(prepared),
                cfg.scheduler_config, metrics=self.metrics,
            )
            if self._scheduler_snapshot is not None:
                scheduler.restore(self._scheduler_snapshot)
                self._scheduler_snapshot = None
            self._shared_scheduler = scheduler
            # Expose the scheduler over the server's /schedule routes so a
            # real extension could drive the same campaign the simulation does.
            self.server.attach_scheduler(scheduler)

        scheduled_pages = self._scheduled_pages(prepared)

        def simulate(index: int, worker: WorkerProfile):
            return self._simulate_participant(
                worker, judge, streams[index], in_lab=in_lab,
                session_start=session_start + (
                    offsets[index] if index < len(offsets) else 0.0
                ),
                trace_index=index,
                shared_scheduler=scheduler,
                scheduled_pages=scheduled_pages,
            )

        def upload(worker: WorkerProfile, result, client, pspan) -> bool:
            self._adopt(pspan)
            if scheduler is not None and getattr(result, "abandoned", False):
                # The served-but-unanswered pair goes back to the pool.
                scheduler.release(worker.worker_id)
            _, lost_reason = self._upload_result(client, worker, result)
            if scheduler is not None and (
                lost_reason is not None
                or worker.worker_id in self._streaming_state.screen.dropped_ids
            ):
                # Answers that were never stored, or that the server's
                # upload-time screen dropped, are not evidence: remove them
                # so scheduling and conclude see the same data.
                self._retract_from_scheduler(scheduler, result)
            self._checkpoint()
            return stop is not None and stop(result if lost_reason is None else None)

        if stop is None and done:
            pending = [
                i for i, worker in enumerate(workers) if worker.worker_id not in done
            ]
        else:
            # A fresh roster is pending whole: sizing it reads no profile.
            pending = range(slots)
        # Never spawn more workers than there are pending participants.
        pool_size = 1 if stop is not None or scheduler is not None else (
            effective_pool_size(cfg.parallelism, len(pending))
        )
        self._last_fanout_pool = pool_size
        with self.tracer.span("fanout", category="campaign",
                              participants=len(pending)):
            if cfg.executor == EXECUTOR_SERIAL or pool_size == 1:
                for index, worker in enumerate(workers):
                    if worker.worker_id not in done and upload(
                        worker, *simulate(index, worker)
                    ):
                        break
            else:
                with self.metrics.timed("campaign.parallel_fanout"):
                    run_process_fanout(
                        self, workers, judge, pending, pool_size,
                        session_start=session_start,
                        root_entropy=root_entropy,
                        in_lab=in_lab,
                        arrival_offsets=offsets,
                    )

    def _make_downloader(self, client: Client):
        def download(storage_path: str) -> str:
            response = client.get(self.server.url(f"/resources/{storage_path}"))
            return response.text if response.ok else ""

        return download

    def _prewarm_artifacts(self) -> None:
        """Build every integrated page's artifacts once, ahead of a fan-out.

        Without this, every worker process would build the same cache entries
        on demand (wasteful, and it puts the builds' downloads in whichever
        chunk's network log hit them first). One warm pass over the
        C(N,2)+controls pages, shipped to the workers as a snapshot, makes
        every later lookup a pure cache hit.
        """
        if self.artifacts is None or not self.artifacts.enabled:
            return
        prepared = self._require_prepared()
        client = Client(
            self.network, PROFILES["cable"],
            retry_policy=self.config.retry_policy, client_id="prewarm",
            tracer=self.tracer, metrics=self.metrics,
        )
        if self.obs.enabled:
            client.trace_clock = TraceClock(lambda: client.session_now)
        download = self._make_downloader(client)
        for page in prepared.integrated:
            try:
                html = download(page.storage_path)
                if html:
                    self.artifacts.get_or_build(
                        page.storage_path, html,
                        fetch=download, schedule_lookup=self._schedule_for_path,
                    )
            except NetworkError:
                if not self.config.resilient:
                    raise
                # Participants rebuild this page's artifacts on demand.
                continue

    def _schedule_for_path(self, storage_path: str):
        """The replay schedule injected into a stored version page, or None.

        Version pages live at ``<test_id>/versions/<version_id>.html``; the
        schedule comes from the version's Table-I ``web_page_load`` spec.
        Integrated pages (and anything unrecognized) have no schedule.
        """
        prepared = self.prepared
        if prepared is None:
            return None
        head, _, filename = storage_path.rpartition("/")
        if not head.endswith("/versions") or not filename.endswith(".html"):
            return None
        version_id = filename[: -len(".html")]
        try:
            return prepared.webpage(version_id).spec.schedule()
        except Exception:
            return None

    def _pages_for_participant(
        self,
        prepared: PreparedTest,
        rng: np.random.Generator,
    ) -> List[IntegratedWebpage]:
        """Shuffled comparison pairs plus randomly-placed control pair(s).

        Matches §IV-A: "Each recruited participant will compare at most 11
        integrated webpages, and one of them is for quality control." With
        orientation randomization on, each pair is shown in a random one of
        its two stored orientations.
        """
        pages = list(prepared.comparison_pairs())
        if prepared.mirrored:
            pages = [
                page
                if rng.random() < 0.5
                else self._mirrored_of(prepared, page)
                for page in pages
            ]
        order = rng.permutation(len(pages))
        pages = [pages[i] for i in order]
        controls = list(prepared.control_pairs())
        control_order = rng.permutation(len(controls))
        chosen = [
            controls[i]
            for i in control_order[:CONTROLS_PER_PARTICIPANT]
        ]
        for control in chosen:
            position = int(rng.integers(0, len(pages) + 1))
            pages.insert(position, control)
        return pages

    @staticmethod
    def _mirrored_of(
        prepared: PreparedTest, page: IntegratedWebpage
    ) -> IntegratedWebpage:
        for candidate in prepared.orientations_of(page.pair_key):
            if candidate.orientation != page.orientation:
                return candidate
        return page  # no mirrored variant stored: fall back

    @staticmethod
    def _sample_profile(rng: np.random.Generator) -> NetworkProfile:
        return PROFILES[_PARTICIPANT_PROFILES.draw(rng)]

    # -- step 4: conclusion ------------------------------------------------------

    def conclude(
        self, job: Optional[CrowdJob], duration_days: float
    ) -> CampaignResult:
        """Apply quality control and analysis to everything uploaded so far.

        The returned :class:`CampaignResult` always carries a
        :class:`~repro.core.conclusion.Conclusion`; a campaign that lost
        participants (abandonment, lost uploads) still concludes, with the
        :class:`~repro.core.conclusion.DegradedConclusion` subclass
        describing what was measured — including per-(question, pair) answer
        coverage, so an under-sampled cell is visible rather than silently
        thin.

        ``CampaignConfig.min_participants`` (absolute count of complete
        participants) and ``CampaignConfig.quorum`` (fraction of the
        recruited roster that completed) are hard floors: when either is
        unmet a :class:`~repro.errors.CampaignError` is raised instead of
        concluding on too little data.

        Quality control runs under ``CampaignConfig.quality``, the config
        the upload-time screen already applied. The screen kept each
        survivor's answer codes at ingest; conclude reads the majority
        votes off their final counts, completes the screen and folds the
        controlled aggregates from those codes alone
        (:meth:`~repro.store.stream.StreamingCampaignState.conclude`), and
        changes no state, so concluding again gives the same result.
        Conclude parses no row on either store. The sharded store reads no
        row and leaves ``raw_results`` and ``quality_report.kept`` empty: it
        holds O(pairs) tables plus, per surviving upload, one worker id
        reference, a 4-byte end offset and 4 bytes per non-control answer.
        The in-memory store takes references to its stored rows, in upload
        order, from one uncopied scan; the responses collection is
        insert-only, so they are a snapshot. Both fields parse those rows
        on first read (:class:`~repro.core.server.ResultsOnRead`), each row
        once per result, ``kept`` in kept order.
        """
        prepared = self._require_prepared()
        cfg = self.config
        state = self._streaming_state
        with self.tracer.span("conclude", category="campaign") as cspan:
            if state.ingested == 0:
                raise CampaignError("no responses collected; nothing to conclude")
            # References to the stored rows, in upload order: the collection
            # is insert-only, so they are this conclude's snapshot.
            rows = [] if cfg.streaming else list(self._stream_rows(prepared.test_id))
            raw_results = ResultsOnRead(load=partial(parse_rows, rows))
            with self.tracer.span(
                "quality", category="campaign", participants=state.ingested
            ) as qspan:
                data = state.conclude()
                report = data.report
                report.kept = ResultsOnRead(load=partial(
                    _kept_results, raw_results, report.kept_worker_ids
                ))
                record_report(report, qspan, self.metrics, self.tracer)
            # The analyses were folded alongside the screen; the span keeps
            # the trace shape of a screen-then-analyse conclude.
            with self.tracer.span("analysis", category="campaign"):
                pass
            self.last_streaming = data
            if job is not None and job.participants_recruited:
                recruited = job.participants_recruited
            else:
                recruited = data.uploaded + len(self.lost_uploads)
            raw_analysis = data.raw_analysis
            pair_coverage = raw_analysis.answer_coverage()
            expected_total = recruited * len(pair_coverage)
            achieved = sum(pair_coverage.values())
            needs_report = bool(
                data.abandoned
                or self.lost_uploads
                or data.complete < recruited
                or cfg.min_participants is not None
                or cfg.quorum is not None
            )
            conclusion_cls = DegradedConclusion if needs_report else Conclusion
            conclusion = conclusion_cls(
                recruited=recruited,
                uploaded=data.uploaded,
                complete=data.complete,
                abandoned=data.abandoned,
                lost_uploads=list(self.lost_uploads),
                expected_answers=state.expected_answers,
                pair_coverage=pair_coverage,
                min_pair_coverage=raw_analysis.min_coverage(),
                coverage_fraction=(
                    min(1.0, achieved / expected_total) if expected_total else 0.0
                ),
                min_participants=cfg.min_participants,
                quorum=cfg.quorum,
            )
            self.metrics.set_gauge("campaign.recruited", recruited)
            self.metrics.set_gauge("campaign.uploaded", data.uploaded)
            self.metrics.set_gauge("campaign.complete", data.complete)
            self.metrics.set_gauge(
                "campaign.coverage_fraction", round(conclusion.coverage_fraction, 4)
            )
            cspan.set_attr("complete", data.complete)
            cspan.set_attr("uploaded", data.uploaded)
            cspan.set_attr("degraded", conclusion.is_degraded)
            self._record_overload_observations()
            if cfg.streaming:
                self._record_store_observations()
            early_stop = None
            if self._shared_scheduler is not None:
                stop = getattr(self._shared_scheduler, "conclusion", None)
                early_stop = stop() if callable(stop) else None
            result = CampaignResult(
                test_id=prepared.test_id,
                raw_results=raw_results,
                quality_report=report,
                raw_analysis=raw_analysis,
                controlled_analysis=data.controlled_analysis,
                job=job,
                duration_days=duration_days,
                total_cost_usd=job.total_cost_usd if job is not None else 0.0,
                conclusion=conclusion,
                participant_count=data.uploaded,
                early_stop=early_stop,
            )
        if not conclusion.quorum_met:
            raise CampaignError(
                "campaign degraded below the conclusion floor: "
                f"{conclusion.complete}/{conclusion.recruited} complete "
                f"(min_participants={conclusion.min_participants}, "
                f"quorum={conclusion.quorum})"
            )
        return result

    def _record_store_observations(self) -> None:
        """Export the sharded store's durability counters into the trace +
        metrics: WAL volume, snapshot/compaction counts, and a per-shard
        breakdown as span events (mirroring the overload export)."""
        if not isinstance(self.database, ShardedDocumentStore):
            return
        stats = self.database.stats()
        self.metrics.set_gauge("store.shards", self.database.shard_count)
        self.metrics.set_gauge("store.wal_records_total", stats["wal_records"])
        self.metrics.set_gauge("store.wal_bytes", stats["wal_bytes"])
        self.metrics.set_gauge("store.snapshots_total", stats["snapshots"])
        self.metrics.set_gauge("store.compactions_total", stats["compactions"])
        self.metrics.set_gauge(
            "store.spilled_documents", stats["spilled_documents"]
        )
        with self.tracer.span(
            "store", category="store",
            shards=self.database.shard_count,
            documents=stats["documents"],
        ) as sspan:
            for shard in stats["shards"]:
                sspan.add_event(
                    "store:shard",
                    time=self.env.now,
                    shard=shard["shard"],
                    documents=shard["documents"],
                    spilled=shard["spilled"],
                    wal_records=shard["wal_records"],
                    wal_bytes=shard["wal_bytes"],
                    snapshots=shard["snapshots"],
                    compactions=shard["compactions"],
                )
            sspan.add_event(
                "store:totals",
                time=self.env.now,
                wal_records=stats["wal_records"],
                wal_bytes=stats["wal_bytes"],
                snapshots=stats["snapshots"],
                compactions=stats["compactions"],
                spilled=stats["spilled_documents"],
            )

    def _record_overload_observations(self) -> None:
        """Export the overload control plane's run into the trace + metrics.

        Ladder-state transitions and the shed/rejected/deferred totals
        become span events on a dedicated ``overload`` span, and the
        signal's whole-run summaries become gauges. Everything comes from
        the precomputed :class:`LoadSignal` series and the order-free
        traffic counters, so the export is byte-identical across executor
        modes and worker counts.
        """
        signal = self._overload_signal
        if signal is None:
            return
        stats = self.network.stats
        self.metrics.set_gauge(
            "overload.max_queue_depth", round(signal.max_queue_depth(), 4)
        )
        self.metrics.set_gauge(
            "overload.peak_utilization", round(signal.peak_utilization(), 4)
        )
        self.metrics.set_gauge("overload.rejections", stats.rejections)
        self.metrics.set_gauge("overload.deferrals", stats.deferrals)
        self.metrics.set_gauge("overload.shed_responses", stats.shed_responses)
        self.metrics.set_gauge("overload.timeouts", stats.overload_timeouts)
        with self.tracer.span(
            "overload", category="overload",
            protected=self.config.overload.protected,
            windows=len(signal),
        ) as ospan:
            for transition in signal.transitions():
                ospan.add_event(
                    "overload:transition",
                    time=transition["time"],
                    **{"from": transition["from"], "to": transition["to"]},
                )
            ospan.add_event(
                "overload:counts",
                time=self.env.now,
                rejected=stats.rejections,
                deferred=stats.deferrals,
                shed=stats.shed_responses,
                timeouts=stats.overload_timeouts,
            )

    def resume_state(self) -> Optional[dict]:
        """The serializable checkpoint of everything durable so far.

        ``None`` only before the first roster ran. Otherwise: the roster's
        ``root_entropy``, the ids and stored rows of completed participants,
        and the recorded upload losses — exactly what
        :meth:`run_with_workers`'s ``resume_from`` consumes to continue the
        campaign elsewhere. Each call reads every stored row, so it runs
        only on request, never inside :meth:`conclude`.
        """
        if self.last_root_entropy is None:
            return None
        prepared = self._require_prepared()
        rows = []
        for row in self._stream_rows(prepared.test_id):
            row = deep_copy_json(row)  # the caller owns what it is handed
            row.pop("_id", None)
            rows.append(row)
        state = {
            "root_entropy": self.last_root_entropy,
            "completed_worker_ids": [row["worker_id"] for row in rows],
            "rows": rows,
            "lost_uploads": [list(pair) for pair in self.lost_uploads],
        }
        if self._shared_scheduler is not None:
            # The shared scheduler's full decision state rides every
            # checkpoint; restoring it resumes scheduling bit-identically.
            state["scheduler"] = self._shared_scheduler.snapshot()
        digest = getattr(self.database, "digest", None)
        if digest is not None:
            # Shard-routing fingerprint: a resume over a differently-sharded
            # store is rejected up front (see _apply_resume_state).
            state["store"] = digest()
        return state

    # -- observability -----------------------------------------------------------

    def timeline(self, meta: Optional[dict] = None):
        """The recorded run as a :class:`~repro.obs.timeline.RunTimeline`.

        Only available when the campaign was built with
        ``CampaignConfig(observe=True)``.
        """
        if not self.obs.enabled:
            raise CampaignError(
                "campaign was not observed; construct it with "
                "CampaignConfig(observe=True) to record a timeline"
            )
        info = {"test_id": self.prepared.test_id if self.prepared else None}
        if meta:
            info.update(meta)
        return self.obs.timeline(meta=info)

    def _require_prepared(self) -> PreparedTest:
        if self.prepared is None:
            raise CampaignError("campaign not prepared; call prepare() first")
        return self.prepared
