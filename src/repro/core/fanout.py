"""Process-pool participant fan-out: the campaign's one parallel backend.

The deterministic fan-out already makes every participant independent —
each one simulates on its own ``SeedSequence`` substream, anchored to a
shared pre-fan-out ``session_start``, and results are merged back in roster
order. The hot path (parse → cascade → layout → replay per visited page) is
pure Python compute and the simulated network runs on a virtual clock, so
threads would only serialize on the GIL with no real I/O to overlap. This
module runs the fan-out across *processes* instead.

What crosses the process boundary is a :class:`FanoutSpec` — a cheap,
picklable description of the campaign, never the live ``Campaign`` /
``Tracer`` / server objects:

* the frozen :class:`~repro.core.config.CampaignConfig`, from which each
  worker rebuilds its campaign (fault plan, retries, dropout, controls,
  artifacts);
* the prepared test (its stored orientations included), the storage file
  snapshot and the test's database record — enough to rebuild a private
  core server per worker process;
* the roster and the fan-out's ``root_entropy`` (a worker derives the
  substream of each roster slot it runs, keeping stream *alignment* with
  the serial run);
* a read-only snapshot of the prebuilt :class:`~repro.render.artifacts.
  PageArtifactCache` entries, so workers start 100% warm and never redo
  the parent's batched prebuild.

Each worker process rebuilds a **real** :class:`~repro.core.campaign.
Campaign` from the spec and drives the *same* ``_simulate_participant`` /
``_upload_result`` code paths as the inline loop — there is no
second simulation implementation to drift. A chunk of roster indices is
simulated per task (amortizing spawn + pickle); the chunk ships back:

* the stored response row (or loss reason) per participant, in order;
* detached participant/upload trace subtrees (observed runs);
* the chunk's metrics registry delta (histogram totals stay exact
  :class:`~fractions.Fraction` sums — see ``MetricsRegistry.merge_state``);
* the chunk's traffic stats and — crucially — the ordered list of every
  virtual-clock advance it performed.

The parent merges chunks **in roster order**: adopt spans, ingest rows,
fold metrics, then replay each recorded clock advance through its own
network. Replaying the individual advances (not per-chunk totals)
reproduces the serial run's exact float-addition sequence, so the campaign
clock — and with it ``duration_days`` and every later span timestamp — is
bit-identical to the inline loop at any worker count.

Failure semantics: a fatal participant error (non-resilient network fault,
HTTP failure, duplicate upload) raises in the worker and propagates to the
parent, aborting the fan-out. Chunks that completed earlier were already
merged — the crash checkpoint is chunk-granular here, versus
participant-granular in the inline loop (documented in DESIGN.md §9).
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.aggregator import RESPONSES_COLLECTION, TESTS_COLLECTION
from repro.errors import CampaignError
from repro.net.simnet import SimulatedNetwork, TrafficStats
from repro.sim.clock import SimulationEnvironment
from repro.storage.documentstore import DocumentStore
from repro.storage.filestore import FileStore
from repro.util.executors import chunk_indices, process_context
from repro.util.rng import roster_stream


def ensure_picklable(obj: Any, what: str) -> None:
    """Raise a clear :class:`CampaignError` when ``obj`` cannot be pickled.

    The process executor ships user hooks (the judge) to worker processes.
    On fork platforms the hook is inherited and an unpicklable one would
    silently work there but fail on spawn platforms — so the check is
    explicit and unconditional, and the error says what to fix instead of
    surfacing a raw ``PicklingError`` from pool internals.
    """
    try:
        pickle.dumps(obj)
    except Exception as exc:
        raise CampaignError(
            f"executor='process' requires a picklable {what}; "
            f"{type(obj).__name__!s} failed to pickle ({exc}). Use a module-"
            "level class with instance state instead of a lambda or closure, "
            "or run with parallelism=1."
        ) from exc


class _RecordingNetwork(SimulatedNetwork):
    """A worker-side network that journals every virtual-clock advance.

    The parent replays the journal entry-by-entry through its own network,
    reproducing the exact sequence of float additions the serial run would
    have performed — per-chunk *totals* would reorder the additions and
    drift in the last bit.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.advances: List[float] = []

    def _advance(self, elapsed: float) -> None:
        # The one clock hook: transfers and ``wait`` backoffs both land here.
        if self.env is not None and elapsed > 0:
            self.advances.append(elapsed)
        super()._advance(elapsed)


@dataclass
class FanoutSpec:
    """Everything a worker process needs to rebuild the campaign locally.

    Deliberately contains no live infrastructure: plain config, data
    snapshots, and entropy. Pickling cost is dominated by the artifact
    snapshot and the prepared test, paid once per worker process (fork
    platforms inherit it for free through the pool initializer).
    """

    config: Any                      # frozen CampaignConfig
    prepared: Any                    # PreparedTest (shared, read-only)
    test_record: dict                # tests-collection row (sans _id)
    storage_files: Dict[str, str]    # FileStore snapshot
    workers: tuple                   # full roster (alignment, not just pending)
    judge: Any                       # picklable user hook
    root_entropy: int
    session_start: float
    # Per-roster-index arrival offsets (seconds after session_start); also
    # the offered-load schedule the overload LoadSignal is rebuilt from.
    arrival_offsets: tuple = ()
    in_lab: bool = False
    # The parent's prebuilt artifact cache entries (None: nothing to seed).
    artifact_entries: Optional[dict] = None


@dataclass
class ParticipantOutcome:
    """One participant's merge-ready products, in roster position."""

    index: int
    worker_id: str
    row: Optional[dict] = None           # stored response row (success)
    lost_reason: Optional[str] = None    # resilient loss (no row)
    pspan: Any = None                    # detached participant subtree
    uspan: Any = None                    # detached upload subtree


@dataclass
class ChunkOutcome:
    """Everything one chunk ships back for the roster-order merge."""

    outcomes: List[ParticipantOutcome]
    metrics_state: dict
    stats: TrafficStats
    advances: List[float] = field(default_factory=list)


def build_spec(
    campaign,
    workers: Sequence,
    judge,
    root_entropy: int,
    session_start: float,
    in_lab: bool = False,
    arrival_offsets: Sequence[float] = (),
) -> FanoutSpec:
    """Snapshot a prepared campaign into a picklable :class:`FanoutSpec`."""
    prepared = campaign._require_prepared()
    test_record = campaign.database.collection(TESTS_COLLECTION).find_one(
        {"test_id": prepared.test_id}
    )
    if test_record is None:
        raise CampaignError(
            f"test {prepared.test_id!r} is not in the database; "
            "prepare() must precede the fan-out"
        )
    test_record.pop("_id", None)
    # Prebuilt once in the parent (batched prewarm); shipped read-only.
    entries = None
    if campaign.artifacts is not None and campaign.artifacts.enabled:
        entries = campaign.artifacts.snapshot_entries()
    # Chunk campaigns always run the in-memory store: each worker process
    # holds only its chunk's rows (wiped after shipping), so sharded WALs
    # would journal state that is thrown away — the parent's store is the
    # durable one, and it re-folds every merged row into the streaming
    # aggregates itself.
    return FanoutSpec(
        config=campaign.config.replace(store="memory"),
        prepared=prepared,
        test_record=test_record,
        storage_files=dict(campaign.storage.iter_items()),
        workers=tuple(workers),
        judge=judge,
        root_entropy=root_entropy,
        session_start=session_start,
        arrival_offsets=tuple(arrival_offsets),
        in_lab=in_lab,
        artifact_entries=entries,
    )


class _WorkerRuntime:
    """Per-process state: stores, substreams, and the shared artifact map.

    Built once per worker process by the pool initializer; every chunk the
    process executes reuses the stores and the artifact entry map, but gets
    a **fresh** environment, network and campaign so chunk results are
    independent of which process ran them.
    """

    def __init__(self, spec: FanoutSpec):
        self.spec = spec
        self.database = DocumentStore()
        self.database.collection(TESTS_COLLECTION).insert_one(
            dict(spec.test_record)
        )
        self.storage = FileStore()
        for path, content in spec.storage_files.items():
            self.storage.write(path, content)
        # Adopted by reference into each chunk campaign's cache: entries a
        # chunk builds on demand are visible to later chunks in this process.
        self.entries = spec.artifact_entries

    def _fresh_campaign(self):
        from repro.core.campaign import Campaign

        spec = self.spec
        env = SimulationEnvironment(start=spec.session_start)
        campaign = Campaign(
            env=env,
            network=_RecordingNetwork(env),
            database=self.database,
            storage=self.storage,
            config=spec.config,
        )
        if self.entries is not None:
            campaign.artifacts.seed_entries(self.entries)
        campaign.prepared = spec.prepared
        # Rebuild the overload LoadSignal from the shipped arrival schedule:
        # a pure function of (offsets, session_start, frozen config), so
        # every worker process derives the identical admission series.
        campaign._install_overload(spec.arrival_offsets, spec.session_start)
        return campaign

    def run_chunk(self, indices: Sequence[int]) -> ChunkOutcome:
        spec = self.spec
        campaign = self._fresh_campaign()
        observed = campaign.obs.enabled
        responses = self.database.collection(RESPONSES_COLLECTION)
        outcomes: List[ParticipantOutcome] = []
        scheduled_pages = campaign._scheduled_pages(spec.prepared)
        try:
            for index in indices:
                worker = spec.workers[index]
                # Worker i draws from substream i, as in the serial run.
                rng = roster_stream(spec.root_entropy, index)
                offset = (
                    spec.arrival_offsets[index]
                    if index < len(spec.arrival_offsets)
                    else 0.0
                )
                result, client, pspan = campaign._simulate_participant(
                    worker,
                    spec.judge,
                    rng,
                    in_lab=spec.in_lab,
                    session_start=spec.session_start + offset,
                    trace_index=index,
                    scheduled_pages=scheduled_pages,
                )
                uspan, lost_reason = campaign._upload_result(
                    client, worker, result, detached=True
                )
                row = None
                if lost_reason is None:
                    # Ship exactly what the (chunk-local) server stored —
                    # including the idempotency key a retrying client sent.
                    row = responses.find_one(
                        {"test_id": result.test_id, "worker_id": worker.worker_id}
                    )
                    if row is not None:
                        row.pop("_id", None)
                outcomes.append(
                    ParticipantOutcome(
                        index=index,
                        worker_id=worker.worker_id,
                        row=row,
                        lost_reason=lost_reason,
                        pspan=pspan if observed else None,
                        uspan=uspan if observed else None,
                    )
                )
        finally:
            # Chunk rows must not leak into the next chunk's dedupe checks
            # (the same worker process runs many chunks over one database).
            responses.delete_many({})
        network = campaign.network
        return ChunkOutcome(
            outcomes=outcomes,
            metrics_state=campaign.metrics.export_state(),
            stats=network.stats,
            advances=list(network.advances),
        )


# One runtime per worker process, installed by the pool initializer.
_RUNTIME: Optional[_WorkerRuntime] = None


def _worker_init(spec: FanoutSpec) -> None:
    global _RUNTIME
    _RUNTIME = _WorkerRuntime(spec)


def _run_chunk(indices: Sequence[int]) -> ChunkOutcome:
    assert _RUNTIME is not None, "worker process was not initialized"
    return _RUNTIME.run_chunk(indices)


def _merge_chunk(campaign, chunk: ChunkOutcome) -> None:
    """Fold one chunk into the parent, preserving roster-order invariants."""
    responses = campaign.database.collection(RESPONSES_COLLECTION)
    for outcome in chunk.outcomes:
        campaign._adopt(outcome.pspan)
        campaign._adopt(outcome.uspan)
        if outcome.lost_reason is not None:
            campaign.lost_uploads.append((outcome.worker_id, outcome.lost_reason))
        elif outcome.row is not None:
            duplicate = responses.find_one(
                {
                    "test_id": outcome.row.get("test_id"),
                    "worker_id": outcome.worker_id,
                }
            )
            if duplicate is not None:
                # Cross-chunk duplicate: the chunk-local server could not see
                # it; surface the same fatal contract as the 409 path.
                raise CampaignError(
                    f"upload for {outcome.worker_id} failed: "
                    "duplicate submission"
                )
            responses.insert_one(outcome.row)
            # Chunk servers never carry streaming state; the parent folds
            # each merged row exactly once, in roster (upload) order.
            if campaign._streaming_state is not None:
                campaign._streaming_state.ingest_row(outcome.row)
    campaign.metrics.merge_state(chunk.metrics_state)
    campaign.network.stats.merge(chunk.stats)
    # Replay the chunk's virtual time advance-by-advance: same additions in
    # the same order as the serial run, hence a bit-identical clock.
    for amount in chunk.advances:
        campaign.network.wait(amount)
    # The merged rows are durable now — in process mode this is the
    # checkpoint granularity (a crash between chunks resumes from here).
    campaign._checkpoint()


def run_process_fanout(
    campaign,
    workers: Sequence,
    judge,
    pending: Sequence[int],
    pool_size: int,
    session_start: float,
    root_entropy: int,
    in_lab: bool = False,
    arrival_offsets: Sequence[float] = (),
) -> None:
    """Simulate ``pending`` roster indices across a process pool.

    The caller (``Campaign._run_roster``) has already
    prewarmed the artifact cache, spawned nothing, and holds the ``fanout``
    span open; this function fans the chunks out and merges every chunk
    back in roster order.
    """
    ensure_picklable(judge, "judge (the user-supplied answer hook)")
    spec = build_spec(
        campaign,
        workers,
        judge,
        root_entropy=root_entropy,
        session_start=session_start,
        in_lab=in_lab,
        arrival_offsets=arrival_offsets,
    )
    chunks = chunk_indices(pending, pool_size)
    max_workers = max(1, min(pool_size, len(chunks)))
    with ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=process_context(),
        initializer=_worker_init,
        initargs=(spec,),
    ) as pool:
        # map yields in submission order: chunks merge in roster order while
        # later chunks are still simulating in other processes.
        for chunk in pool.map(_run_chunk, chunks):
            _merge_chunk(campaign, chunk)
