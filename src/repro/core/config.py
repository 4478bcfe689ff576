"""Unified campaign configuration: one frozen object instead of kwarg soup.

The campaign entrypoints accreted knobs PR by PR — parallelism, conclusion
floors, fault plans, retry policies, dropout, and now observability.
:class:`CampaignConfig` consolidates them into a single frozen, validated
dataclass that :class:`~repro.core.campaign.Campaign` and
:class:`~repro.core.server.CoreServer` accept::

    config = CampaignConfig(seed=7, parallelism=4, min_participants=10,
                            observe=True)
    campaign = Campaign(config=config)

The config is the single source of truth: the constructors and run entry
points take no per-call overrides of its fields (seed, reward, host,
dropout). Only :meth:`~repro.core.campaign.Campaign.prepare`'s test
inputs sit beside it.

The object is immutable (hashable, safely shareable between a campaign and
its server); derive variants with :meth:`CampaignConfig.replace`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.crowd.arrivals import ARRIVAL_MODES, validate_arrival_mode
from repro.core.quality import QualityConfig
from repro.core.scheduling import SCHEDULER_MODES, SchedulerConfig
from repro.errors import ValidationError
from repro.net.faults import CircuitBreakerConfig, FaultPlan, RetryPolicy
from repro.net.overload import OverloadConfig
from repro.util.executors import EXECUTOR_PROCESS, validate_executor_mode

#: Default core-server hostname (the paper's single-server deployment).
DEFAULT_HOST = "kaleidoscope.local"

#: Storage backends: ``"memory"`` is the historical in-RAM DocumentStore;
#: ``"sharded-streaming"`` hash-partitions responses across WAL-backed
#: shards (see :mod:`repro.store`). Both encode every upload's answers once
#: at ingest, fold them into O(pairs) count tables, and conclude from the
#: codes recorded then; they differ only in materialisation.
STORE_MODES = ("memory", "sharded-streaming")

#: Store mode that spills responses to shard WALs and never materializes them.
STORE_SHARDED_STREAMING = "sharded-streaming"


@dataclass(frozen=True)
class CampaignConfig:
    """Every tunable of a campaign run, in one validated object.

    ``None`` means "component default" throughout.
    """

    #: Campaign RNG seed: recruitment, the roster's root entropy and the
    #: arrival schedule all derive from it.
    seed: Optional[int] = None
    #: Worker count for the roster pipeline: ``1`` runs the roster inline,
    #: ``n > 1`` chunks it across a pool of ``n`` processes. Every
    #: participant simulates on an independent RNG substream, so the
    #: conclusion is identical for every ``n >= 1``.
    parallelism: int = 1
    #: Conclusion floor: minimum absolute count of complete participants.
    min_participants: Optional[int] = None
    #: Conclusion floor: minimum completed fraction of the recruited roster.
    quorum: Optional[float] = None
    #: Reward offered per participant when posting the task; it also
    #: paces the ``arrival`` schedule (arrivals are reward-elastic).
    reward_usd: float = 0.10
    #: ``True`` = shared artifact cache, ``False`` = rebuild per visit,
    #: ``None`` = skip participant-side rendering entirely.
    artifact_cache: Optional[bool] = True
    #: Seeded network fault injection (drops/timeouts/5xx/latency/outages).
    fault_plan: Optional[FaultPlan] = None
    #: Client retry behaviour (attempts, backoff, budget).
    retry_policy: Optional[RetryPolicy] = None
    #: Per-host client circuit breaker.
    breaker_config: Optional[CircuitBreakerConfig] = None
    #: Base per-page probability a participant walks away mid-test.
    dropout_rate: float = 0.0
    #: Roster backend: ``"process"`` (default) leaves the choice to
    #: ``parallelism``; ``"serial"`` pins the inline loop. Kept only because
    #: the perfbench workloads pass ``executor="serial"``.
    executor: str = EXECUTOR_PROCESS
    #: Record a deterministic trace + metrics for this campaign
    #: (``campaign.timeline()`` exports it).
    observe: bool = False
    #: Core-server hostname.
    host: str = DEFAULT_HOST
    #: Participant arrival schedule: ``None`` = legacy everyone-at-once;
    #: ``"uniform"``/``"diurnal"``/``"flash"`` stagger session starts via
    #: :func:`repro.crowd.arrivals.arrival_offsets`.
    arrival: Optional[str] = None
    #: Server-side overload control plane (admission queue, token-bucket
    #: rate limiter, load-shedding ladder); ``None`` = accept everything.
    #: The ladder's thresholds are constants of :mod:`repro.net.overload`.
    overload: Optional[OverloadConfig] = None
    #: Storage backend: ``"memory"`` (historical in-RAM store; the result
    #: keeps ``raw_results``) or ``"sharded-streaming"`` (WAL-backed shards
    #: with responses spilled to the log and never read back by conclude —
    #: O(pairs) tables plus one id reference, a 4-byte end offset and 4
    #: bytes per non-control answer for each surviving upload; empty
    #: ``raw_results``).
    store: str = "memory"
    #: Shard count for the ``"sharded-streaming"`` store.
    store_shards: int = 4
    #: Directory for the sharded store's WALs + snapshots; ``None`` keeps
    #: them in process memory (still streamed, not crash-durable).
    store_directory: Optional[str] = None
    #: Quality-control layers the campaign runs, fixed up front: the online
    #: screen applies them to every upload as it arrives (the thresholds
    #: are constants of :mod:`repro.core.quality`).
    quality: Optional[QualityConfig] = None
    #: Comparison scheduler: ``"full"`` (every C(N, 2) pair — the paper's
    #: default design), a participant-driven sort (``"bubble"``,
    #: ``"insertion"``, ``"merge"``), or ``"adaptive"`` (shared
    #: information-gain scheduling over a Bradley-Terry posterior with
    #: stability-based early stopping — see :mod:`repro.core.adaptive`).
    scheduler: str = "full"
    #: Sub-options for non-``"full"`` schedulers (seed, session budget,
    #: refit cadence, early-stopping thresholds).
    scheduler_config: Optional[SchedulerConfig] = None

    def __post_init__(self):
        if self.parallelism < 1:
            raise ValidationError(
                f"parallelism must be >= 1, got {self.parallelism}"
            )
        if self.min_participants is not None and self.min_participants < 0:
            raise ValidationError("min_participants must be >= 0")
        if self.quorum is not None and not 0.0 < self.quorum <= 1.0:
            raise ValidationError(
                f"quorum must be in (0, 1], got {self.quorum}"
            )
        if not 0.0 <= self.dropout_rate <= 1.0:
            raise ValidationError(
                f"dropout_rate must be in [0, 1], got {self.dropout_rate}"
            )
        validate_executor_mode(self.executor)
        if self.reward_usd < 0:
            raise ValidationError("reward_usd must be >= 0")
        if not self.host:
            raise ValidationError("host must be non-empty")
        if self.store not in STORE_MODES:
            raise ValidationError(
                f"store must be one of {STORE_MODES}, got {self.store!r}"
            )
        if self.store_shards < 1:
            raise ValidationError(
                f"store_shards must be >= 1, got {self.store_shards}"
            )
        if self.scheduler not in SCHEDULER_MODES:
            raise ValidationError(
                f"scheduler must be one of {SCHEDULER_MODES}, "
                f"got {self.scheduler!r}"
            )
        # Raises CampaignError with the valid choices on unknown values.
        validate_arrival_mode(self.arrival)

    # -- derivation ---------------------------------------------------------

    def replace(self, **changes: Any) -> "CampaignConfig":
        """A new config with ``changes`` applied (the object is frozen)."""
        return dataclasses.replace(self, **changes)

    @property
    def resilient(self) -> bool:
        """True when any knob switches the campaign into degraded mode."""
        return (
            (self.fault_plan is not None and not self.fault_plan.is_none)
            or self.retry_policy is not None
            or self.dropout_rate > 0.0
            or self.overload is not None
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly summary (timeline metadata, reports).

        Policy objects are summarized by presence/shape, not serialized.
        """
        return {
            "seed": self.seed,
            "parallelism": self.parallelism,
            "min_participants": self.min_participants,
            "quorum": self.quorum,
            "reward_usd": self.reward_usd,
            "artifact_cache": self.artifact_cache,
            "fault_plan": (
                None if self.fault_plan is None or self.fault_plan.is_none
                else {"seed": self.fault_plan.seed,
                      "rules": len(self.fault_plan.rules),
                      "outages": len(self.fault_plan.outages)}
            ),
            "retry_policy": (
                None if self.retry_policy is None
                else {"max_attempts": self.retry_policy.max_attempts}
            ),
            "circuit_breaker": self.breaker_config is not None,
            "dropout_rate": self.dropout_rate,
            "executor": self.executor,
            "observe": self.observe,
            "host": self.host,
            "arrival": self.arrival,
            "overload": (
                None if self.overload is None else self.overload.to_dict()
            ),
            "store": self.store,
            "store_shards": self.store_shards,
            "quality": self.quality is not None,
            "scheduler": self.scheduler,
            "scheduler_config": (
                None if self.scheduler_config is None
                else self.scheduler_config.to_dict()
            ),
        }

    @property
    def streaming(self) -> bool:
        """True when responses spill to the sharded store and conclude
        streams them back instead of materializing them."""
        return self.store == STORE_SHARDED_STREAMING
