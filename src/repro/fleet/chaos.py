"""Seeded worker-crash injection for fleet runs.

Follows the same design rule as :class:`~repro.net.faults.FaultPlan`: a
crash decision is a pure blake2b hash of ``(seed, job id, delivery)`` —
never a draw from a shared RNG — so the same chaos plan kills the same
deliveries at the same checkpoint no matter how many workers the fleet
runs or which worker happens to pick the job up. That is what lets the
bench assert that a fleet of 1 and a fleet of 8 conclude identically
under the same chaos.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import FleetError
from repro.util.rng import stable_uniform


@dataclass(frozen=True)
class WorkerChaos:
    """Crash plan: with probability ``kill_rate``, a delivery dies partway.

    ``max_kills_per_job`` bounds how many deliveries of one job may be
    killed — beyond it, deliveries always run clean. Without the bound, an
    unlucky job could be chaos-killed ``max_deliveries`` times in a row and
    dead-letter even though it is perfectly healthy, which would make the
    bench's "dead letters == poison jobs" assertion flaky by construction.
    """

    seed: int = 0
    kill_rate: float = 0.0
    max_kills_per_job: int = 1

    def __post_init__(self):
        if not 0.0 <= self.kill_rate <= 1.0:
            raise FleetError("kill_rate must be in [0, 1]")
        if self.max_kills_per_job < 0:
            raise FleetError("max_kills_per_job must be >= 0")

    @classmethod
    def none(cls) -> "WorkerChaos":
        return cls()

    def kill_point(
        self, job_id: str, delivery: int, checkpoints: int
    ) -> Optional[int]:
        """Which checkpoint this delivery dies at, or ``None`` for a clean run.

        ``checkpoints`` is how many checkpoint-hook firings the job expects
        (the roster size in the inline loop, the chunk count in process
        mode). The returned ``k`` means: crash at the k-th firing, *before*
        its checkpoint is saved — so the durable state is everything up to
        firing ``k-1``, and resume genuinely has work left to do.
        """
        if (
            self.kill_rate <= 0.0
            or delivery > self.max_kills_per_job
            or checkpoints < 2
        ):
            return None
        token = f"{job_id}|{delivery}"
        if stable_uniform(self.seed, "kill", token) >= self.kill_rate:
            return None
        span = checkpoints - 1  # k in [1, checkpoints-1]: never after the last
        return 1 + int(stable_uniform(self.seed, "point", token) * span)
