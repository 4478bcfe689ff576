"""Worker population models.

The quality-control evaluation in the paper turns on a simple fact of
crowdsourcing: even a "historically trustworthy" channel delivers a mix of
engaged workers, distracted workers, and outright spammers, while an in-lab
pool of committed friends is nearly uniform. Worker *type* determines both
judgment quality (noise injected into the psychometric models) and behaviour
(time on task, tab churn) — which is exactly the coupling the paper's
engagement-based quality control exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.crowd.demographics import Demographics, sample_demographics
from repro.errors import ValidationError
from repro.util.rng import categorical, coerce_rng


class WorkerType:
    """Worker archetypes (string constants, JSON-friendly)."""

    TRUSTWORTHY = "trustworthy"
    DISTRACTED = "distracted"
    SPAMMER = "spammer"

    ALL = (TRUSTWORTHY, DISTRACTED, SPAMMER)


@dataclass(frozen=True)
class WorkerProfile:
    """One simulated participant.

    ``judgment_sigma`` scales the Thurstone discrimination noise;
    ``attention`` in [0, 1] scales engagement (1 = fully engaged);
    ``position_bias`` in [-1, 1] is a spammer-style tendency to answer
    "Left" (negative) or "Right" (positive) regardless of the stimuli;
    ``same_bias`` inflates the tendency to answer "Same" rather than decide.
    """

    worker_id: str
    worker_type: str
    demographics: Demographics
    judgment_sigma: float
    attention: float
    position_bias: float = 0.0
    same_bias: float = 0.0
    speed_factor: float = 1.0  # multiplies time-on-task draws

    def __post_init__(self):
        if self.worker_type not in WorkerType.ALL:
            raise ValidationError(f"unknown worker type {self.worker_type!r}")
        if not 0.0 <= self.attention <= 1.0:
            raise ValidationError(f"attention must be in [0, 1], got {self.attention}")
        if self.judgment_sigma < 0:
            raise ValidationError("judgment_sigma must be >= 0")

    @property
    def is_random_clicker(self) -> bool:
        """True for workers who ignore the stimuli entirely."""
        return self.worker_type == WorkerType.SPAMMER


@dataclass(frozen=True)
class PopulationMix:
    """Fractions of each worker type plus type-level noise parameters."""

    trustworthy: float
    distracted: float
    spammer: float
    # (sigma_mean, sigma_spread) per type; actual sigma ~ |N(mean, spread)|
    trustworthy_sigma: float = 0.16
    distracted_sigma: float = 0.45
    spammer_sigma: float = 2.5

    def __post_init__(self):
        total = self.trustworthy + self.distracted + self.spammer
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"population fractions must sum to 1, got {total}")
        if min(self.trustworthy, self.distracted, self.spammer) < 0:
            raise ValidationError("population fractions must be >= 0")


# The paper recruits "historically trustworthy" FigureEight workers: a good
# channel, but §IV-A still finds participants worth filtering. Roughly one in
# four crowd workers is distracted or spamming even on good channels
# (Hossfeld et al., the QoE-crowdtesting best-practices work the paper cites).
FIGURE_EIGHT_TRUSTWORTHY_MIX = PopulationMix(
    trustworthy=0.74, distracted=0.14, spammer=0.12
)

# Friends and colleagues who "promise full commitment", walked through each
# step by the experimenters.
IN_LAB_MIX = PopulationMix(
    trustworthy=0.96, distracted=0.04, spammer=0.0, trustworthy_sigma=0.13
)


def _sample_type(mix: PopulationMix, generator: np.random.Generator) -> str:
    return categorical(
        generator, WorkerType.ALL, (mix.trustworthy, mix.distracted, mix.spammer)
    )


def _sigma_for(worker_type: str, mix: PopulationMix, generator: np.random.Generator) -> float:
    base = {
        WorkerType.TRUSTWORTHY: mix.trustworthy_sigma,
        WorkerType.DISTRACTED: mix.distracted_sigma,
        WorkerType.SPAMMER: mix.spammer_sigma,
    }[worker_type]
    return float(abs(generator.normal(base, base * 0.25)))


def generate_worker(
    worker_id: str,
    mix: PopulationMix,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    pool: str = "crowd",
) -> WorkerProfile:
    """Sample a single worker from a population mix."""
    generator = coerce_rng(rng, seed)
    worker_type = _sample_type(mix, generator)
    sigma = _sigma_for(worker_type, mix, generator)
    if worker_type == WorkerType.TRUSTWORTHY:
        attention = float(generator.uniform(0.85, 1.0))
        position_bias = 0.0
        same_bias = float(generator.uniform(0.0, 0.1))
        speed = float(generator.lognormal(0.0, 0.25))
    elif worker_type == WorkerType.DISTRACTED:
        attention = float(generator.uniform(0.35, 0.7))
        position_bias = float(generator.normal(0.0, 0.15))
        same_bias = float(generator.uniform(0.1, 0.35))
        speed = float(generator.lognormal(0.45, 0.4))  # slow: wanders off
    else:  # spammer
        attention = float(generator.uniform(0.0, 0.25))
        position_bias = float(generator.normal(-0.35, 0.3))  # "always Left" habit
        same_bias = float(generator.uniform(0.0, 0.5))
        speed = float(generator.lognormal(-1.2, 0.4))  # rushes
    return WorkerProfile(
        worker_id=worker_id,
        worker_type=worker_type,
        demographics=sample_demographics(rng=generator, pool=pool),
        judgment_sigma=sigma,
        attention=attention,
        position_bias=min(max(position_bias, -1.0), 1.0),
        same_bias=min(max(same_bias, 0.0), 1.0),
        speed_factor=speed,
    )


def generate_population(
    count: int,
    mix: PopulationMix,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    pool: str = "crowd",
    id_prefix: str = "w",
) -> List[WorkerProfile]:
    """Sample ``count`` workers from a mix."""
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    generator = coerce_rng(rng, seed)
    return [
        generate_worker(f"{id_prefix}{index:04d}", mix, rng=generator, pool=pool)
        for index in range(count)
    ]
