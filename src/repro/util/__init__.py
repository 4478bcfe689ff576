"""Shared utilities: seeded RNG plumbing, validation, stats helpers, JSON."""

from repro.util.rng import SeedSequenceFactory, derive_rng, spawn_seed
from repro.util.statsutil import (
    Cdf,
    empirical_cdf,
    mean,
    percentile,
)
from repro.util.validation import (
    require_non_empty,
    require_positive,
    require_type,
)

__all__ = [
    "SeedSequenceFactory",
    "derive_rng",
    "spawn_seed",
    "Cdf",
    "empirical_cdf",
    "mean",
    "percentile",
    "require_non_empty",
    "require_positive",
    "require_type",
]
