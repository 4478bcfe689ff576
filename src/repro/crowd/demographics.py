"""Coarse demographic sampling.

Kaleidoscope's extension collects gender, age, country and self-assessed
technical ability "at a coarse enough granularity [that there] is no danger
of identifying individual people". The sampler reproduces that granularity;
marginals approximate published crowdworker surveys (FigureEight/MTurk skew
younger and more technical than in-lab friend pools).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.util.rng import Categorical, coerce_rng

GENDERS = ("female", "male", "other", "prefer-not-to-say")
AGE_RANGES = ("18-24", "25-34", "35-44", "45-54", "55+")
COUNTRIES = ("US", "IN", "GB", "DE", "BR", "PH", "CA", "IT", "other")
TECH_ABILITY = (1, 2, 3, 4, 5)  # self-assessed, 5 = expert

# Marginal distributions per pool, one per attribute.
_CROWD_MARGINALS = {
    "gender": Categorical(GENDERS, (0.42, 0.53, 0.02, 0.03)),
    "age": Categorical(AGE_RANGES, (0.26, 0.38, 0.20, 0.10, 0.06)),
    "country": Categorical(
        COUNTRIES, (0.32, 0.20, 0.08, 0.06, 0.08, 0.10, 0.05, 0.04, 0.07)
    ),
    "tech": Categorical(TECH_ABILITY, (0.03, 0.10, 0.32, 0.38, 0.17)),
}
_INLAB_MARGINALS = {
    "gender": Categorical(GENDERS, (0.45, 0.50, 0.02, 0.03)),
    # friends & colleagues skew young
    "age": Categorical(AGE_RANGES, (0.40, 0.45, 0.10, 0.04, 0.01)),
    "country": Categorical(
        COUNTRIES, (0.70, 0.05, 0.04, 0.04, 0.02, 0.02, 0.05, 0.03, 0.05)
    ),
    # CS-department pool
    "tech": Categorical(TECH_ABILITY, (0.01, 0.04, 0.20, 0.40, 0.35)),
}


@dataclass(frozen=True)
class Demographics:
    """The four coarse attributes the extension collects before a test."""

    gender: str
    age_range: str
    country: str
    tech_ability: int

    def as_dict(self) -> dict:
        return {
            "gender": self.gender,
            "age_range": self.age_range,
            "country": self.country,
            "tech_ability": self.tech_ability,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Demographics":
        return cls(
            gender=data["gender"],
            age_range=data["age_range"],
            country=data["country"],
            tech_ability=int(data["tech_ability"]),
        )


def sample_demographics(
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    pool: str = "crowd",
) -> Demographics:
    """Sample one participant's demographics for a pool ('crowd' or 'inlab')."""
    generator = coerce_rng(rng, seed)
    marginals = _CROWD_MARGINALS if pool == "crowd" else _INLAB_MARGINALS
    return Demographics(
        gender=marginals["gender"].draw(generator),
        age_range=marginals["age"].draw(generator),
        country=marginals["country"].draw(generator),
        tech_ability=marginals["tech"].draw(generator),
    )
