"""A/B testing baseline: traffic simulation, split experiments, statistics.

The paper compares Kaleidoscope against classic A/B testing on the authors'
research-group landing page: visitors are split 50/50 between the original
and the variant, the only logged signal is whether the "Expand" button was
clicked, and significance is computed with the VWO-style two-proportion test.
This package supplies the whole baseline: a visitor arrival model for a
low-traffic site (~100 visitors in 12 days), the split/click funnel, and the
statistical tests used in §IV-B.
"""

from repro.abtest.traffic import SiteTrafficModel, Visit
from repro.abtest.experiment import ABExperiment, ABResult, ArmStats
from repro.abtest.stats import (
    two_proportion_z,
    TwoProportionResult,
)

__all__ = [
    "SiteTrafficModel",
    "Visit",
    "ABExperiment",
    "ABResult",
    "ArmStats",
    "two_proportion_z",
    "TwoProportionResult",
]
