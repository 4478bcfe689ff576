"""Statistical tests for A/B and Kaleidoscope results.

Implements the tests the paper's numbers come from:

* :func:`two_proportion_z` — the VWO split-test significance calculator the
  paper cites for the A/B p-value (0.133) is a two-proportion z-test; the
  Kaleidoscope p-value (6.8e-8 for 46 vs 14 out of 100) matches the
  *unpooled*, one-sided variant, so both pooling modes and both sidedness
  modes are provided.

Implemented on ``math.erfc`` directly so results are exact and dependency-
free; scipy (when available in the environment) is used only by tests to
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ValidationError


def _phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _survival(z: float) -> float:
    """Standard normal survival function P(Z > z)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class TwoProportionResult:
    """Outcome of a two-proportion z-test."""

    z: float
    p_value: float
    p1: float
    p2: float
    pooled: bool
    two_sided: bool

    @property
    def significant_95(self) -> bool:
        return self.p_value < 0.05


def two_proportion_z(
    successes1: int,
    n1: int,
    successes2: int,
    n2: int,
    pooled: bool = True,
    two_sided: bool = True,
) -> TwoProportionResult:
    """z-test for H0: p1 == p2.

    ``pooled=True`` uses the pooled standard error (classic A/B calculator
    behaviour); ``pooled=False`` uses the unpooled (Wald) standard error.
    One-sided tests take H1: p1 > p2.
    """
    for label, value in (("successes1", successes1), ("successes2", successes2)):
        if value < 0:
            raise ValidationError(f"{label} must be >= 0, got {value}")
    if n1 <= 0 or n2 <= 0:
        raise ValidationError("sample sizes must be positive")
    if successes1 > n1 or successes2 > n2:
        raise ValidationError("successes cannot exceed the sample size")
    p1 = successes1 / n1
    p2 = successes2 / n2
    if pooled:
        p_hat = (successes1 + successes2) / (n1 + n2)
        variance = p_hat * (1.0 - p_hat) * (1.0 / n1 + 1.0 / n2)
    else:
        variance = p1 * (1.0 - p1) / n1 + p2 * (1.0 - p2) / n2
    if variance <= 0:
        z = 0.0 if p1 == p2 else math.copysign(float("inf"), p1 - p2)
    else:
        z = (p1 - p2) / math.sqrt(variance)
    if two_sided:
        p_value = 2.0 * _survival(abs(z)) if math.isfinite(z) else 0.0
    else:
        p_value = _survival(z) if math.isfinite(z) else (0.0 if z > 0 else 1.0)
    p_value = min(1.0, p_value)
    return TwoProportionResult(
        z=z, p_value=p_value, p1=p1, p2=p2, pooled=pooled, two_sided=two_sided
    )


def _inverse_phi(p: float) -> float:
    """Inverse standard normal CDF via bisection (exact enough for CIs)."""
    if not 0.0 < p < 1.0:
        raise ValidationError("p must be in (0, 1)")
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if _phi(mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def required_sample_size_two_proportion(
    p1: float, p2: float, alpha: float = 0.05, power: float = 0.8
) -> int:
    """Per-arm sample size for a two-sided two-proportion test.

    Used by the benchmarks to show *why* the paper's A/B test at n=100 was
    underpowered for a 6% vs 12% click-rate difference.
    """
    if not (0 < p1 < 1 and 0 < p2 < 1):
        raise ValidationError("proportions must be in (0, 1)")
    if p1 == p2:
        raise ValidationError("proportions must differ")
    z_alpha = _inverse_phi(1.0 - alpha / 2.0)
    z_beta = _inverse_phi(power)
    p_bar = (p1 + p2) / 2.0
    numerator = (
        z_alpha * math.sqrt(2.0 * p_bar * (1.0 - p_bar))
        + z_beta * math.sqrt(p1 * (1.0 - p1) + p2 * (1.0 - p2))
    ) ** 2
    return math.ceil(numerator / (p1 - p2) ** 2)
