"""Descriptive-statistics helpers used across analysis and benchmarks.

The evaluation figures of the paper are mostly empirical CDFs and percentage
breakdowns; :class:`Cdf` is the shared representation that both the analysis
layer and the benchmark reporters consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence (analysis-friendly)."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    values = sorted(values)
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if len(values) == 1:
        return values[0]
    pos = (len(values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return values[lo]
    frac = pos - lo
    return values[lo] * (1 - frac) + values[hi] * frac


@dataclass(frozen=True)
class Cdf:
    """An empirical cumulative distribution function.

    ``xs`` are the sorted distinct sample values and ``ps`` the cumulative
    probabilities P(X <= x); both are aligned and the last probability is 1.
    """

    xs: Tuple[float, ...]
    ps: Tuple[float, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ps):
            raise ValueError("xs and ps must be aligned")

    def quantile(self, p: float) -> float:
        """Return the smallest x with P(X <= x) >= p."""
        if not 0 <= p <= 1:
            raise ValueError(f"p must be in [0, 1], got {p}")
        for value, prob in zip(self.xs, self.ps):
            if prob >= p:
                return value
        return self.xs[-1]

    @property
    def maximum(self) -> float:
        """Largest observed value."""
        return self.xs[-1]

    def series(self) -> List[Tuple[float, float]]:
        """Return ``(x, p)`` points suitable for plotting or printing."""
        return list(zip(self.xs, self.ps))


def empirical_cdf(samples: Iterable[float]) -> Cdf:
    """Build a :class:`Cdf` from raw samples."""
    values = sorted(samples)
    if not values:
        raise ValueError("empirical_cdf of empty sequence")
    n = len(values)
    xs: List[float] = []
    ps: List[float] = []
    seen = 0
    for i, v in enumerate(values):
        seen = i + 1
        if i + 1 < n and values[i + 1] == v:
            continue
        xs.append(v)
        ps.append(seen / n)
    return Cdf(tuple(xs), tuple(ps))
