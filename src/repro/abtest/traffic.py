"""Visitor traffic for a low-popularity website.

The A/B baseline in §IV-B runs on the authors' research-group landing page —
"the only website we own with some daily traffic" — and needs 12 days to see
100 visitors (≈8.3/day). :class:`SiteTrafficModel` generates that visitor
stream as a diurnal Poisson process over the shared virtual clock, so the
Figure 7(a) comparison of cumulative testers over days is apples-to-apples
with the crowd platform's recruitment curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.errors import ValidationError
from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR, SimulationEnvironment
from repro.util.rng import coerce_rng


@dataclass(frozen=True)
class Visit:
    """One site visit."""

    visitor_id: str
    arrival_time_s: float

    @property
    def arrival_day(self) -> float:
        return self.arrival_time_s / SECONDS_PER_DAY


@dataclass
class SiteTrafficModel:
    """Poisson visitor arrivals with a day/night cycle.

    ``visitors_per_day`` calibrates the mean rate; the diurnal factor follows
    an academic-site pattern (daytime peak, overnight trough).
    """

    env: SimulationEnvironment
    visitors_per_day: float = 8.3
    visits: List[Visit] = field(default_factory=list)

    def __post_init__(self):
        if self.visitors_per_day <= 0:
            raise ValidationError("visitors_per_day must be positive")

    def rate_per_hour(self, hour_of_day: float) -> float:
        """Instantaneous arrival rate at an hour of the (local) day."""
        base = self.visitors_per_day / 24.0
        diurnal = 1.0 + 0.7 * np.sin(2.0 * np.pi * (hour_of_day - 15.0) / 24.0)
        return float(base * max(diurnal, 0.15))

    def run_until_visitors(
        self,
        count: int,
        on_visit: Optional[Callable[[Visit], None]] = None,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
        max_days: float = 120.0,
    ) -> List[Visit]:
        """Generate visits until ``count`` arrive (or ``max_days`` pass)."""
        if count <= 0:
            raise ValidationError("count must be positive")
        generator = coerce_rng(rng, seed)
        start = self.env.now
        deadline = start + max_days * SECONDS_PER_DAY
        while len(self.visits) < count:
            hour_of_day = (self.env.now / SECONDS_PER_HOUR) % 24.0
            rate = self.rate_per_hour(hour_of_day)
            gap_hours = float(generator.exponential(1.0 / max(rate, 1e-9)))
            delay = gap_hours * SECONDS_PER_HOUR
            if self.env.now + delay > deadline:
                self.env.run(until=deadline)
                break

            def arrive():
                visit = Visit(
                    visitor_id=f"v{len(self.visits):05d}",
                    arrival_time_s=self.env.now,
                )
                self.visits.append(visit)
                if on_visit is not None:
                    on_visit(visit)

            self.env.schedule_in(delay, arrive, label="site-visit")
            self.env.run(until=self.env.now + delay)
        return self.visits

    @property
    def duration_days(self) -> float:
        """Days from simulation start to the last visit."""
        if not self.visits:
            return 0.0
        return max(v.arrival_day for v in self.visits)
