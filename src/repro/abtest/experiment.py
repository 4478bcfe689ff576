"""The split experiment itself: assignment, click funnel, result.

Reproduces the §IV-B protocol precisely: each visitor is served version "A"
or "B" with equal probability, the only signal recorded is whether the
visitor clicked the "Expand" button and which version they saw (the paper's
privacy constraint), and the experiment concludes with a two-proportion
significance test. Click propensities are latent per-version parameters —
in the paper's run, ~3/51 on the original and ~6/49 on the variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.abtest.stats import TwoProportionResult, two_proportion_z
from repro.abtest.traffic import SiteTrafficModel, Visit
from repro.errors import ValidationError
from repro.util.rng import coerce_rng


@dataclass
class ArmStats:
    """Counters for one experiment arm."""

    label: str
    visits: int = 0
    clicks: int = 0

    @property
    def click_rate(self) -> float:
        return self.clicks / self.visits if self.visits else 0.0


@dataclass(frozen=True)
class ABResult:
    """Final outcome of an A/B run."""

    arm_a: ArmStats
    arm_b: ArmStats
    duration_days: float
    test: TwoProportionResult

    @property
    def winner(self) -> str:
        """'A', 'B' or 'inconclusive' at 95% confidence."""
        if not self.test.significant_95:
            return "inconclusive"
        return "A" if self.arm_a.click_rate > self.arm_b.click_rate else "B"


@dataclass
class ABExperiment:
    """A two-arm split test over a site's live traffic."""

    traffic: SiteTrafficModel
    click_rate_a: float
    click_rate_b: float
    assignments: Dict[str, str] = field(default_factory=dict)
    clicks: Dict[str, bool] = field(default_factory=dict)

    def __post_init__(self):
        for label, rate in (("click_rate_a", self.click_rate_a), ("click_rate_b", self.click_rate_b)):
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(f"{label} must be in [0, 1], got {rate}")

    def run(
        self,
        visitors: int = 100,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> ABResult:
        """Serve versions until ``visitors`` arrive; return the result."""
        generator = coerce_rng(rng, seed)

        def handle_visit(visit: Visit) -> None:
            arm = "A" if generator.random() < 0.5 else "B"
            self.assignments[visit.visitor_id] = arm
            rate = self.click_rate_a if arm == "A" else self.click_rate_b
            self.clicks[visit.visitor_id] = bool(generator.random() < rate)

        self.traffic.run_until_visitors(visitors, on_visit=handle_visit, rng=generator)
        return self.result()

    def result(self) -> ABResult:
        """Tally arms and run the significance test on what was observed."""
        arm_a = ArmStats("A")
        arm_b = ArmStats("B")
        for visitor_id, arm in self.assignments.items():
            stats = arm_a if arm == "A" else arm_b
            stats.visits += 1
            if self.clicks.get(visitor_id, False):
                stats.clicks += 1
        if arm_a.visits == 0 or arm_b.visits == 0:
            raise ValidationError("both arms need at least one visit")
        # The VWO split-test calculator the paper cites reports a one-sided
        # pooled z-test; 6/49 vs 3/51 then yields the paper's p = 0.133.
        test = two_proportion_z(
            arm_b.clicks, arm_b.visits, arm_a.clicks, arm_a.visits,
            pooled=True, two_sided=False,
        )
        return ABResult(
            arm_a=arm_a,
            arm_b=arm_b,
            duration_days=self.traffic.duration_days,
            test=test,
        )
