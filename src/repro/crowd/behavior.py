"""Behaviour traces: what the extension monitors while a participant works.

Per side-by-side comparison the extension records how long the participant
spent, how many tabs they created, and how often they switched the active
tab (Figure 5). Engagement-based quality control consumes these traces, so
their distributions must separate worker types the way real traces do:

* trustworthy workers cluster around a comfortable reading time (tens of
  seconds to ~2 minutes) with few tab distractions;
* distracted workers produce the long right tail (up to ~3.3 minutes in the
  paper's raw data) and heavy tab churn — they wander off mid-comparison;
* spammers produce the short left tail (a few seconds) — too fast to have
  looked at anything.
"""

from __future__ import annotations

import sys
from typing import NamedTuple, Optional

import numpy as np

from repro.crowd.workers import WorkerProfile, WorkerType
from repro.util.rng import coerce_rng

_new_tuple = tuple.__new__
_LARGEST_FLOAT = sys.float_info.max


def is_minutes(value) -> bool:
    """True for a parsed JSON number (an exact ``int`` or ``float``, so not
    a ``bool``) that is >= 0 and finite as a float: an uploaded duration. A
    string, a bool, NaN, an infinity or an integer too large for a float is
    not one."""
    kind = type(value)
    return (kind is float or kind is int) and 0.0 <= value <= _LARGEST_FLOAT


class BehaviorTrace(NamedTuple):
    """Monitoring data for one side-by-side comparison.

    An immutable, hashable, picklable value without an instance
    ``__dict__``. It is a named tuple, not a frozen dataclass, because every
    stored upload is parsed into one per answer, twice, and a frozen
    dataclass's ``__init__`` sets each field through ``object.__setattr__``
    (DESIGN.md, "Parsed answers"). Its wire form is :meth:`as_dict`.
    """

    duration_minutes: float
    created_tabs: int
    active_tab_switches: int

    def as_dict(self) -> dict:
        return {
            "duration_minutes": self.duration_minutes,
            "created_tabs": self.created_tabs,
            "active_tab_switches": self.active_tab_switches,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BehaviorTrace":
        """Parse one trace; a duration that is not a finite JSON number
        >= 0, or a tab count that is not an ``int`` >= 0 (a bool, float or
        string is not converted), raises ``ValueError`` (the server rejects
        that upload)."""
        duration = data["duration_minutes"]
        created = data["created_tabs"]
        switches = data["active_tab_switches"]
        if (
            is_minutes(duration)
            and type(created) is int
            and type(switches) is int
            and created >= 0
            and switches >= 0
        ):
            return _new_tuple(cls, (float(duration), created, switches))
        raise ValueError(
            "behaviour needs a finite numeric duration >= 0 and integer tab "
            f"counts >= 0, got {duration!r} minutes, {created!r} created, "
            f"{switches!r} switches"
        )


# Per-type parameters: (lognormal mu, lognormal sigma, duration cap minutes,
# extra created-tab rate, extra switch rate). Durations are minutes.
_DURATION_PARAMS = {
    WorkerType.TRUSTWORTHY: (-0.55, 0.45, 2.6),
    WorkerType.DISTRACTED: (0.05, 0.55, 3.4),
    WorkerType.SPAMMER: (-2.2, 0.6, 0.8),
}
_TAB_RATES = {
    # (created-tab Poisson rate, switch Poisson base)
    WorkerType.TRUSTWORTHY: (0.35, 2.2),
    WorkerType.DISTRACTED: (1.6, 5.0),
    WorkerType.SPAMMER: (0.9, 3.0),
}


def sample_behavior(
    worker: WorkerProfile,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    in_lab: bool = False,
) -> BehaviorTrace:
    """Sample one comparison's behaviour trace for ``worker``.

    ``in_lab`` tightens the distributions: an experimenter in the room keeps
    participants on task (the paper's longest in-lab comparison was 1.9
    minutes vs 3.3 raw crowd).
    """
    generator = coerce_rng(rng, seed)
    mu, sigma, cap = _DURATION_PARAMS[worker.worker_type]
    tab_rate, switch_rate = _TAB_RATES[worker.worker_type]
    if in_lab:
        mu -= 0.12
        sigma *= 0.8
        cap = min(cap, 2.0)
        tab_rate *= 0.5
        switch_rate *= 0.8
    duration = float(generator.lognormal(mu, sigma)) * worker.speed_factor
    duration = float(min(duration, cap))
    duration = max(duration, 0.03)
    created = int(generator.poisson(tab_rate * max(duration, 0.2)))
    # Active-tab count as logged by the extension: at least the two test tabs
    # (instructions + integrated page), plus churn proportional to duration
    # and distraction.
    switches = 2 + int(generator.poisson(switch_rate * max(duration, 0.2)))
    return BehaviorTrace(
        duration_minutes=duration,
        created_tabs=created,
        active_tab_switches=min(switches, 14),
    )


# Dropout susceptibility by worker type: distracted workers wander off
# mid-test far more often than trustworthy ones (the EYEORG-style operational
# pain the resilience layer exists to survive); spammers bail when bored.
_DROPOUT_SUSCEPTIBILITY = {
    WorkerType.TRUSTWORTHY: 0.6,
    WorkerType.DISTRACTED: 1.8,
    WorkerType.SPAMMER: 1.2,
}


def dropout_probability(worker: WorkerProfile, base_rate: float) -> float:
    """Per-page probability that ``worker`` abandons the test.

    ``base_rate`` is the campaign-level knob; the worker's type and attention
    scale it (low attention up to ~1.5x, full attention down to 1x). Clamped
    to [0, 0.9] so even the flakiest worker has a chance to finish.
    """
    if base_rate <= 0.0:
        return 0.0
    susceptibility = _DROPOUT_SUSCEPTIBILITY[worker.worker_type]
    attention_factor = 1.5 - 0.5 * worker.attention
    return float(min(0.9, base_rate * susceptibility * attention_factor))
