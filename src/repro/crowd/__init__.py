"""Crowd substrate: workers, psychometric judgment models, behaviour traces,
the crowdsourcing platform, and the in-lab baseline.

The paper's evaluation rests on three participant pools: 100 paid
"historically trustworthy" FigureEight workers (Experiments 1-3), 50 trusted
in-lab friends/colleagues (Experiment 1), and ~100 organic website visitors
(the A/B baseline, modelled in :mod:`repro.abtest`). This package simulates
the first two: who shows up (arrival process, demographics), how carefully
they judge (Thurstone-style pairwise choice with worker-dependent noise,
readability and uPLT perception models from the CHI literature the paper
cites), and how they behave while doing it (tabs, time on task).
"""

from repro.crowd.demographics import Demographics, sample_demographics
from repro.crowd.workers import (
    WorkerProfile,
    WorkerType,
    PopulationMix,
    generate_population,
    FIGURE_EIGHT_TRUSTWORTHY_MIX,
    IN_LAB_MIX,
)
from repro.crowd.judgment import (
    FontReadabilityModel,
    ThurstoneChoiceModel,
    UPLTPerceptionModel,
)
from repro.crowd.behavior import BehaviorTrace, sample_behavior
from repro.crowd.arrivals import ARRIVAL_MODES, arrival_offsets, validate_arrival_mode
from repro.crowd.platform import CrowdJob, CrowdPlatform, matches_target
from repro.crowd.inlab import InLabStudy
from repro.crowd.multiplatform import ParallelRecruiter, PlatformChannel, default_channel

__all__ = [
    "Demographics",
    "sample_demographics",
    "WorkerProfile",
    "WorkerType",
    "PopulationMix",
    "generate_population",
    "FIGURE_EIGHT_TRUSTWORTHY_MIX",
    "IN_LAB_MIX",
    "FontReadabilityModel",
    "ThurstoneChoiceModel",
    "UPLTPerceptionModel",
    "BehaviorTrace",
    "sample_behavior",
    "ARRIVAL_MODES",
    "arrival_offsets",
    "validate_arrival_mode",
    "CrowdJob",
    "CrowdPlatform",
    "matches_target",
    "InLabStudy",
    "ParallelRecruiter",
    "PlatformChannel",
    "default_channel",
]
