"""Psychometric judgment models.

Three models drive every simulated answer in the evaluation:

* :class:`ThurstoneChoiceModel` — pairwise comparison as Thurstone Case V
  with a "Same" indifference band, the standard model for side-by-side
  forced-choice QoE studies. A worker perceives each stimulus's latent
  utility plus Gaussian noise scaled by their ``judgment_sigma``; spammers
  ignore the stimuli and answer from position bias alone.

* :class:`FontReadabilityModel` — latent readability utility of a font size
  for online reading, a log-Gaussian curve peaking between 12 and 14 points.
  This encodes the CHI consensus the paper cites (12-14pt optimal for general
  readers; larger sizes penalized slower than smaller ones, reflecting the
  dyslexia-friendly literature's tolerance of large print).

* :class:`UPLTPerceptionModel` — user-perceived page load time as a weighted
  blend of per-region reveal times. The Figure 9 finding ("main text content
  matters more than the navigation bar, even at equal above-the-fold time")
  is encoded as a main-content weight distributed around ~0.7 across
  workers, with a minority of "any visual change" users (weight near 0.5),
  matching the participant comments quoted in §IV-C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.crowd.workers import WorkerProfile
from repro.errors import ValidationError
from repro.util.rng import categorical, coerce_rng

ANSWER_LEFT = "left"
ANSWER_RIGHT = "right"
ANSWER_SAME = "same"
ANSWERS = (ANSWER_LEFT, ANSWER_RIGHT, ANSWER_SAME)


@dataclass(frozen=True)
class ThurstoneChoiceModel:
    """Pairwise side-by-side choice with an indifference band.

    ``same_threshold`` is the perceived-difference magnitude below which a
    worker answers "Same"; it is widened by the worker's ``same_bias``.
    ``sequential_penalty`` multiplies noise when stimuli are shown one after
    the other instead of side by side (used by the presentation ablation:
    side-by-side comparison is the paper's design choice precisely because
    simultaneous viewing sharpens discrimination).
    """

    same_threshold: float = 0.12
    sequential_penalty: float = 1.8

    def __post_init__(self):
        if self.same_threshold < 0:
            raise ValidationError("same_threshold must be >= 0")

    def choose(
        self,
        utility_left: float,
        utility_right: float,
        worker: WorkerProfile,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
        side_by_side: bool = True,
    ) -> str:
        """Return 'left', 'right' or 'same' for one comparison."""
        generator = coerce_rng(rng, seed)
        if worker.is_random_clicker:
            return self._spam_answer(worker, generator)
        sigma = worker.judgment_sigma
        if not side_by_side:
            sigma *= self.sequential_penalty
        noise = generator.normal(0.0, sigma) if sigma > 0 else 0.0
        perceived_difference = (utility_left - utility_right) + noise
        threshold = self.same_threshold * (1.0 + 2.0 * worker.same_bias)
        if abs(perceived_difference) < threshold:
            return ANSWER_SAME
        return ANSWER_LEFT if perceived_difference > 0 else ANSWER_RIGHT

    @staticmethod
    def _spam_answer(worker: WorkerProfile, generator: np.random.Generator) -> str:
        """A stimulus-blind answer driven by position/same biases."""
        p_same = 0.15 + 0.3 * worker.same_bias
        # position_bias < 0 means a Left habit.
        p_left = (1.0 - p_same) * (0.5 - 0.5 * worker.position_bias)
        p_right = 1.0 - p_same - p_left
        probabilities = _normalize((max(p_left, 0.0), max(p_right, 0.0), p_same))
        return categorical(generator, ANSWERS, probabilities)


def _normalize(probabilities):
    total = sum(probabilities)
    if total <= 0:
        return (1 / 3, 1 / 3, 1 / 3)
    return tuple(p / total for p in probabilities)


def judge_identical_pair(
    worker: WorkerProfile,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> str:
    """Answer for a control pair showing two copies of the *same* version.

    Identical stimuli carry no perceptual difference, so an attentive worker
    almost always answers "Same"; failures come from inattention (answering
    without looking), not discrimination noise.
    """
    generator = coerce_rng(rng, seed)
    if worker.is_random_clicker:
        return ThurstoneChoiceModel._spam_answer(worker, generator)
    p_same = 0.80 + 0.19 * worker.attention
    if generator.random() < p_same:
        return ANSWER_SAME
    return ANSWER_LEFT if generator.random() < 0.5 else ANSWER_RIGHT


def judge_contrast_pair(
    worker: WorkerProfile,
    expected: str,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> str:
    """Answer for a control pair with a drastic known-answer difference
    (e.g. 4pt vs 12pt main text). Attentive workers nearly always get it."""
    generator = coerce_rng(rng, seed)
    if expected not in (ANSWER_LEFT, ANSWER_RIGHT):
        raise ValidationError(f"expected must be left/right, got {expected!r}")
    if worker.is_random_clicker:
        return ThurstoneChoiceModel._spam_answer(worker, generator)
    p_correct = 0.82 + 0.17 * worker.attention
    if generator.random() < p_correct:
        return expected
    other = ANSWER_RIGHT if expected == ANSWER_LEFT else ANSWER_LEFT
    return other if generator.random() < 0.7 else ANSWER_SAME


@dataclass(frozen=True)
class FontReadabilityModel:
    """Latent readability utility of a font size (points) for online reading.

    ``u(s) = exp(-((ln s - ln peak) / width)^2)`` with a mild asymmetry:
    sizes *below* the peak are penalized ``small_penalty`` times faster than
    sizes above it, since cramped text hurts more than airy text (Rello et
    al.'s "Make it big!" effect).
    """

    peak_pt: float = 12.4
    width: float = 0.30
    small_penalty: float = 1.25

    def __post_init__(self):
        if self.peak_pt <= 0 or self.width <= 0:
            raise ValidationError("peak_pt and width must be positive")

    def utility(self, font_pt: float) -> float:
        """Readability utility in (0, 1]."""
        if font_pt <= 0:
            raise ValidationError(f"font size must be positive, got {font_pt}")
        z = (math.log(font_pt) - math.log(self.peak_pt)) / self.width
        if z < 0:
            z *= self.small_penalty
        return math.exp(-(z * z))

    def utilities(self, sizes) -> Dict[float, float]:
        """Utility for each size in an iterable."""
        return {float(s): self.utility(s) for s in sizes}


@dataclass(frozen=True)
class UPLTPerceptionModel:
    """User-perceived page load time from per-region reveal times.

    A worker's perceived-ready time is a convex combination of the region
    reveal times (milliseconds), weighted by how much that worker cares about
    each region. The population splits into content-focused users (weight on
    the main text ~ ``content_weight_mean``) and change-watchers who react to
    any visual change — the §IV-C commenter who judged "by browsing and
    moving ... with the same degree".
    """

    content_weight_mean: float = 0.68
    content_weight_spread: float = 0.14
    change_watcher_fraction: float = 0.12
    perception_noise_ms: float = 700.0

    def sample_content_weight(
        self,
        worker: WorkerProfile,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> float:
        """The worker's main-content weight in [0, 1]."""
        generator = coerce_rng(rng, seed)
        if generator.random() < self.change_watcher_fraction:
            # Change-watchers weigh every region nearly equally.
            return float(generator.uniform(0.45, 0.55))
        weight = generator.normal(self.content_weight_mean, self.content_weight_spread)
        return min(max(weight, 0.05), 0.98)

    def perceived_ready_ms(
        self,
        main_reveal_ms: float,
        auxiliary_reveal_ms: float,
        worker: WorkerProfile,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> float:
        """Perceived-ready time for one page load."""
        if main_reveal_ms < 0 or auxiliary_reveal_ms < 0:
            raise ValidationError("reveal times must be >= 0")
        generator = coerce_rng(rng, seed)
        weight = self.sample_content_weight(worker, rng=generator)
        blended = weight * main_reveal_ms + (1.0 - weight) * auxiliary_reveal_ms
        noise_scale = self.perception_noise_ms * (1.5 - worker.attention)
        return float(max(0.0, blended + generator.normal(0.0, noise_scale)))

    def choose_faster(
        self,
        left_times: Dict[str, float],
        right_times: Dict[str, float],
        worker: WorkerProfile,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
        same_threshold_ms: float = 550.0,
    ) -> str:
        """Answer "which version seems ready to use first?".

        ``left_times``/``right_times`` carry 'main' and 'auxiliary' reveal
        milliseconds for each side. Spammers answer stimulus-blind.
        """
        generator = coerce_rng(rng, seed)
        if worker.is_random_clicker:
            return ThurstoneChoiceModel._spam_answer(worker, generator)
        left = self.perceived_ready_ms(
            left_times["main"], left_times["auxiliary"], worker, rng=generator
        )
        right = self.perceived_ready_ms(
            right_times["main"], right_times["auxiliary"], worker, rng=generator
        )
        threshold = same_threshold_ms * (1.0 + 2.0 * worker.same_bias)
        if abs(left - right) < threshold:
            return ANSWER_SAME
        return ANSWER_LEFT if left < right else ANSWER_RIGHT
