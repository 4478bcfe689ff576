"""Tests for the psychometric judgment models."""

import numpy as np
import pytest

from repro.crowd.judgment import (
    ANSWER_LEFT,
    ANSWER_RIGHT,
    ANSWER_SAME,
    FontReadabilityModel,
    ThurstoneChoiceModel,
    UPLTPerceptionModel,
    judge_contrast_pair,
    judge_identical_pair,
)
from repro.errors import ValidationError

from tests.conftest import make_worker


class TestThurstoneChoice:
    def test_noiseless_worker_deterministic(self, rng):
        model = ThurstoneChoiceModel(same_threshold=0.1)
        worker = make_worker(judgment_sigma=0.0, same_bias=0.0)
        assert model.choose(1.0, 0.0, worker, rng=rng) == ANSWER_LEFT
        assert model.choose(0.0, 1.0, worker, rng=rng) == ANSWER_RIGHT
        assert model.choose(0.5, 0.5, worker, rng=rng) == ANSWER_SAME

    def test_same_band_scales_with_bias(self, rng):
        model = ThurstoneChoiceModel(same_threshold=0.1)
        lazy = make_worker(judgment_sigma=0.0, same_bias=1.0)
        # |diff| = 0.25 < 0.1 * 3 -> Same for the heavy same-bias worker.
        assert model.choose(0.25, 0.0, lazy, rng=rng) == ANSWER_SAME

    def test_large_gap_mostly_correct(self, rng):
        model = ThurstoneChoiceModel()
        worker = make_worker(judgment_sigma=0.15)
        wins = sum(
            model.choose(1.0, 0.2, worker, rng=rng) == ANSWER_LEFT for _ in range(200)
        )
        assert wins > 180

    def test_spammer_ignores_stimuli(self, rng, spammer_worker):
        model = ThurstoneChoiceModel()
        answers = [model.choose(5.0, 0.0, spammer_worker, rng=rng) for _ in range(300)]
        # A spammer with a Left habit still answers Right/Same often.
        assert answers.count(ANSWER_RIGHT) > 30
        assert answers.count(ANSWER_SAME) > 30

    def test_sequential_mode_noisier(self):
        model = ThurstoneChoiceModel()
        worker = make_worker(judgment_sigma=0.3)
        gap = 0.3

        def accuracy(side_by_side):
            rng = np.random.default_rng(11)
            answers = [
                model.choose(gap, 0.0, worker, rng=rng, side_by_side=side_by_side)
                for _ in range(500)
            ]
            return answers.count(ANSWER_LEFT)

        assert accuracy(True) > accuracy(False)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValidationError):
            ThurstoneChoiceModel(same_threshold=-0.1)


class TestControlPairJudgment:
    def test_attentive_worker_says_same_on_identical(self, rng):
        worker = make_worker(attention=1.0)
        answers = [judge_identical_pair(worker, rng=rng) for _ in range(200)]
        assert answers.count(ANSWER_SAME) > 190

    def test_attentive_worker_passes_contrast(self, rng):
        worker = make_worker(attention=1.0)
        answers = [judge_contrast_pair(worker, ANSWER_RIGHT, rng=rng) for _ in range(200)]
        assert answers.count(ANSWER_RIGHT) > 190

    def test_spammer_fails_controls_often(self, rng, spammer_worker):
        same_answers = [judge_identical_pair(spammer_worker, rng=rng) for _ in range(300)]
        assert same_answers.count(ANSWER_SAME) < 200

    def test_contrast_expected_validated(self, rng):
        with pytest.raises(ValidationError):
            judge_contrast_pair(make_worker(), ANSWER_SAME, rng=rng)


class TestFontReadability:
    def test_peak_between_12_and_14(self):
        model = FontReadabilityModel()
        utilities = {s: model.utility(s) for s in (8, 10, 12, 14, 18, 22, 28)}
        best = max(utilities, key=utilities.get)
        assert best in (12, 14)

    def test_paper_ordering(self):
        model = FontReadabilityModel()
        u = model.utilities((10, 12, 14, 18, 22))
        assert u[12] > u[14] > u[10] > u[18] > u[22]

    def test_small_sizes_penalized_harder(self):
        model = FontReadabilityModel(peak_pt=12.0, small_penalty=2.0)
        # Same log distance above and below the peak.
        assert model.utility(12 / 1.3) < model.utility(12 * 1.3)

    def test_bounds(self):
        model = FontReadabilityModel()
        for size in (6, 10, 14, 30):
            assert 0 < model.utility(size) <= 1

    def test_invalid_size_rejected(self):
        with pytest.raises(ValidationError):
            FontReadabilityModel().utility(0)

    def test_invalid_model_rejected(self):
        with pytest.raises(ValidationError):
            FontReadabilityModel(peak_pt=-1)


class TestUPLTPerception:
    def test_content_weight_in_bounds(self, rng):
        model = UPLTPerceptionModel()
        worker = make_worker()
        for _ in range(100):
            assert 0.0 <= model.sample_content_weight(worker, rng=rng) <= 1.0

    def test_main_content_dominates(self, rng):
        model = UPLTPerceptionModel()
        worker = make_worker()
        # A: main late; B: main early. Both share ATF. B should win clearly.
        counts = {"left": 0, "right": 0, "same": 0}
        for _ in range(300):
            answer = model.choose_faster(
                {"main": 4000, "auxiliary": 2000},
                {"main": 2000, "auxiliary": 4000},
                worker,
                rng=rng,
            )
            counts[answer] += 1
        assert counts["right"] > counts["left"] * 2

    def test_identical_times_mostly_same(self, rng):
        model = UPLTPerceptionModel()
        worker = make_worker(attention=1.0)
        answers = [
            model.choose_faster(
                {"main": 2000, "auxiliary": 2000},
                {"main": 2000, "auxiliary": 2000},
                worker,
                rng=rng,
            )
            for _ in range(200)
        ]
        assert answers.count(ANSWER_SAME) > 100

    def test_negative_times_rejected(self, rng):
        with pytest.raises(ValidationError):
            UPLTPerceptionModel().perceived_ready_ms(-1, 0, make_worker(), rng=rng)

    def test_spammer_stimulus_blind(self, rng, spammer_worker):
        model = UPLTPerceptionModel()
        answers = [
            model.choose_faster(
                {"main": 100, "auxiliary": 100},
                {"main": 9000, "auxiliary": 9000},
                spammer_worker,
                rng=rng,
            )
            for _ in range(300)
        ]
        assert answers.count(ANSWER_RIGHT) > 30  # picks the slow side often
