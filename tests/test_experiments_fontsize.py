"""Tests for Experiment 1 (font size: Kaleidoscope vs in-lab)."""

import pytest

from repro.experiments.fontsize import (
    FONT_SIZES_PT,
    FontSizeExperiment,
    build_font_variants,
    build_parameters,
    version_id_for,
)
from repro.html.selectors import query_selector_all


class TestSetup:
    def test_five_variants_with_correct_sizes(self):
        documents = build_font_variants()
        assert len(documents) == 5
        for size in FONT_SIZES_PT:
            page = documents[version_id_for(size)]
            p = query_selector_all(page, "#mw-content-text p")[0]
            assert p.style_declarations()["font-size"] == f"{size}pt"

    def test_parameters_match_paper(self):
        params = build_parameters()
        assert params.webpage_num == 5
        assert params.pair_count == 10
        assert params.participant_num == 100
        assert all(w.web_page_load == 3000 for w in params.webpages)

    def test_population_utilities_peak_at_12(self):
        experiment = FontSizeExperiment(seed=0)
        utilities = experiment.utilities()
        best = max(utilities, key=utilities.get)
        assert best == version_id_for(12)


class TestSmallScaleRun:
    """Full pipeline at reduced scale (fast); the benchmark runs full scale."""

    @pytest.fixture(scope="class")
    def outcome(self):
        return FontSizeExperiment(seed=7).run(
            crowd_participants=30, inlab_participants=15
        )

    def test_modal_top_choice_agrees_across_conditions(self, outcome):
        raw, controlled, inlab = outcome.top_choice_agreement()
        assert controlled == version_id_for(12)
        assert inlab == version_id_for(12)

    def test_quality_control_moves_toward_inlab(self, outcome):
        """QC's rank-A share of 12pt should sit closer to in-lab than raw."""
        raw = outcome.raw_ranking.percentage(version_id_for(12), "A")
        controlled = outcome.controlled_ranking.percentage(version_id_for(12), "A")
        inlab = outcome.inlab_ranking.percentage(version_id_for(12), "A")
        assert abs(controlled - inlab) <= abs(raw - inlab) + 12  # noise margin

    def test_extremes_rarely_ranked_best(self, outcome):
        assert outcome.controlled_ranking.percentage(version_id_for(22), "A") < 20

    def test_behavior_maxima_ordering(self, outcome):
        """Paper: raw max 3.3min > QC 2.5 > in-lab 1.9."""
        raw_max = outcome.raw_behavior.time_on_task_minutes.maximum
        controlled_max = outcome.controlled_behavior.time_on_task_minutes.maximum
        inlab_max = outcome.inlab_behavior.time_on_task_minutes.maximum
        assert controlled_max <= raw_max
        assert inlab_max <= 2.0

    def test_cost_accounting(self, outcome):
        assert outcome.crowd_cost_usd == pytest.approx(30 * 0.11)

    def test_inlab_duration_days(self, outcome):
        assert outcome.inlab_duration_days > 1

    def test_participants_kept_subset(self, outcome):
        assert 0 < len(outcome.crowd_result.controlled_results) <= 30
