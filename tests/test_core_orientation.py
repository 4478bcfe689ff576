"""Tests for orientation randomization (position-bias counterbalancing)."""

import pytest

from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.integrated import ORIENTATION_MIRRORED, ORIENTATION_NORMAL
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.core.quality import QualityConfig
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.crowd.workers import FIGURE_EIGHT_TRUSTWORTHY_MIX, generate_population
from repro.html.parser import parse_html
from repro.core.integrated import frame_sources

QUESTION = Question("q1", "Which is better?")


def build_campaign(seed, randomize, quality=None, store="memory"):
    campaign = Campaign(
        config=CampaignConfig(seed=seed, quality=quality, store=store)
    )
    params = TestParameters(
        test_id="orient",
        test_description="orientation",
        participant_num=60,
        question=[QUESTION],
        webpages=[
            WebpageSpec(web_path="a", web_page_load=500),
            WebpageSpec(web_path="b", web_page_load=500),
        ],
    )
    documents = {
        p: parse_html(f"<html><body><p>{p} body</p></body></html>") for p in ("a", "b")
    }
    campaign.prepare(params, documents, randomize_orientation=randomize)
    return campaign


# Quality config without majority vote: with a single comparison pair split
# across two orientation cells, the position-bias measurement must not be
# confounded by consensus filtering.
NO_MAJORITY = QualityConfig(enable_majority_vote=False)


class TestAggregatorMirroring:
    def test_both_orientations_stored(self):
        campaign = build_campaign(1, randomize=True)
        prepared = campaign.prepared
        orientations = prepared.orientations_of("a|b")
        assert {p.orientation for p in orientations} == {
            ORIENTATION_NORMAL,
            ORIENTATION_MIRRORED,
        }
        normal, mirrored = sorted(orientations, key=lambda p: p.orientation != "normal")
        assert (normal.left_version, normal.right_version) == ("a", "b")
        assert (mirrored.left_version, mirrored.right_version) == ("b", "a")

    def test_mirrored_html_swaps_iframes(self):
        campaign = build_campaign(1, randomize=True)
        prepared = campaign.prepared
        normal = prepared.comparison_pairs()[0]
        mirrored = Campaign._mirrored_of(prepared, normal)
        normal_sources = frame_sources(parse_html(campaign.storage.read(normal.storage_path)))
        mirrored_sources = frame_sources(parse_html(campaign.storage.read(mirrored.storage_path)))
        assert normal_sources == tuple(reversed(mirrored_sources))

    def test_comparison_pairs_still_normal_only(self):
        campaign = build_campaign(1, randomize=True)
        assert all(
            p.orientation == ORIENTATION_NORMAL
            for p in campaign.prepared.comparison_pairs()
        )

    def test_default_no_mirrors(self):
        campaign = build_campaign(1, randomize=False)
        assert len(campaign.prepared.orientations_of("a|b")) == 1


class TestPositionBiasCancellation:
    @staticmethod
    def left_version_counts(result):
        """How many answers saw version 'a' on the left vs the right."""
        a_left = a_right = 0
        for participant in result.raw_results:
            for answer in participant.answers_for(QUESTION.question_id):
                if answer.left_version == "a":
                    a_left += 1
                else:
                    a_right += 1
        return a_left, a_right

    def test_fixed_orientation_always_same_side(self):
        campaign = build_campaign(2, randomize=False, quality=NO_MAJORITY)
        judge = make_utility_judge(
            {"a": 0.0, "b": 0.0, "__contrast__": -9.0}, ThurstoneChoiceModel()
        )
        result = campaign.run(judge)
        a_left, a_right = self.left_version_counts(result)
        assert a_right == 0

    def test_randomized_orientation_splits_sides(self):
        campaign = build_campaign(3, randomize=True, quality=NO_MAJORITY)
        judge = make_utility_judge(
            {"a": 0.0, "b": 0.0, "__contrast__": -9.0}, ThurstoneChoiceModel()
        )
        result = campaign.run(judge)
        a_left, a_right = self.left_version_counts(result)
        assert a_left > 10
        assert a_right > 10

    def test_bias_cancels_for_equal_versions(self):
        """The mechanism, measured at scale: spammers' Left habit gives the
        version pinned to the left a systematic edge under a fixed layout;
        random orientation folds the habit symmetrically and cancels it.

        (At campaign scale with a ~12% spammer share the effect is a
        couple of answers per 60 participants — real but noise-dominated,
        which is why this measures the judgment layer directly.)
        """
        import numpy as np

        from repro.crowd.workers import PopulationMix, generate_population

        spam_heavy = PopulationMix(trustworthy=0.0, distracted=0.0, spammer=1.0)
        spammers = generate_population(400, spam_heavy, seed=9)
        model = ThurstoneChoiceModel()
        rng = np.random.default_rng(9)

        def net_preference_for_a(randomize):
            score = 0
            for index, worker in enumerate(spammers):
                a_on_left = True if not randomize else bool(index % 2)
                answer = model.choose(0.0, 0.0, worker, rng=rng)
                if answer == "same":
                    continue
                chose_left = answer == "left"
                chose_a = chose_left if a_on_left else not chose_left
                score += 1 if chose_a else -1
            return score

        fixed = net_preference_for_a(randomize=False)
        randomized = net_preference_for_a(randomize=True)
        assert fixed > 40  # the Left habit strongly favours the pinned side
        assert abs(randomized) < fixed / 3


class TestAnswerValueBoundary:
    @pytest.mark.parametrize("store", ["memory", "sharded-streaming"])
    def test_unknown_answer_value_rejected_and_not_stored(self, store):
        campaign = build_campaign(4, randomize=True, store=store)
        judge = make_utility_judge(
            {"a": 0.0, "b": 0.4, "__contrast__": -9.0}, ThurstoneChoiceModel()
        )
        workers = generate_population(5, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=4)
        campaign.run_with_workers(workers, judge)
        mirrored = next(
            page
            for page in campaign.prepared.orientations_of("a|b")
            if page.orientation == ORIENTATION_MIRRORED
        )
        row = dict(campaign.resume_state()["rows"][0])
        row["worker_id"] = "handcrafted"
        row["answers"] = [
            dict(
                answer,
                integrated_id=mirrored.integrated_id,
                left_version=mirrored.left_version,
                right_version=mirrored.right_version,
                answer="maybe",
            )
            if not answer["is_control"]
            else answer
            for answer in row["answers"]
        ]
        response = campaign.network.post_json(
            campaign.server.url("/responses"), row
        )
        assert response.status == 400
        assert "maybe" in response.text
        assert "handcrafted" not in campaign.server.uploaded_worker_ids("orient")
        assert campaign._streaming_state.ingested == 5
        result = campaign.conclude(job=None, duration_days=0.0)
        assert result.participants == 5
