"""Quickstart: run a two-version Kaleidoscope test end to end.

Defines two versions of a small page (one with a larger call-to-action),
writes the Table-I test parameters, runs a 40-participant crowdsourced
campaign on the simulated platform, and prints the concluded result.

Run: python examples/quickstart.py
"""

from repro import (
    Campaign,
    CampaignConfig,
    Question,
    TestParameters,
    WebpageSpec,
    make_utility_judge,
)
from repro.core.reporting import format_question_tally
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.html.mutations import VariantBuilder
from repro.html.parser import parse_html

BASE_PAGE = parse_html(
    """<!DOCTYPE html>
<html><head><title>Newsletter signup</title></head>
<body>
  <div id="main">
    <h1>Stay in the loop</h1>
    <p>Get one email a month with everything new. No spam, ever.</p>
    <button id="cta" style="font-size: 12px">Subscribe</button>
  </div>
</body></html>"""
)


def main() -> None:
    # Version A is the page as-is; version B makes the button prominent.
    version_a = BASE_PAGE.clone()
    version_b = (
        VariantBuilder(BASE_PAGE)
        .scale_font("#cta", 1.5)
        .style("#cta", "color", "#1a73e8")
        .build()
    )

    parameters = TestParameters(
        test_id="quickstart-cta",
        test_description="Subscribe button: original vs prominent",
        participant_num=40,
        question=[Question("q1", "Which 'Subscribe' button is more noticeable?")],
        webpages=[
            WebpageSpec(web_path="original", web_page_load=2000),
            WebpageSpec(web_path="prominent", web_page_load=2000),
        ],
    )
    print("Table-I test parameters:")
    print(parameters.to_json())

    campaign = Campaign(config=CampaignConfig(seed=7, reward_usd=0.10))
    campaign.prepare(
        parameters,
        documents={"original": version_a, "prominent": version_b},
        main_text_selector="p",
        instructions="Look at both versions, then answer the question below.",
    )

    # The simulated crowd judges via a Thurstone pairwise-choice model; the
    # latent utilities say the prominent button is genuinely more noticeable.
    judge = make_utility_judge(
        {"original": 0.0, "prominent": 0.3, "__contrast__": -9.0},
        ThurstoneChoiceModel(),
    )
    result = campaign.run(judge)

    tally = result.controlled_analysis.tallies[("q1", "original", "prominent")]
    print(f"\nRecruited {result.participants} participants "
          f"in {result.duration_days * 24:.1f} hours for ${result.total_cost_usd:.2f}")
    print(f"Quality control kept {len(result.controlled_results)} participants "
          f"({len(result.quality_report.dropped)} dropped)")
    print("\nAfter quality control:")
    print(format_question_tally(tally, "Original", "Prominent"))


if __name__ == "__main__":
    main()
