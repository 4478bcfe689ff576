"""Paper experiment drivers.

One module per evaluation section: :mod:`fontsize` (§IV-A, Figures 4-5),
:mod:`expand_button` (§IV-B, Figures 7-8), :mod:`pageload` (§IV-C,
Figure 9). :mod:`datasets` builds the synthetic stand-ins for the two real
webpages the paper uses (the "rock hyrax" Wikipedia article and the
authors' research-group landing page).
"""

from repro.experiments.datasets import (
    build_group_page_variant,
    build_wikipedia_page,
    build_wikipedia_resources,
)
from repro.experiments.fontsize import FontSizeExperiment, FontSizeOutcome
from repro.experiments.expand_button import ExpandButtonExperiment, ExpandButtonOutcome
from repro.experiments.pageload import PageLoadExperiment, PageLoadOutcome

__all__ = [
    "build_group_page_variant",
    "build_wikipedia_page",
    "build_wikipedia_resources",
    "FontSizeExperiment",
    "FontSizeOutcome",
    "ExpandButtonExperiment",
    "ExpandButtonOutcome",
    "PageLoadExperiment",
    "PageLoadOutcome",
]
