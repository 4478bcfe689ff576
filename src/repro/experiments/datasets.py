"""Synthetic test webpages standing in for the paper's two real pages.

* :func:`build_wikipedia_page` — a text-heavy encyclopedia article shaped
  like the "rock hyrax" Wikipedia page the paper uses: a navigation bar, an
  infobox image, a long main-text column under ``#mw-content-text``, and
  references. Text-heavy and structured so both the font-size edits and the
  navigation-vs-main-content replay split are meaningful.

* :func:`build_group_page_variant` — the research-group landing page of
  §IV-B: nine collapsible sections, each with an "Expand" button at the
  right end. ``variant="B"`` applies the paper's three edits: button text
  1.5x larger, a captivating symbol, and a position closer to the main text.

Both builders can also emit external resources (stylesheet, images, script)
on a :class:`~repro.net.fetch.StaticResourceMap`, so the aggregator's
SingleFile-style compression step runs against a real fetch path.
"""

from __future__ import annotations

from repro.html.dom import Document
from repro.html.parser import parse_html
from repro.net.fetch import StaticResourceMap

WIKIPEDIA_BASE_URL = "http://wiki.local/rock-hyrax"

# A 1x1 PNG payload (as raw bytes, not a real image decoder target — the
# simulated pipeline only needs sizes and data-URI round-trips).
_FAKE_PNG = bytes.fromhex(
    "89504e470d0a1a0a0000000d49484452000000010000000108020000009077"
    "3df80000000c4944415408d763f8cfc000000301010018dd8db00000000049"
    "454e44ae426082"
)

_WIKI_CSS = """
body { font-family: sans-serif; margin: 0; color: #202122; }
#navbar { background: #f8f9fa; padding: 8px; border-bottom: 1px solid #a2a9b1; }
#navbar a { margin-right: 14px; color: #3366cc; }
#infobox { float: right; width: 270px; border: 1px solid #a2a9b1; padding: 4px; }
#mw-content-text p { line-height: 1.5; }
.reference { font-size: 11px; color: #54595d; }
"""

_WIKI_SCRIPT = "window.__wiki_loaded = true;\n"

_HYRAX_PARAGRAPHS = (
    "The rock hyrax, also called dassie, is a medium-sized terrestrial "
    "mammal native to Africa and the Middle East. Commonly found at "
    "elevations up to 4200 metres above sea level, it resides in habitats "
    "with rock crevices into which it escapes from predators.",
    "Along with other hyrax species and the manatee, this species is the "
    "most closely related living relative to the elephant. Hyraxes "
    "typically live in groups of ten to eighty animals, and forage as a "
    "group. They have been reported to use sentries to warn of the "
    "approach of predators.",
    "The rock hyrax has incomplete thermoregulation and is most active in "
    "the morning and evening, although its activity pattern varies "
    "substantially with season and climate. Over most of its range the "
    "rock hyrax is not endangered, and in some areas it is considered a "
    "minor pest.",
    "Rock hyraxes are squat and heavily built, adults reaching a length of "
    "fifty centimetres and weighing around four kilograms, with a slight "
    "sexual dimorphism where males are approximately ten percent heavier "
    "than females. Their fur is thick and grey-brown, although this varies "
    "strongly between different environments.",
    "Prominent in and apparently unique to hyraxes is the dorsal gland, "
    "which excretes an odour used for social communication and territorial "
    "marking. The gland is most clearly visible in dominant males.",
    "The rock hyrax spends approximately ninety-five percent of its time "
    "resting, during which it can often be seen basking in the sun, which "
    "is sometimes attributed to its poorly developed thermoregulation.",
)

_WIKI_NAV_LINKS = ("Main page", "Contents", "Current events", "Random article", "About")

_WIKI_SECTIONS = ("Habitat", "Behaviour", "Diet", "Reproduction", "References")


def build_wikipedia_page() -> Document:
    """Parse and return the synthetic "rock hyrax" article."""
    nav = "".join(
        f'<a href="/wiki/{label.replace(" ", "_")}">{label}</a>' for label in _WIKI_NAV_LINKS
    )
    paragraphs = "".join(f"<p>{text}</p>" for text in _HYRAX_PARAGRAPHS)
    sections = "".join(
        f'<h2 class="section-heading">{title}</h2><p>{_HYRAX_PARAGRAPHS[i % len(_HYRAX_PARAGRAPHS)]}</p>'
        for i, title in enumerate(_WIKI_SECTIONS)
    )
    markup = f"""<!DOCTYPE html>
<html>
<head>
  <title>Rock hyrax - Wikipedia</title>
  <link rel="stylesheet" href="styles/common.css">
  <script src="scripts/startup.js"></script>
</head>
<body>
  <div id="navbar">{nav}</div>
  <div id="content">
    <h1 id="firstHeading">Rock hyrax</h1>
    <div id="infobox">
      <img src="images/rock_hyrax.png" width="260" height="195" alt="A rock hyrax">
      <p class="reference">A rock hyrax on Table Mountain</p>
    </div>
    <div id="mw-content-text">
      {paragraphs}
      {sections}
    </div>
  </div>
</body>
</html>"""
    return parse_html(markup)


def build_wikipedia_resources() -> StaticResourceMap:
    """The article's external resources, served at WIKIPEDIA_BASE_URL."""
    resources = StaticResourceMap()
    resources.add(f"{WIKIPEDIA_BASE_URL}/styles/common.css", _WIKI_CSS)
    resources.add(f"{WIKIPEDIA_BASE_URL}/scripts/startup.js", _WIKI_SCRIPT)
    resources.add(f"{WIKIPEDIA_BASE_URL}/images/rock_hyrax.png", _FAKE_PNG)
    return resources


# -- the research-group landing page (Experiment 2) ---------------------------

_GROUP_SECTIONS = (
    "About",
    "Selected Publications",
    "Selected Talks",
    "Press",
    "People",
    "Projects",
    "Teaching",
    "Software",
    "Contact",
)

_GROUP_BLURB = (
    "Our group studies networked systems and web performance, with recent "
    "work spanning quality of experience measurement, content delivery and "
    "internet-scale experimentation."
)


def build_group_page_variant(variant: str = "A") -> Document:
    """The §IV-B landing page; ``variant`` is "A" (original) or "B".

    The "B" edits follow the paper exactly: (1) the button text is 1.5x
    larger, (2) a captivating symbol is added, (3) the button sits closer to
    the main text (inline right after the section blurb, instead of pushed
    to the far right end of the heading row).
    """
    if variant not in ("A", "B"):
        raise ValueError(f"variant must be 'A' or 'B', got {variant!r}")
    sections = []
    for index, title in enumerate(_GROUP_SECTIONS):
        slug = title.lower().replace(" ", "-")
        button_text = "Expand" if variant == "A" else "▶ Expand"
        button_style = (
            "float: right; font-size: 11px; color: #888;"
            if variant == "A"
            else "font-size: 16.5px; color: #1a73e8; margin-left: 8px;"
        )
        button = (
            f'<button class="expand-button" id="expand-{slug}" '
            f'style="{button_style}">{button_text}</button>'
        )
        if variant == "A":
            section = f"""
  <div class="section" id="section-{slug}">
    <h2>{title}{button}</h2>
    <p class="blurb">{_GROUP_BLURB}</p>
    <div class="collapsed" hidden>Additional {title.lower()} content.</div>
  </div>"""
        else:
            section = f"""
  <div class="section" id="section-{slug}">
    <h2>{title}</h2>
    <p class="blurb">{_GROUP_BLURB}{button}</p>
    <div class="collapsed" hidden>Additional {title.lower()} content.</div>
  </div>"""
        sections.append(section)
    markup = f"""<!DOCTYPE html>
<html>
<head>
  <title>Networks Research Group</title>
  <link rel="stylesheet" href="styles/group.css">
</head>
<body>
  <div id="header"><h1>Networks Research Group</h1></div>
  <div id="main">{''.join(sections)}
  </div>
  <div id="footer"><p>Department of Computer Science</p></div>
</body>
</html>"""
    return parse_html(markup)


_GROUP_CSS = """
body { font-family: Georgia, serif; margin: 0 auto; max-width: 900px; }
#header { border-bottom: 2px solid #333; }
.section h2 { font-size: 20px; }
.blurb { line-height: 1.5; }
.expand-button { background: none; border: 1px solid #ccc; cursor: pointer; }
"""


# -- resource maps keyed by the aggregator's version folders -------------------


def wikipedia_resources_for(web_paths, base_url: str = "http://test.local") -> StaticResourceMap:
    """Wikipedia resources replicated under each version's folder.

    The aggregator resolves a version's relative references against
    ``{base_url}/{web_path}/{main_file}``, so each version folder must serve
    its own copy of the shared assets — exactly how a saved-page snapshot
    ("a static webpage saved from a browser") lays out on disk.
    """
    resources = StaticResourceMap()
    base = base_url.rstrip("/")
    for web_path in web_paths:
        folder = f"{base}/{web_path.strip('/')}"
        resources.add(f"{folder}/styles/common.css", _WIKI_CSS)
        resources.add(f"{folder}/scripts/startup.js", _WIKI_SCRIPT)
        resources.add(f"{folder}/images/rock_hyrax.png", _FAKE_PNG)
    return resources


def group_resources_for(web_paths, base_url: str = "http://test.local") -> StaticResourceMap:
    """Group-page resources replicated under each version's folder."""
    resources = StaticResourceMap()
    base = base_url.rstrip("/")
    for web_path in web_paths:
        folder = f"{base}/{web_path.strip('/')}"
        resources.add(f"{folder}/styles/group.css", _GROUP_CSS)
    return resources
