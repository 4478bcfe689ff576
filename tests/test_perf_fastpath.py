"""Tests for the campaign fast path: rule index, artifact cache, parallelism.

Three guarantees are pinned here:

* the indexed style cascade is observationally identical to the brute-force
  every-rule cascade (property-tested on randomized documents/stylesheets);
* the shared :class:`~repro.render.artifacts.PageArtifactCache` serves the
  same artifacts a fresh rebuild would, never serves stale content, and is
  safely keyed (the old ``id(element)`` computed-style cache bug);
* ``Campaign.run(..., parallelism=N)`` concludes bit-identically to the
  sequential run at every ``N`` for a fixed seed.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import Campaign
from repro.core.conclusion import conclusion_digest
from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.errors import ValidationError
from repro.html.cssom import RuleIndex, StyleResolver, parse_stylesheet
from repro.html.dom import Document, Element, Text
from repro.html.parser import parse_html
from repro.render.artifacts import PageArtifactCache, content_hash
from repro.obs.metrics import MetricsRegistry


# -- indexed cascade == brute-force cascade ---------------------------------

TAGS = ("div", "p", "span", "em", "ul", "li", "h1")
CLASSES = ("alpha", "beta", "gamma", "delta")
IDS = ("one", "two", "three", "four", "five", "six")

SELECTOR_POOL = (
    "*",
    "p",
    "div",
    "span",
    "li",
    ".alpha",
    ".beta",
    ".gamma",
    "#one",
    "#two",
    "#three",
    "p.alpha",
    "div.beta",
    "span#four",
    "div p",
    "ul > li",
    "div .alpha",
    ".alpha .beta",
    "p, span",
    "div > span.gamma",
    "p:first-child",
    "li:not(.alpha)",
)

PROPS = ("color", "font-size", "margin", "display", "padding")
VALUES = ("red", "blue", "12pt", "8px", "block", "inline", "1em")


@st.composite
def styled_documents(draw):
    """(document, stylesheet_text) with randomized structure and rules."""
    document = Document()
    body = document.ensure_body()
    used_ids = set()

    def subtree(parent, depth):
        count = draw(st.integers(0, 3))
        for _ in range(count):
            element = Element(draw(st.sampled_from(TAGS)))
            if draw(st.booleans()):
                classes = draw(
                    st.lists(st.sampled_from(CLASSES), max_size=2, unique=True)
                )
                if classes:
                    element.set("class", " ".join(classes))
            if draw(st.booleans()):
                candidate = draw(st.sampled_from(IDS))
                if candidate not in used_ids:
                    used_ids.add(candidate)
                    element.set("id", candidate)
            element.append(Text(draw(st.text(string.ascii_lowercase, max_size=8))))
            parent.append(element)
            if depth < 3:
                subtree(element, depth + 1)

    subtree(body, 0)

    rules = []
    for _ in range(draw(st.integers(0, 12))):
        selector = draw(st.sampled_from(SELECTOR_POOL))
        prop = draw(st.sampled_from(PROPS))
        value = draw(st.sampled_from(VALUES))
        important = " !important" if draw(st.booleans()) else ""
        rules.append(f"{selector} {{ {prop}: {value}{important} }}")
    return document, "\n".join(rules)


class TestIndexedCascadeEquivalence:
    @given(styled_documents())
    @settings(max_examples=60, deadline=None)
    def test_indexed_matches_brute_force(self, case):
        document, css = case
        head = document.ensure_head()
        style = Element("style")
        style.append(Text(css))
        head.append(style)

        indexed = StyleResolver(document, use_index=True)
        brute = StyleResolver(document, use_index=False)
        for element in document.iter_elements():
            assert indexed.computed_style(element) == brute.computed_style(element)

    def test_index_buckets_cover_all_rules(self):
        sheet = parse_stylesheet(
            "#a { x: 1 } .b { x: 2 } p { x: 3 } * { x: 4 } div .b { x: 5 }"
        )
        index = RuleIndex(sheet.rules)
        buckets = (
            sum(len(v) for v in index.by_id.values())
            + sum(len(v) for v in index.by_class.values())
            + sum(len(v) for v in index.by_tag.values())
            + len(index.universal)
        )
        assert buckets == 5

    def test_candidates_prune_non_matching_buckets(self):
        document = parse_html(
            "<html><head><style>"
            "#hit { color: red } #miss { color: blue } .c { color: green }"
            "</style></head><body><p id='hit'>x</p></body></html>"
        )
        resolver = StyleResolver(document)
        element = document.get_element_by_id("hit")
        candidates = [
            selector.source
            for _, selector, _ in resolver._index.candidates(element)
        ]
        assert "#hit" in candidates
        assert "#miss" not in candidates
        assert ".c" not in candidates


class TestComputedStyleCacheKeying:
    def test_recycled_element_identity_not_served_stale(self):
        """Regression: the cache was keyed on ``id(element)``; a new element
        allocated at a freed element's address inherited its style."""
        document = parse_html(
            "<html><head><style>"
            ".red { color: red } .blue { color: blue }"
            "</style></head><body></body></html>"
        )
        body = document.body
        resolver = StyleResolver(document)
        for turn in range(50):
            cls = "red" if turn % 2 == 0 else "blue"
            element = Element("p", {"class": cls})
            body.append(element)
            # With an id()-keyed cache this loop eventually sees a stale
            # entry once CPython recycles a freed element's address. A
            # detached element is in no reference cycle, so ``del`` frees
            # it at once; no garbage collection is needed.
            assert resolver.computed_style(element)["color"] == cls
            element.detach()
            del element

    def test_cache_holds_element_strongly(self):
        document = parse_html(
            "<html><head><style>p { color: red }</style></head>"
            "<body><p>x</p></body></html>"
        )
        resolver = StyleResolver(document)
        element = document.body.element_children[0]
        resolver.computed_style(element)
        assert element in resolver._cache


# -- page artifact cache -----------------------------------------------------

PAGE = (
    "<html><head><style>p { font-size: 14pt }</style></head>"
    "<body><p>hello artifact</p></body></html>"
)


class TestPageArtifactCache:
    def test_hit_on_same_bytes(self):
        cache = PageArtifactCache()
        first = cache.get_or_build("t/page.html", PAGE)
        second = cache.get_or_build("t/page.html", PAGE)
        assert second is first
        assert (cache.hits, cache.misses) == (1, 1)

    def test_changed_bytes_never_served_stale(self):
        cache = PageArtifactCache()
        cache.get_or_build("t/page.html", PAGE)
        changed = PAGE.replace("hello", "rewritten")
        rebuilt = cache.get_or_build("t/page.html", changed)
        assert rebuilt.content_hash == content_hash(changed)
        assert "rewritten" in rebuilt.document.body.text_content

    def test_explicit_invalidate(self):
        cache = PageArtifactCache()
        cache.get_or_build("t/a.html", PAGE)
        cache.get_or_build("t/b.html", PAGE)
        assert cache.invalidate("t/a.html") == 1
        assert cache.invalidate() == 1
        assert len(cache) == 0

    def test_disabled_cache_rebuilds_every_time(self):
        cache = PageArtifactCache(enabled=False)
        first = cache.get_or_build("t/page.html", PAGE)
        second = cache.get_or_build("t/page.html", PAGE)
        assert second is not first
        assert cache.hits == 0 and cache.misses == 2

    def test_layout_computed_for_body(self):
        cache = PageArtifactCache()
        artifacts = cache.get_or_build("t/page.html", PAGE)
        assert artifacts.layout is not None
        assert artifacts.page_height > 0

    def test_integrated_page_pulls_frames_once(self):
        left = "<html><body><p>left version</p></body></html>"
        right = "<html><body><p>right version</p></body></html>"
        integrated = (
            "<html><body>"
            "<iframe id='kaleidoscope-left' src='/t/versions/l.html'></iframe>"
            "<iframe id='kaleidoscope-right' src='/t/versions/r.html'></iframe>"
            "</body></html>"
        )
        fetched = []

        def fetch(path):
            fetched.append(path)
            return {"t/versions/l.html": left, "t/versions/r.html": right}[path]

        cache = PageArtifactCache()
        artifacts = cache.get_or_build("t/integrated/p0.html", integrated, fetch=fetch)
        assert set(artifacts.frames) == {"left", "right"}
        assert sorted(fetched) == ["t/versions/l.html", "t/versions/r.html"]
        # Second integrated page sharing a version: no new fetch for it.
        other = integrated.replace("p0", "p1")
        cache.get_or_build("t/integrated/p1.html", other, fetch=fetch)
        assert sorted(fetched) == [
            "t/versions/l.html",
            "t/versions/l.html",
            "t/versions/r.html",
            "t/versions/r.html",
        ]

    def test_reveal_times_deterministic_from_bytes(self):
        from repro.core.parameters import WebpageSpec

        schedule = WebpageSpec(web_path="v", web_page_load=2000).schedule()
        lookup = lambda path: schedule  # noqa: E731
        one = PageArtifactCache().get_or_build(
            "t/versions/v.html", PAGE, schedule_lookup=lookup
        )
        two = PageArtifactCache().get_or_build(
            "t/versions/v.html", PAGE, schedule_lookup=lookup
        )
        # Keys are per-parse element identities; the reveal schedule itself
        # must be a pure function of the page bytes.
        assert sorted(one.reveal_times.values()) == sorted(two.reveal_times.values())
        assert max(one.reveal_times.values()) <= 2000


# -- perf registry -----------------------------------------------------------

class TestPerfRegistry:
    def test_counters_accumulate(self):
        perf = MetricsRegistry()
        perf.add("x", 2)
        perf.add("x")
        assert perf.counter("x") == 3

    def test_timers_record_calls_and_seconds(self):
        perf = MetricsRegistry()
        with perf.timed("t"):
            pass
        with perf.timed("t"):
            pass
        assert perf.snapshot()["timers"]["t"]["calls"] == 2
        assert perf.snapshot()["timers"]["t"]["seconds"] >= 0.0

    def test_snapshot_shape(self):
        perf = MetricsRegistry()
        perf.add("c", 5)
        with perf.timed("t"):
            pass
        snap = perf.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["timers"]["t"]["calls"] == 1

    def test_artifact_cache_records_cascade_counts(self):
        registry = MetricsRegistry()
        cache = PageArtifactCache(metrics=registry)
        cache.get_or_build(
            "page.html",
            "<html><head><style>p { color: red }</style></head>"
            "<body><p>x</p></body></html>",
        )
        assert registry.counter("cascade.elements") >= 1
        assert registry.counter("layout.boxes") >= 1
        assert registry.snapshot()["timers"]["layout.pass"]["calls"] == 1


# -- parallel participant simulation ----------------------------------------

def make_documents():
    return {
        p: parse_html(
            f"<html><body><div id='m'><p>{p} content text</p></div></body></html>"
        )
        for p in ("a", "b", "c")
    }


def make_params(participants=10):
    return TestParameters(
        test_id="parallel-test",
        test_description="parallel equivalence",
        participant_num=participants,
        question=[Question("q1", "Which looks better?")],
        webpages=[
            WebpageSpec(web_path=p, web_page_load=1000) for p in ("a", "b", "c")
        ],
    )


def make_judge():
    return make_utility_judge(
        {"a": 0.0, "b": 0.6, "c": 1.0, "__contrast__": -5.0},
        ThurstoneChoiceModel(),
    )


def run_campaign(parallelism, seed=7, artifact_cache=True):
    campaign = Campaign(
        config=CampaignConfig(
            seed=seed,
            parallelism=parallelism, artifact_cache=artifact_cache
        ),
    )
    campaign.prepare(make_params(), make_documents())
    return campaign, campaign.run(make_judge())


def digest(parallelism, **kwargs):
    return conclusion_digest(*run_campaign(parallelism, **kwargs))


class TestParallelEquivalence:
    def test_parallel_matches_sequential(self):
        assert digest(parallelism=1) == digest(parallelism=4)

    def test_parallelism_level_does_not_matter(self):
        assert digest(parallelism=2) == digest(parallelism=8)

    def test_analysis_identical_across_modes(self):
        _, serial = run_campaign(parallelism=1)
        _, parallel = run_campaign(parallelism=4)
        q = "q1"
        assert (
            serial.controlled_analysis.rankings[q].matrix
            == parallel.controlled_analysis.rankings[q].matrix
        )
        assert [r.worker_id for r in serial.quality_report.kept] == [
            r.worker_id for r in parallel.quality_report.kept
        ]

    def test_invalid_parallelism_rejected(self):
        campaign = Campaign(config=CampaignConfig(seed=7))
        with pytest.raises(ValidationError):
            campaign.config.replace(parallelism=0)

    def test_works_without_artifact_cache(self):
        assert digest(parallelism=1, artifact_cache=None) == digest(
            parallelism=4, artifact_cache=None
        )

    def test_run_with_workers_parallel(self):
        from repro.crowd.workers import IN_LAB_MIX, generate_population

        def digest_for(parallelism):
            campaign = Campaign(
                config=CampaignConfig(seed=11, parallelism=parallelism)
            )
            campaign.prepare(make_params(), make_documents())
            workers = generate_population(8, IN_LAB_MIX, seed=5)
            result = campaign.run_with_workers(workers, make_judge())
            return conclusion_digest(campaign, result)

        assert digest_for(1) == digest_for(3)

    def test_participants_render_pages(self):
        campaign = Campaign(config=CampaignConfig(seed=7, parallelism=2))
        campaign.prepare(make_params(), make_documents())
        campaign.run(make_judge())
        assert campaign.artifacts is not None
        # Every stored page (integrated + versions) rendered exactly once.
        assert campaign.artifacts.misses == len(campaign.artifacts)
        assert campaign.artifacts.hits > 0


# -- one metrics owner per campaign -----------------------------------------

def run_counted(participants, observe, parallelism=1, artifact_cache=True):
    """The registry of one finished campaign."""
    campaign = Campaign(
        config=CampaignConfig(
            seed=7, observe=observe, parallelism=parallelism,
            artifact_cache=artifact_cache,
        ),
    )
    campaign.prepare(make_params(participants), make_documents())
    campaign.run(make_judge())
    return campaign.metrics


class TestOneMetricsOwner:
    """Every count lands in the registry of the campaign that did the work,
    observed or not."""

    def test_back_to_back_campaigns_keep_their_own_counts(self):
        runs = [(4, False), (6, False), (5, True), (7, True)]
        registries = [run_counted(n, observe) for n, observe in runs]
        for (participants, observe), registry in zip(runs, registries):
            assert registry.counter("server.uploads") == participants
            alone = run_counted(participants, observe)
            assert registry.counter("cascade.elements") == (
                alone.counter("cascade.elements")
            )
            assert registry.counter("cascade.elements") > 0

    def test_render_counts_cross_the_process_fanout(self):
        serial = run_counted(6, False, parallelism=1, artifact_cache=False)
        pooled = run_counted(6, False, parallelism=2, artifact_cache=False)
        for name in ("cascade.elements", "cascade.candidates_tested", "layout.boxes"):
            assert pooled.counter(name) == serial.counter(name)
            assert serial.counter(name) > 0
