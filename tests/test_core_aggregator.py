"""Tests for the aggregator (test-data preparation)."""

import pytest

from repro.core.aggregator import (
    Aggregator,
    INTEGRATED_COLLECTION,
    RESPONSES_COLLECTION,
    TESTS_COLLECTION,
    version_id_from_path,
)
from repro.core.loadscript import extract_schedule
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.errors import AggregationError
from repro.html.parser import parse_html
from repro.net.fetch import StaticResourceMap
from repro.storage.documentstore import DocumentStore
from repro.storage.filestore import FileStore


def make_page(label):
    return parse_html(
        f"<html><head><title>{label}</title></head>"
        f"<body><div id='main'><p>{label} body text</p></div></body></html>"
    )


def make_params(paths=("a", "b"), load=3000):
    return TestParameters(
        test_id="agg-test",
        test_description="aggregator test",
        participant_num=10,
        question=[Question("q1", "Which is better?")],
        webpages=[WebpageSpec(web_path=p, web_page_load=load) for p in paths],
    )


@pytest.fixture
def infra():
    return DocumentStore(), FileStore()


def prepare(infra, paths=("a", "b"), **kwargs):
    database, storage = infra
    aggregator = Aggregator(database, storage)
    documents = {p: make_page(p) for p in paths}
    return aggregator, aggregator.prepare(make_params(paths), documents, **kwargs)


class TestVersionIds:
    def test_from_path(self):
        assert version_id_from_path("font-10pt") == "font-10pt"
        assert version_id_from_path("/pages/v1/") == "pages-v1"
        assert version_id_from_path("") == "version"


class TestPreparation:
    def test_pair_count(self, infra):
        _, prepared = prepare(infra, paths=("a", "b", "c"))
        assert len(prepared.comparison_pairs()) == 3  # C(3,2)

    def test_control_pairs_generated(self, infra):
        _, prepared = prepare(infra)
        controls = prepared.control_pairs()
        kinds = {c.control_kind for c in controls}
        assert kinds == {"identical", "contrast"}

    def test_identical_control_expectation(self, infra):
        _, prepared = prepare(infra)
        identical = [c for c in prepared.control_pairs() if c.control_kind == "identical"][0]
        assert identical.left_version == identical.right_version
        assert identical.expected_answer == "same"

    def test_contrast_control_is_4pt(self, infra):
        _, prepared = prepare(infra)
        contrast_page = prepared.webpage("__contrast__")
        p = contrast_page.document.root.get_elements_by_tag("p")[0]
        assert p.style_declarations()["font-size"] == "4pt"

    def test_load_script_injected_per_version(self, infra):
        _, prepared = prepare(infra)
        for version_id in ("a", "b"):
            schedule = extract_schedule(prepared.webpage(version_id).document)
            assert schedule is not None
            assert schedule.duration_ms == 3000

    def test_originals_not_mutated(self, infra):
        database, storage = infra
        aggregator = Aggregator(database, storage)
        documents = {p: make_page(p) for p in ("a", "b")}
        aggregator.prepare(make_params(), documents)
        # The caller's documents must not have gained the injected script.
        assert extract_schedule(documents["a"]) is None

    def test_double_prepare_rejected(self, infra):
        database, storage = infra
        aggregator = Aggregator(database, storage)
        documents = {p: make_page(p) for p in ("a", "b")}
        aggregator.prepare(make_params(), documents)
        with pytest.raises(AggregationError):
            aggregator.prepare(make_params(), documents)

    def test_missing_document_rejected(self, infra):
        database, storage = infra
        aggregator = Aggregator(database, storage)
        with pytest.raises(AggregationError):
            aggregator.prepare(make_params(), {"a": make_page("a")})

    def test_bad_contrast_selector_rejected(self, infra):
        database, storage = infra
        aggregator = Aggregator(database, storage)
        documents = {p: make_page(p) for p in ("a", "b")}
        with pytest.raises(AggregationError):
            aggregator.prepare(
                make_params(), documents, main_text_selector=".does-not-exist"
            )


class TestInlining:
    def test_external_resources_inlined_via_fetcher(self, infra):
        database, storage = infra
        aggregator = Aggregator(database, storage)
        page = parse_html(
            "<html><head><link rel='stylesheet' href='s.css'></head>"
            "<body><p>text</p></body></html>"
        )
        resources = StaticResourceMap(
            {
                "http://test.local/a/s.css": "p { color: red }",
                "http://test.local/b/s.css": "p { color: red }",
            }
        )
        documents = {"a": page.clone(), "b": page.clone()}
        prepared = aggregator.prepare(make_params(), documents, fetcher=resources)
        stored = prepared.webpage("a").document
        assert not stored.root.find_all(
            lambda e: e.tag == "link" and "stylesheet" in (e.get("rel") or "")
        )
        assert prepared.webpage("a").inline_report.inlined_stylesheets == 1

    def test_non_self_contained_without_fetcher_rejected(self, infra):
        database, storage = infra
        aggregator = Aggregator(database, storage)
        page = parse_html("<html><body><img src='x.png'><p>t</p></body></html>")
        with pytest.raises(AggregationError):
            aggregator.prepare(make_params(), {"a": page.clone(), "b": page.clone()})


class TestStorageLayout:
    def test_files_under_test_id(self, infra):
        database, storage = infra
        prepare((database, storage))
        paths = [p for p, _ in storage.iter_items() if p.startswith("agg-test/")]
        assert any("versions/a.html" in p for p in paths)
        assert any("integrated/" in p for p in paths)

    def test_integrated_page_references_version_files(self, infra):
        database, storage = infra
        _, prepared = prepare((database, storage))
        pair = prepared.comparison_pairs()[0]
        html = storage.read(pair.storage_path)
        assert f"/{prepared.webpage(pair.left_version).storage_path}" in html

    def test_database_records(self, infra):
        database, storage = infra
        _, prepared = prepare((database, storage))
        test_record = database.collection(TESTS_COLLECTION).find_one(
            {"test_id": "agg-test"}
        )
        assert test_record["status"] == "prepared"
        assert test_record["version_ids"] == ["a", "b"]
        integrated = database.collection(INTEGRATED_COLLECTION).find(
            {"test_id": "agg-test"}
        )
        assert len(integrated) == len(prepared.integrated)

    def test_responses_collection_empty_initially(self, infra):
        database, storage = infra
        prepare((database, storage))
        assert database.collection(RESPONSES_COLLECTION).count() == 0


class TestReads:
    def test_integrated_pages_reconstructed(self, infra):
        database, storage = infra
        aggregator, prepared = prepare((database, storage))
        pages = aggregator.integrated_pages("agg-test")
        assert {p.integrated_id for p in pages} == {
            p.integrated_id for p in prepared.integrated
        }

    def test_unknown_version_lookup_rejected(self, infra):
        _, prepared = prepare(infra)
        with pytest.raises(AggregationError):
            prepared.webpage("nope")
