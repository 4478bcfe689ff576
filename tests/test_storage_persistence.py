"""Tests for document-store persistence (server-restart durability)."""

import pytest

from repro.errors import DuplicateKeyError
from repro.storage.documentstore import DocumentStore


def seeded_store():
    store = DocumentStore()
    tests = store.collection("tests")
    tests.create_index("test_id", unique=True)
    tests.insert_one({"test_id": "t1", "status": "posted"})
    responses = store.collection("responses")
    responses.create_index("test_id")
    responses.insert_many(
        [
            {"test_id": "t1", "worker_id": f"w{i}", "answers": [{"a": i}]}
            for i in range(5)
        ]
    )
    return store


class TestDumpLoad:
    def test_round_trip_preserves_documents(self):
        original = seeded_store()
        restored = DocumentStore.load(original.dump())
        assert restored.collection_names() == original.collection_names()
        assert restored.collection("responses").count() == 5
        assert (
            restored.collection("tests").find_one({"test_id": "t1"})["status"]
            == "posted"
        )

    def test_indexes_restored(self):
        restored = DocumentStore.load(seeded_store().dump())
        with pytest.raises(DuplicateKeyError):
            restored.collection("tests").insert_one({"test_id": "t1"})

    def test_id_counter_continues(self):
        restored = DocumentStore.load(seeded_store().dump())
        new_id = restored.collection("responses").insert_one({"test_id": "t2", "worker_id": "x"})
        existing = {d["_id"] for d in restored.collection("responses").find()}
        assert len(existing) == 6  # no collision

    def test_id_counter_counts_digit_string_ids(self):
        # Snapshots that passed through JSON object keys (or an external
        # system) carry string ids; the restored counter must not hand out
        # an id that collides logically with "41".
        snapshot = {
            "responses": {
                "documents": [
                    {"_id": "41", "worker_id": "w1"},
                    {"_id": "not-a-number", "worker_id": "w2"},
                    {"_id": 7, "worker_id": "w3"},
                ],
                "indexes": [],
            }
        }
        restored = DocumentStore.load(snapshot)
        new_id = restored.collection("responses").insert_one({"worker_id": "w4"})
        assert new_id == 42

    def test_dump_is_a_snapshot_not_a_view(self):
        store = seeded_store()
        snapshot = store.dump()
        store.collection("responses").delete_many({})
        assert len(snapshot["responses"]["documents"]) == 5

    def test_empty_store(self):
        restored = DocumentStore.load(DocumentStore().dump())
        assert restored.collection_names() == []


class TestServerRestartScenario:
    def test_results_survive_restart(self):
        """Responses collected before a 'restart' are analyzable after."""
        from repro.core.campaign import Campaign
        from repro.core.config import CampaignConfig
        from repro.core.extension import make_utility_judge
        from repro.core.parameters import Question, TestParameters, WebpageSpec
        from repro.core.server import CoreServer
        from repro.crowd.judgment import ThurstoneChoiceModel
        from repro.crowd.workers import IN_LAB_MIX, generate_population
        from repro.html.parser import parse_html
        from repro.storage.filestore import FileStore

        campaign = Campaign(config=CampaignConfig(seed=71))
        params = TestParameters(
            test_id="durable",
            test_description="restart test",
            participant_num=4,
            question=[Question("q1", "Which?")],
            webpages=[
                WebpageSpec(web_path="a", web_page_load=500),
                WebpageSpec(web_path="b", web_page_load=500),
            ],
        )
        documents = {
            p: parse_html(f"<html><body><p>{p}</p></body></html>") for p in ("a", "b")
        }
        campaign.prepare(params, documents)
        judge = make_utility_judge(
            {"a": 0.0, "b": 0.6, "__contrast__": -9.0}, ThurstoneChoiceModel()
        )
        workers = generate_population(4, IN_LAB_MIX, seed=1, id_prefix="dur")
        campaign.run_with_workers(workers, judge)

        # "Restart": a brand-new server process over the restored database.
        snapshot = campaign.database.dump()
        revived = CoreServer(DocumentStore.load(snapshot), FileStore())
        results = revived.stored_results("durable")
        assert len(results) == 4
        assert all(r.answers for r in results)
