"""Tests for the core server's HTTP protocol."""

import pytest

import repro.storage.documentstore
import repro.store.sharded
from repro.core.aggregator import (
    Aggregator,
    RESPONSES_COLLECTION,
    TESTS_COLLECTION,
)
from repro.core.extension import Answer, ParticipantResult
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.core.server import CoreServer
from repro.crowd.behavior import BehaviorTrace
from repro.crowd.platform import CrowdPlatform
from repro.html.parser import parse_html
from repro.net.http import IDEMPOTENCY_HEADER, Request
from repro.net.overload import AdmissionController, OverloadConfig
from repro.net.simnet import SimulatedNetwork
from repro.sim.clock import SimulationEnvironment
from repro.storage.documentstore import Collection, DocumentStore
from repro.storage.filestore import FileStore
from repro.store.sharded import ShardedDocumentStore

TRACE = BehaviorTrace(0.5, 0, 2).as_dict()


def make_stack(database):
    """Prepared test + server + network over ``database``."""
    storage = FileStore()
    aggregator = Aggregator(database, storage)
    params = TestParameters(
        test_id="srv-test",
        test_description="server test",
        participant_num=5,
        question=[Question("q1", "Which?")],
        webpages=[
            WebpageSpec(web_path="a", web_page_load=1000),
            WebpageSpec(web_path="b", web_page_load=1000),
        ],
    )
    documents = {
        p: parse_html(f"<html><body><p>{p}</p></body></html>") for p in ("a", "b")
    }
    prepared = aggregator.prepare(params, documents)
    env = SimulationEnvironment()
    platform = CrowdPlatform(env, seed=0)
    server = CoreServer(database, storage, platform=platform)
    network = SimulatedNetwork(env)
    network.attach(server.http)
    return server, network, prepared, database


@pytest.fixture
def stack():
    """Prepared test + server + network on the in-memory store."""
    return make_stack(DocumentStore())


def upload_payload(worker_id="w1", test_id="srv-test"):
    answers = [
        {
            "integrated_id": "srv-test-pair-000",
            "question_id": "q1",
            "answer": "left",
            "left_version": "a",
            "right_version": "b",
            "is_control": False,
            "behavior": TRACE,
        }
    ]
    return {
        "test_id": test_id,
        "worker_id": worker_id,
        "demographics": {"gender": "female", "age_range": "25-34", "country": "US", "tech_ability": 4},
        "answers": answers,
        "total_minutes": 0.5,
        "revisits": 0,
    }


class TestGetTest:
    def test_returns_test_info_with_integrated_list(self, stack):
        server, network, prepared, _ = stack
        response = network.get(server.url("/tests/srv-test"))
        assert response.ok
        payload = response.json()
        assert payload["test_id"] == "srv-test"
        assert len(payload["integrated"]) == len(prepared.integrated)
        assert payload["parameters"]["participant_num"] == 5

    def test_unknown_test_404(self, stack):
        server, network, _, _ = stack
        assert network.get(server.url("/tests/ghost")).status == 404


class TestGetResource:
    def test_serves_integrated_page(self, stack):
        server, network, prepared, _ = stack
        path = prepared.comparison_pairs()[0].storage_path
        response = network.get(server.url(f"/resources/{path}"))
        assert response.ok
        assert response.content_type == "text/html"
        assert "iframe" in response.text

    def test_serves_version_file(self, stack):
        server, network, prepared, _ = stack
        path = prepared.webpage("a").storage_path
        assert network.get(server.url(f"/resources/{path}")).ok

    def test_missing_resource_404(self, stack):
        server, network, _, _ = stack
        assert network.get(server.url("/resources/none/here.html")).status == 404


class TestPostResponse:
    def test_stores_upload(self, stack):
        server, network, _, database = stack
        response = network.post_json(server.url("/responses"), upload_payload())
        assert response.status == 201
        assert database.collection(RESPONSES_COLLECTION).count({"test_id": "srv-test"}) == 1

    def test_duplicate_submission_409(self, stack):
        server, network, _, _ = stack
        network.post_json(server.url("/responses"), upload_payload())
        response = network.post_json(server.url("/responses"), upload_payload())
        assert response.status == 409

    def test_unknown_test_rejected(self, stack):
        server, network, _, _ = stack
        response = network.post_json(
            server.url("/responses"), upload_payload(test_id="ghost")
        )
        assert response.status == 400

    def test_malformed_payload_rejected(self, stack):
        server, network, _, _ = stack
        response = network.post_json(server.url("/responses"), {"nope": 1})
        assert response.status == 400

    def test_stored_results_reconstruct(self, stack):
        server, network, _, _ = stack
        network.post_json(server.url("/responses"), upload_payload())
        results = server.stored_results("srv-test")
        assert len(results) == 1
        assert isinstance(results[0], ParticipantResult)
        assert results[0].answers[0].answer == "left"
        assert server.response_count("srv-test") == 1

    def test_unparseable_body_500(self, stack):
        server, network, _, database = stack
        request = Request(
            "POST",
            server.url("/responses"),
            headers={"content-type": "application/json"},
            body=b"{not json",
        )
        response, _ = network.exchange(request)
        assert response.status == 500
        assert database.collection(RESPONSES_COLLECTION).count({}) == 0

    def test_stored_results_empty_test(self, stack):
        server, _, _, _ = stack
        assert server.stored_results("srv-test") == []
        assert server.response_count("srv-test") == 0
        assert server.uploaded_worker_ids("srv-test") == []


def set_behavior(key, value):
    def mutate(payload):
        payload["answers"][0]["behavior"] = {**TRACE, key: value}

    return mutate


def set_answer(key, value):
    def mutate(payload):
        payload["answers"][0][key] = value

    return mutate


def set_result(key, value):
    def mutate(payload):
        payload[key] = value

    return mutate


class TestMalformedBehaviourRejected:
    """Behaviour that no extension can record is a malformed upload: a NaN
    duration would slip through every engagement threshold, since each
    comparison against NaN is false, and a value of the wrong JSON type is
    rejected rather than converted (``bool("false")`` is true)."""

    @pytest.mark.parametrize(
        "mutate",
        [
            set_behavior("duration_minutes", float("nan")),
            set_behavior("duration_minutes", float("inf")),
            set_behavior("duration_minutes", -0.5),
            set_behavior("created_tabs", -1),
            set_behavior("active_tab_switches", -2),
            set_answer("is_control", "false"),
            set_answer("is_control", 0),
            set_answer("is_control", None),
            set_result("total_minutes", float("nan")),
            set_result("total_minutes", float("-inf")),
            set_result("total_minutes", -1.0),
            set_result("revisits", -1),
            set_result("abandoned", "false"),
            set_result("abandoned", 1),
            set_result("abandon_reason", 3),
            set_behavior("created_tabs", 2.7),
            set_behavior("created_tabs", True),
            set_behavior("active_tab_switches", "3"),
            set_result("revisits", True),
            set_result("revisits", 1.0),
            set_behavior("duration_minutes", "0.5"),
            set_behavior("duration_minutes", True),
            set_behavior("duration_minutes", None),
            set_result("total_minutes", "0.5"),
            set_result("total_minutes", True),
            set_result("total_minutes", None),
            set_result("total_minutes", 10**400),
            set_answer("answer", ["left"]),
            set_answer("answer", 1),
            set_answer("integrated_id", 7),
            set_answer("question_id", None),
            set_answer("left_version", ["a"]),
            set_answer("right_version", 1.5),
        ],
        ids=[
            "duration-nan",
            "duration-inf",
            "duration-negative",
            "created-tabs-negative",
            "switches-negative",
            "is-control-string",
            "is-control-int",
            "is-control-null",
            "total-minutes-nan",
            "total-minutes-minus-inf",
            "total-minutes-negative",
            "revisits-negative",
            "abandoned-string",
            "abandoned-int",
            "abandon-reason-int",
            "created-tabs-float",
            "created-tabs-bool",
            "switches-string",
            "revisits-bool",
            "revisits-float",
            "duration-string",
            "duration-bool",
            "duration-null",
            "total-minutes-string",
            "total-minutes-bool",
            "total-minutes-null",
            "total-minutes-beyond-float",
            "answer-list",
            "answer-int",
            "integrated-id-int",
            "question-id-null",
            "left-version-list",
            "right-version-float",
        ],
    )
    def test_rejected_with_400_and_not_stored(self, stack, mutate):
        server, network, _, database = stack
        payload = upload_payload()
        mutate(payload)
        response = network.post_json(server.url("/responses"), payload)
        assert response.status == 400
        assert response.json()["detail"].startswith("malformed response upload")
        assert database.collection(RESPONSES_COLLECTION).count({}) == 0
        assert server.metrics.counter("server.uploads") == 0

    @pytest.mark.parametrize(
        "mutate",
        [
            set_behavior("duration_minutes", 0.0),
            set_behavior("created_tabs", 0),
            set_answer("is_control", True),
            set_result("total_minutes", 0.0),
            set_result("abandoned", False),
            set_result("revisits", 2),
            set_behavior("duration_minutes", 1),
            set_result("total_minutes", 3),
        ],
        ids=[
            "duration-zero", "no-tabs", "control", "no-minutes",
            "not-abandoned", "revisits", "duration-int", "minutes-int",
        ],
    )
    def test_boundary_values_still_stored(self, stack, mutate):
        server, network, _, database = stack
        payload = upload_payload()
        mutate(payload)
        assert network.post_json(server.url("/responses"), payload).status == 201
        assert database.collection(RESPONSES_COLLECTION).count({}) == 1


class TestIdempotency:
    def post(self, server, network, token, worker_id="w1"):
        request = Request.post_json(
            server.url("/responses"),
            upload_payload(worker_id=worker_id),
            **{IDEMPOTENCY_HEADER: token},
        )
        return network.exchange(request)[0]

    def test_replay_deduplicated(self, stack):
        server, network, _, database = stack
        first = self.post(server, network, "w1:1")
        assert first.status == 201
        replay = self.post(server, network, "w1:1")
        # The retried upload whose ack was lost: acknowledged again, stored once.
        assert replay.status == 200
        assert replay.json()["deduplicated"] is True
        assert database.collection(RESPONSES_COLLECTION).count({"test_id": "srv-test"}) == 1

    def test_different_token_same_worker_still_conflicts(self, stack):
        server, network, _, _ = stack
        assert self.post(server, network, "w1:1").status == 201
        # A genuinely new submission from the same worker is a duplicate.
        assert self.post(server, network, "w1:2").status == 409

    def test_token_not_leaked_into_results(self, stack):
        server, network, _, _ = stack
        self.post(server, network, "w1:1")
        result = server.stored_results("srv-test")[0]
        assert not hasattr(result, "idempotency_key")
        assert result.worker_id == "w1"

    def test_uploaded_worker_ids_checkpoint(self, stack):
        server, network, _, _ = stack
        self.post(server, network, "w1:1", worker_id="w1")
        self.post(server, network, "w2:1", worker_id="w2")
        assert sorted(server.uploaded_worker_ids("srv-test")) == ["w1", "w2"]


class TestUploadDedupeCost:
    """Each upload's retry and duplicate checks are index lookups: the
    documents they examine stay flat as the responses table grows."""

    @staticmethod
    def upload(server, worker_id, token):
        request = Request.post_json(
            server.url("/responses"),
            upload_payload(worker_id=worker_id),
            **{IDEMPOTENCY_HEADER: token},
        )
        return server.http.handle(request)

    @pytest.mark.parametrize("uploads", [100, 1000])
    def test_docs_examined_per_upload_is_flat(self, stack, monkeypatch, uploads):
        server = stack[0]
        examined = []
        original = repro.storage.documentstore.match_document

        def counting(document, query):
            examined.append(1)
            return original(document, query)

        monkeypatch.setattr(repro.storage.documentstore, "match_document", counting)
        for i in range(uploads):
            assert self.upload(server, f"w{i}", f"w{i}:1").status == 201
        assert len(examined) / uploads <= 4
        # A retry of a stored upload dedupes on its token; a new token from
        # a worker who already uploaded is a duplicate. Both stay O(1).
        examined.clear()
        replay = self.upload(server, "w0", "w0:1")
        assert replay.status == 200 and replay.json()["deduplicated"] is True
        assert len(examined) <= 4
        examined.clear()
        assert self.upload(server, "w1", "w1:2").status == 409
        assert len(examined) <= 4
        assert server.response_count("srv-test") == uploads


class TestUploadTestRecordReads:
    """The existence check is an index count; only the quality screen reads
    the test record, through the uncopied ``scan``."""

    @staticmethod
    def count_test_reads(monkeypatch):
        reads = []
        for method in ("find_one", "scan"):
            original = getattr(Collection, method)

            def counting(self, query=None, method=method, original=original):
                if self.name == TESTS_COLLECTION:
                    reads.append((method, query))
                return original(self, query)

            monkeypatch.setattr(Collection, method, counting)
        return reads

    def test_unscreened_upload_never_reads_the_test_record(self, stack, monkeypatch):
        server, network, _, _ = stack
        reads = self.count_test_reads(monkeypatch)
        for worker in ("w1", "w2", "w3"):
            response = network.post_json(
                server.url("/responses"), upload_payload(worker_id=worker)
            )
            assert response.status == 201
        assert reads == []

    def test_screened_upload_reads_the_test_record_once(self, stack, monkeypatch):
        server, network, _, _ = stack
        server.http.admission = AdmissionController(OverloadConfig())
        reads = self.count_test_reads(monkeypatch)
        response = network.post_json(server.url("/responses"), upload_payload())
        assert response.status == 201
        assert reads == [("scan", {"test_id": "srv-test"})]

    @pytest.mark.parametrize("store", ["memory", "sharded"])
    def test_screen_neither_copies_nor_changes_the_record(self, store, monkeypatch):
        if store == "memory":
            database = DocumentStore()
        else:
            database = ShardedDocumentStore(shards=2, spill=(RESPONSES_COLLECTION,))
        server, network, _, _ = make_stack(database)
        server.http.admission = AdmissionController(OverloadConfig())
        stored = next(database.collection(TESTS_COLLECTION).scan({"test_id": "srv-test"}))

        def everything_but_responses():
            dump = database.dump()
            dump.pop(RESPONSES_COLLECTION, None)
            return dump

        before = everything_but_responses()
        copied = []
        for module in (repro.storage.documentstore, repro.store.sharded):
            real = module.deep_copy_json
            monkeypatch.setattr(
                module,
                "deep_copy_json",
                lambda value, real=real: copied.append(value) or real(value),
            )
        response = network.post_json(server.url("/responses"), upload_payload())
        assert response.status == 201
        assert server.metrics.counter("server.qc_checks") == 1
        assert not any(value is stored for value in copied)
        assert server.response_count("srv-test") == 1
        assert everything_but_responses() == before

    def test_screen_still_rejects_an_undeclared_question(self, stack):
        server, network, _, _ = stack
        server.http.admission = AdmissionController(OverloadConfig())
        payload = upload_payload()
        payload["answers"][0]["question_id"] = "q9"
        response = network.post_json(server.url("/responses"), payload)
        assert response.status == 400
        assert response.json()["detail"] == "quality screen: unknown question 'q9'"
        assert server.response_count("srv-test") == 0


class FoldRecorder:
    """A streaming state stand-in that records every folded upload."""

    def __init__(self, test_id):
        self.test_id = test_id
        self.folded = []

    def ingest(self, result):
        self.folded.append(result.worker_id)


class TestUnknownTestRejection:
    """An upload for a test nobody registered is a 400 before any screen,
    store write or streaming fold, on either store."""

    @pytest.fixture(params=["memory", "sharded"])
    def database(self, request):
        if request.param == "memory":
            return DocumentStore()
        return ShardedDocumentStore(shards=2, spill=(RESPONSES_COLLECTION,))

    @pytest.mark.parametrize("screened", [False, True])
    def test_unknown_test_is_rejected_and_nothing_lands(self, database, screened):
        server, network, _, _ = make_stack(database)
        if screened:
            server.http.admission = AdmissionController(OverloadConfig())
        recorder = FoldRecorder("ghost")
        server.attach_streaming(recorder)
        request = Request.post_json(
            server.url("/responses"),
            upload_payload(test_id="ghost"),
            **{IDEMPOTENCY_HEADER: "w1:1"},
        )
        response = network.exchange(request)[0]
        assert response.status == 400
        assert response.json()["detail"] == "unknown test 'ghost'"
        responses = database.collection(RESPONSES_COLLECTION)
        assert responses.count({}) == 0
        assert recorder.folded == []
        assert server.response_count("ghost") == 0


class TestQueryInjectionRejected:
    """A request field is a value, never a query: an upload whose
    ``test_id`` or ``worker_id`` is an operator document is a 400 on either
    store, and nothing lands."""

    @pytest.fixture(params=["memory", "sharded-spill"])
    def database(self, request):
        if request.param == "memory":
            return DocumentStore()
        return ShardedDocumentStore(shards=2, spill=(RESPONSES_COLLECTION,))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("test_id", {"$ne": None}),
            ("test_id", {"$regex": "srv"}),
            ("worker_id", {"$ne": "x"}),
            ("worker_id", {"$regex": "^w"}),
        ],
    )
    def test_operator_document_upload_is_rejected(self, database, field, value):
        server, network, _, _ = make_stack(database)
        assert network.post_json(server.url("/responses"), upload_payload()).status == 201
        payload = upload_payload(worker_id="w2")
        payload[field] = value
        response = network.post_json(server.url("/responses"), payload)
        assert response.status == 400
        assert response.json()["detail"].startswith("malformed response upload")
        assert database.collection(RESPONSES_COLLECTION).count({}) == 1
        assert server.response_count("srv-test") == 1

    def test_operator_document_task_leaves_the_test_unposted(self, stack):
        server, network, _, database = stack
        response = network.post_json(
            server.url("/tasks"),
            {"test_id": {"$ne": None}, "participants_needed": 1, "reward_usd": 0.1},
        )
        assert response.status == 400
        record = database.collection(TESTS_COLLECTION).find_one({"test_id": "srv-test"})
        assert record["status"] == "prepared" and "job_id" not in record
        assert server.platform.jobs == {}


class TestGetResults:
    def test_empty_results(self, stack):
        server, network, _, _ = stack
        payload = network.get(server.url("/results/srv-test")).json()
        assert payload["participants"] == 0

    def test_tallies_computed(self, stack):
        server, network, _, _ = stack
        for worker in ("w1", "w2", "w3"):
            network.post_json(server.url("/responses"), upload_payload(worker_id=worker))
        payload = network.get(server.url("/results/srv-test")).json()
        assert payload["participants"] == 3
        tally = next(
            t
            for t in payload["tallies"]
            if (t["left_version"], t["right_version"]) == ("a", "b")
        )
        assert tally["left"] == 3
        assert 0 <= tally["p_value"] <= 1

    def test_unknown_test_404(self, stack):
        server, network, _, _ = stack
        assert network.get(server.url("/results/ghost")).status == 404


class TestPostTask:
    def test_posts_to_platform(self, stack):
        server, network, _, database = stack
        response = network.post_json(
            server.url("/tasks"),
            {"test_id": "srv-test", "participants_needed": 10, "reward_usd": 0.1},
        )
        assert response.status == 201
        job_id = response.json()["job_id"]
        assert server.platform.get_job(job_id).test_id == "srv-test"
        record = database.collection("tests").find_one({"test_id": "srv-test"})
        assert record["status"] == "posted"
        assert record["job_id"] == job_id

    def test_missing_fields_rejected(self, stack):
        server, network, _, _ = stack
        response = network.post_json(server.url("/tasks"), {"test_id": "srv-test"})
        assert response.status == 400

    def test_unknown_test_rejected(self, stack):
        server, network, _, _ = stack
        response = network.post_json(
            server.url("/tasks"),
            {"test_id": "ghost", "participants_needed": 1, "reward_usd": 0.1},
        )
        assert response.status == 400

    def test_no_platform_503(self):
        database, storage = DocumentStore(), FileStore()
        server = CoreServer(database, storage, platform=None)
        network = SimulatedNetwork()
        network.attach(server.http)
        response = network.post_json(
            server.url("/tasks"),
            {"test_id": "t", "participants_needed": 1, "reward_usd": 0.1},
        )
        assert response.status == 503
