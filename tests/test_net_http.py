"""Tests for the simulated HTTP layer."""

import pytest

from repro.net.http import HttpServer, Request, Response, Router


class TestRequest:
    def test_path_and_host(self):
        request = Request.get("http://api.local/tests/t1?x=1")
        assert request.host == "api.local"
        assert request.path == "/tests/t1"

    def test_query_parsing(self):
        request = Request.get("http://h/p?a=1&b=two&flag=")
        assert request.query == {"a": "1", "b": "two", "flag": ""}

    def test_no_query(self):
        assert Request.get("http://h/p").query == {}

    def test_method_uppercased(self):
        assert Request("post", "http://h/").method == "POST"

    def test_post_json_round_trip(self):
        request = Request.post_json("http://h/x", {"k": [1, 2]})
        assert request.json() == {"k": [1, 2]}
        assert request.headers["content-type"] == "application/json"

    def test_size_accounts_for_body(self):
        small = Request.post_json("http://h/x", {})
        big = Request.post_json("http://h/x", {"data": "y" * 1000})
        assert big.size_bytes > small.size_bytes + 900

    def test_root_path_when_bare_host(self):
        assert Request.get("http://h").path == "/"


class TestResponse:
    def test_json_response(self):
        response = Response.json_response({"ok": True})
        assert response.ok
        assert response.json() == {"ok": True}

    def test_html(self):
        response = Response.html("<p>x</p>")
        assert response.content_type == "text/html"
        assert response.text == "<p>x</p>"

    def test_not_found(self):
        response = Response.not_found("thing")
        assert response.status == 404
        assert not response.ok
        assert response.reason == "Not Found"

    def test_unknown_status_reason(self):
        assert Response(status=299).reason == "Unknown"


class TestRouter:
    @pytest.fixture
    def router(self):
        router = Router()
        router.get("/tests/:test_id", lambda r: Response.json_response({"id": r.params["test_id"]}))
        router.post("/tests/:test_id/responses", lambda r: Response.json_response({}, status=201))
        router.get("/files/*path", lambda r: Response.text_response(r.params["path"]))
        router.get("/boom", lambda r: 1 / 0)
        return router

    def dispatch(self, router, method, url):
        return router.dispatch(Request(method, url))

    def test_param_capture(self, router):
        response = self.dispatch(router, "GET", "http://h/tests/abc")
        assert response.json() == {"id": "abc"}

    def test_trailing_slash_tolerated(self, router):
        assert self.dispatch(router, "GET", "http://h/tests/abc/").ok

    def test_catch_all_captures_nested_path(self, router):
        response = self.dispatch(router, "GET", "http://h/files/a/b/c.html")
        assert response.text == "a/b/c.html"

    def test_404_for_unknown_path(self, router):
        assert self.dispatch(router, "GET", "http://h/nope").status == 404

    def test_405_for_wrong_method(self, router):
        response = self.dispatch(router, "DELETE", "http://h/tests/abc")
        assert response.status == 405

    def test_handler_exception_becomes_500(self, router):
        response = self.dispatch(router, "GET", "http://h/boom")
        assert response.status == 500
        assert "ZeroDivisionError" in response.text

    def test_first_match_wins(self):
        router = Router()
        router.get("/x/:a", lambda r: Response.text_response("first"))
        router.get("/x/:b", lambda r: Response.text_response("second"))
        assert router.dispatch(Request.get("http://h/x/1")).text == "first"


class TestHttpServer:
    def test_handles_through_router(self):
        server = HttpServer("h.local")
        seen = []

        def ping(request):
            seen.append((request.method, request.path))
            return Response.text_response("pong")

        server.router.get("/ping", ping)
        response = server.handle(Request.get("http://h.local/ping"))
        assert response.text == "pong"
        assert seen == [("GET", "/ping")]

    def test_host_lowercased(self):
        assert HttpServer("API.Local").host == "api.local"
