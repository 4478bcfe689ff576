"""Simulated HTTP: requests, responses, routing, servers.

An in-process request/response model with enough HTTP semantics for the
core-server protocol: methods, paths with route parameters, JSON bodies,
status codes, and content types. Handlers are plain callables
``(Request) -> Response`` registered on a :class:`Router`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.util import jsonutil

STATUS_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    301: "Moved Permanently",
    302: "Found",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

# Header carrying a client-generated dedupe token: the core server treats a
# replayed request with a token it has already stored as a no-op success, so
# non-idempotent uploads can be retried after a lost response.
IDEMPOTENCY_HEADER = "x-idempotency-key"


@dataclass
class Request:
    """A simulated HTTP request.

    The URL is parsed once, at construction: :attr:`host` (lower-cased) and
    :attr:`path` (query stripped) are plain attributes that every layer of
    an exchange reads. Do not mutate ``url`` afterwards; build a new
    request instead.
    """

    method: str
    url: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    params: Dict[str, str] = field(default_factory=dict)  # route params, filled by Router

    def __post_init__(self):
        self.method = self.method.upper()
        rest = self.url.split("://", 1)[-1]
        slash = rest.find("/")
        if slash == -1:
            self.host = rest.lower()
            self.path = "/"
        else:
            self.host = rest[:slash].lower()
            self.path = rest[slash:].split("?", 1)[0]

    @property
    def query(self) -> Dict[str, str]:
        """Parsed query-string parameters."""
        if "?" not in self.url:
            return {}
        query_string = self.url.split("?", 1)[1]
        result: Dict[str, str] = {}
        for pair in query_string.split("&"):
            if not pair:
                continue
            key, _, value = pair.partition("=")
            result[key] = value
        return result

    def json(self):
        """Parse the body as JSON."""
        return jsonutil.loads(self.body.decode("utf-8"))

    @property
    def size_bytes(self) -> int:
        """Approximate wire size for transfer-time computation."""
        header_size = sum(len(k) + len(str(v)) + 4 for k, v in self.headers.items())
        return len(self.method) + len(self.url) + header_size + len(self.body) + 32

    @classmethod
    def get(cls, url: str, **headers) -> "Request":
        return cls("GET", url, headers=dict(headers))

    @classmethod
    def post_json(cls, url: str, payload, **headers) -> "Request":
        headers = dict(headers)
        headers.setdefault("content-type", "application/json")
        return cls("POST", url, headers=headers, body=jsonutil.dumps_canonical(payload).encode("utf-8"))


@dataclass
class Response:
    """A simulated HTTP response."""

    status: int = 200
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def reason(self) -> str:
        return STATUS_REASONS.get(self.status, "Unknown")

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def content_type(self) -> str:
        return self.headers.get("content-type", "application/octet-stream")

    @property
    def text(self) -> str:
        return self.body.decode("utf-8", errors="replace")

    def json(self):
        return jsonutil.loads(self.text)

    @property
    def size_bytes(self) -> int:
        header_size = sum(len(k) + len(str(v)) + 4 for k, v in self.headers.items())
        return header_size + len(self.body) + 32

    @classmethod
    def json_response(cls, payload, status: int = 200) -> "Response":
        return cls(
            status=status,
            headers={"content-type": "application/json"},
            body=jsonutil.dumps_canonical(payload).encode("utf-8"),
        )

    @classmethod
    def text_response(cls, text: str, content_type: str = "text/plain", status: int = 200) -> "Response":
        return cls(status=status, headers={"content-type": content_type}, body=text.encode("utf-8"))

    @classmethod
    def html(cls, markup: str, status: int = 200) -> "Response":
        return cls.text_response(markup, "text/html", status)

    @classmethod
    def not_found(cls, detail: str = "") -> "Response":
        return cls.json_response({"error": "not found", "detail": detail}, status=404)

    @classmethod
    def bad_request(cls, detail: str = "") -> "Response":
        return cls.json_response({"error": "bad request", "detail": detail}, status=400)

    @classmethod
    def error(cls, detail: str = "") -> "Response":
        return cls.json_response({"error": "internal error", "detail": detail}, status=500)


Handler = Callable[[Request], Response]

_PARAM_RE = re.compile(r":(\w+)")


class Router:
    """Method + path-pattern routing with ``:param`` captures.

    Routes are matched in registration order; the first match wins. A path
    pattern like ``/tests/:test_id/pages/:name`` captures into
    ``request.params``.
    """

    def __init__(self):
        self._routes: List[Tuple[str, re.Pattern, Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        """Register a handler for ``method`` on ``pattern``.

        ``:name`` captures one path segment; a trailing ``*name`` captures
        the remainder of the path (for file-serving routes).
        """
        pattern = pattern.rstrip("/") or "/"
        catch_all = None
        if "*" in pattern:
            prefix, _, catch_all = pattern.rpartition("*")
            pattern = prefix.rstrip("/")
        regex = _PARAM_RE.sub(r"(?P<\1>[^/]+)", pattern)
        if catch_all:
            regex += rf"/(?P<{catch_all}>.+)"
        compiled = re.compile("^" + regex + "/?$")
        self._routes.append((method.upper(), compiled, handler))

    def get(self, pattern: str, handler: Handler) -> None:
        self.add("GET", pattern, handler)

    def post(self, pattern: str, handler: Handler) -> None:
        self.add("POST", pattern, handler)

    def dispatch(self, request: Request) -> Response:
        """Route a request; 404 when no pattern matches, 405 when the path
        exists under another method, 500 when a handler raises."""
        path = request.path
        saw_path = False
        for method, compiled, handler in self._routes:
            match = compiled.match(path)
            if match is None:
                continue
            saw_path = True
            if method != request.method:
                continue
            request.params = match.groupdict()
            try:
                return handler(request)
            except Exception as exc:  # server boundary: errors become 500s
                return Response.error(f"{type(exc).__name__}: {exc}")
        if saw_path:
            return Response.json_response({"error": "method not allowed"}, status=405)
        return Response.not_found(path)


class HttpServer:
    """A named host bound to a router, attachable to a SimulatedNetwork."""

    def __init__(self, host: str, router: Optional[Router] = None):
        self.host = host.lower()
        self.router = router if router is not None else Router()
        # Optional repro.net.overload.AdmissionController guarding dispatch.
        self.admission = None

    def handle(self, request: Request, now: float = 0.0, token: str = "") -> Response:
        """Dispatch one request through the router.

        ``now`` is the caller's virtual time and ``token`` its stable
        request token; both feed the admission controller (when one is
        installed), whose verdicts are pure functions of them. Rejected or
        deferred requests never reach the router; admitted requests carry
        their :class:`~repro.net.overload.AdmissionDecision` as
        ``request.admission`` so handlers can shed detail or sample QC.
        """
        admission = self.admission
        if admission is None:
            return self.router.dispatch(request)
        decision = admission.decide(request, now, token)
        if decision.response is not None:
            return decision.response
        request.admission = decision
        return admission.annotate(self.router.dispatch(request), decision)
