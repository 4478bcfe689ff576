"""Exception hierarchy for the Kaleidoscope reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while the
specific subclasses keep failure modes distinguishable in tests and logs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SelectorError(ReproError):
    """Raised when a CSS selector string cannot be compiled."""


class ValidationError(ReproError):
    """Raised when test parameters or other user input fail validation.

    Carries the ``field`` the failure refers to when one is known.
    """

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


class StorageError(ReproError):
    """Base class for document-store and file-store failures."""


class DuplicateKeyError(StorageError):
    """Raised on unique-index violations in the document store."""


class QueryError(StorageError):
    """Raised when a query or update document uses an unknown operator."""


class NetworkError(ReproError):
    """Raised by the simulated network layer (unroutable host, dropped connection).

    ``elapsed_seconds`` is how much virtual transfer time the failed exchange
    consumed before it died (0.0 when the failure was instantaneous, e.g. an
    unroutable host); clients fold it into their engagement accounting.
    """

    elapsed_seconds: float = 0.0


class TimeoutError(NetworkError):  # noqa: A001 — deliberately mirrors the builtin
    """Raised when an injected fault times a request out in flight.

    The request *did* reach the server (its side effects happened); only the
    response was lost — which is why response uploads must carry an
    idempotency token to be safely retried.
    """

    def __init__(self, message: str, elapsed_seconds: float = 0.0):
        super().__init__(message)
        self.elapsed_seconds = elapsed_seconds


class ConnectionDropped(NetworkError):
    """Raised when the connection is dropped before the request is handled
    (an injected drop fault or a scheduled outage window)."""

    def __init__(self, message: str, elapsed_seconds: float = 0.0):
        super().__init__(message)
        self.elapsed_seconds = elapsed_seconds


class CircuitOpenError(NetworkError):
    """Raised by a client whose circuit breaker for the target host is open:
    the request fails fast without touching the network."""


class FetchError(NetworkError):
    """Raised when a resource fetch fails (non-2xx status or missing host)."""

    def __init__(self, message: str, url: str = "", status: int = 0):
        super().__init__(message)
        self.url = url
        self.status = status


class AggregationError(ReproError):
    """Raised by the aggregator when test data cannot be prepared."""


class CampaignError(ReproError):
    """Raised when a campaign is orchestrated inconsistently (e.g. analyzing
    before any responses were collected)."""


class ServerOverloaded(CampaignError):
    """Raised when a campaign-critical request was terminally rejected by
    the server's admission controller (429/503 with ``Retry-After`` after
    the client's retries ran out).

    Carries the server-suggested ``retry_after`` delay so schedulers — the
    fleet queue in particular — can requeue with the server's hint instead
    of blind exponential backoff.
    """

    def __init__(self, message: str, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after


class ExtensionError(ReproError):
    """Raised by the simulated browser extension for protocol violations
    (e.g. advancing to the next integrated webpage with unanswered questions)."""


class ParticipantAbandoned(ExtensionError):
    """Raised when a participant gives up mid-test — exhausted download
    retries, an open circuit to the core server, or simulated dropout.

    Carries the partial :class:`~repro.core.extension.ParticipantResult`
    accumulated so far so a resilient campaign can keep whatever answers
    were collected before the walk-away.
    """

    def __init__(self, message: str, result=None, reason: str = ""):
        super().__init__(message)
        self.result = result
        self.reason = reason


class FleetError(ReproError):
    """Raised by the fleet control plane: malformed submissions, scheduler
    stalls, or queue misuse that is not a lease-protocol violation."""


class LeaseError(FleetError):
    """Raised when a queue operation presents an unknown or stale lease
    token — the job was redelivered to another worker (or dead-lettered)
    after this worker's lease expired. The correct reaction is to abandon
    the job: its at-least-once contract means someone else owns it now."""


class WorkerCrashed(FleetError):
    """Injected by seeded fleet chaos hooks to simulate a worker process
    dying mid-job: the job is neither acked nor nacked, so recovery has to
    come from the lease expiring and the queue redelivering the job."""


class PlatformError(ReproError):
    """Raised by the simulated crowdsourcing platform (unknown job, over-budget
    recruitment, double-submission)."""


class LayoutError(ReproError):
    """Raised by the layout engine on documents it cannot lay out."""


class ReplayError(ReproError):
    """Raised for invalid page-load replay schedules."""
