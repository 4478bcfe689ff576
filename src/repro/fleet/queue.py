"""A durable at-least-once job queue on the simulated clock.

The delivery contract mirrors the visibility-timeout queues that real
crowdsourcing platforms sit on (SQS-style): claiming a job leases it for
``visibility_timeout`` virtual seconds; the worker must ack (done), nack
(failed — requeued with capped exponential backoff), or heartbeat (extend
the lease) before the lease expires, otherwise the job is requeued and the
silent worker's lease token goes stale. A job that fails ``max_deliveries``
times — nacks and lease expiries both count — is moved to the dead-letter
queue with its full failure chain attached, so one poison campaign can
never wedge the fleet.

Determinism is preserved throughout: there is no RNG anywhere in the queue
(backoff is a pure function of the delivery count), eligible jobs are
served FIFO by submission order, and every timestamp is virtual. Every
transition is journaled through :class:`~repro.fleet.store.FleetStore`, and
:meth:`JobQueue.recover` rebuilds a queue — including requeueing jobs that
were in flight when the control plane died — from nothing but the journal
and the pickled payloads.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import FleetError, LeaseError
from repro.fleet.store import FleetStore
from repro.obs.metrics import MetricsRegistry

#: Job states. A job is born QUEUED, cycles QUEUED <-> IN_FLIGHT while it is
#: being attempted, and ends in exactly one of COMPLETED or DEAD — terminal
#: states are final, transitions out of them raise.
QUEUED = "queued"
IN_FLIGHT = "in-flight"
COMPLETED = "completed"
DEAD = "dead"

JOB_STATES = (QUEUED, IN_FLIGHT, COMPLETED, DEAD)


@dataclass
class JobRecord:
    """One job's full control-plane state."""

    job_id: str
    payload: Any = None
    resource: str = ""
    state: str = QUEUED
    #: How many times the job has been handed to a worker. Incremented at
    #: claim time and never decremented — the monotonic delivery counter the
    #: property tests pin down.
    deliveries: int = 0
    #: Earliest virtual time the job may be claimed (backoff gate).
    not_before: float = 0.0
    #: When the current lease lapses (IN_FLIGHT only).
    lease_expires_at: float = 0.0
    #: Token a worker must present to ack/nack/heartbeat this delivery.
    lease_token: str = ""
    #: Worker id holding the current lease (IN_FLIGHT only).
    owner: str = ""
    #: One entry per failed delivery: {"delivery", "time", "error"}.
    failures: List[dict] = field(default_factory=list)
    submitted_at: float = 0.0
    #: Submission sequence — the FIFO sort key among eligible jobs.
    seq: int = 0
    finished_at: Optional[float] = None

    def snapshot(self) -> Tuple[str, int]:
        return self.state, self.deliveries


class JobQueue:
    """Leased, journaled, dead-lettering job queue (virtual time)."""

    def __init__(
        self,
        visibility_timeout: float = 600.0,
        max_deliveries: int = 4,
        backoff_base_seconds: float = 5.0,
        backoff_factor: float = 2.0,
        backoff_cap_seconds: float = 300.0,
        max_in_flight_per_resource: Optional[int] = None,
        store: Optional[FleetStore] = None,
        metrics=None,
    ):
        if visibility_timeout <= 0:
            raise FleetError("visibility_timeout must be positive")
        if max_deliveries < 1:
            raise FleetError("max_deliveries must be >= 1")
        if backoff_factor < 1.0 or backoff_base_seconds < 0:
            raise FleetError("backoff must be non-negative and non-shrinking")
        if max_in_flight_per_resource is not None and max_in_flight_per_resource < 1:
            raise FleetError("max_in_flight_per_resource must be >= 1 or None")
        self.visibility_timeout = float(visibility_timeout)
        self.max_deliveries = int(max_deliveries)
        self.backoff_base_seconds = float(backoff_base_seconds)
        self.backoff_factor = float(backoff_factor)
        self.backoff_cap_seconds = float(backoff_cap_seconds)
        self.max_in_flight_per_resource = max_in_flight_per_resource
        self.store = store if store is not None else FleetStore()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._records: Dict[str, JobRecord] = {}
        self._seq = 0

    # -- introspection -----------------------------------------------------

    def record(self, job_id: str) -> JobRecord:
        try:
            return self._records[job_id]
        except KeyError:
            raise FleetError(f"unknown job {job_id!r}") from None

    def job_ids(self) -> List[str]:
        return sorted(self._records)

    @property
    def lease_expiries(self) -> int:
        """Leases reaped so far (the ``fleet.lease_expiries`` counter)."""
        return int(self.metrics.counter("fleet.lease_expiries"))

    @property
    def redeliveries(self) -> int:
        """Claims of an already-delivered job (``fleet.redeliveries``)."""
        return int(self.metrics.counter("fleet.redeliveries"))

    def snapshot(self) -> Dict[str, Tuple[str, int]]:
        """``{job_id: (state, deliveries)}`` — the invariant-checking view."""
        return {job_id: r.snapshot() for job_id, r in self._records.items()}

    def state_counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for record in self._records.values():
            counts[record.state] += 1
        return counts

    @property
    def drained(self) -> bool:
        """True once every submitted job reached a terminal state."""
        return all(
            r.state in (COMPLETED, DEAD) for r in self._records.values()
        )

    def dead_letters(self) -> List[JobRecord]:
        return [r for r in self._records.values() if r.state == DEAD]

    def backoff_seconds(self, deliveries: int) -> float:
        """Requeue delay after the ``deliveries``-th failed delivery.

        Pure function of the count — no jitter, because queue determinism is
        part of the fleet's reproducibility contract.
        """
        delay = self.backoff_base_seconds * self.backoff_factor ** max(
            0, deliveries - 1
        )
        return min(delay, self.backoff_cap_seconds)

    def next_event_time(self, now: float) -> Optional[float]:
        """The earliest future time the queue's eligibility can change:
        a backoff gate opening or an in-flight lease expiring."""
        candidates = [
            r.not_before
            for r in self._records.values()
            if r.state == QUEUED and r.not_before > now
        ]
        candidates += [
            r.lease_expires_at
            for r in self._records.values()
            if r.state == IN_FLIGHT
        ]
        future = [t for t in candidates if t > now]
        return min(future) if future else None

    # -- transitions -------------------------------------------------------

    def submit(
        self,
        job_id: str,
        payload: Any = None,
        resource: str = "",
        now: float = 0.0,
        durable_payload: bool = True,
    ) -> JobRecord:
        """Enqueue a new job; id must be unique for the queue's lifetime."""
        if job_id in self._records:
            raise FleetError(f"job id {job_id!r} already submitted")
        record = JobRecord(
            job_id=job_id, payload=payload, resource=str(resource),
            submitted_at=float(now), not_before=float(now), seq=self._seq,
        )
        self._seq += 1
        self._records[job_id] = record
        if durable_payload and payload is not None:
            self.store.save_payload(job_id, payload)
        self._journal("submit", record, now, resource=record.resource)
        self.metrics.add("fleet.submitted", 1)
        self._update_depth()
        return record

    def claim(self, worker_id: str, now: float) -> Optional[JobRecord]:
        """Lease the next eligible job to ``worker_id``, or ``None``.

        Expired leases are reaped first (so a claim can pick up a job whose
        previous worker just went silent). Eligibility: QUEUED, past its
        backoff gate, and its resource below the in-flight cap. FIFO by
        submission order among the eligible.

        The returned record is a *snapshot* of this delivery, not the live
        queue state — in particular its ``lease_token`` stays pinned to this
        delivery, so a zombie worker whose job was redelivered presents its
        own stale token (and is refused) rather than accidentally reading
        the new delivery's.
        """
        self.expire_leases(now)
        in_flight_per_resource: Dict[str, int] = {}
        if self.max_in_flight_per_resource is not None:
            for record in self._records.values():
                if record.state == IN_FLIGHT and record.resource:
                    in_flight_per_resource[record.resource] = (
                        in_flight_per_resource.get(record.resource, 0) + 1
                    )
        eligible = [
            r for r in self._records.values()
            if r.state == QUEUED and r.not_before <= now
        ]
        eligible.sort(key=lambda r: r.seq)
        for record in eligible:
            if (
                self.max_in_flight_per_resource is not None
                and record.resource
                and in_flight_per_resource.get(record.resource, 0)
                >= self.max_in_flight_per_resource
            ):
                continue
            record.state = IN_FLIGHT
            record.deliveries += 1
            record.owner = str(worker_id)
            record.lease_expires_at = now + self.visibility_timeout
            record.lease_token = f"{record.job_id}#{record.deliveries}"
            if record.payload is None and self.store.has_payload(record.job_id):
                record.payload = self.store.load_payload(record.job_id)
            self._journal(
                "claim", record, now,
                worker=record.owner, delivery=record.deliveries,
                lease_expires_at=record.lease_expires_at,
            )
            self.metrics.add("fleet.claims", 1)
            if record.deliveries > 1:
                self.metrics.add("fleet.redeliveries", 1)
            self._update_depth()
            return dataclasses.replace(record, failures=list(record.failures))
        return None

    def heartbeat(self, job_id: str, lease_token: str, now: float) -> float:
        """Extend a live lease; returns the new expiry. Stale token raises."""
        record = self._validate_lease(job_id, lease_token, now, "heartbeat")
        record.lease_expires_at = now + self.visibility_timeout
        self._journal(
            "heartbeat", record, now, lease_expires_at=record.lease_expires_at
        )
        return record.lease_expires_at

    def ack(self, job_id: str, lease_token: str, now: float) -> JobRecord:
        """Mark a leased job done. Stale or expired leases raise
        :class:`~repro.errors.LeaseError` — the job belongs to someone else
        now (or is about to), and at-least-once means the other delivery's
        identical result wins."""
        record = self._validate_lease(job_id, lease_token, now, "ack")
        record.state = COMPLETED
        record.finished_at = float(now)
        record.owner = ""
        record.lease_token = ""
        self._journal("ack", record, now)
        self.metrics.add("fleet.acks", 1)
        self._update_depth()
        return record

    def nack(
        self,
        job_id: str,
        lease_token: str,
        now: float,
        error: str = "",
        retry_after: Optional[float] = None,
    ) -> JobRecord:
        """Report a failed delivery: requeue with backoff, or dead-letter
        once the delivery budget is exhausted.

        ``retry_after`` overrides the blind exponential backoff with a
        server-suggested delay — the queue's half of overload cooperation:
        a 429'd campaign is redelivered exactly when the server said it
        would have capacity again, not at some unrelated power of two.
        """
        record = self._validate_lease(job_id, lease_token, now, "nack")
        self.metrics.add("fleet.nacks", 1)
        return self._fail_delivery(
            record, now, error or "nacked by worker", retry_after=retry_after
        )

    def expire_leases(self, now: float) -> List[str]:
        """Reap every lease past its expiry; returns the affected job ids.

        An expiry counts as a failed delivery (the worker went silent — the
        classic crash signature), so repeated crashes walk a job toward the
        dead-letter queue exactly like repeated explicit failures.
        """
        expired = [
            r for r in self._records.values()
            if r.state == IN_FLIGHT and r.lease_expires_at <= now
        ]
        expired.sort(key=lambda r: r.seq)
        reaped = []
        for record in expired:
            self.metrics.add("fleet.lease_expiries", 1)
            self._fail_delivery(
                record, now,
                f"lease expired (worker {record.owner or '?'} silent)",
                event="expire",
            )
            reaped.append(record.job_id)
        return reaped

    # -- internals ---------------------------------------------------------

    def _validate_lease(
        self, job_id: str, lease_token: str, now: float, verb: str
    ) -> JobRecord:
        record = self.record(job_id)
        if record.state != IN_FLIGHT or record.lease_token != lease_token:
            self.metrics.add("fleet.stale_leases", 1)
            raise LeaseError(
                f"cannot {verb} job {job_id!r}: lease {lease_token!r} is "
                f"stale (job is {record.state}, current lease "
                f"{record.lease_token!r})"
            )
        if record.lease_expires_at <= now:
            # The worker outlived its lease without heartbeating: reap it
            # now rather than letting a zombie ack race a redelivery.
            self.metrics.add("fleet.lease_expiries", 1)
            self.metrics.add("fleet.stale_leases", 1)
            self._fail_delivery(
                record, now,
                f"lease expired before {verb} (worker {record.owner or '?'})",
                event="expire",
            )
            raise LeaseError(
                f"cannot {verb} job {job_id!r}: lease expired at "
                f"{record.lease_expires_at} (now {now})"
            )
        return record

    def _fail_delivery(
        self,
        record: JobRecord,
        now: float,
        error: str,
        event: str = "nack",
        retry_after: Optional[float] = None,
    ) -> JobRecord:
        record.failures.append(
            {"delivery": record.deliveries, "time": float(now), "error": error}
        )
        record.owner = ""
        record.lease_token = ""
        if record.deliveries >= self.max_deliveries:
            record.state = DEAD
            record.finished_at = float(now)
            self._journal(
                "dead", record, now, error=error, deliveries=record.deliveries
            )
            self.metrics.add("fleet.dead_letters", 1)
            self.store.save_dead_letter(
                record.job_id,
                {
                    "job_id": record.job_id,
                    "resource": record.resource,
                    "deliveries": record.deliveries,
                    "failures": list(record.failures),
                    "dead_at": float(now),
                },
            )
        else:
            record.state = QUEUED
            if retry_after is not None:
                record.not_before = now + max(0.0, float(retry_after))
            else:
                record.not_before = now + self.backoff_seconds(record.deliveries)
            self._journal(
                event, record, now, error=error, not_before=record.not_before
            )
        self._update_depth()
        return record

    def _journal(self, event: str, record: JobRecord, now: float, **extra):
        payload = {
            "event": event,
            "job_id": record.job_id,
            "time": float(now),
            "state": record.state,
        }
        payload.update(extra)
        self.store.journal_event(payload)

    def _update_depth(self) -> None:
        counts = self.state_counts()
        self.metrics.set_gauge("fleet.queue.depth", counts[QUEUED])
        self.metrics.set_gauge("fleet.queue.in_flight", counts[IN_FLIGHT])

    # -- recovery ----------------------------------------------------------

    @classmethod
    def recover(
        cls,
        store: FleetStore,
        metrics=None,
        now: float = 0.0,
        **queue_options,
    ) -> "JobQueue":
        """Rebuild a queue from its journal after the control plane died.

        Jobs that were IN_FLIGHT when the plane went down are requeued
        immediately (their worker is gone with the plane); the interrupted
        delivery counts against the budget like any other failure, so a job
        that keeps taking the plane down still dead-letters eventually.
        Payloads are reloaded from the durable pickle copies.
        """
        queue = cls(store=store, metrics=metrics, **queue_options)
        events = store.read_journal()
        for event in events:
            job_id = event.get("job_id")
            kind = event.get("event")
            if kind == "submit":
                record = JobRecord(
                    job_id=job_id,
                    resource=str(event.get("resource", "")),
                    submitted_at=float(event.get("time", 0.0)),
                    not_before=float(event.get("time", 0.0)),
                    seq=queue._seq,
                )
                queue._seq += 1
                queue._records[job_id] = record
                continue
            record = queue._records.get(job_id)
            if record is None:
                raise FleetError(
                    f"journal references job {job_id!r} before its submit"
                )
            if kind == "claim":
                record.state = IN_FLIGHT
                record.deliveries = int(event.get("delivery", record.deliveries + 1))
                record.owner = str(event.get("worker", ""))
                record.lease_expires_at = float(event.get("lease_expires_at", 0.0))
                record.lease_token = f"{record.job_id}#{record.deliveries}"
            elif kind == "heartbeat":
                record.lease_expires_at = float(
                    event.get("lease_expires_at", record.lease_expires_at)
                )
            elif kind == "ack":
                record.state = COMPLETED
                record.finished_at = float(event.get("time", 0.0))
                record.owner = ""
                record.lease_token = ""
            elif kind in ("nack", "expire", "recovered"):
                record.state = str(event.get("state", QUEUED))
                record.not_before = float(event.get("not_before", 0.0))
                record.owner = ""
                record.lease_token = ""
                record.failures.append(
                    {
                        "delivery": record.deliveries,
                        "time": float(event.get("time", 0.0)),
                        "error": str(event.get("error", "")),
                    }
                )
            elif kind == "dead":
                record.state = DEAD
                record.finished_at = float(event.get("time", 0.0))
                record.owner = ""
                record.lease_token = ""
                record.failures.append(
                    {
                        "delivery": record.deliveries,
                        "time": float(event.get("time", 0.0)),
                        "error": str(event.get("error", "")),
                    }
                )
        # Requeue whatever was in flight when the journal stopped.
        for record in sorted(queue._records.values(), key=lambda r: r.seq):
            if record.state == IN_FLIGHT:
                queue._fail_delivery(
                    record, now,
                    "control plane restarted while the job was leased",
                    event="recovered",
                )
            if record.state != COMPLETED and queue.store.has_payload(record.job_id):
                record.payload = queue.store.load_payload(record.job_id)
        return queue
