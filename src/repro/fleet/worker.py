"""Fleet workers: claim a job, rebuild its campaign, run it, ack it.

A worker executes one delivery at a time on the fleet's virtual clock. For
each claimed job it rebuilds the :class:`~repro.core.campaign.Campaign`
from the pickled submission, loads any checkpoint a previous (crashed)
delivery journaled, and drives the campaign's roster pipeline (inline or
process pool) via ``run_with_workers(resume_from=...)``. A checkpoint hook
fires after every durable unit of campaign progress: it journals the
campaign's resume state into the :class:`~repro.fleet.store.FleetStore` and
heartbeats the queue lease — so a long campaign never times out while it
is making progress, and a crashed one resumes from its last heartbeat's
state.

Failure taxonomy:

* :class:`~repro.errors.WorkerCrashed` (chaos injection) — the worker dies:
  no ack, no nack. Recovery is entirely the queue's job (lease expiry →
  redelivery), which is exactly the path the bench must prove out.
* :class:`~repro.errors.LeaseError` — this worker is a zombie: its lease
  expired and the job was (or will be) redelivered. Abandon silently.
* any other exception — the campaign itself is broken (a poison job):
  explicit nack with the error attached, walking it toward dead-letter.

Breaker scoping: the worker holds the fleet-wide
:class:`~repro.net.faults.BreakerRegistry` but keys admission per job id,
so a poison campaign hammering a stimulus host fails fast on *its own*
breaker without tripping other campaigns that use the same host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import FleetError, LeaseError, WorkerCrashed
from repro.fleet.chaos import WorkerChaos
from repro.fleet.queue import JobQueue, JobRecord
from repro.fleet.store import FleetStore
from repro.net.faults import BreakerRegistry
from repro.obs import Observability, TraceClock

#: Virtual seconds of worker-side overhead per delivery: claim + campaign
#: rebuild before the run, result persistence + ack after it.
DISPATCH_OVERHEAD_SECONDS = 1.0

#: Virtual seconds a breaker-rejected delivery burns before its nack: the
#: fail-fast path still costs a dispatch round trip.
FAIL_FAST_SECONDS = 1.0


@dataclass
class JobOutcome:
    """What one delivery attempt did, on the fleet clock.

    The queue transition that ends the delivery (ack or nack) is *deferred*:
    it is carried in :attr:`finalize` and applied by the scheduler when the
    virtual clock actually reaches :attr:`finished_at`. Executing it eagerly
    would let a worker claiming at an earlier virtual instant observe the
    completion of a job that is still in flight — which breaks causality for
    the per-resource concurrency guard.
    """

    job_id: str
    worker_id: str
    delivery: int
    status: str              # completed | crashed | failed | rejected | superseded
    started_at: float
    finished_at: float
    #: When the worker can take its next job — after a crash this includes
    #: the restart delay.
    worker_free_at: float
    error: str = ""
    finalize: Optional[Callable[[], None]] = field(
        default=None, repr=False, compare=False
    )

    def apply(self) -> None:
        """Apply the deferred ack/nack (idempotent; may flip the status to
        ``superseded`` if the lease lapsed in the meantime)."""
        if self.finalize is not None:
            callback, self.finalize = self.finalize, None
            callback()

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "worker": self.worker_id,
            "delivery": self.delivery,
            "status": self.status,
            "started_at": round(self.started_at, 3),
            "finished_at": round(self.finished_at, 3),
            "error": self.error,
        }


class FleetWorker:
    """One worker loop: claim → rebuild → run (checkpointing) → ack/nack."""

    def __init__(
        self,
        worker_id: str,
        queue: JobQueue,
        store: FleetStore,
        chaos: Optional[WorkerChaos] = None,
        breakers: Optional[BreakerRegistry] = None,
        obs: Optional[Observability] = None,
        restart_delay_seconds: float = 30.0,
    ):
        self.worker_id = worker_id
        self.queue = queue
        self.store = store
        self.chaos = chaos
        self.breakers = breakers
        self.obs = obs if obs is not None else Observability.disabled()
        self.restart_delay_seconds = float(restart_delay_seconds)
        self.crashes = 0
        self.completed = 0

    def execute(self, record: JobRecord, now: float) -> JobOutcome:
        """Run one claimed delivery to an outcome (never raises for job
        failures — those become the outcome's status)."""
        submission = record.payload
        if submission is None:
            raise FleetError(f"job {record.job_id!r} has no payload to execute")
        job_now: List[float] = [now]
        span_clock = TraceClock(lambda: job_now[0])
        with self.obs.tracer.span(
            "job", category="fleet", clock=span_clock,
            job_id=record.job_id, worker=self.worker_id,
            delivery=record.deliveries,
        ) as jspan:
            outcome = self._execute_inner(record, now, submission, jspan)
            job_now[0] = outcome.finished_at
            jspan.set_attr("status", outcome.status)
        return outcome

    def _execute_inner(self, record, now, submission, jspan) -> JobOutcome:
        def outcome(status, finished_at, free_at=None, error=""):
            return JobOutcome(
                job_id=record.job_id, worker_id=self.worker_id,
                delivery=record.deliveries, status=status, started_at=now,
                finished_at=finished_at,
                worker_free_at=free_at if free_at is not None else finished_at,
                error=error,
            )

        host = submission.stimulus_host()
        # Admission guard, scoped per job: this campaign's past failures
        # against the host, nobody else's (see module docstring).
        breaker = (
            self.breakers.breaker(host, scope=record.job_id)
            if self.breakers is not None
            else None
        )
        if breaker is not None and not breaker.allow(now):
            finished = now + FAIL_FAST_SECONDS
            self.obs.tracer.event("circuit_open", host=host, job_id=record.job_id)
            self.obs.metrics.add("fleet.breaker_rejections", 1)
            rejected = outcome("rejected", finished, error=f"circuit open: {host}")

            def finalize_rejected():
                try:
                    self.queue.nack(
                        record.job_id, record.lease_token, finished,
                        error=f"circuit open for stimulus host {host!r}",
                    )
                except LeaseError as exc:
                    rejected.status = "superseded"
                    rejected.error = str(exc)

            rejected.finalize = finalize_rejected
            return rejected

        roster = submission.roster()
        kill_at = (
            self.chaos.kill_point(record.job_id, record.deliveries, len(roster))
            if self.chaos is not None
            else None
        )
        checkpoint = self.store.load_checkpoint(record.job_id)
        campaign = submission.build_campaign()
        # Fleet jobs are redeliverable: let a terminally 429'd upload raise
        # ServerOverloaded so the queue can requeue the campaign for the
        # server's own Retry-After rather than degrading the conclusion.
        campaign.overload_pushback = True
        hook_calls = [0]

        def checkpoint_hook(running_campaign):
            hook_calls[0] += 1
            if kill_at is not None and hook_calls[0] == kill_at:
                raise WorkerCrashed(
                    f"chaos killed {self.worker_id} on {record.job_id} "
                    f"delivery {record.deliveries} at checkpoint {kill_at}"
                )
            state = running_campaign.resume_state()
            if state is not None:
                self.store.save_checkpoint(record.job_id, state)
            self.queue.heartbeat(
                record.job_id, record.lease_token,
                now + running_campaign.env.now,
            )

        campaign.checkpoint_hook = checkpoint_hook
        try:
            result = submission.execute(resume_from=checkpoint, campaign=campaign)
        except WorkerCrashed as exc:
            # Simulated worker death: save nothing, tell the queue nothing.
            # The lease must expire on its own for the job to come back.
            crash_time = now + campaign.env.now
            self.crashes += 1
            self.obs.metrics.add("fleet.worker_crashes", 1)
            self.obs.tracer.event(
                "worker_crashed", job_id=record.job_id, worker=self.worker_id
            )
            return outcome(
                "crashed", crash_time,
                free_at=crash_time + self.restart_delay_seconds,
                error=str(exc),
            )
        except LeaseError as exc:
            # Zombie: the lease lapsed mid-run and the job was redelivered.
            lost_time = now + campaign.env.now
            return outcome("superseded", lost_time, error=str(exc))
        except Exception as exc:  # noqa: BLE001 — poison jobs raise anything
            fail_time = now + campaign.env.now + DISPATCH_OVERHEAD_SECONDS
            error = f"{type(exc).__name__}: {exc}"
            failed = outcome("failed", fail_time, error=error)
            # Overload pushback (ServerOverloaded) carries the server's own
            # Retry-After; requeue for exactly then instead of exponential
            # backoff, and leave the breaker alone — a 429 means the host is
            # alive and telling us when to come back, not failing.
            retry_after = getattr(exc, "retry_after", None)
            if retry_after is not None:
                self.obs.metrics.add("fleet.overload_nacks", 1)
                self.obs.tracer.event(
                    "overload_nack",
                    job_id=record.job_id,
                    retry_after=float(retry_after),
                )

            def finalize_failed():
                if breaker is not None and retry_after is None:
                    breaker.record_failure(fail_time)
                try:
                    self.queue.nack(
                        record.job_id, record.lease_token, fail_time,
                        error=error, retry_after=retry_after,
                    )
                except LeaseError as lease_exc:
                    failed.status = "superseded"
                    failed.error = str(lease_exc)

            failed.finalize = finalize_failed
            return failed

        done = now + campaign.env.now + DISPATCH_OVERHEAD_SECONDS
        self.store.save_result(record.job_id, result)
        self.store.clear_checkpoint(record.job_id)
        jspan.set_attr("participants", len(roster))
        completed = outcome("completed", done)

        def finalize_completed():
            if breaker is not None:
                breaker.record_success()
            try:
                self.queue.ack(record.job_id, record.lease_token, done)
            except LeaseError as exc:
                # Someone else holds the job now; their identical result wins.
                self.obs.metrics.add("fleet.stale_ack_results", 1)
                completed.status = "superseded"
                completed.error = str(exc)
                return
            self.completed += 1

        completed.finalize = finalize_completed
        return completed
