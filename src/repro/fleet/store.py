"""Durable fleet state over the storage layer.

The control plane must survive losing any individual worker — and, for the
queue itself, losing the process that holds it. Everything the fleet needs
to recover therefore lives in a :class:`~repro.storage.filestore.FileStore`
tree rather than in object attributes:

* ``<root>/queue/journal.jsonl`` — one JSON line per queue transition
  (submit, claim, heartbeat, ack, nack, expire, dead, recover). Replaying
  the journal in order rebuilds the queue's full state.
* ``<root>/jobs/<job_id>.payload`` — the pickled submission payload
  (base64 text, because the file store is a text store).
* ``<root>/checkpoints/<job_id>.json`` — the job's latest
  :meth:`~repro.core.campaign.Campaign.resume_state` checkpoint. Written by
  the worker's checkpoint hook; consumed as ``resume_from`` by whoever gets
  the job redelivered.
* ``<root>/results/<job_id>.json`` — the
  :meth:`~repro.fleet.jobs.CampaignSubmission.execute` record: the
  concluded ``CampaignResult.to_dict()`` plus the final checkpoint under
  ``"resume"``.
* ``<root>/dead/<job_id>.json`` — the dead-letter record: the full failure
  chain, delivery count, and the time the job was poisoned out.
"""

from __future__ import annotations

import base64
import json
import pickle
from typing import Any, List, Optional

from repro.errors import FleetError
from repro.storage.filestore import FileStore


class FleetStore:
    """Path conventions + (de)serialization for fleet state in a FileStore."""

    def __init__(self, files: Optional[FileStore] = None, root: str = "fleet"):
        self.files = files if files is not None else FileStore()
        self.root = root.strip("/") or "fleet"

    # -- paths -------------------------------------------------------------

    @property
    def journal_path(self) -> str:
        return f"{self.root}/queue/journal.jsonl"

    def payload_path(self, job_id: str) -> str:
        return f"{self.root}/jobs/{job_id}.payload"

    def checkpoint_path(self, job_id: str) -> str:
        return f"{self.root}/checkpoints/{job_id}.json"

    def result_path(self, job_id: str) -> str:
        return f"{self.root}/results/{job_id}.json"

    def dead_letter_path(self, job_id: str) -> str:
        return f"{self.root}/dead/{job_id}.json"

    # -- queue journal -----------------------------------------------------

    def journal_event(self, event: dict) -> None:
        """Append one transition to the queue journal (stable key order)."""
        self.files.append(
            self.journal_path, json.dumps(event, sort_keys=True) + "\n"
        )

    def read_journal(self) -> List[dict]:
        """Every journaled transition, in write order."""
        if self.journal_path not in self.files:
            return []
        lines = self.files.read(self.journal_path).splitlines()
        events = []
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except ValueError as exc:
                raise FleetError(
                    f"corrupt queue journal at line {number}: {exc}"
                ) from exc
        return events

    # -- job payloads ------------------------------------------------------

    def save_payload(self, job_id: str, payload: Any) -> None:
        """Persist the submission payload (pickle, base64-armored)."""
        try:
            blob = pickle.dumps(payload)
        except Exception as exc:
            raise FleetError(
                f"job {job_id!r} payload is not picklable and cannot be made "
                f"durable: {exc}"
            ) from exc
        self.files.write(
            self.payload_path(job_id), base64.b64encode(blob).decode("ascii")
        )

    def load_payload(self, job_id: str) -> Any:
        text = self.files.read(self.payload_path(job_id))
        return pickle.loads(base64.b64decode(text.encode("ascii")))

    def has_payload(self, job_id: str) -> bool:
        return self.payload_path(job_id) in self.files

    # -- checkpoints / results / dead letters ------------------------------

    def save_checkpoint(self, job_id: str, checkpoint: dict) -> None:
        self.files.write(
            self.checkpoint_path(job_id), json.dumps(checkpoint, sort_keys=True)
        )

    def load_checkpoint(self, job_id: str) -> Optional[dict]:
        """The job's latest checkpoint, or ``None`` when it never saved one."""
        path = self.checkpoint_path(job_id)
        if path not in self.files:
            return None
        return json.loads(self.files.read(path))

    def clear_checkpoint(self, job_id: str) -> None:
        path = self.checkpoint_path(job_id)
        if path in self.files:
            self.files.delete(path)

    def save_result(self, job_id: str, result: dict) -> None:
        self.files.write(
            self.result_path(job_id), json.dumps(result, sort_keys=True)
        )

    def load_result(self, job_id: str) -> Optional[dict]:
        path = self.result_path(job_id)
        if path not in self.files:
            return None
        return json.loads(self.files.read(path))

    def save_dead_letter(self, job_id: str, record: dict) -> None:
        self.files.write(
            self.dead_letter_path(job_id), json.dumps(record, sort_keys=True)
        )

    def load_dead_letter(self, job_id: str) -> Optional[dict]:
        path = self.dead_letter_path(job_id)
        if path not in self.files:
            return None
        return json.loads(self.files.read(path))
