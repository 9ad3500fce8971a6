"""Crash-safe job persistence for ``repro serve``.

Background jobs (their submissions, state transitions and results)
are journalled to a :class:`repro.robustness.checkpoint.CheckpointStore`
— the same fsync-per-append, single-writer-locked, torn-tail-tolerant
JSONL machinery the sweep engine trusts.  Each state transition
appends a fresh record keyed by job id; last-record-wins load
semantics mean recovery simply replays the journal:

- ``done`` jobs come back with their results (and re-seed the result
  cache, so duplicate submissions after a restart still hit).
- ``queued``/``running`` jobs come back *queued* — a job that was
  mid-flight when the process died re-runs from scratch.  Engine
  results are deterministic modulo timing, so the re-run converges on
  the same answer (the kill-resume acceptance test).

Synchronous (taint/valueset) requests are answered inline and never
journalled: there is no job to resume.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..robustness.checkpoint import CheckpointError, CheckpointStore
from .protocol import JobRecord, JobState

_PURPOSE = "repro-serve-jobs"


class JobStore:
    """Durable journal of background jobs on a checkpoint file."""

    def __init__(self, path: str) -> None:
        self.store = CheckpointStore(path)
        self._open = False

    # ---- lifecycle --------------------------------------------------------

    def open(self) -> List[JobRecord]:
        """Acquire the single-writer lock and recover prior state.

        Returns every job from the previous incarnation (done jobs
        with results; interrupted jobs reset to ``queued``).  A missing
        or empty file starts an empty journal.  Any other file that is
        not a job journal raises
        :class:`~repro.robustness.checkpoint.CheckpointError` and is
        left as it is.
        """
        self.store.acquire_writer()
        try:
            header, rows = self.store.load()
            if not header and not rows:
                self.store.reset({"purpose": _PURPOSE})
            elif header.get("purpose") != _PURPOSE:
                raise CheckpointError(
                    f"{self.store.path}: not a job journal "
                    f"(purpose={header.get('purpose')!r})")
        except CheckpointError:
            self.store.release_writer()
            raise
        recovered: List[JobRecord] = []
        for key in sorted(rows):
            try:
                job = JobRecord.from_record(rows[key])
            except Exception:  # noqa: BLE001 - tolerate junk rows
                continue
            if job.state is JobState.RUNNING:
                job.state = JobState.QUEUED
            recovered.append(job)
        self._open = True
        return recovered

    def close(self) -> None:
        if self._open:
            self.store.release_writer()
            self._open = False

    # ---- journalling ------------------------------------------------------

    def record(self, job: JobRecord) -> None:
        """Durably append the job's current state (one fsync)."""
        if not self._open:
            return
        self.store.append(job.job_id, job.to_record())

    # ---- introspection (tests) -------------------------------------------

    def snapshot(self) -> Tuple[Dict[str, object], Dict[str, JobRecord]]:
        """Load the journal without taking the writer lock path into
        account — read-only helper for tests and tooling."""
        header, rows = self.store.load()
        jobs: Dict[str, JobRecord] = {}
        for key, record in rows.items():
            try:
                jobs[key] = JobRecord.from_record(record)
            except Exception:  # noqa: BLE001
                continue
        return header, jobs


class NullJobStore(JobStore):
    """In-memory stand-in when the server runs without a checkpoint
    path (ephemeral mode): same interface, no durability."""

    def __init__(self) -> None:  # noqa: D107 - interface stand-in
        self.store: Optional[CheckpointStore] = None  # type: ignore[assignment]
        self._open = False

    def open(self) -> List[JobRecord]:
        self._open = True
        return []

    def close(self) -> None:
        self._open = False

    def record(self, job: JobRecord) -> None:
        return

    def snapshot(self) -> Tuple[Dict[str, object], Dict[str, JobRecord]]:
        return {}, {}
