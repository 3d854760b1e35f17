"""The server's durable job ledger.

Two artifacts make the server crash-tolerant, both rooted in
``--state-dir``:

* the **jobs ledger** (``jobs.jsonl``, this module) — one fsync'd JSON
  line per admission (``job``) and per terminal outcome (``outcome``).
  An admission is acknowledged (HTTP 202) only after its record is on
  disk, so an acknowledged job is never lost;
* the **per-job supervisor journal**
  (``journals/<job id>.jsonl``, :mod:`repro.supervisor.journal`) —
  every spec outcome inside a job, fsync'd as it lands.

Restart recovery composes the two: ledgered jobs *with* an outcome are
served from the ledger without recomputation; jobs *without* one are
re-queued in submission order, and their supervisors replay the specs
their journals already settled byte-identically, executing only the
remainder.  A ``kill -9`` therefore loses at most the attempts that
were in flight at the instant of death.

The ledger is an :class:`~repro.util.appendlog.AppendLog`, the same
file discipline as the sweep journal: one fsync'd line per record, so
a crash can tear at most the final line, and :func:`load_ledger` skips
(and counts) unparseable lines instead of failing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.serve.jobs import CANCELLED, DONE, FAILED, TERMINAL_STATES
from repro.util.appendlog import AppendLog, read_records, torn_note

#: Ledger schema version; bump on incompatible record changes.
LEDGER_SCHEMA = 1


@dataclass
class LedgerJob:
    """One admitted job as recovered from the ledger."""

    id: str
    tenant: str
    seq: int
    spec: dict
    status: str | None = None  # terminal status, or None if never settled
    result: dict | None = None
    error: dict | None = None

    @property
    def settled(self) -> bool:
        return self.status in TERMINAL_STATES


@dataclass
class LedgerState:
    """Everything :func:`load_ledger` recovers from a ledger file."""

    path: str
    jobs: dict[str, LedgerJob] = field(default_factory=dict)
    max_seq: int = 0
    records: int = 0
    torn_records: int = 0

    def pending(self) -> list[LedgerJob]:
        """Un-settled jobs, in submission order — what a restart must
        re-queue."""
        return sorted(
            (job for job in self.jobs.values() if not job.settled),
            key=lambda job: job.seq,
        )

    def describe(self) -> str:
        return (
            f"ledger {self.path}: {len(self.jobs)} job(s), "
            f"{len(self.pending())} pending over {self.records} "
            f"record(s){torn_note(self.torn_records)}"
        )


def load_ledger(path: str | os.PathLike) -> LedgerState:
    """Parse a jobs ledger, tolerating torn lines (see
    :func:`~repro.util.appendlog.read_records`).

    Duplicate outcome records for one job keep the *first* (the record
    earlier readers already served); outcome records for unknown job
    ids are skipped (their admission line was the torn one).
    """
    path = os.fspath(path)
    records, torn = read_records(path)
    state = LedgerState(path=path, records=len(records), torn_records=torn)
    for record in records:
        kind = record["type"]
        if kind == "job":
            job_id, tenant = record.get("id"), record.get("tenant")
            seq, spec = record.get("seq"), record.get("spec")
            if (
                isinstance(job_id, str)
                and isinstance(tenant, str)
                and isinstance(seq, int)
                and isinstance(spec, dict)
                and job_id not in state.jobs
            ):
                state.jobs[job_id] = LedgerJob(
                    id=job_id, tenant=tenant, seq=seq, spec=spec
                )
                state.max_seq = max(state.max_seq, seq)
        elif kind == "outcome":
            job_id, status = record.get("id"), record.get("status")
            job = state.jobs.get(job_id) if isinstance(job_id, str) else None
            if job is not None and status in TERMINAL_STATES and not job.settled:
                job.status = status
                result = record.get("result")
                error = record.get("error")
                job.result = result if isinstance(result, dict) else None
                job.error = error if isinstance(error, dict) else None
        # Unknown record types from a newer writer are skipped silently.
    return state


class JobLedger(AppendLog):
    """Appends job/outcome records (an :class:`AppendLog` over the
    ledger file)."""

    def job(self, job_id: str, tenant: str, seq: int, spec: dict) -> None:
        """Record an admission; the 202 response waits on this fsync."""
        self.append(
            {
                "type": "job",
                "schema": LEDGER_SCHEMA,
                "id": job_id,
                "tenant": tenant,
                "seq": seq,
                "spec": spec,
            }
        )

    def outcome(
        self,
        job_id: str,
        status: str,
        result: dict | None = None,
        error: dict | None = None,
    ) -> None:
        if status not in (DONE, FAILED, CANCELLED):
            raise ValueError(f"not a terminal job status: {status!r}")
        self.append(
            {
                "type": "outcome",
                "id": job_id,
                "status": status,
                "result": result,
                "error": error,
            }
        )
