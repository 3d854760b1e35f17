"""The write-ahead sweep journal: an append-only, fsync'd JSONL ledger.

Every supervised sweep can carry a journal (``--journal PATH``).  The
supervisor appends one record per event:

* ``header`` — written once, when the file is created: the schema
  version and the CLI argv that started the sweep (how ``python -m
  repro resume`` knows what to re-invoke);
* ``attempt`` — before each submission: the spec's key and its 1-based
  attempt number, so a resumed sweep inherits the quarantine budget
  already spent;
* ``outcome`` — a terminal result for a key: ``done`` (payload is the
  base64-pickled result), ``failed`` (payload is the deterministic
  :class:`~repro.errors.ReproError`), or ``poisoned`` (payload is the
  :class:`~repro.errors.PoisonedSpecError`).

Durability is :class:`~repro.util.appendlog.AppendLog`'s: each record
is one fsync'd JSON line, so a crash tears at most the final line;
:func:`load_journal` skips and counts torn lines (``torn_records``),
and a reopening :class:`JournalWriter` newline-terminates a torn tail
before appending, so a journal survives any interleaving of crashes
and resumes.

A journal is a *resume artifact for one interrupted invocation*, not a
cache: replayed payloads are served exactly as recorded, with no
staleness check beyond the key match.  (The run cache, with its
scheduler-version salt, is the staleness-aware tier.)
"""

from __future__ import annotations

import base64
import os
import pickle
from dataclasses import dataclass, field
from typing import Any

from repro.errors import JournalError
from repro.util.appendlog import AppendLog, read_records, torn_note

#: Journal schema version; bump on incompatible record changes.
JOURNAL_SCHEMA = 1

#: Terminal outcome statuses.
DONE = "done"
FAILED = "failed"
POISONED = "poisoned"

_TERMINAL = frozenset({DONE, FAILED, POISONED})


def _encode_payload(payload: Any) -> str | None:
    """Base64-pickled ``payload``, or ``None`` when it cannot be
    serialized (the outcome is then recorded without a replayable
    payload and the spec re-executes on resume)."""
    try:
        return base64.b64encode(pickle.dumps(payload)).decode("ascii")
    except Exception:
        return None


@dataclass
class Outcome:
    """One terminal journal record, payload decoded lazily."""

    key: str
    status: str
    attempts: int
    payload_b64: str | None = None

    @property
    def replayable(self) -> bool:
        return self.payload_b64 is not None

    def payload(self) -> Any:
        """The recorded result object (a fresh deserialization per
        call — the same no-shared-mutable-state rule as a cache hit)."""
        if self.payload_b64 is None:
            raise JournalError(f"journal outcome for {self.key} has no payload")
        return pickle.loads(base64.b64decode(self.payload_b64))


@dataclass
class JournalState:
    """Everything :func:`load_journal` recovers from a journal file."""

    path: str
    command: list[str] | None = None
    outcomes: dict[str, Outcome] = field(default_factory=dict)
    attempts: dict[str, int] = field(default_factory=dict)
    records: int = 0
    torn_records: int = 0

    def describe(self) -> str:
        return (
            f"journal {self.path}: {len(self.outcomes)} outcome(s) over "
            f"{self.records} record(s){torn_note(self.torn_records)}"
        )


def load_journal(path: str | os.PathLike) -> JournalState:
    """Parse a journal, tolerating torn lines (see
    :func:`~repro.util.appendlog.read_records`).

    For duplicate outcome records (a replayed key journaled again) the
    *first* wins: it is the record whose payload every earlier reader
    already served.
    """
    path = os.fspath(path)
    records, torn = read_records(path)
    state = JournalState(path=path, records=len(records), torn_records=torn)
    for record in records:
        kind = record["type"]
        if kind == "header":
            command = record.get("command")
            if isinstance(command, list) and all(
                isinstance(part, str) for part in command
            ):
                state.command = command
        elif kind == "attempt":
            key, attempt = record.get("key"), record.get("attempt", 0)
            if isinstance(key, str) and isinstance(attempt, int):
                state.attempts[key] = max(state.attempts.get(key, 0), attempt)
        elif kind == "outcome":
            key, status = record.get("key"), record.get("status")
            if (
                isinstance(key, str)
                and status in _TERMINAL
                and key not in state.outcomes
            ):
                state.outcomes[key] = Outcome(
                    key=key,
                    status=status,
                    attempts=int(record.get("attempts", 0)),
                    payload_b64=record.get("payload"),
                )
        # Unknown record types from a newer writer are skipped silently.
    return state


class JournalWriter(AppendLog):
    """Appends journal records (an :class:`AppendLog` over the journal
    file).  The header is written only at the head of an empty file: a
    resumed sweep keeps the original header and argv."""

    def header(self, command: list[str] | None) -> None:
        """Write the header iff the journal holds no record yet."""
        if self.empty:
            self.append(
                {
                    "type": "header",
                    "schema": JOURNAL_SCHEMA,
                    "command": list(command) if command is not None else None,
                }
            )

    def attempt(self, key: str, attempt: int) -> None:
        self.append({"type": "attempt", "key": key, "attempt": attempt})

    def outcome(
        self, key: str, status: str, attempts: int, payload: Any
    ) -> Outcome:
        """Record a terminal outcome; returns the in-memory record."""
        if status not in _TERMINAL:
            raise JournalError(f"not a terminal status: {status!r}")
        encoded = _encode_payload(payload)
        self.append(
            {
                "type": "outcome",
                "key": key,
                "status": status,
                "attempts": attempts,
                "payload": encoded,
            }
        )
        return Outcome(
            key=key, status=status, attempts=attempts, payload_b64=encoded
        )
