"""The append-only, fsync'd JSONL log: the one durable log format.

Both write-ahead logs in the package sit on this module: the sweep
journal (:mod:`repro.supervisor.journal`) and the job server's jobs
ledger (:mod:`repro.serve.state`).  Each owns only its record schema
and its replay rule; this module owns the file discipline:

* every record is one JSON object with a ``type`` field, written as one
  line, flushed and ``fsync``'d before :meth:`AppendLog.append`
  returns — so a crash can tear at most the final line;
* opening an existing log newline-terminates a torn tail before the
  first append, so the next record parses (a torn fragment can
  therefore sit mid-file after several crash/reopen cycles);
* :func:`read_records` returns every intact record in file order and
  counts the torn lines it skipped; a missing file reads as empty;
* a path that cannot hold a log — a directory, or a path under a
  regular file — raises :class:`~repro.errors.JournalError` on open
  and on read, never a raw ``OSError``.
"""

from __future__ import annotations

import json
import os
from typing import IO, Any

from repro.errors import JournalError


def read_records(path: str | os.PathLike) -> tuple[list[dict], int]:
    """``(records, torn)``: the log's intact records in file order and
    the number of unparseable lines skipped."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return [], 0
    except OSError as exc:
        raise JournalError(f"cannot read log {path}: {exc}") from exc
    records: list[dict] = []
    torn = 0
    for line in raw.split(b"\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if not isinstance(record, dict) or "type" not in record:
            torn += 1
            continue
        records.append(record)
    return records, torn


def torn_note(torn: int) -> str:
    """The ``describe()`` suffix for a log with torn lines."""
    return f", {torn} torn record(s) skipped" if torn else ""


class AppendLog:
    """Appends fsync'd JSON records to one log file.

    Opening never rewrites history: an existing file is appended to,
    after its torn tail (if any) is newline-terminated.  ``empty`` is
    true until the file holds a record, which is how a layer writes a
    record only at the head of a fresh log.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        try:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            # Append mode: every write lands at the end, whatever the
            # read position the tail check leaves behind.
            self._fh: IO[bytes] = open(self.path, "a+b")
            self.empty = self._fh.seek(0, os.SEEK_END) == 0
            if not self.empty:
                self._fh.seek(-1, os.SEEK_END)
                if self._fh.read(1) != b"\n":
                    self._write(b"\n")
        except OSError as exc:
            raise JournalError(f"cannot open log {self.path}: {exc}") from exc

    def _write(self, data: bytes) -> None:
        self._fh.write(data)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def append(self, record: dict) -> None:
        """Write ``record`` as one line; durable when this returns."""
        self._write(json.dumps(record, sort_keys=True).encode() + b"\n")
        self.empty = False

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
