"""The append-only log contract, held by both logs built on it.

The sweep journal (``repro.supervisor.journal``) and the job server's
jobs ledger (``repro.serve.state``) are record formats over one
``AppendLog``.  Each test here runs against both, so the two can never
drift apart again: torn lines are skipped and counted, reopening
repairs a torn tail, the first outcome for a key wins, a missing file
is an empty state, and an unusable path is a structured
``JournalError`` — never a raw ``OSError``.
"""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.errors import JournalError
from repro.serve import DONE, JobServer, ServeConfig, load_ledger
from repro.serve.state import JobLedger
from repro.supervisor import JournalWriter, load_journal
from repro.supervisor.journal import DONE as JOURNAL_DONE


class Journal:
    """The sweep journal, seen through the contract."""

    writer = JournalWriter
    load = staticmethod(load_journal)

    @staticmethod
    def settle(log: JournalWriter, key: str, value: int) -> None:
        log.outcome(key, JOURNAL_DONE, 1, value)

    @staticmethod
    def settled(state) -> dict:
        return {key: o.payload() for key, o in state.outcomes.items()}


class Ledger:
    """The jobs ledger, seen through the contract."""

    writer = JobLedger
    load = staticmethod(load_ledger)

    @staticmethod
    def settle(log: JobLedger, key: str, value: int) -> None:
        log.job(key, "tenant", 1, {"kind": "simulate", "model": "lenet"})
        log.outcome(key, DONE, result={"value": value})

    @staticmethod
    def settled(state) -> dict:
        return {
            job.id: job.result["value"]
            for job in state.jobs.values()
            if job.settled
        }


LOGS = pytest.mark.parametrize("log", [Journal, Ledger], ids=["journal", "ledger"])


@LOGS
def test_append_log_contract(log, tmp_path):
    path = tmp_path / "log.jsonl"
    empty = log.load(path)  # missing file: an empty state, not an error
    assert log.settled(empty) == {}
    assert empty.records == 0 and empty.torn_records == 0

    with log.writer(path) as w:
        log.settle(w, "a", 1)
    with open(path, "ab") as fh:
        fh.write(b'{"type": "outcome", "ke')  # a crash mid-record
    assert log.load(path).torn_records == 1

    # Reopening newline-terminates the torn tail, so the fragment ends
    # up mid-file and the records appended after it still parse.
    with log.writer(path) as w:
        log.settle(w, "a", 2)  # a duplicate outcome: the first one wins
        log.settle(w, "b", 3)
    state = log.load(path)
    assert state.torn_records == 1
    assert log.settled(state) == {"a": 1, "b": 3}
    assert "1 torn record(s) skipped" in state.describe()


def _directory(tmp_path):
    path = tmp_path / "log.jsonl"
    path.mkdir()
    return path


def _under_a_file(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file")
    return blocker / "log.jsonl"


BAD_PATHS = pytest.mark.parametrize(
    "bad_path", [_directory, _under_a_file], ids=["directory", "under-a-file"]
)


@LOGS
@BAD_PATHS
def test_unusable_path_is_a_journal_error(log, bad_path, tmp_path):
    path = bad_path(tmp_path)
    with pytest.raises(JournalError, match="cannot read log"):
        log.load(path)
    with pytest.raises(JournalError, match="cannot open log"):
        log.writer(path)


@pytest.mark.parametrize(
    "layout", ["ledger-is-a-directory", "state-dir-is-a-file"]
)
def test_server_over_an_unusable_state_dir(layout, tmp_path, capsys):
    state_dir = tmp_path / "state"
    if layout == "ledger-is-a-directory":
        (state_dir / "jobs.jsonl").mkdir(parents=True)
    else:
        state_dir.write_text("a regular file")
    with pytest.raises(JournalError):
        JobServer(ServeConfig(port=0, state_dir=str(state_dir), quiet=True))
    # The CLI reports it as a one-line error, not a traceback.
    assert main(["serve", "--port", "0", "--state-dir", str(state_dir)]) == 1
    assert "error: cannot read log" in capsys.readouterr().err
