"""Sweep execution and crash-safe supervision (``repro.supervisor``).

:class:`Supervisor` is the only code in the package that starts worker
processes: every sweep — the CLI's ``--jobs N`` commands, the tuner's
grid, the fault sweeps, the job server — hands it independent work
items and gets results back in submission order.  A plain sweep runs
on :meth:`Supervisor.plain` (one attempt, no watchdog, no journal,
inline at one job).  Inline execution, like the fallback on a platform
without worker processes, is an in-process pool on the same drive
loop, so it retries, journals and drains exactly as worker processes
do.  With ``--journal``/``--spec-timeout`` the same
class becomes the durable execution layer — the checkpoint/restart
discipline the simulated cluster already practices (``repro.faults``)
applied to the harness itself:

* :class:`Supervisor` — watchdog timeouts, retry with exponential
  backoff + deterministic jitter, pool respawn on worker death, and
  poison-spec quarantine (:class:`~repro.errors.PoisonedSpecError`);
* :mod:`~repro.supervisor.journal` — the write-ahead journal behind
  ``--journal``: journal records on an
  :class:`~repro.util.appendlog.AppendLog` (fsync'd JSONL, torn-tail
  tolerant);
* :class:`~repro.supervisor.policy.RetryPolicy` — the knobs;
* :class:`~repro.supervisor.report.SupervisorReport` — what happened,
  attached to every supervised sweep and printed by the CLI.

Quickstart::

    from repro.supervisor import Supervisor, RetryPolicy

    sup = Supervisor(jobs=4, journal="sweep.jsonl",
                     policy=RetryPolicy(max_attempts=3, timeout=120.0))
    results = sup.run_specs(specs, return_exceptions=True)
    print(sup.report.render())

Re-running the same sweep with the same journal replays completed
specs and executes only the remainder — byte-identical to an
uninterrupted run.  ``python -m repro resume --journal PATH`` does the
same from the command line.
"""

from repro.supervisor.journal import (
    DONE,
    FAILED,
    POISONED,
    JournalState,
    JournalWriter,
    Outcome,
    load_journal,
)
from repro.supervisor.policy import RetryPolicy
from repro.supervisor.report import SupervisorReport
from repro.supervisor.supervisor import Supervisor, Task, drain_on_signals

__all__ = [
    "Supervisor",
    "Task",
    "drain_on_signals",
    "RetryPolicy",
    "SupervisorReport",
    "JournalWriter",
    "JournalState",
    "Outcome",
    "load_journal",
    "DONE",
    "FAILED",
    "POISONED",
]
