"""Crash-safe sweep supervision: the one owner of worker processes.

Every sweep in the package — the CLI's ``--jobs N`` commands, the
tuner's grid, the fault sweeps, the job server — runs its independent
work items through :class:`Supervisor`; no other module starts a
process pool.  A sweep nobody asked to make durable runs on
:meth:`Supervisor.plain` (one attempt, no watchdog, no journal, inline
at one job).  The durable form runs a list of :class:`Task` (or
:class:`~repro.perf.runner.RunSpec`) to completion *no matter what the
workers do*:

* a worker that segfaults or is OOM-killed breaks the process pool —
  the supervisor respawns the pool and re-submits every in-flight task
  instead of raising ``BrokenProcessPool`` out of the sweep;
* a worker that hangs trips the per-task watchdog
  (:class:`~repro.supervisor.policy.RetryPolicy.timeout`); reclaiming a
  hung process requires recycling the pool, so the timed-out task is
  charged an attempt and every innocent in-flight task is re-submitted
  with its attempt refunded;
* transient failures retry under exponential backoff with
  deterministic jitter;
* a task that keeps failing is **quarantined** after
  ``max_attempts`` — its result slot carries a structured
  :class:`~repro.errors.PoisonedSpecError` and the rest of the sweep
  completes normally, with the last attempt's exception as its
  ``__cause__``;
* deterministic domain failures (a returned or raised
  :class:`~repro.errors.ReproError` that is not a
  :class:`~repro.errors.WorkerError`) are *results*, never retried.

With a journal (see :mod:`repro.supervisor.journal`) every terminal
outcome is fsync'd as it lands, so a crash or Ctrl-C loses at most the
attempts currently in flight; re-running the same invocation with the
same ``--journal`` replays completed tasks and executes only the
remainder, byte-identical to an uninterrupted run (payloads round-trip
through pickle exactly like run-cache hits).

Results always come back in submission order, regardless of
completion, retry, or replay order — which is what makes ``--jobs 4``
output byte-identical to ``--jobs 1``.

There is one drive loop.  In-process execution (``inline``, or a
platform that cannot start worker processes) is a pool too: its
``submit`` runs the task and hands back a finished future, one task at
a time, so retry, failure, journaling and drain are written once and
an in-process sweep behaves like a pooled one, down to its failure
history.
"""

from __future__ import annotations

import contextlib
import os
import signal as _signal
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.errors import (
    ConfigError,
    DrainedError,
    PoisonedSpecError,
    ReproError,
    WorkerError,
)
from repro.perf.cache import RunCache
from repro.supervisor.journal import (
    DONE,
    FAILED,
    POISONED,
    JournalState,
    JournalWriter,
    load_journal,
)
from repro.supervisor.policy import RetryPolicy
from repro.supervisor.report import SupervisorReport

_MISS = RunCache.MISS
_UNSET = object()


@dataclass
class Task:
    """One unit of supervised work.

    ``fn`` must be a module-level callable (it crosses the process
    boundary by reference) taking ``payload`` and returning the
    outcome; returning a :class:`~repro.errors.ReproError` marks a
    deterministic failure, raising anything else marks a retryable one.
    ``key`` is the task's durable identity — journal replay and cache
    lookups match on it, so it must be stable across processes.
    """

    key: str
    fn: Callable[[Any], Any]
    payload: Any
    label: str = ""
    cacheable: bool = False

    @property
    def display(self) -> str:
        return self.label or self.key


class Supervisor:
    """Durable, watchdogged, resumable executor for sweep-shaped work.

    Parameters
    ----------
    jobs:
        Worker processes (>= 1).  Even ``jobs=1`` runs tasks in a
        child process — crash isolation is the point — unless
        ``inline`` is set or the platform cannot start worker
        processes; then the sweep runs on an in-process pool.
    cache:
        Optional :class:`~repro.perf.cache.RunCache` consulted before
        execution and updated after, for tasks with ``cacheable=True``.
    policy:
        :class:`~repro.supervisor.policy.RetryPolicy`; default retries
        twice with backoff and no watchdog.
    journal:
        Path to the write-ahead journal.  If the file already holds
        outcomes they are replayed; new outcomes are appended.
    command:
        CLI argv recorded in a fresh journal's header so ``python -m
        repro resume`` can re-invoke the sweep.
    mp_context:
        Optional ``multiprocessing`` context for the pool (tests pin
        ``fork``).
    sleep, clock:
        Injectable time sources (tests stub them).
    on_outcome:
        Optional callback ``(index, outcome)`` fired after each task
        *executed this process* reaches a terminal outcome.
    inline:
        Execute tasks in this process, one at a time, on the pool
        :meth:`_new_pool` returns instead of worker processes.  No
        crash isolation and no watchdog, but no pool-spawn cost either
        — the job server's light-isolation mode and
        :meth:`plain`'s one-job form.  The drive loop is the pooled
        one, so retry, backoff, quarantine, journaling and drain apply
        unchanged.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: RunCache | None = None,
        policy: RetryPolicy | None = None,
        journal: str | os.PathLike | None = None,
        command: list[str] | None = None,
        mp_context=None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        on_outcome: Callable[[int, Any], None] | None = None,
        inline: bool = False,
    ):
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.policy = policy if policy is not None else RetryPolicy()
        self.journal_path = os.fspath(journal) if journal is not None else None
        self.command = list(command) if command is not None else None
        self.mp_context = mp_context
        self._sleep = sleep
        self._clock = clock
        self.on_outcome = on_outcome
        self.inline = inline
        self._drain = threading.Event()
        self._state: JournalState = (
            load_journal(self.journal_path)
            if self.journal_path is not None
            else JournalState(path="")
        )
        self._writer: JournalWriter | None = None
        self._counters = {
            "tasks": 0,
            "replayed": 0,
            "cache_hits": 0,
            "executed": 0,
            "attempts": 0,
            "retries": 0,
            "respawns": 0,
            "timeouts": 0,
            "failures": 0,
            "drained": 0,
        }
        self._quarantined: list[str] = []
        self._history: dict[str, tuple[str, ...]] = {}
        self._recovery_wall = 0.0

    @classmethod
    def plain(
        cls, jobs: int = 1, cache: RunCache | None = None
    ) -> "Supervisor":
        """A sweep without ``--journal``/``--spec-timeout``: one
        attempt, no watchdog, no journal, and inline at ``jobs=1`` — a
        plain process pool (in-process at one job) that still returns
        results in submission order and settles a failing task as a
        :class:`~repro.errors.PoisonedSpecError` caused by its
        exception."""
        return cls(
            jobs=jobs, cache=cache, policy=RetryPolicy(max_attempts=1),
            inline=jobs == 1,
        )

    # -- reporting -------------------------------------------------------

    @property
    def report(self) -> SupervisorReport:
        """Cumulative accounting across every ``run_*`` call so far."""
        return SupervisorReport(
            tasks=self._counters["tasks"],
            replayed=self._counters["replayed"],
            cache_hits=self._counters["cache_hits"],
            executed=self._counters["executed"],
            attempts=self._counters["attempts"],
            retries=self._counters["retries"],
            respawns=self._counters["respawns"],
            timeouts=self._counters["timeouts"],
            failures=self._counters["failures"],
            drained=self._counters["drained"],
            quarantined=tuple(self._quarantined),
            recovery_wall_sec=self._recovery_wall,
            journal_path=self.journal_path,
            history=dict(self._history),
        )

    def describe(self) -> str:
        journal = f"; journal={self.journal_path}" if self.journal_path else ""
        return (
            f"supervisor: jobs={self.jobs}; {self.policy.describe()}{journal}"
        )

    # -- graceful drain --------------------------------------------------

    def request_drain(self) -> None:
        """Ask the supervisor to wind down: stop submitting queued
        tasks, let in-flight attempts settle (their outcomes are still
        journaled/cached), and return with every unstarted slot holding
        a :class:`~repro.errors.DrainedError`.

        Thread-safe and idempotent — the job server calls this from its
        event loop while ``run_tasks`` blocks in a worker thread, and
        :func:`drain_on_signals` calls it from a signal handler.  Drained
        tasks are *not* journaled, so re-running with the same journal
        (or ``repro resume``) replays the settled outcomes and executes
        only what the drain skipped.
        """
        self._drain.set()

    @property
    def draining(self) -> bool:
        """True once :meth:`request_drain` has been called."""
        return self._drain.is_set()

    # -- entry points ----------------------------------------------------

    def run_specs(self, specs, return_exceptions: bool = False) -> list:
        """Simulate run specs (:class:`~repro.perf.runner.RunSpec`):
        cache-first, results in spec order, domain errors in-slot or
        re-raised (see :meth:`run_tasks`).  Every spec is keyed by its
        fingerprint, so a spec without one raises
        :class:`~repro.perf.fingerprint.FingerprintError` before any
        task runs."""
        from repro.perf.runner import _execute_spec, spec_key

        tasks = [
            Task(
                key=spec_key(spec),
                fn=_execute_spec,
                payload=spec,
                label=spec.label or f"spec {i}",
                cacheable=True,
            )
            for i, spec in enumerate(specs)
        ]
        return self.run_tasks(tasks, return_exceptions=return_exceptions)

    def run_tasks(self, tasks: list[Task], return_exceptions: bool = False) -> list:
        """All tasks' outcomes, index-aligned with ``tasks``.

        Slots hold the task's return value, a deterministic
        :class:`~repro.errors.ReproError`, or a
        :class:`~repro.errors.PoisonedSpecError` for quarantined tasks.
        Without ``return_exceptions`` the first error (in task order)
        is raised after the sweep drains.
        """
        self._counters["tasks"] += len(tasks)
        if self.journal_path is not None and self._writer is None:
            self._writer = JournalWriter(self.journal_path)
            self._writer.header(self.command)

        results: list[Any] = [_UNSET] * len(tasks)
        attempts: dict[int, int] = {}
        pending: list[int] = []
        for i, task in enumerate(tasks):
            recorded = self._state.outcomes.get(task.key)
            if recorded is not None and recorded.replayable:
                try:
                    results[i] = recorded.payload()
                except Exception:
                    recorded = None  # undecodable payload: re-execute
                else:
                    self._counters["replayed"] += 1
                    continue
            if task.cacheable and self.cache is not None:
                hit = self.cache.get(task.key, _MISS)
                if hit is not _MISS:
                    results[i] = hit
                    self._counters["cache_hits"] += 1
                    self._journal_outcome(task, DONE, 0, hit)
                    continue
            # Journal attempt records survive crashes the outcome did
            # not: inherit the spent budget, but always leave at least
            # one fresh attempt (an interrupted attempt is not evidence
            # of poison — the interruption may have been the user's).
            attempts[i] = min(
                self._state.attempts.get(task.key, 0),
                self.policy.max_attempts - 1,
            )
            pending.append(i)

        if pending:
            self._counters["executed"] += len(pending)
            self._drive(tasks, pending, attempts, results)

        for i, value in enumerate(results):
            if value is _UNSET:
                # A drain stopped the sweep before this task started:
                # hand back a structured marker, journal nothing (the
                # task never ran), and let a resume execute it.
                results[i] = DrainedError(tasks[i].display)
                self._counters["drained"] += 1
                self._counters["executed"] -= 1
                if self.on_outcome is not None:
                    self.on_outcome(i, results[i])

        assert all(value is not _UNSET for value in results)
        if not return_exceptions:
            for value in results:
                if isinstance(value, ReproError):
                    raise value
        return results

    # -- journal ---------------------------------------------------------

    def _journal_outcome(
        self, task: Task, status: str, attempt_count: int, payload: Any
    ) -> None:
        if self._writer is None or task.key in self._state.outcomes:
            return
        self._state.outcomes[task.key] = self._writer.outcome(
            task.key, status, attempt_count, payload
        )

    # -- the drive loop --------------------------------------------------

    def _new_pool(self, workers: int) -> ProcessPoolExecutor | _InProcessPool:
        """The pool a sweep's attempts run on: ``workers`` worker
        processes, or an in-process pool when ``inline`` is set or this
        platform cannot start worker processes at all."""
        if not self.inline:
            try:
                return ProcessPoolExecutor(
                    max_workers=workers, mp_context=self.mp_context
                )
            except (OSError, NotImplementedError, ImportError):
                pass  # no worker processes on this platform
        return _InProcessPool()

    def _kill_pool(self, pool: ProcessPoolExecutor | _InProcessPool) -> None:
        """Tear a pool down even if its workers are hung: cancel what
        can be cancelled, then SIGTERM (and as a last resort SIGKILL)
        every worker process."""
        t0 = self._clock()
        processes = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in processes:
            try:
                proc.terminate()
            except Exception:
                pass
        for proc in processes:
            try:
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=2.0)
            except Exception:
                pass
        self._recovery_wall += self._clock() - t0

    def _drive(
        self,
        tasks: list[Task],
        pending: list[int],
        attempts: dict[int, int],
        results: list[Any],
    ) -> None:
        workers = max(1, min(self.jobs, len(pending)))
        queue: deque[int] = deque(pending)
        ready_at: dict[int, float] = {}
        histories: dict[int, list[str]] = {i: [] for i in pending}
        inflight: dict[Future, int] = {}
        deadlines: dict[Future, float | None] = {}
        started: dict[Future, float] = {}
        watchdog = self.policy.timeout
        pool: ProcessPoolExecutor | _InProcessPool | None = None
        # Tasks in flight when a worker crashed: any of them may be the
        # killer, so until they settle they go first and run one at a
        # time — the next crash then has a single suspect, and an
        # innocent task loses at most one attempt to a neighbour.
        suspects: set[int] = set()

        def open_pool() -> None:
            nonlocal pool, workers
            pool = self._new_pool(workers)
            if isinstance(pool, _InProcessPool):
                # One task at a time, so journal records and
                # ``on_outcome`` calls land in submission order.
                workers = 1

        def land(i: int, status: str, value: Any) -> None:
            """A terminal outcome: fill the slot, cache a success,
            journal it and report it."""
            task = tasks[i]
            results[i] = value
            if status == DONE and task.cacheable and self.cache is not None:
                self.cache.put(task.key, value)
            self._journal_outcome(task, status, attempts[i], value)
            if self.on_outcome is not None:
                self.on_outcome(i, value)

        def settle(i: int, fut: Future, t0: float) -> None:
            """Route one finished attempt.  A value is done; a returned
            or raised domain error (a ``ReproError`` but not a
            ``WorkerError``) is a failed result, never retried; any
            other exception, and a returned ``WorkerError``, retry."""
            if fut.cancelled():
                retryable(i, "attempt cancelled", t0)
                return
            exc = fut.exception()
            value = fut.result() if exc is None else exc
            if isinstance(value, WorkerError):
                retryable(
                    i,
                    f"worker error: {value.exc_type}: {value.exc_message}",
                    t0,
                    value,
                )
            elif isinstance(value, ReproError):
                self._counters["failures"] += 1
                land(i, FAILED, value)
            elif exc is not None:
                retryable(
                    i, f"worker raised {type(exc).__name__}: {exc}", t0, exc
                )
            else:
                land(i, DONE, value)

        def retryable(
            i: int,
            reason: str,
            t0: float,
            cause: BaseException | None = None,
        ) -> None:
            now = self._clock()
            self._recovery_wall += max(0.0, now - t0)
            histories[i].append(f"attempt {attempts[i]}: {reason}")
            if attempts[i] >= self.policy.max_attempts:
                task = tasks[i]
                error = PoisonedSpecError(
                    task.display, attempts[i], histories[i]
                )
                # The evidence: the last attempt's exception (from a
                # pool, a WorkerError carrying the worker's traceback).
                error.__cause__ = cause
                self._quarantined.append(task.display)
                self._history[task.display] = tuple(histories[i])
                land(i, POISONED, error)
            else:
                self._counters["retries"] += 1
                ready_at[i] = now + self.policy.backoff_delay(
                    tasks[i].key, attempts[i]
                )
                queue.append(i)

        def recycle(culprit_reasons: dict[int, str], refund_victims: bool) -> None:
            """Tear down the pool, salvaging finished work and
            re-queueing everything else."""
            nonlocal pool
            for fut in list(inflight):
                i = inflight.pop(fut)
                deadlines.pop(fut, None)
                t0 = started.pop(fut)
                fut.cancel()
                finished = (
                    fut.done()
                    and not fut.cancelled()
                    and fut.exception() is None
                )
                if finished:
                    settle(i, fut, t0)
                elif i in culprit_reasons:
                    retryable(i, culprit_reasons[i], t0)
                else:
                    # Collateral of the recycle, not this task's fault.
                    if refund_victims:
                        attempts[i] -= 1
                    self._recovery_wall += max(0.0, self._clock() - t0)
                    ready_at[i] = 0.0
                    queue.append(i)
            self._kill_pool(pool)
            pool = None

        def submit(i: int) -> None:
            attempts[i] += 1
            self._counters["attempts"] += 1
            task = tasks[i]
            if self._writer is not None:
                self._writer.attempt(task.key, attempts[i])
            # Read before ``submit``: an in-process pool runs the
            # attempt right there, and its time counts like a worker's.
            t0 = self._clock()
            try:
                fut = pool.submit(task.fn, task.payload)
            except BrokenExecutor:
                # The pool died while idle (a worker crashed between
                # waits).  One respawn, then let a second break raise.
                self._counters["respawns"] += 1
                self._kill_pool(pool)
                open_pool()
                t0 = self._clock()
                fut = pool.submit(task.fn, task.payload)
            inflight[fut] = i
            started[fut] = t0
            deadlines[fut] = t0 + watchdog if watchdog else None

        try:
            while queue or inflight:
                if self._drain.is_set() and not inflight:
                    break  # unstarted tasks become DrainedError slots
                if pool is None:
                    open_pool()
                now = self._clock()
                suspects = {i for i in suspects if results[i] is _UNSET}
                limit = 1 if suspects else workers
                if queue and len(inflight) < limit and not self._drain.is_set():
                    ready = [
                        i for i in queue if ready_at.get(i, 0.0) <= now
                    ]
                    if suspects:
                        ready.sort(key=lambda i: i not in suspects)
                    for i in ready[: limit - len(inflight)]:
                        queue.remove(i)
                        submit(i)
                if not inflight:
                    if not queue:
                        break
                    soonest = min(ready_at.get(i, 0.0) for i in queue)
                    self._sleep(max(0.0, soonest - self._clock()))
                    continue

                wait_candidates = [
                    d - now for d in deadlines.values() if d is not None
                ]
                if queue and len(inflight) < limit and not self._drain.is_set():
                    wait_candidates += [
                        ready_at.get(i, 0.0) - now for i in queue
                    ]
                wait_timeout = (
                    max(0.0, min(wait_candidates)) if wait_candidates else None
                )
                done, _ = wait(
                    list(inflight),
                    timeout=wait_timeout,
                    return_when=FIRST_COMPLETED,
                )

                for fut in done:
                    if fut not in inflight:
                        continue  # consumed by an earlier recycle
                    if not fut.cancelled() and isinstance(
                        fut.exception(), BrokenExecutor
                    ):
                        self._counters["respawns"] += 1
                        reasons = {
                            i: "worker crashed (process pool broken)"
                            for i in inflight.values()
                        }
                        suspects.update(reasons)
                        recycle(reasons, refund_victims=False)
                        break
                    i = inflight.pop(fut)
                    deadlines.pop(fut, None)
                    settle(i, fut, started.pop(fut))

                if watchdog and inflight:
                    now = self._clock()
                    expired = {
                        inflight[fut]
                        for fut, dline in deadlines.items()
                        if dline is not None
                        and now >= dline
                        and fut in inflight
                        and not fut.done()
                    }
                    if expired:
                        self._counters["timeouts"] += len(expired)
                        self._counters["respawns"] += 1
                        reasons = {
                            i: (
                                f"timed out after {watchdog:g}s "
                                f"(watchdog killed the pool)"
                            )
                            for i in expired
                        }
                        recycle(reasons, refund_victims=True)
        except BaseException:
            if pool is not None:
                self._kill_pool(pool)
                pool = None
            raise
        finally:
            if pool is not None:
                pool.shutdown()


class _InProcessPool:
    """The pool of an in-process sweep (``inline``, or a platform that
    cannot start worker processes): ``submit`` runs the task in this
    process and returns its finished future, which the drive loop
    settles like a worker's.  No crash isolation, and no watchdog: a
    running attempt cannot be reclaimed."""

    def submit(self, fn: Callable[[Any], Any], payload: Any) -> Future:
        fut: Future = Future()
        try:
            fut.set_result(fn(payload))
        except Exception as exc:  # noqa: BLE001 — the future carries it
            fut.set_exception(exc)
        return fut

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


@contextlib.contextmanager
def drain_on_signals(
    supervisor: Supervisor,
    signals: tuple[int, ...] = (_signal.SIGTERM, _signal.SIGINT),
) -> Iterator[None]:
    """Turn SIGTERM/SIGINT into a graceful supervisor drain.

    The first signal calls :meth:`Supervisor.request_drain` — queued
    specs stop being admitted, in-flight attempts settle and are
    journaled, and the sweep returns with the unstarted slots marked
    :class:`~repro.errors.DrainedError` — then restores that signal's
    previous handler, so a *second* signal behaves as before (for
    SIGINT: ``KeyboardInterrupt``), an escape hatch when an attempt is
    stuck.  Previous handlers are restored on exit either way.

    Signal handlers are main-thread-only; installing from any other
    thread is a silent no-op (the server drains by calling
    ``request_drain`` directly instead).
    """
    previous: dict[int, Any] = {}

    def on_signal(signum: int, frame: Any) -> None:
        supervisor.request_drain()
        old = previous.get(signum)
        if old is not None:
            try:
                _signal.signal(signum, old)
            except (ValueError, OSError):
                pass

    try:
        for sig in signals:
            previous[sig] = _signal.signal(sig, on_signal)
    except ValueError:
        # Not the main thread: leave whatever we did install in place
        # for the duration (it is restored below) and carry on.
        pass
    try:
        yield
    finally:
        for sig, old in previous.items():
            try:
                if _signal.getsignal(sig) is on_signal:
                    _signal.signal(sig, old)
            except (ValueError, OSError):
                pass
