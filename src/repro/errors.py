"""Exception hierarchy for the Harmony reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration mistakes from runtime
invariant violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A user-supplied configuration is invalid or inconsistent."""


class TopologyError(ConfigError):
    """A hardware topology is malformed (unknown device, no route, ...)."""


class ModelError(ConfigError):
    """A model graph is malformed (empty, negative sizes, bad layer refs)."""


class CapacityError(ReproError):
    """A task's working set cannot fit in device memory even after
    evicting everything evictable.

    This is the simulated analogue of a CUDA out-of-memory error: the
    memory manager raises it when a single task's pinned working set
    exceeds the device's capacity, which no amount of swapping can fix.
    """


class SchedulingError(ReproError):
    """The scheduler produced an inconsistent plan (cycle, unplaced task,
    dependency on a task that never runs)."""


class SimulationError(ReproError):
    """The discrete-event engine detected an internal invariant violation
    (e.g. deadlock: tasks remain but nothing can make progress)."""


class SteadyStateError(SimulationError):
    """``--steady-state force`` demanded a fast-forwarded run but the
    executor never proved periodicity (too few iterations for a
    warm-up + detection + final live iteration, or a run whose state
    genuinely never converges to a cycle)."""


class TensorStateError(ReproError):
    """An illegal tensor lifetime transition was attempted."""


class FaultError(ReproError):
    """An injected fault could not be absorbed by the resilience layer
    (retries exhausted, no surviving devices, re-planning impossible)."""


class DeviceLostError(FaultError):
    """A device was lost mid-run (the simulated analogue of a GPU
    falling off the bus).

    Raised out of the event loop at the injected loss time; the
    resilient runner catches it, accounts the lost work, and re-plans
    the remaining work onto the surviving devices.  ``device`` names the
    lost device and ``at`` is the *local* simulation time of the loss
    within the interrupted segment.
    """

    def __init__(self, device: str, at: float):
        self.device = device
        self.at = at
        super().__init__(f"device {device} lost at t={at:.6g}s")


class WorkerError(ReproError):
    """An unexpected (non-:class:`ReproError`) exception escaped a sweep
    worker.

    Raw third-party exceptions are not guaranteed to survive the pickle
    round-trip back to the parent process (and an unpicklable exception
    tears down the whole pool), so workers wrap them in this flat,
    always-picklable record: the failing spec's label, the original
    exception type and message, and the formatted traceback text.

    The supervisor treats a ``WorkerError`` as *possibly transient* —
    it retries the spec under the backoff policy — whereas ordinary
    :class:`ReproError` outcomes are deterministic domain results
    (infeasible spec, audit failure) and are never retried.
    """

    def __init__(
        self,
        label: str,
        exc_type: str,
        exc_message: str,
        traceback_text: str = "",
    ):
        self.label = label
        self.exc_type = exc_type
        self.exc_message = exc_message
        self.traceback_text = traceback_text
        super().__init__(
            f"worker failed on {label or 'spec'}: {exc_type}: {exc_message}"
        )

    def __reduce__(self):
        # BaseException pickles via ``(cls, self.args)``; our args hold
        # the formatted message, not the constructor signature, so spell
        # the reconstruction out.
        return (
            type(self),
            (self.label, self.exc_type, self.exc_message, self.traceback_text),
        )

    @classmethod
    def from_exception(cls, label: str, exc: BaseException) -> "WorkerError":
        import traceback

        return cls(
            label,
            type(exc).__name__,
            str(exc),
            traceback.format_exc(),
        )


class PoisonedSpecError(ReproError):
    """A spec was quarantined: every attempt the supervisor's retry
    budget allowed ended in a crash, hang, or unexpected worker error.

    The sweep completes with this error in the spec's result slot
    instead of aborting; ``history`` carries one line per failed
    attempt so the quarantine decision is auditable.
    """

    def __init__(self, label: str, attempts: int, history=()):
        self.label = label
        self.attempts = attempts
        self.history = tuple(history)
        tail = f"; last failure: {self.history[-1]}" if self.history else ""
        super().__init__(
            f"spec {label or '?'} quarantined after "
            f"{attempts} attempt(s){tail}"
        )

    def __reduce__(self):
        return (type(self), (self.label, self.attempts, self.history))


class DrainedError(ReproError):
    """A supervised task was never started because the supervisor was
    asked to drain (:meth:`~repro.supervisor.Supervisor.request_drain`).

    Unlike :class:`PoisonedSpecError` this is not a verdict about the
    task — it was simply not reached before shutdown.  Drained tasks
    are *not* journaled, so resuming the same journal executes them.
    """

    def __init__(self, label: str):
        self.label = label
        super().__init__(
            f"task {label or '?'} not started: supervisor drained"
        )

    def __reduce__(self):
        return (type(self), (self.label,))


class JournalError(ReproError):
    """An append-only log — a sweep journal or the server's jobs ledger
    — is unusable (unreadable or unopenable path, missing header)."""


class ServeError(ReproError):
    """Base class for job-server (``repro.serve``) failures."""


class JobSpecError(ServeError):
    """A submitted job payload is malformed or names unknown entities
    (model, scheme, kind).  Maps to HTTP 400."""


class QuotaExceededError(ServeError):
    """A tenant's admission would exceed its quota.  Maps to HTTP 429
    with a ``Retry-After`` hint.

    ``tenant`` is the offending tenant, ``limit`` its configured cap,
    and ``in_use`` the jobs it already has queued or running.
    """

    def __init__(self, tenant: str, limit: int, in_use: int):
        self.tenant = tenant
        self.limit = limit
        self.in_use = in_use
        super().__init__(
            f"tenant {tenant!r} quota exceeded: "
            f"{in_use}/{limit} job(s) already queued or running"
        )

    def __reduce__(self):
        return (type(self), (self.tenant, self.limit, self.in_use))


class QueueFullError(ServeError):
    """The server's global admission queue is at capacity.  Maps to
    HTTP 503 with a ``Retry-After`` hint (``retry_after`` seconds)."""

    def __init__(self, depth: int, limit: int, retry_after: float = 1.0):
        self.depth = depth
        self.limit = limit
        self.retry_after = retry_after
        super().__init__(
            f"admission queue full: {depth}/{limit} job(s) queued"
        )

    def __reduce__(self):
        return (type(self), (self.depth, self.limit, self.retry_after))


class AuditError(ReproError):
    """A finished run failed its post-hoc physical-consistency audit.

    Carries the structured violation records so callers can render or
    inspect them; ``str(exc)`` summarizes the first few.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        kinds = sorted({str(v.kind) for v in self.violations})
        preview = "; ".join(v.message for v in self.violations[:3])
        super().__init__(
            f"run failed audit with {len(self.violations)} violation(s) "
            f"[{', '.join(kinds)}]: {preview}"
        )
