"""The asyncio HTTP job server behind ``python -m repro serve``.

One process, three layers:

* an **asyncio front-end** (stdlib streams, no framework) parsing
  HTTP/1.1 by hand — every admission decision runs on the event-loop
  thread, which is the single serialization point for queue, quota,
  and tenant state (no locks, no races);
* a **thread-pool execution layer** (``workers`` concurrent jobs);
  each job runs under its own :class:`~repro.supervisor.Supervisor`
  with a per-job write-ahead journal, so specs inherit the watchdog /
  retry / quarantine machinery, and every tenant's supervisor shares
  one thread-safe :class:`~repro.perf.cache.RunCache` — two tenants
  submitting the same fingerprint dedup to one simulation;
* a **durable admission ledger** (:mod:`repro.serve.state`) fsync'd
  before the 202 response, so an acknowledged job survives ``kill -9``
  and a restart with the same ``--state-dir`` re-queues it, replaying
  journal-settled specs byte-identically.

Overload is bounded and observable, never absorbed: a full queue is
HTTP 503 and a tenant over quota is HTTP 429, both with ``Retry-After``
estimated from the measured service rate; ``/stats`` reports queue
depth, per-tenant usage, and cache hit rate.

SIGTERM/SIGINT start a graceful drain: ``/readyz`` flips to 503, new
submissions are refused, running jobs finish (after ``--drain-grace``
seconds their supervisors are drained instead — settled specs stay
journaled), queued jobs stay in the ledger for the next incarnation,
and the process exits 0.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import (
    ConfigError,
    DrainedError,
    JobSpecError,
    QueueFullError,
    QuotaExceededError,
    ReproError,
)
from repro.perf.cache import RunCache
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobSpec,
    execute_job,
    job_total,
    parse_job,
    spec_to_json,
)
from repro.serve.state import JobLedger, load_ledger
from repro.serve.tenants import FairQueue, TenantPolicy, TenantTable
from repro.supervisor import RetryPolicy, Supervisor

#: Largest request body the server will read (a job document is tiny;
#: anything bigger is abuse, refused before it is buffered).
MAX_BODY_BYTES = 1 << 20

#: Default tenant name when neither header nor body names one.
DEFAULT_TENANT = "default"


@dataclass
class ServeConfig:
    """Everything ``python -m repro serve`` can configure."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Durability root: jobs ledger, per-job journals, endpoint file.
    #: ``None`` = ephemeral (no crash recovery) — tests and load runs.
    state_dir: str | None = None
    #: Concurrent jobs (execution worker threads).
    workers: int = 2
    #: Worker *processes* per job supervisor (process isolation mode).
    sup_jobs: int = 1
    #: ``process`` = each spec in a supervised worker process (crash
    #: isolation + watchdog); ``inline`` = specs run in the job thread
    #: (no pool-spawn cost; retry/journal/drain still apply).
    isolation: str = "process"
    #: Global admission bound: queued jobs beyond this are 503'd.
    max_queue: int = 64
    #: Fallback policy for tenants absent from ``tenants``.
    default_tenant: TenantPolicy = field(default_factory=TenantPolicy)
    tenants: dict[str, TenantPolicy] = field(default_factory=dict)
    max_attempts: int = 3
    #: Watchdog ceiling per spec attempt; also clamps per-job
    #: ``timeout_sec`` requests.
    spec_timeout: float | None = None
    cache_dir: str | None = None
    no_cache: bool = False
    #: Seconds a graceful drain waits for running jobs before draining
    #: their supervisors (``None`` = wait for them to finish).
    drain_grace: float | None = None
    #: Suppress the startup/shutdown banner (in-process harness use).
    quiet: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.max_queue < 1:
            raise ConfigError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.isolation not in ("process", "inline"):
            raise ConfigError(
                f"isolation must be 'process' or 'inline', "
                f"got {self.isolation!r}"
            )


@dataclass
class JobRecord:
    """One job's in-memory lifecycle state."""

    id: str
    tenant: str
    seq: int
    spec: JobSpec
    status: str = QUEUED
    result: dict | None = None
    error: dict | None = None
    progress_done: int = 0
    progress_total: int | None = None
    supervisor_counters: dict | None = None
    #: Set by the execution thread while the job runs (drain hook).
    supervisor: Supervisor | None = None
    drain_requested: bool = False
    started_monotonic: float | None = None

    def to_json(self, detail: bool = False) -> dict:
        doc: dict[str, Any] = {
            "id": self.id,
            "tenant": self.tenant,
            "kind": self.spec.kind,
            "model": self.spec.model,
            "status": self.status,
            "progress": {
                "done": self.progress_done,
                "total": self.progress_total,
            },
        }
        if self.status == DONE:
            doc["result"] = self.result
        if self.error is not None:
            doc["error"] = self.error
        if detail:
            doc["spec"] = spec_to_json(self.spec)
            if self.supervisor_counters is not None:
                doc["supervisor"] = self.supervisor_counters
        return doc


class JobServer:
    """The multi-tenant simulation job server (one instance, one
    event loop, one shared run cache)."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.cache: RunCache | None = (
            None
            if config.no_cache
            else RunCache(cache_dir=config.cache_dir)
        )
        self.tenants = TenantTable(config.tenants, config.default_tenant)
        self.queue = FairQueue(self.tenants)
        self.jobs: dict[str, JobRecord] = {}
        self._running: dict[str, JobRecord] = {}
        self._slots = config.workers
        self._seq = 0
        self._draining = False
        self._service_ewma = 1.0  # seconds per job, EWMA
        self._started_monotonic = time.monotonic()
        self._rejections = {
            "quota": 0, "queue_full": 0, "draining": 0, "invalid": 0,
        }
        self._sup_totals: dict[str, int] = {}
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._done: asyncio.Event | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="repro-serve-job"
        )

        if config.state_dir is not None:
            # The ledger creates the state dir (and each job's journal
            # its journals dir); an unusable path is a JournalError.
            ledger_path = os.path.join(config.state_dir, "jobs.jsonl")
            recovered = load_ledger(ledger_path)
            self.ledger: JobLedger | None = JobLedger(ledger_path)
            self._recover(recovered)
        else:
            self.ledger = None

    # -- paths -----------------------------------------------------------

    def _journal_dir(self) -> str:
        assert self.config.state_dir is not None
        return os.path.join(self.config.state_dir, "journals")

    def _journal_path(self, job_id: str) -> str | None:
        if self.config.state_dir is None:
            return None
        return os.path.join(self._journal_dir(), f"{job_id}.jsonl")

    # -- recovery --------------------------------------------------------

    def _recover(self, recovered) -> None:
        """Rebuild job state from the ledger: settled jobs become
        terminal records served without recomputation; pending jobs
        re-queue in submission order (their journals replay whatever
        already settled)."""
        self._seq = recovered.max_seq
        for entry in sorted(recovered.jobs.values(), key=lambda j: j.seq):
            try:
                spec = parse_job(entry.spec)
            except ReproError as exc:
                # A ledgered spec this build can no longer parse (e.g.
                # a scheme renamed between versions): settle it as
                # failed rather than crash-looping the whole server.
                spec = None
                parse_error = {
                    "type": type(exc).__name__, "message": str(exc),
                }
            record = JobRecord(
                id=entry.id,
                tenant=entry.tenant,
                seq=entry.seq,
                spec=spec if spec is not None else JobSpec("simulate", "lenet"),
                progress_total=job_total(spec) if spec is not None else None,
            )
            self.jobs[entry.id] = record
            usage = self.tenants.usage_for(entry.tenant)
            if entry.settled:
                record.status = entry.status
                record.result = entry.result
                record.error = entry.error
                if entry.status == DONE:
                    usage.done += 1
                elif entry.status == FAILED:
                    usage.failed += 1
                else:
                    usage.cancelled += 1
            elif spec is None:
                record.status = FAILED
                record.error = parse_error
                usage.failed += 1
                if self.ledger is not None:
                    # Settle it durably so the next restart agrees.
                    self.ledger.outcome(entry.id, FAILED, error=parse_error)
            else:
                record.status = QUEUED
                usage.queued += 1
                self.queue.push(entry.tenant, entry.id)

    # -- admission (event-loop thread only) ------------------------------

    def _retry_after(self) -> int:
        """Seconds a refused client should wait, from the measured
        service rate: the backlog's expected drain time across the
        worker slots, clamped to something a client will tolerate."""
        backlog = len(self.queue) + len(self._running) + 1
        estimate = backlog * self._service_ewma / max(1, self.config.workers)
        return max(1, min(600, math.ceil(estimate)))

    def submit(self, tenant: str, payload: Any) -> JobRecord:
        """Admit one job (or raise the structured refusal).  Called on
        the event-loop thread; the 202 is sent only after the ledger
        fsync returns."""
        if self._draining:
            self._rejections["draining"] += 1
            raise QueueFullError(len(self.queue), self.config.max_queue, 30)
        try:
            spec = parse_job(payload)
        except JobSpecError:
            self._rejections["invalid"] += 1
            raise
        try:
            self.tenants.check_quota(tenant)
        except QuotaExceededError:
            self._rejections["quota"] += 1
            raise
        if len(self.queue) >= self.config.max_queue:
            self._rejections["queue_full"] += 1
            raise QueueFullError(
                len(self.queue), self.config.max_queue, self._retry_after()
            )
        self._seq += 1
        job_id = f"job-{self._seq:06d}"
        record = JobRecord(
            id=job_id,
            tenant=tenant,
            seq=self._seq,
            spec=spec,
            progress_total=job_total(spec),
        )
        if self.ledger is not None:
            self.ledger.job(job_id, tenant, self._seq, spec_to_json(spec))
        self.jobs[job_id] = record
        self.tenants.usage_for(tenant).queued += 1
        self.queue.push(tenant, job_id)
        self._pump()
        return record

    def cancel(self, job_id: str) -> JobRecord | None:
        """Cancel a *queued* job; returns the record, or ``None`` when
        it is not cancellable (running or already terminal)."""
        record = self.jobs.get(job_id)
        if record is None or record.status != QUEUED:
            return None
        if not self.queue.remove(job_id):
            return None
        record.status = CANCELLED
        usage = self.tenants.usage_for(record.tenant)
        usage.queued -= 1
        usage.cancelled += 1
        if self.ledger is not None:
            self.ledger.outcome(job_id, CANCELLED)
        return record

    # -- execution -------------------------------------------------------

    def _pump(self) -> None:
        """Start queued jobs while worker slots are free (loop thread)."""
        if self._draining:
            return
        while self._slots > 0:
            job_id = self.queue.pop()
            if job_id is None:
                break
            self._start_job(self.jobs[job_id])

    def _start_job(self, record: JobRecord) -> None:
        record.status = RUNNING
        record.started_monotonic = time.monotonic()
        usage = self.tenants.usage_for(record.tenant)
        usage.queued -= 1
        usage.running += 1
        self._slots -= 1
        self._running[record.id] = record
        assert self._loop is not None
        future = self._loop.run_in_executor(
            self._executor, self._run_job, record
        )
        future.add_done_callback(
            lambda fut, rec=record: self._job_finished(rec, fut)
        )

    def _effective_timeout(self, spec: JobSpec) -> float | None:
        ceiling = self.config.spec_timeout
        requested = spec.timeout_sec
        if requested is None:
            return ceiling
        if ceiling is None:
            return requested
        return min(requested, ceiling)

    def _run_job(self, record: JobRecord):
        """Execute one job under its own supervisor (worker thread)."""
        sup = Supervisor(
            jobs=self.config.sup_jobs,
            cache=self.cache,
            policy=RetryPolicy(
                max_attempts=self.config.max_attempts,
                timeout=self._effective_timeout(record.spec),
            ),
            journal=self._journal_path(record.id),
            inline=self.config.isolation == "inline",
            on_outcome=lambda i, outcome, rec=record: setattr(
                rec, "progress_done", rec.progress_done + 1
            ),
        )
        record.supervisor = sup
        if record.drain_requested:  # hard drain raced the spawn
            sup.request_drain()
        try:
            result = execute_job(record.spec, sup, cache=self.cache)
            return ("done", result, None, dict(sup._counters))
        except DrainedError as exc:
            return (
                "drained",
                None,
                {"type": type(exc).__name__, "message": str(exc)},
                dict(sup._counters),
            )
        except ReproError as exc:
            return (
                "failed",
                None,
                {"type": type(exc).__name__, "message": str(exc)},
                dict(sup._counters),
            )
        except Exception as exc:  # noqa: BLE001 — the job must settle
            return (
                "failed",
                None,
                {"type": type(exc).__name__, "message": str(exc)},
                dict(sup._counters),
            )

    def _job_finished(self, record: JobRecord, future) -> None:
        """Settle one finished job (loop thread, via future callback)."""
        self._slots += 1
        self._running.pop(record.id, None)
        record.supervisor = None
        usage = self.tenants.usage_for(record.tenant)
        usage.running -= 1
        status, result, error, counters = future.result()
        record.supervisor_counters = counters
        for key, value in counters.items():
            self._sup_totals[key] = self._sup_totals.get(key, 0) + value
        if record.started_monotonic is not None:
            elapsed = time.monotonic() - record.started_monotonic
            self._service_ewma = 0.8 * self._service_ewma + 0.2 * elapsed
        if status == "done":
            record.status = DONE
            record.result = result
            usage.done += 1
            if self.ledger is not None:
                self.ledger.outcome(record.id, DONE, result=result)
        elif status == "failed":
            record.status = FAILED
            record.error = error
            usage.failed += 1
            if self.ledger is not None:
                self.ledger.outcome(record.id, FAILED, error=error)
        else:
            # Drained mid-job: back to queued, *no* ledger outcome —
            # the next incarnation re-runs it, replaying the specs its
            # journal already settled.
            record.status = QUEUED
            record.progress_done = 0
            usage.queued += 1
        self._pump()
        self._maybe_finish()

    # -- drain -----------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting, let running jobs settle, then shut down.
        Idempotent; callable only on the event-loop thread (use
        ``loop.call_soon_threadsafe`` from elsewhere)."""
        if self._draining:
            return
        self._draining = True
        if self.config.drain_grace is not None and self._loop is not None:
            self._loop.call_later(self.config.drain_grace, self._hard_drain)
        self._maybe_finish()

    def _hard_drain(self) -> None:
        """Grace expired: drain the running jobs' supervisors.  Their
        settled specs are journaled; the jobs return to the queue for
        the next incarnation."""
        for record in self._running.values():
            record.drain_requested = True
            if record.supervisor is not None:
                record.supervisor.request_drain()

    def _maybe_finish(self) -> None:
        if self._draining and not self._running and self._done is not None:
            self._done.set()

    @property
    def draining(self) -> bool:
        return self._draining

    # -- stats -----------------------------------------------------------

    def stats(self) -> dict:
        by_status: dict[str, int] = {}
        for record in self.jobs.values():
            by_status[record.status] = by_status.get(record.status, 0) + 1
        doc: dict[str, Any] = {
            "draining": self._draining,
            "uptime_sec": time.monotonic() - self._started_monotonic,
            "queue": {
                "depth": len(self.queue),
                "limit": self.config.max_queue,
                "running": len(self._running),
                "workers": self.config.workers,
                "retry_after_hint": self._retry_after(),
            },
            "jobs": {"total": len(self.jobs), **by_status},
            "rejections": dict(self._rejections),
            "tenants": self.tenants.stats(),
            "supervisor": dict(self._sup_totals),
        }
        if self.cache is not None:
            doc["cache"] = {
                **self.cache.counters(),
                "hit_rate": self.cache.hit_rate,
                "entries": len(self.cache),
            }
        return doc

    # -- HTTP ------------------------------------------------------------

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            status, payload, extra = await self._handle_request(reader)
        except asyncio.IncompleteReadError:
            status, payload, extra = 400, {"error": "truncated request"}, {}
        except (asyncio.TimeoutError, ConnectionError):
            writer.close()
            return
        except Exception as exc:  # noqa: BLE001 — never kill the server
            status, payload, extra = (
                500,
                {"error": "internal", "message": str(exc)},
                {},
            )
        body = json.dumps(payload, sort_keys=True).encode()
        reason = {
            200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            409: "Conflict", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable",
        }.get(status, "OK")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        headers += [f"{name}: {value}" for name, value in extra.items()]
        try:
            writer.write("\r\n".join(headers).encode() + b"\r\n\r\n" + body)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, Any, dict]:
        request_line = await asyncio.wait_for(reader.readline(), timeout=30.0)
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            return 400, {"error": "malformed request line"}, {}
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout=30.0)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0") or "0"
        try:
            length = int(length_text)
        except ValueError:
            return 400, {"error": "bad Content-Length"}, {}
        if length > MAX_BODY_BYTES:
            return 413, {"error": "body too large"}, {}
        body = await reader.readexactly(length) if length else b""
        return self._route(method, target, headers, body)

    def _route(
        self, method: str, target: str, headers: dict, body: bytes
    ) -> tuple[int, Any, dict]:
        path, _, query = target.partition("?")

        if path == "/healthz" and method == "GET":
            return 200, {"status": "ok"}, {}
        if path == "/readyz" and method == "GET":
            if self._draining:
                return 503, {"status": "draining"}, {"Retry-After": "30"}
            return 200, {"status": "ready"}, {}
        if path == "/stats" and method == "GET":
            return 200, self.stats(), {}

        if path == "/jobs" and method == "POST":
            try:
                payload = json.loads(body.decode() or "null")
            except (ValueError, UnicodeDecodeError):
                self._rejections["invalid"] += 1
                return 400, {"error": "body is not valid JSON"}, {}
            tenant = headers.get("x-tenant")
            if tenant is None and isinstance(payload, dict):
                tenant = payload.get("tenant")
            if tenant is None:
                tenant = DEFAULT_TENANT
            if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
                self._rejections["invalid"] += 1
                return 400, {"error": "tenant must be 1-64 characters"}, {}
            try:
                record = self.submit(tenant, payload)
            except JobSpecError as exc:
                return 400, {"error": "invalid_job", "message": str(exc)}, {}
            except QuotaExceededError as exc:
                return (
                    429,
                    {
                        "error": "quota_exceeded",
                        "message": str(exc),
                        "tenant": exc.tenant,
                        "limit": exc.limit,
                        "in_use": exc.in_use,
                    },
                    {"Retry-After": str(self._retry_after())},
                )
            except QueueFullError as exc:
                return (
                    503,
                    {
                        "error": "draining" if self._draining else "queue_full",
                        "message": str(exc),
                        "depth": exc.depth,
                        "limit": exc.limit,
                    },
                    {"Retry-After": str(int(exc.retry_after))},
                )
            return (
                202,
                {
                    "id": record.id,
                    "status": record.status,
                    "tenant": record.tenant,
                    "url": f"/jobs/{record.id}",
                },
                {},
            )

        if path == "/jobs" and method == "GET":
            tenant_filter = None
            for pair in query.split("&"):
                if pair.startswith("tenant="):
                    tenant_filter = pair[len("tenant="):]
            records = [
                record.to_json()
                for record in sorted(
                    self.jobs.values(), key=lambda r: r.seq
                )
                if tenant_filter is None or record.tenant == tenant_filter
            ]
            return 200, {"jobs": records}, {}

        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            record = self.jobs.get(job_id)
            if method == "GET":
                if record is None:
                    return 404, {"error": "no such job", "id": job_id}, {}
                return 200, record.to_json(detail=True), {}
            if method == "DELETE":
                if record is None:
                    return 404, {"error": "no such job", "id": job_id}, {}
                cancelled = self.cancel(job_id)
                if cancelled is None:
                    return (
                        409,
                        {
                            "error": "not_cancellable",
                            "status": record.status,
                        },
                        {},
                    )
                return 200, cancelled.to_json(), {}
            return 405, {"error": "method not allowed"}, {}

        if path in ("/healthz", "/readyz", "/stats", "/jobs"):
            return 405, {"error": "method not allowed"}, {}
        return 404, {"error": "no such endpoint", "path": path}, {}

    # -- lifecycle -------------------------------------------------------

    async def _main(
        self, ready: Callable[["JobServer"], None] | None = None
    ) -> int:
        self._loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        if self.config.state_dir is not None:
            endpoint = os.path.join(self.config.state_dir, "endpoint")
            with open(endpoint, "w") as fh:
                fh.write(f"{self.config.host}:{self.port}\n")
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, self.begin_drain)
            except (NotImplementedError, ValueError, RuntimeError):
                pass  # non-main thread or platform without signals
        if not self.config.quiet:
            print(
                f"serve: listening on http://{self.config.host}:{self.port} "
                f"({len(self.queue)} job(s) recovered into the queue)",
                flush=True,
            )
        self._pump()
        if ready is not None:
            ready(self)
        async with server:
            await self._done.wait()
        server.close()
        await server.wait_closed()
        self._executor.shutdown(wait=True)
        if self.ledger is not None:
            self.ledger.close()
        if not self.config.quiet:
            print("serve: drained, exiting", flush=True)
        return 0

    def run(self) -> int:
        """Blocking entry point for the CLI; returns the exit code."""
        return asyncio.run(self._main())


class ServerHandle:
    """An in-process server running on a background thread — the test
    and load-generator harness (production uses ``repro serve``)."""

    def __init__(self, server: JobServer, thread: threading.Thread):
        self.server = server
        self.thread = thread

    @property
    def base_url(self) -> str:
        return f"http://{self.server.config.host}:{self.server.port}"

    def drain(self, timeout: float = 30.0) -> None:
        """Begin a graceful drain and wait for the server to exit."""
        loop = self.server._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.server.begin_drain)
        self.thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.drain()


def start_in_background(
    config: ServeConfig, timeout: float = 30.0
) -> ServerHandle:
    """Boot a :class:`JobServer` on a daemon thread and wait until it
    is accepting connections."""
    server = JobServer(config)
    ready = threading.Event()
    failure: list[BaseException] = []

    def runner() -> None:
        try:
            asyncio.run(server._main(ready=lambda _srv: ready.set()))
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            failure.append(exc)
            ready.set()

    thread = threading.Thread(
        target=runner, name="repro-serve", daemon=True
    )
    thread.start()
    if not ready.wait(timeout=timeout):
        raise ConfigError("serve: server failed to start within timeout")
    if failure:
        raise failure[0]
    return ServerHandle(server, thread)
