"""The job server (``repro.serve``): admission, fairness, durability.

Unit layers first (job parsing, the fair queue, quotas, the ledger,
cache thread-safety, supervisor drain), then an end-to-end pass over
a real in-process HTTP server.  The violent cases — ``kill -9`` and
SIGTERM against a server subprocess — live in ``test_serve_chaos.py``.
"""

from __future__ import annotations

import http.client
import json
import math
import threading

import pytest

from repro.errors import (
    ConfigError,
    DrainedError,
    JobSpecError,
    QueueFullError,
    QuotaExceededError,
)
from repro.perf.cache import RunCache
from repro.serve import (
    DONE,
    QUEUED,
    JobServer,
    ServeConfig,
    ServerHandle,
    load_ledger,
    parse_job,
    spec_to_json,
    start_in_background,
)
from repro.serve.state import JobLedger
from repro.serve.tenants import (
    FairQueue,
    TenantPolicy,
    TenantTable,
    parse_tenant_policies,
)
from repro.supervisor import Supervisor, Task


class TestParseJob:
    def test_minimal_simulate(self):
        spec = parse_job({"kind": "simulate", "model": "lenet"})
        assert spec.kind == "simulate"
        assert spec.model == "lenet"
        assert spec.gpus == 4 and spec.microbatches == 4
        assert spec.scheme == "harmony-pp"

    def test_round_trips_through_ledger_form(self):
        spec = parse_job(
            {
                "kind": "faults",
                "model": "lenet",
                "mttf": ["inf", 4.0, 2.5],
                "iterations": 3,
                "seed": 7,
                "timeout_sec": 12.5,
            }
        )
        assert spec.mttf == (float("inf"), 4.0, 2.5)
        assert parse_job(spec_to_json(spec)) == spec

    def test_rejections_are_structured_and_self_diagnosing(self):
        cases = [
            ("not an object", "JSON object"),
            ({"kind": "simulate"}, "model is required"),
            ({"kind": "simulate", "model": "nope"}, "unknown model"),
            ({"kind": "mine", "model": "lenet"}, "unknown job kind"),
            ({"kind": "simulate", "model": "lenet", "bogus": 1}, "unknown job field"),
            (
                {"kind": "simulate", "model": "lenet", "scheme": "nope"},
                "unknown scheme",
            ),
            (
                {"kind": "sweep", "model": "lenet", "schemes": []},
                "non-empty list",
            ),
            (
                {"kind": "sweep", "model": "lenet", "schemes": ["nope"]},
                "unknown scheme",
            ),
            (
                {"kind": "simulate", "model": "lenet", "gpus": 0},
                "gpus must be >=",
            ),
            (
                {"kind": "simulate", "model": "lenet", "gpus": True},
                "must be an integer",
            ),
            (
                {"kind": "simulate", "model": "lenet", "steady_state": "x"},
                "steady_state",
            ),
            (
                {"kind": "faults", "model": "lenet", "mttf": [-1]},
                "positive",
            ),
            (
                {"kind": "simulate", "model": "lenet", "timeout_sec": 0},
                "timeout_sec",
            ),
        ]
        for payload, needle in cases:
            with pytest.raises(JobSpecError, match=needle):
                parse_job(payload)

    def test_faults_job_rejects_steady_state(self):
        # Every fault segment simulates one iteration: no mode changes a
        # faults job, so the field is refused rather than ignored.
        with pytest.raises(JobSpecError, match="steady_state.*faults"):
            parse_job(
                {"kind": "faults", "model": "lenet", "steady_state": "force"}
            )

    def test_tenant_field_is_allowed_but_not_part_of_the_spec(self):
        # Clients may put the tenant in the body instead of the header.
        spec = parse_job({"kind": "simulate", "model": "lenet", "tenant": "a"})
        assert "tenant" not in spec_to_json(spec)


class TestTuneJob:
    def test_iterations_and_steady_state_reach_the_tuner(self, monkeypatch):
        import repro.tuner.search as search
        from repro.hardware import presets
        from repro.models import zoo
        from repro.serve.jobs import execute_job

        seen = {}
        real_tune = search.tune

        def spy(*args, **kwargs):
            seen.update(kwargs)
            return real_tune(*args, **kwargs)

        monkeypatch.setattr(search, "tune", spy)
        doc = execute_job(
            parse_job({
                "kind": "tune", "model": "lenet", "iterations": 2,
                "steady_state": "off",
            }),
            Supervisor(jobs=1, inline=True),
        )
        assert seen["profile_iterations"] == 2
        assert seen["steady_state"] == "off"
        direct = real_tune(
            zoo.build("lenet"), presets.gtx1080ti_server(num_gpus=4), 4,
            profile_iterations=2, steady_state="off",
        )
        assert doc["best"] == {
            "label": direct.best.label, "throughput": direct.best.throughput,
        }


class TestFairQueue:
    def make(self, **policies) -> tuple[TenantTable, FairQueue]:
        table = TenantTable(
            {name: TenantPolicy(weight=w) for name, w in policies.items()}
        )
        return table, FairQueue(table)

    def test_weighted_interleaving_is_deterministic(self):
        _, queue = self.make(heavy=2.0, light=1.0)
        for i in range(4):
            queue.push("heavy", f"h{i}")
            queue.push("light", f"l{i}")
        order = [queue.pop() for _ in range(8)]
        # Weight 2 drains two jobs for every one of weight 1.
        assert order == ["h0", "l0", "h1", "h2", "l1", "h3", "l2", "l3"]

    def test_fifo_within_a_tenant(self):
        _, queue = self.make()
        for i in range(5):
            queue.push("a", f"a{i}")
        assert [queue.pop() for _ in range(5)] == [f"a{i}" for i in range(5)]

    def test_idle_tenant_accumulates_no_credit(self):
        _, queue = self.make()
        for i in range(10):
            queue.push("busy", f"b{i}")
        for _ in range(10):
            queue.pop()
        # "late" arrives after busy burned 10 slots of virtual time; it
        # must not get 10 jobs of catch-up priority over new arrivals.
        queue.push("late", "l0")
        queue.push("busy", "b10")
        queue.push("late", "l1")
        assert queue.pop() == "l0"
        assert queue.pop() == "b10"
        assert queue.pop() == "l1"

    def test_remove_is_lazy_but_effective(self):
        _, queue = self.make()
        queue.push("a", "a0")
        queue.push("a", "a1")
        assert queue.remove("a0") is True
        assert queue.remove("a0") is False
        assert "a0" not in queue and len(queue) == 1
        assert queue.pop() == "a1"
        assert queue.pop() is None


class TestTenants:
    def test_quota_rejection_is_structured(self):
        table = TenantTable({"a": TenantPolicy(max_jobs=2)})
        usage = table.usage_for("a")
        usage.queued, usage.running = 1, 1
        with pytest.raises(QuotaExceededError) as excinfo:
            table.check_quota("a")
        assert excinfo.value.tenant == "a"
        assert excinfo.value.limit == 2
        assert excinfo.value.in_use == 2
        assert table.usage_for("a").rejected == 1

    def test_unknown_tenant_gets_the_default_policy(self):
        table = TenantTable(default=TenantPolicy(max_jobs=1))
        table.usage_for("whoever").running = 1
        with pytest.raises(QuotaExceededError):
            table.check_quota("whoever")

    def test_parse_tenant_policies(self):
        policies = parse_tenant_policies(
            {"a": {"weight": 2.0, "max_jobs": 16}, "b": {}}
        )
        assert policies["a"] == TenantPolicy(weight=2.0, max_jobs=16)
        assert policies["b"] == TenantPolicy()
        for bad in (
            [],
            {"a": 3},
            {"a": {"bogus": 1}},
            {"a": {"weight": 0}},
            {"a": {"max_jobs": 0}},
        ):
            with pytest.raises(ConfigError):
                parse_tenant_policies(bad)


class TestLedger:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with JobLedger(path) as ledger:
            ledger.job("j1", "a", 1, {"kind": "simulate", "model": "lenet"})
            ledger.job("j2", "b", 2, {"kind": "sweep", "model": "lenet"})
            ledger.outcome("j1", DONE, result={"kind": "simulate"})
        state = load_ledger(path)
        assert state.jobs["j1"].settled
        assert state.jobs["j1"].result == {"kind": "simulate"}
        assert [job.id for job in state.pending()] == ["j2"]
        assert state.max_seq == 2

    def test_torn_tail_is_tolerated_and_counted(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with JobLedger(path) as ledger:
            ledger.job("j1", "a", 1, {"kind": "simulate", "model": "lenet"})
        with open(path, "ab") as fh:
            fh.write(b'{"type": "outcome", "id": "j1", "sta')  # torn crash
        state = load_ledger(path)
        assert state.torn_records == 1
        assert not state.jobs["j1"].settled
        # The writer newline-terminates the torn tail so the next
        # record parses.
        with JobLedger(path) as ledger:
            ledger.outcome("j1", DONE, result={})
        assert load_ledger(path).jobs["j1"].settled

    def test_first_outcome_wins_and_unknown_ids_skip(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with JobLedger(path) as ledger:
            ledger.job("j1", "a", 1, {"kind": "simulate", "model": "lenet"})
            ledger.outcome("j1", DONE, result={"first": True})
            ledger.outcome("j1", "failed", error={"second": True})
            ledger.outcome("ghost", DONE)
        state = load_ledger(path)
        assert state.jobs["j1"].status == DONE
        assert state.jobs["j1"].result == {"first": True}
        assert "ghost" not in state.jobs

    def test_non_terminal_outcome_is_refused(self, tmp_path):
        with JobLedger(tmp_path / "jobs.jsonl") as ledger:
            with pytest.raises(ValueError):
                ledger.outcome("j1", "running")


class TestCacheThreadSafety:
    def test_concurrent_mixed_traffic_keeps_counters_consistent(self):
        cache = RunCache()
        threads = 8
        rounds = 200
        barrier = threading.Barrier(threads)
        errors: list[BaseException] = []

        def hammer(worker: int) -> None:
            try:
                barrier.wait()
                for i in range(rounds):
                    key = f"key:{i % 17}"
                    value = cache.get(key, RunCache.MISS)
                    if value is RunCache.MISS:
                        cache.put(key, {"k": key})
                    else:
                        assert value == {"k": key}
                    cache.get(f"miss:{worker}:{i}")
                    if i % 50 == 0:
                        cache.counters()
                        cache.hit_rate
                        len(cache)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [
            threading.Thread(target=hammer, args=(w,)) for w in range(threads)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert not errors
        counters = cache.counters()
        # Every lookup was tallied exactly once despite the contention.
        assert counters["hits"] + counters["misses"] == 2 * threads * rounds
        assert len(cache) == 17


def _echo(payload):
    return payload * 2


class TestSupervisorDrain:
    def tasks(self, n=4):
        return [
            Task(key=f"t{i}", fn=_echo, payload=i, label=f"t{i}")
            for i in range(n)
        ]

    def test_drain_marks_unstarted_tasks_and_resume_finishes(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        sup = Supervisor(jobs=1, inline=True, journal=str(journal))
        # Request the drain from the first task's outcome callback: the
        # remaining tasks must come back as DrainedError, unjournaled.
        sup.on_outcome = lambda i, outcome: sup.request_drain()
        results = sup.run_tasks(self.tasks(), return_exceptions=True)
        assert results[0] == 0
        assert all(isinstance(r, DrainedError) for r in results[1:])
        assert sup.report.drained == 3
        assert "drained" in sup.report.render()

        resumed = Supervisor(jobs=1, inline=True, journal=str(journal))
        results = resumed.run_tasks(self.tasks(), return_exceptions=True)
        assert results == [0, 2, 4, 6]
        # Only the settled task replays; the drained ones execute.
        assert resumed.report.replayed == 1
        assert resumed.report.executed == 3

    def test_drained_error_raises_without_return_exceptions(self, tmp_path):
        sup = Supervisor(jobs=1, inline=True)
        sup.on_outcome = lambda i, outcome: sup.request_drain()
        with pytest.raises(DrainedError):
            sup.run_tasks(self.tasks())


def admission_server(**overrides) -> JobServer:
    """A server for admission unit tests: no event loop, no worker
    slots, so submissions stay queued deterministically."""
    defaults = dict(
        port=0,
        workers=1,
        isolation="inline",
        max_queue=3,
        default_tenant=TenantPolicy(max_jobs=2),
        quiet=True,
    )
    defaults.update(overrides)
    server = JobServer(ServeConfig(**defaults))
    server._slots = 0  # nothing starts; admission state is inspectable
    return server


SIM = {"kind": "simulate", "model": "lenet"}


class TestAdmission:
    def test_quota_then_queue_full(self):
        server = admission_server()
        server.submit("a", SIM)
        server.submit("a", SIM)
        with pytest.raises(QuotaExceededError):
            server.submit("a", SIM)
        server.submit("b", SIM)
        with pytest.raises(QueueFullError) as excinfo:
            server.submit("c", SIM)
        assert excinfo.value.retry_after >= 1
        stats = server.stats()
        assert stats["queue"]["depth"] == 3
        assert stats["rejections"] == {
            "quota": 1, "queue_full": 1, "draining": 0, "invalid": 0,
        }
        assert stats["tenants"]["a"]["queued"] == 2
        assert stats["tenants"]["a"]["rejected"] == 1

    def test_invalid_payload_counts_and_consumes_nothing(self):
        server = admission_server()
        with pytest.raises(JobSpecError):
            server.submit("a", {"kind": "simulate"})
        assert server._rejections["invalid"] == 1
        assert len(server.queue) == 0

    def test_cancel_queued_job(self):
        server = admission_server()
        record = server.submit("a", SIM)
        cancelled = server.cancel(record.id)
        assert cancelled is not None and cancelled.status == "cancelled"
        assert server.cancel(record.id) is None  # already terminal
        assert server.cancel("job-999999") is None
        stats = server.stats()
        assert stats["tenants"]["a"]["cancelled"] == 1
        assert stats["queue"]["depth"] == 0

    def test_draining_server_refuses_admission(self):
        server = admission_server()
        server._draining = True
        with pytest.raises(QueueFullError):
            server.submit("a", SIM)
        assert server._rejections["draining"] == 1

    def test_ledger_records_admissions_durably(self, tmp_path):
        server = admission_server(state_dir=str(tmp_path / "state"))
        record = server.submit("a", SIM)
        state = load_ledger(tmp_path / "state" / "jobs.jsonl")
        assert record.id in state.jobs
        assert not state.jobs[record.id].settled
        server.ledger.close()

    def test_restart_requeues_pending_in_submission_order(self, tmp_path):
        state_dir = str(tmp_path / "state")
        first = admission_server(state_dir=state_dir, max_queue=10)
        ids = [first.submit(t, SIM).id for t in ("a", "b", "a")]
        first.ledger.outcome(ids[0], DONE, result={"kind": "simulate"})
        first.ledger.close()

        second = admission_server(state_dir=state_dir, max_queue=10)
        # Settled job is served from the ledger; the rest re-queue.
        assert second.jobs[ids[0]].status == DONE
        assert second.jobs[ids[0]].result == {"kind": "simulate"}
        assert [second.queue.pop(), second.queue.pop()] == ids[1:]
        # Fresh submissions continue the persisted sequence: no id reuse.
        assert second.submit("c", SIM).id not in ids
        second.ledger.close()


@pytest.fixture(scope="class")
def http_server():
    handle = start_in_background(
        ServeConfig(
            port=0,
            workers=2,
            isolation="inline",
            max_queue=32,
            default_tenant=TenantPolicy(max_jobs=16),
            quiet=True,
        )
    )
    try:
        yield handle
    finally:
        handle.drain()


def request(
    handle: ServerHandle,
    method: str,
    path: str,
    body: dict | None = None,
    headers: dict | None = None,
):
    conn = http.client.HTTPConnection(
        "127.0.0.1", handle.server.port, timeout=30
    )
    try:
        conn.request(
            method,
            path,
            body=json.dumps(body).encode() if body is not None else None,
            headers=headers or {},
        )
        response = conn.getresponse()
        doc = json.loads(response.read().decode() or "null")
        return response.status, doc, dict(response.getheaders())
    finally:
        conn.close()


def wait_terminal(handle: ServerHandle, url: str, timeout: float = 60.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, doc, _ = request(handle, "GET", url)
        assert status == 200
        if doc["status"] in ("done", "failed", "cancelled"):
            return doc
        time.sleep(0.01)
    raise AssertionError(f"job at {url} did not settle within {timeout}s")


class TestServeHTTP:
    def test_health_and_readiness(self, http_server):
        assert request(http_server, "GET", "/healthz")[:2] == (
            200, {"status": "ok"},
        )
        assert request(http_server, "GET", "/readyz")[:2] == (
            200, {"status": "ready"},
        )

    def test_submit_poll_result(self, http_server):
        status, doc, _ = request(
            http_server, "POST", "/jobs",
            body={"kind": "simulate", "model": "lenet"},
            headers={"X-Tenant": "alice"},
        )
        assert status == 202
        assert doc["tenant"] == "alice"
        job = wait_terminal(http_server, doc["url"])
        assert job["status"] == "done"
        run = job["result"]["run"]
        assert run["ok"] and run["label"] == "harmony-pp"
        assert run["makespan"] > 0 and run["events"] > 0
        assert job["progress"] == {"done": 1, "total": 1}
        assert job["spec"]["model"] == "lenet"

    def test_sweep_runs_every_scheme(self, http_server):
        from repro.schedulers import scheme_names

        _, doc, _ = request(
            http_server, "POST", "/jobs",
            body={"kind": "sweep", "model": "lenet"},
        )
        job = wait_terminal(http_server, doc["url"])
        assert job["status"] == "done"
        assert [r["label"] for r in job["result"]["runs"]] == list(
            scheme_names()
        )

    def test_cross_tenant_dedup_through_the_shared_cache(self, http_server):
        spec = {"kind": "simulate", "model": "lenet", "microbatches": 3}
        _, first, _ = request(
            http_server, "POST", "/jobs", body=spec,
            headers={"X-Tenant": "team-a"},
        )
        job_a = wait_terminal(http_server, first["url"])
        _, second, _ = request(
            http_server, "POST", "/jobs", body=spec,
            headers={"X-Tenant": "team-b"},
        )
        job_b = wait_terminal(http_server, second["url"])
        # Tenant B's identical submission is served from the shared
        # cache: byte-identical result, zero executed simulations.
        assert job_b["result"] == job_a["result"]
        assert job_b["supervisor"]["cache_hits"] == 1
        assert job_b["supervisor"]["executed"] == 0

    def test_rejections_over_http(self, http_server):
        status, doc, _ = request(
            http_server, "POST", "/jobs", body={"kind": "simulate"},
        )
        assert status == 400 and doc["error"] == "invalid_job"
        assert "model" in doc["message"]
        status, doc, _ = request(http_server, "POST", "/jobs", body=None)
        assert status == 400
        status, doc, _ = request(
            http_server, "POST", "/jobs",
            body={"kind": "simulate", "model": "lenet", "tenant": ""},
        )
        assert status == 400 and "tenant" in doc["error"]

    def test_unknown_routes_and_methods(self, http_server):
        assert request(http_server, "GET", "/nope")[0] == 404
        assert request(http_server, "GET", "/jobs/job-999999")[0] == 404
        assert request(http_server, "PUT", "/jobs/job-999999")[0] == 405
        assert request(http_server, "DELETE", "/stats")[0] == 405

    def test_job_listing_filters_by_tenant(self, http_server):
        _, doc, _ = request(
            http_server, "POST", "/jobs",
            body={"kind": "simulate", "model": "lenet", "seed": 3},
            headers={"X-Tenant": "lister"},
        )
        wait_terminal(http_server, doc["url"])
        _, listing, _ = request(http_server, "GET", "/jobs?tenant=lister")
        assert [j["id"] for j in listing["jobs"]] == [doc["id"]]
        _, everything, _ = request(http_server, "GET", "/jobs")
        assert len(everything["jobs"]) >= len(listing["jobs"])

    def test_stats_shape(self, http_server):
        _, stats, _ = request(http_server, "GET", "/stats")
        assert stats["draining"] is False
        assert set(stats["queue"]) >= {
            "depth", "limit", "running", "workers", "retry_after_hint",
        }
        assert stats["queue"]["limit"] == 32
        assert "cache" in stats and 0.0 <= stats["cache"]["hit_rate"] <= 1.0
        assert math.isfinite(stats["uptime_sec"])

    def test_delete_terminal_job_conflicts(self, http_server):
        _, doc, _ = request(
            http_server, "POST", "/jobs",
            body={"kind": "simulate", "model": "lenet", "seed": 5},
        )
        wait_terminal(http_server, doc["url"])
        status, body, _ = request(http_server, "DELETE", doc["url"])
        assert status == 409 and body["error"] == "not_cancellable"
