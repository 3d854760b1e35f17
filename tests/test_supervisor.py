"""Crash-safe sweep supervisor (``repro.supervisor``).

The load-bearing guarantees under test:

* results come back in submission order no matter the completion,
  retry, or replay order;
* the journal is a faithful write-ahead ledger — an interrupted sweep
  resumed from its journal produces **byte-identical** results to an
  uninterrupted one;
* transient failures retry under deterministic backoff and are
  quarantined (``PoisonedSpecError`` in-slot) after ``max_attempts``;
* deterministic domain failures (``ReproError``) are results, executed
  exactly once, never retried;
* the report accounts for everything that happened.

The violent failure modes (SIGKILL, hangs, torn journal files) live in
``test_chaos.py``.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro import BatchConfig, HarmonyConfig, HarmonySession
from repro.errors import (
    ConfigError,
    JournalError,
    PoisonedSpecError,
    ReproError,
    WorkerError,
)
from repro.hardware import presets
from repro.models import zoo
from repro.perf import RunCache, RunSpec
from repro.perf.fingerprint import FingerprintError
from repro.sim.trace import to_chrome_trace
from repro.supervisor import (
    DONE,
    FAILED,
    JournalWriter,
    RetryPolicy,
    Supervisor,
    Task,
    load_journal,
)
from repro.supervisor import supervisor as supervisor_mod
from tests import chaos_helpers as ch

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="supervisor tests pin the fork start method",
)

FORK = multiprocessing.get_context("fork")

#: Fast-failing policy for tests that exercise retries.
FAST = dict(backoff_base=0.001, backoff_max=0.01)


def small_workload(scheme: str = "harmony-pp", microbatches: int = 2):
    model = zoo.synthetic_uniform(num_layers=4)
    topology = presets.gtx1080ti_server(num_gpus=2)
    config = HarmonyConfig(scheme, batch=BatchConfig(1, microbatches))
    return model, topology, config


def small_sweep() -> list[RunSpec]:
    model, topology, _ = small_workload()
    return [
        RunSpec(
            model, topology,
            HarmonyConfig(scheme, batch=BatchConfig(1, mbs)),
            label=f"{scheme}-{mbs}mb",
        )
        for scheme in ("harmony-pp", "pp-baseline")
        for mbs in (2, 4)
    ]


def chrome_json(result) -> str:
    return json.dumps(to_chrome_trace(result.trace), sort_keys=True)


def direct_runs(specs: list[RunSpec]) -> list:
    """The reference results, computed without the supervisor."""
    return [
        HarmonySession(s.model, s.topology, s.config).run() for s in specs
    ]


def supervisor(**kwargs) -> Supervisor:
    kwargs.setdefault("mp_context", FORK)
    return Supervisor(**kwargs)


def ok_tasks(n: int) -> list[Task]:
    return [
        Task(key=f"ok:{i}", fn=ch.ok, payload=i + 1, label=f"ok{i}")
        for i in range(n)
    ]


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_grows_to_the_cap(self):
        p = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=1.0)
        first = p.backoff_delay("k", 1)
        assert first == p.backoff_delay("k", 1)  # pure function, no RNG
        delays = [p.backoff_delay("k", a) for a in range(1, 8)]
        # un-jittered component doubles until the cap
        assert delays[1] > delays[0]
        assert all(d <= 1.0 * (1.0 + p.jitter) for d in delays)

    def test_jitter_desynchronizes_different_keys(self):
        p = RetryPolicy()
        assert p.backoff_delay("spec-a", 1) != p.backoff_delay("spec-b", 1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=-0.1)

    def test_describe_mentions_the_knobs(self):
        text = RetryPolicy(max_attempts=5, timeout=2.0).describe()
        assert "5 attempt(s)" in text and "2s watchdog" in text


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JournalWriter(path) as w:
            w.header(["compare", "lenet"])
            w.attempt("k1", 1)
            w.attempt("k1", 2)
            w.outcome("k1", DONE, 2, {"value": 41})
            w.outcome("k2", FAILED, 1, ReproError("infeasible"))
        state = load_journal(path)
        assert state.command == ["compare", "lenet"]
        assert state.attempts["k1"] == 2
        assert state.records == 5 and state.torn_records == 0
        assert state.outcomes["k1"].payload() == {"value": 41}
        failed = state.outcomes["k2"].payload()
        assert isinstance(failed, ReproError) and "infeasible" in str(failed)

    def test_payload_is_a_fresh_object_per_call(self, tmp_path):
        with JournalWriter(tmp_path / "j.jsonl") as w:
            outcome = w.outcome("k", DONE, 1, {"mutable": []})
        assert outcome.payload() is not outcome.payload()

    def test_missing_file_is_an_empty_state(self, tmp_path):
        state = load_journal(tmp_path / "absent.jsonl")
        assert state.command is None and not state.outcomes

    def test_first_outcome_wins_for_duplicate_keys(self, tmp_path):
        # A replayed key journaled again must not shadow the record
        # earlier readers already served.
        path = tmp_path / "j.jsonl"
        with JournalWriter(path) as w:
            w.outcome("k", DONE, 1, "first")
            w.outcome("k", DONE, 1, "second")
        assert load_journal(path).outcomes["k"].payload() == "first"

    def test_header_survives_reopen(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JournalWriter(path) as w:
            w.header(["faults", "--seed", "1"])
        with JournalWriter(path) as w:
            w.header(["resume"])  # ignored: the file already has one
            w.attempt("k", 1)
        assert load_journal(path).command == ["faults", "--seed", "1"]

    def test_unpicklable_payload_is_recorded_but_not_replayable(self, tmp_path):
        with JournalWriter(tmp_path / "j.jsonl") as w:
            outcome = w.outcome("k", DONE, 1, lambda: None)
        assert not outcome.replayable
        state = load_journal(tmp_path / "j.jsonl")
        assert not state.outcomes["k"].replayable
        with pytest.raises(JournalError):
            state.outcomes["k"].payload()

    def test_non_terminal_status_rejected(self, tmp_path):
        with JournalWriter(tmp_path / "j.jsonl") as w:
            with pytest.raises(JournalError):
                w.outcome("k", "running", 1, None)


class TestSupervisorBasics:
    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ConfigError):
            supervisor(jobs=0)

    def test_results_in_submission_order(self):
        sup = supervisor(jobs=2)
        results = sup.run_tasks(ok_tasks(6))
        assert results == [2, 4, 6, 8, 10, 12]
        report = sup.report
        assert report.tasks == 6 and report.executed == 6
        assert report.clean

    def test_run_specs_matches_direct_runs(self):
        specs = small_sweep()
        baseline = direct_runs(specs)
        supervised = supervisor(jobs=2).run_specs(specs)
        assert [chrome_json(r) for r in supervised] == [
            chrome_json(r) for r in baseline
        ]

    def test_cache_hits_skip_execution(self):
        specs = small_sweep()
        cache = RunCache()
        first = supervisor(jobs=2, cache=cache)
        warm = first.run_specs(specs)
        second = supervisor(jobs=2, cache=cache)
        served = second.run_specs(specs)
        assert second.report.cache_hits == len(specs)
        assert second.report.executed == 0
        assert [r.makespan for r in served] == [r.makespan for r in warm]

    def test_infeasible_spec_fills_its_slot_with_the_error(self):
        # A model that cannot fit two GPUs even fully virtualized.
        model = zoo.synthetic_uniform(
            num_layers=2, param_bytes_per_layer=200 * 1024**3
        )
        topology = presets.gtx1080ti_server(num_gpus=2)
        bad = RunSpec(model, topology, HarmonyConfig("harmony-pp"), label="bad")
        good = small_sweep()[0]
        sup = supervisor(jobs=2)
        outcomes = sup.run_specs([bad, good], return_exceptions=True)
        assert isinstance(outcomes[0], ReproError)
        assert not isinstance(outcomes[0], PoisonedSpecError)
        assert outcomes[1].makespan > 0
        assert sup.report.failures == 1 and sup.report.retries == 0

    def test_unfingerprintable_spec_is_refused_before_any_attempt(self):
        # A spec with no canonical form has no key to cache or journal
        # it under: it is an error, never an unkeyed run.
        model, topology, _ = small_workload()
        config = HarmonyConfig(
            "harmony-pp", batch=BatchConfig(1, 2), cost_model=object()
        )
        sup = Supervisor.plain(1)
        with pytest.raises(FingerprintError):
            sup.run_specs([RunSpec(model, topology, config, label="opaque")])
        assert sup.report.attempts == 0

    def test_first_error_raised_in_task_order_without_return_exceptions(self):
        model = zoo.synthetic_uniform(
            num_layers=2, param_bytes_per_layer=200 * 1024**3
        )
        topology = presets.gtx1080ti_server(num_gpus=2)
        bad = RunSpec(model, topology, HarmonyConfig("harmony-pp"), label="bad")
        with pytest.raises(ReproError):
            supervisor(jobs=2).run_specs([small_sweep()[0], bad])


class TestRetryAndQuarantine:
    def test_transient_failure_retries_then_succeeds(self, tmp_path):
        marker = str(tmp_path / "flaky")
        task = Task(
            key="flaky", fn=ch.fail_until,
            payload=(marker, 2, "recovered"), label="flaky",
        )
        sup = supervisor(jobs=1, policy=RetryPolicy(max_attempts=4, **FAST))
        assert sup.run_tasks([task]) == ["recovered"]
        report = sup.report
        assert report.attempts == 3 and report.retries == 2
        assert not report.quarantined

    def test_quarantine_after_max_attempts(self):
        sup = supervisor(jobs=1, policy=RetryPolicy(max_attempts=2, **FAST))
        tasks = [
            Task(key="poison", fn=ch.always_raise, payload=None,
                 label="poison"),
            ok_tasks(1)[0],
        ]
        results = sup.run_tasks(tasks, return_exceptions=True)
        assert isinstance(results[0], PoisonedSpecError)
        assert results[0].attempts == 2
        assert len(results[0].history) == 2
        assert "RuntimeError" in results[0].history[0]
        assert results[1] == 2  # the sweep completed around the poison
        report = sup.report
        assert report.quarantined == ("poison",)
        assert "poison" in report.history

    def test_quarantine_raises_without_return_exceptions(self):
        sup = supervisor(jobs=1, policy=RetryPolicy(max_attempts=1, **FAST))
        task = Task(key="poison", fn=ch.always_raise, payload=None)
        with pytest.raises(PoisonedSpecError):
            sup.run_tasks([task])

    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "pool"])
    def test_quarantine_cause_is_the_last_exception(self, inline):
        sup = supervisor(
            jobs=1, inline=inline, policy=RetryPolicy(max_attempts=2, **FAST)
        )
        task = Task(key="poison", fn=ch.always_raise, payload=None)
        (outcome,) = sup.run_tasks([task], return_exceptions=True)
        assert isinstance(outcome, PoisonedSpecError)
        assert isinstance(outcome.__cause__, RuntimeError)
        assert str(outcome.__cause__) == "always broken"

    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "pool"])
    def test_quarantine_keeps_the_worker_traceback(self, inline, monkeypatch):
        # A simulator bug comes back from the spec worker as a
        # WorkerError; once quarantined it is the error's cause, so the
        # traceback of the failing frame stays reachable.  (Pool
        # workers fork after the patch, so they see it too.)
        import repro.core.session as session_mod

        def explode(*args, **kwargs):
            raise RuntimeError("simulator bug")

        monkeypatch.setattr(session_mod, "HarmonySession", explode)
        sup = supervisor(
            jobs=1, inline=inline, policy=RetryPolicy(max_attempts=1)
        )
        (outcome,) = sup.run_specs(small_sweep()[:1], return_exceptions=True)
        assert isinstance(outcome, PoisonedSpecError)
        cause = outcome.__cause__
        assert isinstance(cause, WorkerError)
        assert cause.exc_type == "RuntimeError"
        assert "explode" in cause.traceback_text

    def test_domain_error_executes_exactly_once(self, tmp_path):
        # ReproError is an *answer* (infeasible), not a fault: retrying
        # it would just repeat the deterministic failure.
        marker = str(tmp_path / "calls")
        task = Task(
            key="domain", fn=ch.domain_error_counting,
            payload=(marker, "infeasible by construction"),
        )
        sup = supervisor(jobs=1, policy=RetryPolicy(max_attempts=5, **FAST))
        (outcome,) = sup.run_tasks([task], return_exceptions=True)
        assert isinstance(outcome, ReproError)
        assert not isinstance(outcome, PoisonedSpecError)
        assert ch.call_count(marker) == 1
        assert sup.report.retries == 0


class TestJournalReplay:
    def test_completed_run_replays_entirely(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        specs = small_sweep()
        first = supervisor(jobs=2, journal=journal)
        original = first.run_specs(specs)
        resumed = supervisor(jobs=2, journal=journal)
        replayed = resumed.run_specs(specs)
        assert resumed.report.replayed == len(specs)
        assert resumed.report.executed == 0
        assert [chrome_json(r) for r in replayed] == [
            chrome_json(r) for r in original
        ]

    def test_interrupted_then_resumed_is_byte_identical(self, tmp_path):
        """The acceptance criterion: interrupt a journaled sweep partway,
        resume it from the journal, and get byte-identical results to an
        uninterrupted run."""
        journal = str(tmp_path / "j.jsonl")
        specs = small_sweep()
        uninterrupted = direct_runs(specs)

        landed = []

        def interrupt_after_two(index, outcome):
            landed.append(index)
            if len(landed) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            supervisor(
                jobs=1, journal=journal, on_outcome=interrupt_after_two
            ).run_specs(specs)

        resumed = supervisor(jobs=2, journal=journal)
        results = resumed.run_specs(specs)
        assert resumed.report.replayed == 2
        assert resumed.report.executed == len(specs) - 2
        assert [chrome_json(r) for r in results] == [
            chrome_json(r) for r in uninterrupted
        ]
        assert [r.makespan for r in results] == [
            r.makespan for r in uninterrupted
        ]

    def test_failed_outcomes_replay_too(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        model = zoo.synthetic_uniform(
            num_layers=2, param_bytes_per_layer=200 * 1024**3
        )
        topology = presets.gtx1080ti_server(num_gpus=2)
        bad = RunSpec(model, topology, HarmonyConfig("harmony-pp"), label="bad")
        first = supervisor(jobs=1, journal=journal)
        (original,) = first.run_specs([bad], return_exceptions=True)
        assert isinstance(original, ReproError)
        resumed = supervisor(jobs=1, journal=journal)
        (replayed,) = resumed.run_specs([bad], return_exceptions=True)
        assert resumed.report.replayed == 1 and resumed.report.executed == 0
        assert str(replayed) == str(original)

    def test_recorded_attempts_seed_the_budget_but_leave_one_fresh(
        self, tmp_path
    ):
        # A journal full of attempt records (and no outcome) means the
        # sweep kept dying mid-attempt.  The resumed run inherits that
        # spent budget — but always gets at least one fresh attempt, so
        # an interruption alone can never pre-quarantine a spec.
        journal = str(tmp_path / "j.jsonl")
        with JournalWriter(journal) as w:
            w.header(["test"])
            for attempt in range(1, 6):
                w.attempt("poison", attempt)
        sup = supervisor(
            jobs=1, journal=journal,
            policy=RetryPolicy(max_attempts=3, **FAST),
        )
        task = Task(key="poison", fn=ch.always_raise, payload=None,
                    label="poison")
        (outcome,) = sup.run_tasks([task], return_exceptions=True)
        assert isinstance(outcome, PoisonedSpecError)
        # Seeded at max_attempts - 1 = 2, so exactly one live attempt.
        assert sup.report.attempts == 1

    def test_journal_records_the_command(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        sup = supervisor(
            jobs=1, journal=journal, command=["compare", "lenet"]
        )
        sup.run_tasks(ok_tasks(1))
        assert load_journal(journal).command == ["compare", "lenet"]


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "pool"])
class TestInProcessMatchesPooled:
    """In-process and pooled execution are one contract: the same tasks
    give the same results, report counters and failure history on
    worker processes and in this process."""

    def test_every_kind_of_outcome(self, inline, tmp_path):
        tasks = [
            Task(key="flaky", fn=ch.fail_until,
                 payload=(str(tmp_path / "flaky"), 1, "recovered"),
                 label="flaky"),
            Task(key="returned", fn=ch.return_domain_error,
                 payload="infeasible (returned)", label="returned"),
            Task(key="raised", fn=ch.domain_error_counting,
                 payload=(str(tmp_path / "raised"), "infeasible (raised)"),
                 label="raised"),
            Task(key="poison", fn=ch.always_raise, payload=None,
                 label="poison"),
        ] + ok_tasks(1)
        sup = supervisor(
            jobs=2, inline=inline, policy=RetryPolicy(max_attempts=2, **FAST)
        )
        results = sup.run_tasks(tasks, return_exceptions=True)
        broken = "worker raised RuntimeError: always broken"
        assert [
            (type(r).__name__, str(r)) if isinstance(r, Exception) else r
            for r in results
        ] == [
            "recovered",
            ("ReproError", "infeasible (returned)"),
            ("ReproError", "infeasible (raised)"),
            ("PoisonedSpecError", "spec poison quarantined after 2 "
             f"attempt(s); last failure: attempt 2: {broken}"),
            2,
        ]
        assert ch.call_count(str(tmp_path / "raised")) == 1
        report = sup.report
        assert (
            report.tasks, report.executed, report.attempts, report.retries,
            report.failures, report.respawns, report.timeouts,
        ) == (5, 5, 7, 2, 2, 0, 0)
        assert report.quarantined == ("poison",)
        assert report.history == {
            "poison": (f"attempt 1: {broken}", f"attempt 2: {broken}")
        }

    def test_cut_journal_resumes(self, inline, tmp_path):
        journal = tmp_path / "j.jsonl"
        expected = supervisor(
            jobs=2, inline=inline, journal=journal
        ).run_tasks(ok_tasks(5))
        # The journal of a run killed once two tasks had settled.
        lines = journal.read_text().splitlines(keepends=True)
        outcomes = [
            n for n, line in enumerate(lines)
            if json.loads(line)["type"] == "outcome"
        ]
        cut = tmp_path / "cut.jsonl"
        cut.write_text("".join(lines[: outcomes[1] + 1]))
        resumed = supervisor(jobs=2, inline=inline, journal=cut)
        assert resumed.run_tasks(ok_tasks(5)) == expected == [2, 4, 6, 8, 10]
        report = resumed.report
        assert (report.replayed, report.executed, report.attempts) == (2, 3, 3)

    def test_drain_before_the_sweep(self, inline):
        sup = supervisor(jobs=2, inline=inline)
        sup.request_drain()
        results = sup.run_tasks(ok_tasks(3), return_exceptions=True)
        assert [type(r).__name__ for r in results] == ["DrainedError"] * 3
        report = sup.report
        assert (report.drained, report.executed, report.attempts) == (3, 0, 0)


class TestNoWorkerProcesses:
    def test_sweep_runs_in_process_in_submission_order(
        self, tmp_path, monkeypatch
    ):
        # A platform without process primitives (no sem_open) cannot
        # build the pool at all: ENOSYS.
        tried = []

        def no_processes(*args, **kwargs):
            tried.append(1)
            raise OSError(38, "Function not implemented")

        monkeypatch.setattr(supervisor_mod, "ProcessPoolExecutor", no_processes)
        assert Supervisor.plain(2).run_tasks(ok_tasks(4)) == [2, 4, 6, 8]
        assert tried
        # In this process: a closure no worker could unpickle runs here.
        here = Task(key="pid", fn=lambda _: os.getpid(), payload=None)
        assert Supervisor.plain(2).run_tasks([here]) == [os.getpid()]

        journal = tmp_path / "j.jsonl"
        landed = []
        sup = Supervisor(
            jobs=2, journal=journal,
            on_outcome=lambda i, outcome: landed.append(i),
        )
        assert sup.run_tasks(ok_tasks(4)) == [2, 4, 6, 8]
        assert landed == [0, 1, 2, 3]
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        assert [(r["type"], r.get("key")) for r in records] == [
            ("header", None)
        ] + [
            (kind, f"ok:{i}") for i in range(4) for kind in ("attempt", "outcome")
        ]


class TestReport:
    def test_every_render_line_carries_the_prefix(self):
        # Determinism checks filter supervisor chatter with
        # ``grep -v '^supervisor'``; an unprefixed line would leak.
        sup = supervisor(
            jobs=1, journal=None,
            policy=RetryPolicy(max_attempts=1, **FAST),
        )
        sup.run_tasks(
            [Task(key="p", fn=ch.always_raise, payload=None)] + ok_tasks(2),
            return_exceptions=True,
        )
        rendered = sup.report.render()
        assert all(
            line.startswith("supervisor:") for line in rendered.splitlines()
        )
        assert "quarantined" in rendered

    def test_describe_mentions_policy_and_journal(self, tmp_path):
        sup = supervisor(jobs=3, journal=str(tmp_path / "j.jsonl"))
        text = sup.describe()
        assert "jobs=3" in text and "j.jsonl" in text
