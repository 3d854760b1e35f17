"""Chaos tests: the supervisor under violent failure.

Each test inflicts a failure a bare process pool cannot survive —
a worker SIGKILLed mid-sweep (``BrokenProcessPool``), a worker that
hangs forever, a journal torn mid-record by a crash — and asserts the
supervised sweep still completes with correct, submission-ordered
results and an honest report.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.errors import PoisonedSpecError
from repro.perf.runner import _execute_spec, spec_key
from repro.sim.trace import to_chrome_trace
from repro.supervisor import RetryPolicy, Supervisor, Task, load_journal
from tests import chaos_helpers as ch
from tests.test_supervisor import direct_runs, small_sweep

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="chaos tests SIGKILL forked pool workers",
)

FORK = multiprocessing.get_context("fork")
FAST = dict(backoff_base=0.001, backoff_max=0.01)


def supervisor(**kwargs) -> Supervisor:
    kwargs.setdefault("mp_context", FORK)
    return Supervisor(**kwargs)


def chrome_json(result) -> str:
    return json.dumps(to_chrome_trace(result.trace), sort_keys=True)


class TestWorkerCrash:
    def test_sigkill_mid_sweep_respawns_and_completes(self, tmp_path):
        """The acceptance criterion: SIGKILL a live worker mid-sweep;
        the sweep must finish with correct submission-order results and
        a report showing at least one pool respawn."""
        marker = str(tmp_path / "died")
        tasks = [
            Task(key="a", fn=ch.ok, payload=10, label="a"),
            Task(
                key="killer", fn=ch.kill_self_once,
                payload=(marker, "survived"), label="killer",
            ),
            Task(key="b", fn=ch.ok, payload=20, label="b"),
            Task(key="c", fn=ch.ok, payload=30, label="c"),
        ]
        sup = supervisor(jobs=2, policy=RetryPolicy(max_attempts=3, **FAST))
        results = sup.run_tasks(tasks)
        assert results == [20, "survived", 40, 60]
        report = sup.report
        assert report.respawns >= 1
        assert not report.quarantined
        assert ch.call_count(marker) == 1  # it really did die once

    def test_sigkill_between_real_simulation_specs(self, tmp_path):
        """A worker crash must not corrupt or reorder the surrounding
        *real* simulation results."""
        specs = small_sweep()
        baseline = direct_runs(specs)
        marker = str(tmp_path / "died")
        tasks = [
            Task(key=spec_key(s), fn=_execute_spec, payload=s, label=s.label)
            for s in specs
        ]
        tasks.insert(
            2,
            Task(
                key="killer", fn=ch.kill_self_once,
                payload=(marker, "survived"), label="killer",
            ),
        )
        sup = supervisor(jobs=2, policy=RetryPolicy(max_attempts=3, **FAST))
        results = sup.run_tasks(tasks)
        assert results[2] == "survived"
        sim_results = results[:2] + results[3:]
        assert [chrome_json(r) for r in sim_results] == [
            chrome_json(r) for r in baseline
        ]
        assert sup.report.respawns >= 1

    def test_repeated_crashes_end_in_quarantine(self):
        """A spec that kills its worker on *every* attempt is poison:
        the supervisor must stop feeding it workers and move on."""
        tasks = [
            Task(
                key="serial-killer", fn=ch.kill_self_always,
                payload=None, label="serial-killer",
            ),
            Task(key="bystander", fn=ch.ok, payload=5, label="bystander"),
        ]
        sup = supervisor(jobs=2, policy=RetryPolicy(max_attempts=2, **FAST))
        results = sup.run_tasks(tasks, return_exceptions=True)
        assert isinstance(results[0], PoisonedSpecError)
        assert results[1] == 10
        report = sup.report
        assert report.quarantined == ("serial-killer",)
        assert report.respawns >= 2


class TestHangs:
    def test_hung_worker_times_out_and_is_quarantined(self):
        """The watchdog: a hung spec is killed at the timeout, charged
        an attempt, and quarantined after max_attempts; the innocent
        spec sharing the pool still completes correctly."""
        tasks = [
            Task(key="hanger", fn=ch.hang, payload="h", label="hanger"),
            Task(key="fine", fn=ch.ok, payload=7, label="fine"),
        ]
        sup = supervisor(
            jobs=2,
            policy=RetryPolicy(max_attempts=2, timeout=0.4, **FAST),
        )
        results = sup.run_tasks(tasks, return_exceptions=True)
        assert isinstance(results[0], PoisonedSpecError)
        assert "timed out" in results[0].history[-1]
        assert results[1] == 14
        report = sup.report
        assert report.timeouts == 2  # one per attempt
        assert report.quarantined == ("hanger",)
        assert report.recovery_wall_sec > 0


class TestTornJournal:
    def test_torn_tail_resumes_cleanly(self, tmp_path):
        """Kill -9 tears the journal mid-record: the resumed run must
        skip the torn line, replay every intact outcome, and re-execute
        only the task whose record was destroyed."""
        journal = tmp_path / "j.jsonl"
        tasks = [
            Task(key=f"ok:{i}", fn=ch.ok, payload=i + 1, label=f"ok{i}")
            for i in range(3)
        ]
        first = supervisor(jobs=1, journal=str(journal))
        original = first.run_tasks(tasks)

        # Tear the final outcome record in half, as a crash mid-write
        # would (each record is fsync'd whole, so only the tail tears).
        raw = journal.read_bytes().rstrip(b"\n")
        lines = raw.split(b"\n")
        torn = b"\n".join(lines[:-1]) + b"\n" + lines[-1][: len(lines[-1]) // 2]
        journal.write_bytes(torn)

        state = load_journal(journal)
        assert state.torn_records == 1
        assert len(state.outcomes) == 2

        resumed = supervisor(jobs=1, journal=str(journal))
        results = resumed.run_tasks(tasks)
        assert results == original
        assert resumed.report.replayed == 2
        assert resumed.report.executed == 1

        # The resume terminated the torn fragment and appended intact
        # records after it: the healed journal now replays fully.
        healed = load_journal(journal)
        assert healed.torn_records == 1
        assert len(healed.outcomes) == 3

    def test_fast_forwarded_journal_replays_byte_identically(self, tmp_path):
        """A journaled sweep of steady-state runs: the journal carries
        fast-forwarded results (compressed periodic traces), and a
        resumed run must replay them byte-for-byte — the analytic fast
        path must survive pickling and the write-ahead log unchanged."""
        from repro.models import zoo
        from repro.perf.runner import RunSpec
        from repro import BatchConfig, HarmonyConfig
        from repro.hardware import presets

        model = zoo.synthetic_uniform(num_layers=4)
        topology = presets.gtx1080ti_server(num_gpus=2)
        specs = [
            RunSpec(
                model, topology,
                HarmonyConfig(
                    scheme, batch=BatchConfig(1, 2),
                    iterations=17, steady_state="auto",
                ),
                label=f"steady-{scheme}",
            )
            for scheme in ("harmony-pp", "pp-baseline")
        ]
        journal = tmp_path / "steady.jsonl"
        first = supervisor(jobs=1, journal=str(journal))
        original = first.run_tasks(
            [
                Task(key=f"steady:{s.label}", fn=_execute_spec, payload=s,
                     label=s.label)
                for s in specs
            ]
        )
        assert all(r.steady.fast_forwarded for r in original)
        assert all(r.trace.is_compressed for r in original)

        resumed = supervisor(jobs=1, journal=str(journal))
        replayed = resumed.run_tasks(
            [
                Task(key=f"steady:{s.label}", fn=_execute_spec, payload=s,
                     label=s.label)
                for s in specs
            ]
        )
        assert resumed.report.replayed == 2
        assert resumed.report.executed == 0
        assert [chrome_json(r) for r in replayed] == [
            chrome_json(r) for r in original
        ]
        # The compressed representation round-tripped intact, and the
        # replayed results still expand to the full event stream.
        for got, want in zip(replayed, original):
            assert got.makespan == want.makespan
            assert got.steady == want.steady
            assert (
                got.trace.expanded().events == want.trace.expanded().events
            )

    def test_garbage_journal_is_survivable(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        journal.write_bytes(b'{"type": "header", "schema": 1\nnot json at all')
        sup = supervisor(jobs=1, journal=str(journal))
        results = sup.run_tasks(
            [Task(key="k", fn=ch.ok, payload=1, label="k")]
        )
        assert results == [2]
        assert load_journal(journal).outcomes["k"].payload() == 2
