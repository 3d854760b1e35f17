"""Command-line interface."""

import pytest

from repro.__main__ import SCHEMES, main


class TestCli:
    def test_zoo(self, capsys):
        assert main(["zoo"]) == 0
        out = capsys.readouterr().out
        assert "gpt3" in out and "175.0B" in out

    def test_compare_small(self, capsys):
        code = main(
            ["compare", "lenet", "--gpus", "2", "--microbatches", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "harmony-pp" in out and "dp-baseline" in out

    def test_compare_schedule_zoo(self, capsys):
        code = main(
            ["compare", "lenet", "--gpus", "2", "--microbatches", "2",
             "--schedule-zoo"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Every registered scheme appears in the zoo figure, and the
        # memory axis is rendered.
        for scheme in SCHEMES:
            assert scheme in out
        assert "per-stage peak activation" in out

    def test_timeline(self, capsys):
        code = main(
            ["timeline", "lenet", "--gpus", "2", "--microbatches", "2",
             "--scheme", "harmony-pp"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gpu0" in out and "#=compute" in out

    def test_tune(self, capsys):
        code = main(
            ["tune", "lenet", "--gpus", "2", "--microbatch-size", "1",
             "--microbatches", "2"]
        )
        assert code == 0
        assert "best:" in capsys.readouterr().out

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["compare", "skynet"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestFaultsTraceOut:
    """``faults --trace-out``: one seeded faulty run on a degradation
    cell's fault plan, dumped byte-identically, and its outcome in the
    exit code."""

    def run(self, capsys, path, *argv):
        code = main(["faults", *argv, "--trace-out", str(path)])
        capsys.readouterr()
        return code, path.read_bytes()

    def test_replay_is_byte_identical_and_recovers(self, capsys, tmp_path):
        argv = ("--iterations", "4", "--mttf", "2.5")
        code_a, trace_a = self.run(capsys, tmp_path / "a.txt", *argv)
        code_b, trace_b = self.run(capsys, tmp_path / "b.txt", *argv)
        assert code_a == code_b == 0
        assert trace_a == trace_b
        assert b"recovered=True" in trace_a.splitlines()[-1]

    def test_unrecovered_run_exits_one(self, capsys, tmp_path):
        # The sweep's only column is healthy, so the exit code comes
        # from the dumped run alone: it loses the only GPU at 2.5
        # iteration times.
        code, trace = self.run(
            capsys, tmp_path / "lost.txt",
            "--gpus", "1", "--iterations", "4", "--mttf", "inf",
        )
        assert code == 1
        assert b"recovered=False" in trace.splitlines()[-1]


class TestPerfCli:
    def test_figures_jobs_parity(self, capsys):
        assert main(["figures"]) == 0
        serial = capsys.readouterr().out
        assert main(["figures", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_compare_jobs_parity(self, capsys):
        argv = ["compare", "lenet", "--gpus", "2", "--microbatches", "2"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "4"]) == 0
        assert capsys.readouterr().out == serial

    def test_tune_reports_cache_stats(self, capsys):
        argv = ["tune", "lenet", "--gpus", "2", "--microbatches", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "hill-climb hit rate" in out
        assert main(argv + ["--no-cache"]) == 0
        assert "hill-climb hit rate" not in capsys.readouterr().out

    def test_bench_quick_writes_and_checks_report(self, capsys, tmp_path):
        """One quick run: the report has every section and field the
        gate reads.  The gate itself is tested deterministically on
        crafted reports (tests/test_perf.py::TestCheckRegression) —
        timing this host twice and comparing the runs made the test
        depend on host-speed drift."""
        import json

        path = tmp_path / "BENCH_sim.json"
        assert main(["bench", "--quick", "--jobs", "2", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "events/s" in out and "run cache" in out
        assert "steady_speedup" in out and "audit" in out
        report = json.loads(path.read_text())
        current = report["current"]
        assert report["quick"] is True
        assert current["fig4"]["events"] > 0
        assert current["fig4"]["events_per_sec"] > 0
        steady = current["steady"]
        assert steady["steady_speedup"] >= steady["gate_floor"]
        incremental = current["incremental"]
        assert incremental["per_probe_speedup"] > 0
        points = current["fleet_scale"]["points"]
        assert [p["devices"] for p in points] == [64, 256]
        for point in points:
            assert point["events_per_sec"] > 0
            assert point["runs_per_block"] >= 1
            assert 0 < point["audit_sec"]
        assert all(
            p["goodput_ratio"] > 0 for p in current["recovery"]["policies"].values()
        )


def strip_supervisor(out: str) -> str:
    """Drop supervisor status lines — everything else must be
    byte-identical to an unsupervised run."""
    return "".join(
        line
        for line in out.splitlines(keepends=True)
        if not line.startswith("supervisor:")
    )


class TestSupervisorCli:
    ARGV = ["compare", "lenet", "--gpus", "2", "--microbatches", "2",
            "--no-cache"]

    def test_journaled_compare_matches_plain_and_replays(
        self, capsys, tmp_path
    ):
        journal = str(tmp_path / "j.jsonl")
        assert main(self.ARGV) == 0
        plain = capsys.readouterr().out
        assert main(self.ARGV + ["--journal", journal]) == 0
        journaled = capsys.readouterr().out
        assert strip_supervisor(journaled) == plain
        assert "supervisor:" in journaled
        # Same journal again: everything replays, nothing re-executes.
        assert main(self.ARGV + ["--journal", journal]) == 0
        replayed = capsys.readouterr().out
        assert strip_supervisor(replayed) == plain
        assert f"{len(SCHEMES)} replayed from journal" in replayed

    def test_resume_completes_an_interrupted_run_byte_identically(
        self, capsys, tmp_path
    ):
        journal = tmp_path / "j.jsonl"
        assert main(self.ARGV) == 0
        plain = capsys.readouterr().out
        assert main(self.ARGV + ["--journal", str(journal)]) == 0
        capsys.readouterr()
        # Keep the header + the first couple of records: the journal of
        # a run interrupted partway through.
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"".join(lines[:5]))
        assert main(["resume", "--journal", str(journal)]) == 0
        resumed = capsys.readouterr().out
        assert strip_supervisor(resumed) == plain
        assert "resuming" in resumed and "replayed from journal" in resumed

    def test_resume_without_header_fails_cleanly(self, capsys, tmp_path):
        journal = tmp_path / "empty.jsonl"
        journal.write_text("")
        assert main(["resume", "--journal", str(journal)]) == 1
        assert "no command to resume" in capsys.readouterr().err

    def test_spec_timeout_engages_the_supervisor(self, capsys):
        # --spec-timeout alone (no journal) still runs supervised.
        assert main(self.ARGV + ["--spec-timeout", "120"]) == 0
        out = capsys.readouterr().out
        assert "supervisor:" in out
        assert strip_supervisor(out)  # the table still printed

    def test_figures_journal_matches_plain(self, capsys, tmp_path):
        journal = str(tmp_path / "fig.jsonl")
        assert main(["figures"]) == 0
        plain = capsys.readouterr().out
        assert main(["figures", "--journal", journal, "--jobs", "2"]) == 0
        journaled = capsys.readouterr().out
        assert strip_supervisor(journaled) == plain

    def test_tune_journal_matches_plain(self, capsys, tmp_path):
        argv = ["tune", "lenet", "--gpus", "2", "--microbatches", "2",
                "--no-cache"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--journal", str(tmp_path / "t.jsonl")]) == 0
        assert strip_supervisor(capsys.readouterr().out) == plain

    def test_faults_journal_matches_plain(self, capsys, tmp_path):
        journal = str(tmp_path / "faults.jsonl")
        argv = ["faults", "--iterations", "2", "--mttf", "inf", "2.5"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--journal", journal]) == 0
        journaled = capsys.readouterr().out
        assert strip_supervisor(journaled) == plain

    def test_faults_journal_holds_rows_not_reports(self, capsys, tmp_path):
        # Cells return their rows, so a journaled record is a few
        # hundred bytes; a FaultReport, which carries every segment's
        # trace, takes up to 124 KB a record on this sweep.
        import json

        from repro.experiments.faults_degradation import DegradationRow
        from repro.supervisor import DONE, load_journal

        journal = tmp_path / "faults.jsonl"
        argv = ["faults", "--iterations", "2", "--mttf", "inf", "2.5",
                "--jobs", "2", "--journal", str(journal)]
        assert main(argv) == 0
        capsys.readouterr()
        outcomes = load_journal(journal).outcomes
        done = 0
        for line in journal.read_bytes().splitlines():
            record = json.loads(line)
            if record["type"] == "outcome" and record["status"] == DONE:
                done += 1
                assert len(line) <= 4096, record["key"]
                row = outcomes[record["key"]].payload()
                assert isinstance(row, DegradationRow)
        assert done == 8  # 2 MTTFs x 4 schemes

    def test_faults_recovery_journal_matches_plain_and_resumes(
        self, capsys, tmp_path
    ):
        journal = tmp_path / "recovery.jsonl"
        argv = ["faults", "--recovery", "--iterations", "2"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--journal", str(journal)]) == 0
        journaled = capsys.readouterr().out
        assert journal.exists()
        assert strip_supervisor(journaled) == plain
        assert "supervisor:" in journaled
        # Header plus two attempt/outcome pairs: a run killed after its
        # second cell.
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"".join(lines[:5]))
        assert main(["resume", "--journal", str(journal)]) == 0
        resumed = capsys.readouterr().out
        assert strip_supervisor(resumed) == plain
        assert "2 replayed from journal" in resumed
