"""Performance layer (``repro.perf``): content-addressed fingerprints,
the two-tier stores, parallel sweeps, and the cached tuner search.

The load-bearing guarantees under test:

* a cache hit is **indistinguishable** from a fresh simulation — same
  metrics, byte-identical trace, same swap ledgers;
* ``--jobs N`` output is byte-identical to serial output (results
  return in submission order, never completion order);
* the fingerprint moves when anything semantically relevant moves
  (model, topology, config, scheduler version) and stays put when
  nothing does;
* the cached/parallel tuner picks the same ``best`` as the serial
  uncached search, with the hill-climb's revisits served from cache.
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

from repro import BatchConfig, HarmonyConfig, HarmonySession, compare_runs
from repro.errors import ReproError
from repro.hardware import presets
from repro.models import zoo
from repro.perf import CheckpointStore, RunCache, RunSpec, fingerprint
from repro.perf.fingerprint import SCHEDULER_VERSION, FingerprintError
from repro.sim.trace import to_chrome_trace
from repro.supervisor import Supervisor
from repro.tuner.search import tune
from repro.units import MB
from tests.test_incremental import _snap


def small_workload(scheme: str = "harmony-pp", microbatches: int = 2):
    model = zoo.synthetic_uniform(num_layers=4)
    topology = presets.gtx1080ti_server(num_gpus=2)
    config = HarmonyConfig(scheme, batch=BatchConfig(1, microbatches))
    return model, topology, config


def chrome_json(result) -> str:
    return json.dumps(to_chrome_trace(result.trace), sort_keys=True)


class TestFingerprint:
    def test_deterministic_and_hex(self):
        model, topo, config = small_workload()
        a = fingerprint(model, topo, config)
        b = fingerprint(model, topo, config)
        assert a == b
        assert len(a) == 64 and int(a, 16) >= 0

    def test_sensitive_to_config(self):
        model, topo, config = small_workload()
        base = fingerprint(model, topo, config)
        _, _, other_batch = small_workload(microbatches=4)
        _, _, other_scheme = small_workload(scheme="pp-baseline")
        assert fingerprint(model, topo, other_batch) != base
        assert fingerprint(model, topo, other_scheme) != base

    def test_distinct_across_the_whole_registry(self):
        # Every registered scheme keys its own cache entries — two
        # schemes sharing a fingerprint would serve each other's runs.
        from repro.schedulers import scheme_names

        model, topo, _ = small_workload()
        prints = {
            scheme: fingerprint(
                model, topo,
                HarmonyConfig(scheme, batch=BatchConfig(1, 2)),
            )
            for scheme in scheme_names()
        }
        assert len(set(prints.values())) == len(prints)

    def test_sensitive_to_model_and_topology(self):
        model, topo, config = small_workload()
        base = fingerprint(model, topo, config)
        bigger = zoo.synthetic_uniform(num_layers=5)
        more_gpus = presets.gtx1080ti_server(num_gpus=4)
        assert fingerprint(bigger, topo, config) != base
        assert fingerprint(model, more_gpus, config) != base

    def test_sensitive_to_scheduler_version_salt(self, monkeypatch):
        # Bumping SCHEDULER_VERSION must invalidate every key — that is
        # the whole invalidation story for semantics changes.
        model, topo, config = small_workload()
        base = fingerprint(model, topo, config)
        import importlib

        fp_mod = importlib.import_module("repro.perf.fingerprint")
        monkeypatch.setattr(fp_mod, "SCHEDULER_VERSION", SCHEDULER_VERSION + "-next")
        assert fingerprint(model, topo, config) != base

    def test_unfingerprintable_object_raises(self):
        model, topo, _ = small_workload()
        with pytest.raises(FingerprintError):
            fingerprint(model, topo, object())


class TestRunCache:
    def test_hit_is_equal_but_never_the_same_object(self):
        model, topo, config = small_workload()
        result = HarmonySession(model, topo, config).run()
        cache = RunCache()
        cache.put("result:k", result)
        first = cache.get("result:k")
        second = cache.get("result:k")
        assert first is not result and first is not second
        assert first.makespan == result.makespan
        # Mutating a returned hit must not poison later hits.
        first.devices.clear()
        assert cache.get("result:k").devices == result.devices

    def test_disk_tier_survives_a_new_process_worth_of_state(self, tmp_path):
        model, topo, config = small_workload()
        result = HarmonySession(model, topo, config).run()
        key = "result:" + fingerprint(model, topo, config)
        RunCache(cache_dir=str(tmp_path)).put(key, result)
        fresh_instance = RunCache(cache_dir=str(tmp_path))
        hit = fresh_instance.get(key)
        assert hit is not None
        assert hit.makespan == result.makespan
        assert fresh_instance.counters()["hits"] == 1

    def test_corrupt_disk_entry_is_invalidated_not_raised(self, tmp_path):
        cache = RunCache(cache_dir=str(tmp_path))
        key = "result:" + "ab" * 32
        path = os.path.join(str(tmp_path), key[:2], f"{key}.pkl")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        assert cache.get(key) is None
        assert cache.invalidations == 1
        assert not os.path.exists(path)

    def test_counters_and_hit_rate(self):
        cache = RunCache()
        assert cache.get("result:missing") is None
        cache.put("result:x", {"v": 1})
        assert cache.get("result:x") == {"v": 1}
        assert cache.counters() == {
            "hits": 1, "misses": 1, "stores": 1, "invalidations": 0,
            "write_errors": 0,
        }
        assert cache.hit_rate == 0.5

    def test_falsy_payloads_are_hits_not_misses(self):
        # Regression: ``get`` returning the payload directly made a
        # cached ``None`` indistinguishable from a miss, so falsy
        # results were recomputed forever.  The MISS sentinel fixes it.
        cache = RunCache()
        for key, value in [("result:n", None), ("result:z", 0), ("result:e", [])]:
            cache.put(key, value)
            hit = cache.get(key, RunCache.MISS)
            assert hit is not RunCache.MISS
            assert hit == value
        assert cache.get("result:absent", RunCache.MISS) is RunCache.MISS


#: (store class, store entry ``i``, entry ``i`` is served) for both
#: key layouts over the blob store.
STORES = {
    "RunCache": (
        RunCache,
        lambda store, i: store.put(f"result:{i}", {"v": i}),
        lambda store, i: store.get(f"result:{i}") == {"v": i},
    ),
    "CheckpointStore": (
        CheckpointStore,
        lambda store, i: store.put("ab12", _snap(i)),
        lambda store, i: store.best("ab12", i).iteration == i,
    ),
}


class TestBlobStores:
    @pytest.mark.parametrize("kind", sorted(STORES))
    def test_disk_write_failure_is_counted_and_warned_once(
        self, kind, tmp_path
    ):
        # Point the disk tier under a regular file after construction —
        # the disk "going bad" mid-run.  NotADirectoryError is the one
        # OSError that still fires when the suite runs as root (chmod
        # tricks don't).
        store_cls, put, served = STORES[kind]
        store = store_cls(tmp_path / "store")
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        store.root = str(blocker / "store")
        with pytest.warns(RuntimeWarning, match="disk write"):
            put(store, 1)
        # Later failures count silently — the warning fires exactly once.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            put(store, 2)
        assert store.counters()["write_errors"] == 2
        assert "2 disk write error(s)" in store.describe()
        # The memory tier kept both entries despite the dead disk tier.
        assert served(store, 1) and served(store, 2)


class TestFreshVsCachedEquality:
    def test_cached_result_matches_fresh_run_bit_for_bit(self):
        model, topo, config = small_workload()
        cache = RunCache()
        spec = RunSpec(model, topo, config)
        sup = Supervisor.plain(1, cache=cache)
        (fresh,) = sup.run_specs([spec])
        (cached,) = sup.run_specs([spec])
        assert cache.hits == 1
        assert cached.label == fresh.label
        assert cached.makespan == fresh.makespan
        assert cached.samples == fresh.samples
        assert cached.num_tasks == fresh.num_tasks
        assert cached.events_processed == fresh.events_processed
        assert cached.devices == fresh.devices
        assert cached.link_busy == fresh.link_busy
        # Trace: byte-identical chrome export.
        assert chrome_json(cached) == chrome_json(fresh)
        # SwapStats ledgers: every aggregate the experiments read.
        assert cached.stats.swap_out_volume() == fresh.stats.swap_out_volume()
        assert cached.stats.swap_in_volume() == fresh.stats.swap_in_volume()
        assert cached.stats.host_traffic() == fresh.stats.host_traffic()
        assert cached.stats.p2p_volume() == fresh.stats.p2p_volume()


    @pytest.mark.parametrize("scheme", ["pipedream-1f1b", "dapple"])
    def test_new_zoo_schemes_cache_hit_and_match(self, scheme):
        # The run-cache contract extends to the new pipeline schedules:
        # the second sweep is served entirely from cache and is
        # indistinguishable from the fresh run.
        model, topo, config = small_workload(scheme=scheme)
        cache = RunCache()
        spec = RunSpec(model, topo, config)
        sup = Supervisor.plain(1, cache=cache)
        (fresh,) = sup.run_specs([spec])
        (cached,) = sup.run_specs([spec])
        assert cache.hits == 1
        assert cached.makespan == fresh.makespan
        assert cached.devices == fresh.devices
        assert chrome_json(cached) == chrome_json(fresh)


class TestSweepRunner:
    """Plain sweeps on ``Supervisor.run_specs``: ``--jobs N`` output
    equals one job's, errors stay in their slots, the cache comes
    first."""

    def grid(self) -> list[RunSpec]:
        model = zoo.synthetic_uniform(num_layers=4)
        topo = presets.gtx1080ti_server(num_gpus=2)
        return [
            RunSpec(
                model, topo,
                HarmonyConfig(scheme, batch=BatchConfig(1, m)),
                label=f"{scheme}-{m}",
            )
            for scheme in ("harmony-pp", "pp-baseline")
            for m in (2, 4)
        ]

    def test_jobs4_matches_jobs1_tables_and_traces(self):
        specs = self.grid()
        serial = Supervisor.plain(1).run_specs(specs)
        parallel = Supervisor.plain(4).run_specs(specs)
        assert [r.makespan for r in serial] == [r.makespan for r in parallel]
        assert (
            compare_runs(serial).render() == compare_runs(parallel).render()
        )
        for a, b in zip(serial, parallel):
            assert chrome_json(a) == chrome_json(b)

    def test_infeasible_spec_fills_its_slot_with_the_error(self):
        from tests.conftest import tight_server

        model = zoo.synthetic_uniform(num_layers=4)
        # A 60 MB device cannot hold even one of the 100 MB layers.
        tiny = tight_server(1, capacity=60 * MB)
        specs = self.grid()
        specs.insert(1, RunSpec(model, tiny, specs[0].config, label="doomed"))
        outcomes = Supervisor.plain(2).run_specs(specs, return_exceptions=True)
        assert isinstance(outcomes[1], ReproError)
        assert all(
            not isinstance(o, ReproError)
            for i, o in enumerate(outcomes) if i != 1
        )
        with pytest.raises(ReproError):
            Supervisor.plain(2).run_specs(specs)

    def test_warm_cache_serves_the_whole_sweep(self):
        specs = self.grid()
        cache = RunCache()
        first = Supervisor.plain(1, cache=cache).run_specs(specs)
        stores = cache.stores
        again = Supervisor.plain(4, cache=cache).run_specs(specs)
        assert cache.hits == len(specs)
        assert cache.stores == stores  # nothing re-simulated
        assert [r.makespan for r in again] == [r.makespan for r in first]

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ReproError, match="jobs"):
            Supervisor.plain(0)

    def test_unexpected_worker_exception_comes_back_structured(
        self, monkeypatch
    ):
        # A non-ReproError escaping the simulation must cross the
        # process boundary as a picklable WorkerError carrying the
        # original type and traceback — not as a raw pickling hazard.
        import pickle

        import repro.core.session as session_mod
        from repro.errors import WorkerError
        from repro.perf.runner import _execute_spec

        def explode(*args, **kwargs):
            raise RuntimeError("simulator bug")

        monkeypatch.setattr(session_mod, "HarmonySession", explode)
        spec = self.grid()[0]
        outcome = _execute_spec(spec)
        assert isinstance(outcome, WorkerError)
        assert outcome.exc_type == "RuntimeError"
        assert "simulator bug" in outcome.exc_message
        assert "explode" in outcome.traceback_text
        clone = pickle.loads(pickle.dumps(outcome))
        assert isinstance(clone, WorkerError)
        assert clone.exc_type == outcome.exc_type


class TestFaultsSweepParity:
    def test_parallel_faults_rows_match_serial(self):
        from repro.experiments import faults_degradation

        kwargs = dict(iterations=2, mttf_iters=(float("inf"), 2.5))
        serial = faults_degradation.run(jobs=1, **kwargs)
        parallel = faults_degradation.run(jobs=3, **kwargs)
        assert serial == parallel
        assert (
            faults_degradation.table(serial).render()
            == faults_degradation.table(parallel).render()
        )

    def test_parallel_recovery_rows_match_serial(self):
        from repro.experiments import faults_degradation
        from repro.supervisor import RetryPolicy

        # What crosses the pipe from a recovery cell is its row.
        crossed: list = []
        sup = Supervisor(
            jobs=2,
            policy=RetryPolicy(max_attempts=1),
            on_outcome=lambda i, outcome: crossed.append(outcome),
        )
        serial = faults_degradation.run_recovery(jobs=1, iterations=2)
        parallel = faults_degradation.run_recovery(iterations=2, supervisor=sup)
        assert len(crossed) == len(serial)
        assert all(
            isinstance(o, faults_degradation.RecoveryRow) for o in crossed
        )
        assert serial == parallel
        assert (
            faults_degradation.recovery_table(serial).render()
            == faults_degradation.recovery_table(parallel).render()
        )

    def test_reports_under_the_pre_row_key_are_not_replayed(self, tmp_path):
        # Before cells returned rows they returned FaultReports, keyed
        # "faults:...".  A journal record or a run-cache entry of that
        # era must miss: the cell runs again instead of a report
        # landing in a row slot.
        from repro.experiments import faults_degradation
        from repro.faults import FaultPlan, FaultReport, ResiliencePolicy
        from repro.supervisor import DONE, JournalWriter

        model = zoo.synthetic_uniform(num_layers=8)
        topology = presets.gtx1080ti_server(num_gpus=4)
        mttf, iterations, seed, transient_probability = float("inf"), 2, 1, 0.02

        def pre_row_key(scheme: str) -> str:
            content = fingerprint(
                model, topology, HarmonyConfig(scheme, batch=BatchConfig())
            )
            return (
                f"faults:{content}:mttf={mttf:g}:iters={iterations}"
                f":seed={seed}:tp={transient_probability:g}"
            )

        def report(scheme: str) -> FaultReport:
            return FaultReport(
                plan=FaultPlan(seed=seed),
                policy=ResiliencePolicy.for_scheme(scheme),
            )

        journal = tmp_path / "pre-row.jsonl"
        with JournalWriter(journal) as writer:
            writer.header(None)
            writer.outcome(pre_row_key("harmony-dp"), DONE, 1, report("harmony-dp"))
        cache = RunCache()
        cache.put(pre_row_key("dp-baseline"), report("dp-baseline"))

        kwargs = dict(
            model=model, iterations=iterations, mttf_iters=(mttf,),
            seed=seed, transient_probability=transient_probability,
        )
        plain = faults_degradation.run(**kwargs)
        sup = Supervisor(inline=True, journal=journal, cache=cache)
        rows = faults_degradation.run(supervisor=sup, **kwargs)
        assert sup.report.replayed == 0 and sup.report.cache_hits == 0
        assert sup.report.executed == len(plain) == 4
        assert rows == plain
        assert (
            faults_degradation.table(rows).render()
            == faults_degradation.table(plain).render()
        )


class TestTunerCache:
    def workload(self):
        model = zoo.synthetic_uniform(num_layers=4)
        topo = presets.gtx1080ti_server(num_gpus=2)
        return model, topo

    def test_cached_search_picks_identical_best(self):
        model, topo = self.workload()
        base = tune(model, topo, 4)
        cached = tune(model, topo, 4, cache=RunCache(), jobs=2)
        assert cached.best == base.best
        assert cached.points == base.points
        assert cached.table().render() == base.table().render()

    def test_hill_climb_revisits_hit_the_cache(self):
        model, topo = self.workload()
        outcome = tune(model, topo, 4, cache=RunCache())
        assert outcome.hill_hits + outcome.hill_misses > 0
        assert outcome.hill_climb_hit_rate > 0.5

    def test_repeat_search_is_all_hits(self):
        model, topo = self.workload()
        cache = RunCache()
        first = tune(model, topo, 4, cache=cache)
        second = tune(model, topo, 4, cache=cache)
        assert second.best == first.best
        assert second.cache_misses == 0
        assert second.cache_hit_rate == 1.0


class TestCheckRegression:
    """``bench --check`` on crafted reports: a healthy report passes
    every gate, and each gate on its own turns a run into a
    REGRESSION.  Deterministic — no timing is measured here."""

    @staticmethod
    def current(**fleet):
        return {
            "fig4": {"events_per_sec": 30_000.0},
            "steady": {
                "steady_speedup": 500.0, "iterations": 10_000,
                "gate_floor": 100.0,
            },
            "incremental": {
                "per_probe_speedup": 4.0, "iterations": 32, "gate_floor": 3.0,
            },
            "fleet_scale": {"points": [
                {
                    "devices": 64, "events_per_sec": 30_000.0,
                    "wall_sec": 0.8, "runs_per_block": 8, "audit_sec": 0.01,
                },
                {
                    "devices": 1024,
                    "events_per_sec": fleet.get("eps", 24_000.0),
                    "wall_sec": 2.0, "runs_per_block": 1,
                    "audit_sec": fleet.get("audit_sec", 0.5),
                },
            ]},
            "recovery": {
                "schemes": ["harmony-dp"],
                "policies": {"restart-replan": {"goodput_ratio": 0.8}},
            },
        }

    def check(self, tmp_path, capsys, current):
        from repro.perf.bench import check_regression

        committed = tmp_path / "BENCH_sim.json"
        committed.write_text(json.dumps({
            "baseline": {"fig4": {"events_per_sec": 20_000.0}},
            "current": self.current(),
        }))
        code = check_regression({"current": current}, str(committed))
        lines = capsys.readouterr().out.splitlines()
        assert all(line.startswith("bench check: ") for line in lines)
        return code, lines

    def test_healthy_report_passes_every_gate(self, tmp_path, capsys):
        code, lines = self.check(tmp_path, capsys, self.current())
        assert code == 0
        assert len(lines) == 7
        assert all(line.endswith(": ok") for line in lines)
        assert any("fleet audit at 1024 devices costs 0.25x" in l for l in lines)

    @pytest.mark.parametrize("gate", [
        "fig4", "steady", "incremental", "fleet", "scaling", "audit",
        "recovery",
    ])
    def test_each_gate_reports_regression(self, tmp_path, capsys, gate):
        current = self.current()
        if gate == "fig4":
            current["fig4"]["events_per_sec"] = 13_000.0
            marker = "events/s vs committed baseline"
        elif gate == "steady":
            current["steady"]["steady_speedup"] = 300.0
            marker = "steady_speedup"
        elif gate == "incremental":
            current["incremental"]["per_probe_speedup"] = 2.0
            marker = "incremental per-probe"
        elif gate == "fleet":
            # Below 70% of the committed 1024-device figure, while the
            # report's own 64-to-1024 ratio still holds.
            current = self.current(eps=16_000.0)
            current["fleet_scale"]["points"][0]["events_per_sec"] = 20_000.0
            marker = "fleet 1024 devices"
        elif gate == "scaling":
            # Above 70% of the committed 1024-device figure, below 45%
            # of the report's own 64-device one.
            current = self.current(eps=17_000.0)
            current["fleet_scale"]["points"][0]["events_per_sec"] = 40_000.0
            marker = "fleet scaling 1024 vs 64"
        elif gate == "audit":
            current = self.current(audit_sec=1.2)
            marker = "fleet audit at 1024 devices costs 0.60x"
        else:
            current["recovery"]["policies"]["restart-replan"][
                "goodput_ratio"
            ] = 0.5
            marker = "recovery restart-replan"
        code, lines = self.check(tmp_path, capsys, current)
        assert code == 1
        failed = [line for line in lines if line.endswith(": REGRESSION")]
        assert len(failed) == 1 and marker in failed[0], lines

    def test_audit_ratio_uses_per_run_wall(self, tmp_path, capsys):
        # Two runs per timed block: 0.6 s of audit against a 2.0 s
        # block is 0.6x one 1.0 s run.
        current = self.current(audit_sec=0.6)
        current["fleet_scale"]["points"][1]["runs_per_block"] = 2
        code, lines = self.check(tmp_path, capsys, current)
        assert code == 1
        assert any("costs 0.60x" in l and "REGRESSION" in l for l in lines)

    def test_reports_without_audit_field_skip_the_audit_gate(
        self, tmp_path, capsys
    ):
        current = self.current()
        for point in current["fleet_scale"]["points"]:
            del point["audit_sec"]
        code, lines = self.check(tmp_path, capsys, current)
        assert code == 0
        assert len(lines) == 6
        assert not any("audit" in line for line in lines)

    def test_committed_report_passes_its_own_gates(self, capsys):
        """BENCH_sim.json checked against itself: the cross-report
        gates hold trivially, so this pins the self-relative ones
        (fleet scaling, audit cost) on the figures it records."""
        from repro.perf.bench import check_regression

        path = os.path.join(os.path.dirname(__file__), "..", "BENCH_sim.json")
        with open(path) as fh:
            report = json.load(fh)
        code = check_regression(report, path)
        lines = capsys.readouterr().out.splitlines()
        assert code == 0, lines

    def test_unreadable_committed_report_fails(self, tmp_path, capsys):
        from repro.perf.bench import check_regression

        code = check_regression(
            {"current": self.current()}, str(tmp_path / "missing.json")
        )
        assert code == 1
        assert "cannot read" in capsys.readouterr().err
