"""Self-tests of the host-time benchmark.

Run from the repository root::

    python3 -m pytest hostbench/tests
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

import digests
import layout
import ops
import run
import spans
from workload import Checker, set_up, traced


@pytest.fixture
def scratch():
    path = layout.scratch_dir()
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _check_grid(workload) -> Checker:
    workload.setup()
    checker = Checker(workload, digests.load_reference(workload.name))
    checker.run(workload.grid())
    return checker


# -- digests ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ops.WORKLOADS))
def test_every_reference_digest_matches(name, scratch):
    workload = ops.WORKLOADS[name](scratch)
    checker = _check_grid(workload)
    assert checker.attempted == len(workload.grid())
    assert checker.failures == []


def test_perturbed_cost_model_fails_every_feasible_compare_op(scratch, monkeypatch):
    from repro.models.costmodel import CostModel

    task_time = CostModel.task_time
    monkeypatch.setattr(
        CostModel, "task_time",
        lambda self, flops, device: task_time(self, flops, device) * 1.001,
    )
    reference = digests.load_reference("compare")
    feasible = {key for key, digest in reference.items() if "error" not in digest}
    assert len(feasible) == 78
    checker = _check_grid(ops.Compare(scratch))
    failed = {
        failure.split(": ", 1)[0]
        for failure in checker.failures
        if "digest mismatch" in failure
    }
    assert failed == feasible


def test_mismatch_tolerance():
    assert digests.mismatches({"a": 1.0, "b": [2, "x"]}, {"a": 1.0 + 1e-12, "b": [2, "x"]}) == []
    assert digests.mismatches({"a": 1.0}, {"a": 1.0 + 1e-8}) != []
    assert digests.mismatches({"ok": True}, {"ok": 1}) != []
    assert digests.mismatches({"a": 1}, {"a": 1, "b": 2}) != []
    assert digests.mismatches(None, {"a": 1}) != []


# -- inputs ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ops.WORKLOADS))
def test_same_seed_same_ops(name, scratch):
    workload = ops.WORKLOADS[name](scratch)
    for seed in (0, 1, 7, 12345):
        keys = workload.round(seed)
        assert keys == workload.round(seed)
        assert sorted(keys) == sorted(workload.grid())


def test_seed_shuffles_compare():
    workload = ops.Compare("")
    assert workload.round(1) != workload.round(2)
    assert len(workload.grid()) == 4 * 8 * 3


# -- span recorder -----------------------------------------------------------


def test_self_time_arithmetic_on_nested_spans():
    s = spans.Spans()
    a = s.add("Executor.run", "sim.executor", 0.0, 10.0)
    b = s.add("Engine.run", "sim.engine", 1.0, 4.0, parent=a)
    s.add("MemoryManager.prepare", "memory", 2.0, 3.0, parent=b)
    s.add("audit_run", "validate", 5.0, 9.0, parent=a)
    assert spans.self_times(s) == [3.0, 2.0, 1.0, 4.0]
    metrics = spans.layer_metrics(s)
    assert metrics["sim.executor.self_s"] == 3.0
    assert metrics["sim.engine.self_s"] == 2.0
    assert metrics["memory.prepare_s"] == 1.0
    assert metrics["validate.self_s"] == 4.0
    assert metrics["validate.calls"] == 1
    ranking = dict(spans.layer_ranking(s))
    assert ranking == {"sim.executor": 3.0, "sim.engine": 2.0, "memory": 1.0,
                       "validate": 4.0}


def test_wrapper_bookkeeping_is_charged_to_no_layer():
    # Each child's wrapper spends 0.5 s before and after its call: the
    # parent's self time excludes it, and the child keeps its call time.
    s = spans.Spans()
    a = s.add("Executor.run", "sim.executor", 0.0, 10.0, enter=-1.0, exit=11.0)
    b = s.add("Engine.run", "sim.engine", 1.5, 4.5, parent=a, enter=1.0, exit=5.0)
    s.add("MemoryManager.prepare", "memory", 2.5, 3.5, parent=b,
          enter=2.0, exit=4.0)
    s.add("audit_run", "validate", 6.5, 8.5, parent=a, enter=6.0, exit=9.0)
    assert spans.self_times(s) == [3.0, 1.0, 1.0, 2.0]
    metrics = spans.layer_metrics(s)
    assert metrics["sim.executor.self_s"] == 3.0
    assert metrics["sim.engine.self_s"] == 1.0
    assert metrics["memory.prepare_s"] == 1.0
    assert metrics["validate.self_s"] == 2.0
    assert sum(spans.self_times(s)) == 10.0 - 3 * 1.0


def test_entries_count_calls_from_outside_the_layer():
    s = spans.Spans()
    outer = s.add("gtx1080ti_server", "hardware", 0.0, 2.0)
    s.add("commodity_server", "hardware", 0.5, 1.5, parent=outer)
    s.add("rack_cluster", "hardware", 3.0, 4.0)
    metrics = spans.layer_metrics(s)
    assert metrics["hardware.calls"] == 2
    assert metrics["hardware.self_s"] == 3.0


def test_supervisor_wait_arithmetic():
    s = spans.Spans()
    sweep = s.add("Supervisor.run_tasks", "supervisor", 0.0, 10.0)
    for start, end, name in [
        (0.5, 0.6, "attempt"), (0.6, 0.7, "attempt"), (3.0, 3.2, "outcome"),
        (3.2, 3.3, "attempt"), (6.0, 6.1, "outcome"), (8.0, 8.1, "outcome"),
    ]:
        s.add(f"JournalWriter.{name}", "supervisor", start, end, parent=sweep)
    metrics = spans.layer_metrics(s)
    assert metrics["supervisor.wait_s"] == pytest.approx(2.3 + 2.7 + 1.9)
    assert metrics["supervisor.first_result_s"] == pytest.approx(3.0)
    assert metrics["supervisor.journal_records"] == 6
    assert metrics["supervisor.journal_s"] == pytest.approx(0.6 + 0.1)
    assert metrics["supervisor.self_s"] == pytest.approx(10.0 - 0.7 - 6.9)


def _wrappers_left() -> list[str]:
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            holders = [(attr, value)]
            if isinstance(value, type):
                holders += [(f"{attr}.{k}", v) for k, v in vars(value).items()]
            found += [
                f"{mod_name}.{name}" for name, obj in holders
                if hasattr(obj, "hostbench_target")
            ]
    return found


def test_traced_run_restores_every_original():
    import repro
    from repro.hardware import presets
    from repro.models import zoo

    recorder = spans.Recorder()
    recorder.install()
    try:
        patched = recorder.patched()
        assert _wrappers_left()
        assert hasattr(repro.core.session.audit_run, "hostbench_target")
        session = repro.HarmonySession(
            zoo.build("lenet"), presets.gtx1080ti_server(2),
            repro.HarmonyConfig("harmony-pp", audit=True),
        )
        session.run()
    finally:
        recorder.uninstall()
    s = recorder.spans
    layers = {s.layer(i) for i in range(len(s))}
    assert {"models", "hardware", "schedulers", "sim.executor", "sim.engine",
            "memory", "validate"} <= layers
    for i in range(len(s)):
        assert s.enters[i] <= s.starts[i] <= s.ends[i] <= s.exits[i]
        p = s.parents[i]
        if p >= 0:
            assert s.starts[p] <= s.enters[i] and s.exits[i] <= s.ends[p]
    patched_names = {
        f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr
        for owner, attr, _ in patched
    }
    for target in spans.all_targets():
        assert target.qualname in patched_names
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
    assert _wrappers_left() == []


def test_supervisor_recorder_wraps_only_the_supervisor_layer():
    from repro.sim.engine import Engine

    recorder = spans.Recorder(spans.SUPERVISOR_TARGETS)
    recorder.install()
    try:
        wrapped = {
            getattr(owner, attr).hostbench_target.qualname
            for owner, attr, _ in recorder.patched()
        }
        assert not hasattr(Engine.run, "hostbench_target")
    finally:
        recorder.uninstall()
    assert wrapped == {
        "Supervisor.run_tasks", "JournalWriter.attempt", "JournalWriter.outcome",
    }
    assert _wrappers_left() == []


@pytest.fixture(scope="module")
def traced_metrics():
    """Per-layer metrics of one traced run of every workload."""
    metrics = {}
    for name in sorted(ops.WORKLOADS):
        path = layout.scratch_dir()
        try:
            workload = ops.WORKLOADS[name](path)
            recorder = spans.Recorder()
            set_up(workload, recorder)
            checker = Checker(workload, digests.load_reference(name))
            out = traced(argparse.Namespace(seed=1), workload, checker,
                         recorder, import_s=0.1)
            assert checker.failures == []
            metrics[name] = out["metrics"]
        finally:
            gc.unfreeze()  # set_up froze this process's heap
            shutil.rmtree(path, ignore_errors=True)
    return metrics


def test_traced_run_zero_pattern(traced_metrics):
    m = traced_metrics
    declared = set(spans.layer_metrics(spans.Spans())) | {
        "repro.import_s", "bench.trace_overhead_s",
    }
    for name in m:
        assert set(m[name]) == declared
        assert m[name]["validate.violations"] == 0
    only = {name: [w for w in sorted(m) if m[w][name]] for name in declared}
    for name in ("steady.calls", "perf.cache.misses", "perf.incremental.misses",
                 "tuner.probes", "perf.cache.hits", "perf.incremental.hits"):
        assert only[name] == ["tune"], name
    for name in ("faults.calls", "supervisor.tasks"):
        assert only[name] == ["faults"], name
    assert m["tune"]["validate.calls"] == m["faults"]["validate.calls"] == 0
    assert m["fleet"]["validate.self_s"] > m["fleet"]["sim.engine.self_s"]
    assert m["compare"]["memory.capacity_errors"] == 18


def test_every_registry_scheduler_is_wrapped():
    from repro.hardware import presets
    from repro.models import zoo
    from repro.schedulers import SCHEDULER_REGISTRY, BatchConfig, HarmonyOptions

    model, topology = zoo.build("lenet"), presets.gtx1080ti_server(2)
    built = {
        type(factory(model, topology, BatchConfig(), HarmonyOptions())).__name__
        for factory in SCHEDULER_REGISTRY.values()
    }
    wrapped = {t.qualname.split(".")[0] for t in spans.scheduler_targets()}
    assert built == wrapped


# -- the command and its declared metrics -----------------------------------


def test_benchmark_json_declares_every_metric():
    with open(os.path.join(layout.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert {(m["name"], m["unit"]) for m in declared["end_to_end"]} == set(
        run.END_TO_END_UNITS.items()
    )
    layer_names = set(spans.layer_metrics(spans.Spans())) | {
        "repro.import_s", "bench.trace_overhead_s",
    }
    assert {(m["name"], m["unit"]) for m in declared["per_layer"]} == {
        (name, run.layer_unit(name)) for name in layer_names
    }
    assert {w["name"] for w in declared["workloads"]} == set(ops.WORKLOADS)
    assert set(run.WORKLOADS) == set(ops.WORKLOADS)


def test_command_fails_without_program_source(tmp_path):
    shutil.copytree(layout.HERE, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(layout.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "compare",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
