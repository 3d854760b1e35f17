"""Span recorder for the traced run: wraps the public calls into each
layer of ``repro``, records one span per call and turns the spans into
per-layer metrics.

The wrappers are installed only for the traced run and removed
afterwards (:meth:`Recorder.uninstall` puts every original object
back).  A function is wrapped at every module that binds it (``from
repro.validate.audit import audit_run`` gives ``repro.core.session`` its
own reference), and a method on the class that defines it.

Each span records its name, start, end, parent span and op id, plus the
counts its hooks take at the same boundary.  ``start``..``end`` is the
wrapped call alone; ``enter``..``exit`` also covers the wrapper's own
bookkeeping (span columns, stack, hooks).  A parent's self time
subtracts its children's ``enter``..``exit``, so that bookkeeping is
charged to no layer and shows only in the traced-minus-untraced
overhead figure.

A traced round of ``compare`` holds over a million spans, so they are
kept in columns (:class:`Spans`) and written out compressed at the end.
The recorder keeps one span stack and assumes the wrapped calls run on
one thread, which holds for every workload (the supervisor's workers
are processes).
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One public call to wrap.

    ``before(args, kwargs)`` runs before the call and returns a state;
    ``after(args, kwargs, result, state)`` runs after a normal return and
    returns the counts to attach to the span.  Neither runs inside the
    span's timed interval.
    """

    layer: str
    module: str
    qualname: str  # "func" or "Class.method"; unique across targets
    before: Callable[[tuple, dict], Any] | None = None
    after: Callable[[tuple, dict, Any, Any], dict] | None = None


# -- counter hooks -------------------------------------------------------


def _plan_tasks(args, kwargs, plan, state):
    return {"tasks": len(plan.graph.tasks)}


def _events_before(args, kwargs):
    return args[0].events_processed


def _events_after(args, kwargs, result, before):
    return {"events": args[0].events_processed - before}


def _moved_bytes(args, kwargs, result, state):
    return {"moved_bytes": args[1].tensor.size_bytes}


def _skip_count(args, kwargs, result, state):
    skip = args[2] if len(args) > 2 else kwargs["skip"]
    return {"skipped_iterations": skip}


def _violations(args, kwargs, report, state):
    return {"violations": len(report.violations)}


def _cache_state(args, kwargs):
    cache = args[0]
    return (cache.hits, cache.misses, cache.write_errors)


def _cache_delta(args, kwargs, result, before):
    cache = args[0]
    hits, misses, errors = before
    return {
        "hits": cache.hits - hits,
        "misses": cache.misses - misses,
        "write_errors": cache.write_errors - errors,
    }


def _store_state(args, kwargs):
    store = args[0]
    return (store.hits, store.misses, store.saved_iterations)


def _store_delta(args, kwargs, result, before):
    store = args[0]
    hits, misses, saved = before
    return {
        "hits": store.hits - hits,
        "misses": store.misses - misses,
        "saved_iterations": store.saved_iterations - saved,
    }


def _probe(args, kwargs, point, state):
    return {"probes": 1, "feasible": int(point.feasible)}


def _fault_report(args, kwargs, result, state):
    report = result.faults
    return {
        "runs": 1,
        "replans": report.replans,
        "retried_bytes": report.retried_bytes,
        "false_positives": len(report.false_positives()),
        "recovered": int(report.recovered),
    }


def _supervisor_state(args, kwargs):
    report = args[0].report
    return (report.retries, report.respawns)


def _supervisor_delta(args, kwargs, result, before):
    report = args[0].report
    tasks = args[1] if len(args) > 1 else kwargs["tasks"]
    return {
        "tasks": len(tasks),
        "retries": report.retries - before[0],
        "respawns": report.respawns - before[1],
    }


_PRESETS = (
    "commodity_server", "gtx1080ti_server", "single_gpu_server",
    "dgx1_like_server", "multi_server_cluster", "rack_cluster",
)

#: Every public call the traced run times, by layer (scheduler plan()
#: methods are added per class by :func:`scheduler_targets`).
TARGETS: tuple[Target, ...] = (
    Target("models", "repro.models.zoo", "build"),
    Target("models", "repro.models.zoo", "synthetic_uniform"),
    *(Target("hardware", "repro.hardware.presets", name) for name in _PRESETS),
    Target("sim.executor", "repro.sim.executor", "Executor.__init__"),
    Target("sim.executor", "repro.sim.executor", "Executor.run"),
    Target("sim.engine", "repro.sim.engine", "Engine.run",
           _events_before, _events_after),
    Target("sim.transfer", "repro.sim.transfer", "TransferEngine.execute_chain"),
    Target("sim.transfer", "repro.sim.transfer", "TransferEngine.execute_op"),
    Target("sim.transfer", "repro.sim.transfer",
           "TransferEngine.execute_allreduce"),
    Target("sim.trace", "repro.sim.trace", "Trace.add"),
    Target("memory", "repro.memory.manager", "MemoryManager.prepare"),
    Target("memory", "repro.memory.manager", "MemoryManager.op_begin"),
    Target("memory", "repro.memory.manager", "MemoryManager.op_finish",
           after=_moved_bytes),
    Target("memory", "repro.memory.manager", "MemoryManager.task_finished"),
    Target("memory", "repro.memory.manager", "MemoryManager.plan_flush"),
    Target("steady", "repro.steady.cycle", "entry_fingerprint"),
    Target("steady", "repro.steady.cycle", "capture_ledger"),
    Target("steady", "repro.steady.cycle", "apply_fast_forward",
           after=_skip_count),
    Target("validate", "repro.validate.audit", "audit_run", after=_violations),
    Target("validate", "repro.validate.audit", "audit_resilient",
           after=_violations),
    Target("perf.fingerprint", "repro.perf.fingerprint", "fingerprint"),
    Target("perf.fingerprint", "repro.perf.fingerprint", "base_fingerprint"),
    Target("perf.cache", "repro.perf.cache", "RunCache.get",
           _cache_state, _cache_delta),
    Target("perf.cache", "repro.perf.cache", "RunCache.put",
           _cache_state, _cache_delta),
    Target("perf.incremental", "repro.perf.incremental", "CheckpointStore.best",
           _store_state, _store_delta),
    Target("perf.incremental", "repro.perf.incremental", "CheckpointStore.put"),
    Target("perf.incremental", "repro.perf.incremental", "CheckpointStore.has"),
    Target("perf.incremental", "repro.perf.incremental", "capture_snapshot"),
    Target("perf.incremental", "repro.perf.incremental", "install_snapshot"),
    Target("tuner", "repro.tuner.search", "tune"),
    Target("tuner", "repro.tuner.profiler", "profile_configuration",
           after=_probe),
    Target("faults", "repro.faults.runner", "run_resilient",
           after=_fault_report),
    Target("faults", "repro.faults.injector", "FaultInjector.compute_duration"),
    Target("faults", "repro.faults.injector", "FaultInjector.transfer_timing"),
    Target("faults", "repro.faults.injector", "FaultInjector.transfer_fails"),
    Target("supervisor", "repro.supervisor.supervisor", "Supervisor.run_tasks",
           _supervisor_state, _supervisor_delta),
    Target("supervisor", "repro.supervisor.journal", "JournalWriter.attempt"),
    Target("supervisor", "repro.supervisor.journal", "JournalWriter.outcome"),
)


def scheduler_targets() -> tuple[Target, ...]:
    """``plan()`` of every scheduler class (the registry's classes)."""
    from repro.schedulers.base import Scheduler

    classes = sorted(
        (cls for cls in Scheduler.__subclasses__() if "plan" in vars(cls)),
        key=lambda cls: cls.__name__,
    )
    return tuple(
        Target("schedulers", cls.__module__, f"{cls.__name__}.plan",
               after=_plan_tasks)
        for cls in classes
    )


def all_targets() -> tuple[Target, ...]:
    return TARGETS + scheduler_targets()


#: The supervisor layer alone.  A pooled ``faults`` pass traces only
#: these, so the workers it forks inherit no other wrapper and run
#: untraced code.
SUPERVISOR_TARGETS = tuple(t for t in TARGETS if t.layer == "supervisor")


# -- span storage ----------------------------------------------------------


class Spans:
    """Spans in columns: span ``i`` is ``names[i]`` (an index into
    ``name_list``), the call ``starts[i]``..``ends[i]`` inside the
    wrapper ``enters[i]``..``exits[i]`` (perf_counter seconds),
    ``parents[i]`` (-1 for a root) and ``ops[i]`` (-1 during set-up).
    Errors and counts are sparse, keyed by span index."""

    def __init__(self) -> None:
        self.name_list: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self.names = array("i")
        self.enters = array("d")
        self.starts = array("d")
        self.ends = array("d")
        self.exits = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self.errors: dict[int, str] = {}
        self.counts: dict[int, dict] = {}

    def __len__(self) -> int:
        return len(self.names)

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.name_list)
            self.name_list.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    def add(self, name: str, layer: str, start: float, end: float,
            parent: int = -1, op: int = -1, enter: float | None = None,
            exit: float | None = None) -> int:
        """Append a finished span (for tests and hand-built traces); the
        wrapper interval defaults to the call's."""
        self.names.append(self.name_id(name, layer))
        self.enters.append(start if enter is None else enter)
        self.starts.append(start)
        self.ends.append(end)
        self.exits.append(end if exit is None else exit)
        self.parents.append(parent)
        self.ops.append(op)
        return len(self.names) - 1

    def name(self, i: int) -> str:
        return self.name_list[self.names[i]]

    def layer(self, i: int) -> str:
        return self.layer_of[self.names[i]]

    def dump(self, path: str) -> None:
        """Write the spans as gzip'd tab-separated lines: name, layer,
        enter, start, end, exit, parent, op, error, counts."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(
                "name\tlayer\tenter\tstart\tend\texit\tparent\top\terror\tcounts\n"
            )
            names, layers = self.name_list, self.layer_of
            for i in range(len(self.names)):
                n = self.names[i]
                fh.write(
                    f"{names[n]}\t{layers[n]}\t{self.enters[i]!r}\t"
                    f"{self.starts[i]!r}\t{self.ends[i]!r}\t{self.exits[i]!r}\t"
                    f"{self.parents[i]}\t{self.ops[i]}\t"
                    f"{self.errors.get(i, '')}\t{self.counts.get(i, '')}\n"
                )


# -- recording -----------------------------------------------------------


class Recorder:
    """Collects spans of ``targets`` (default :func:`all_targets`) while
    installed; see the module docstring."""

    def __init__(self, targets: tuple[Target, ...] | None = None) -> None:
        self.targets = targets
        self.spans = Spans()
        self.op = -1  # op id stamped on new spans (-1: set-up)
        self.installed = False
        self._stack: list[int] = []
        #: (namespace, attribute, original, wrapper), found on first install
        self._bindings: list[tuple[Any, str, Any, Callable]] | None = None

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("recorder already installed")
        if self._bindings is None:
            targets = self.targets if self.targets is not None else all_targets()
            # Import every target module first, so no module imported
            # later copies a wrapper that uninstall would miss.
            for target in targets:
                importlib.import_module(target.module)
            self._bindings = [
                (owner, attr, original, self._wrap(target, original))
                for target in targets
                for owner, attr, original in _bindings(target)
            ]
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        if self.installed:
            for owner, attr, original, _ in reversed(self._bindings):
                setattr(owner, attr, original)
            self.installed = False
        self._stack.clear()

    def patched(self) -> list[tuple[Any, str, Any]]:
        """Every (namespace, attribute, original) the recorder wraps."""
        return [(owner, attr, orig) for owner, attr, orig, _ in self._bindings or ()]

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        name_id = spans.name_id(target.qualname, target.layer)
        names, enters, starts = spans.names, spans.enters, spans.starts
        ends, exits = spans.ends, spans.exits
        parents, ops = spans.parents, spans.ops
        before, after = target.before, target.after
        clock = time.perf_counter
        recorder = self

        def traced(*args, **kwargs):
            enter = clock()
            i = len(names)
            names.append(name_id)
            enters.append(enter)
            # Children append their spans during the call: reserve ours.
            starts.append(enter)
            ends.append(enter)
            exits.append(enter)
            parents.append(stack[-1] if stack else -1)
            ops.append(recorder.op)
            stack.append(i)
            try:
                state = before(args, kwargs) if before is not None else None
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    starts[i] = start
                    ends[i] = end
            except BaseException as exc:
                spans.errors[i] = type(exc).__name__
                raise
            else:
                if after is not None:
                    spans.counts[i] = after(args, kwargs, result, state)
                return result
            finally:
                stack.pop()
                exits[i] = clock()

        traced.__wrapped__ = fn
        traced.hostbench_target = target  # marks a wrapper (tests look for it)
        traced.__name__ = getattr(fn, "__name__", target.qualname)
        traced.__qualname__ = getattr(fn, "__qualname__", target.qualname)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


def _bindings(target: Target) -> list[tuple[Any, str, Any]]:
    """Every (namespace, attribute, original object) the target is
    reachable through: the defining class for a method; for a function,
    each loaded ``repro`` module that binds the same object."""
    module = sys.modules[target.module]
    if "." in target.qualname:
        cls_name, attr = target.qualname.split(".")
        cls = getattr(module, cls_name)
        return [(cls, attr, vars(cls)[attr])]
    original = getattr(module, target.qualname)
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, attr, original))
    return found


# -- metrics -------------------------------------------------------------


@dataclass
class _NameTotals:
    layer: str
    self_s: float = 0.0
    wall_s: float = 0.0
    spans: int = 0
    entries: int = 0  # calls from outside the span's own layer
    capacity_errors: int = 0  # CapacityErrors raised out of the layer


def self_times(spans: Spans) -> list[float]:
    """Each call's duration minus the time its direct children's wrappers
    cover (children nest inside their parent on one thread), so no layer
    pays for the recorder's bookkeeping."""
    starts, ends, parents = spans.starts, spans.ends, spans.parents
    enters, exits = spans.enters, spans.exits
    child = [0.0] * len(spans)
    for i in range(len(spans)):
        p = parents[i]
        if p >= 0:
            child[p] += exits[i] - enters[i]
    return [ends[i] - starts[i] - child[i] for i in range(len(spans))]


def _totals(spans: Spans) -> dict[str, _NameTotals]:
    """Per span name: self time, wall time, span and entry counts."""
    totals = [_NameTotals(layer) for layer in spans.layer_of]
    layer_of = spans.layer_of
    names, starts, ends, parents = (
        spans.names, spans.starts, spans.ends, spans.parents
    )
    errors = spans.errors
    for i, s in enumerate(self_times(spans)):
        n = names[i]
        t = totals[n]
        t.self_s += s
        t.wall_s += ends[i] - starts[i]
        t.spans += 1
        p = parents[i]
        if p < 0 or layer_of[names[p]] != layer_of[n]:
            t.entries += 1
            if errors.get(i) == "CapacityError":
                t.capacity_errors += 1
    return dict(zip(spans.name_list, totals))


def _sum(totals: dict[str, _NameTotals], field: str, layer: str | None = None,
         names: tuple[str, ...] = ()) -> float:
    return sum(
        getattr(t, field) for name, t in totals.items()
        if (layer is None or t.layer == layer) and (not names or name in names)
    )


def _counts(spans: Spans) -> dict[tuple[str, str], float]:
    """Hook counts summed per (layer, count name)."""
    sums: dict[tuple[str, str], float] = {}
    for i, counts in spans.counts.items():
        layer = spans.layer(i)
        for key, value in counts.items():
            sums[layer, key] = sums.get((layer, key), 0) + value
    return sums


def _supervisor_wait(spans: Spans) -> tuple[float, float, int]:
    """(wait seconds, summed time to first result, sweeps).

    Inside ``Supervisor.run_tasks`` the client blocks on its workers in
    the gaps that end in a journaled outcome: from the previous journal
    record (or the call's start) to the ``JournalWriter.outcome`` that
    settles the result.  The first such gap also covers pool start-up.
    Gaps run between the journal wrappers, so they hold none of the
    recorder's bookkeeping.
    """
    sweeps = [i for i in range(len(spans)) if spans.name(i) == "Supervisor.run_tasks"]
    children: dict[int, list[int]] = {i: [] for i in sweeps}
    for i in range(len(spans)):
        if spans.parents[i] in children:
            children[spans.parents[i]].append(i)
    wait = first = 0.0
    for s in sweeps:
        prev_exit = spans.starts[s]
        seen_outcome = False
        for c in children[s]:
            if spans.name(c) == "JournalWriter.outcome":
                wait += spans.enters[c] - prev_exit
                if not seen_outcome:
                    first += spans.enters[c] - spans.starts[s]
                    seen_outcome = True
            prev_exit = spans.exits[c]
    return wait, first, len(sweeps)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Spans, supervisor_spans: Spans | None = None) -> dict:
    """Every per-layer metric from one traced pass.

    ``supervisor_spans`` (the pooled pass of a fanned-out workload)
    supplies the ``supervisor.*`` metrics when given; every other layer
    comes from ``spans``.  Names never called read as zero.
    """
    totals = _totals(spans)
    counts = _counts(spans)

    def of(layer: str | None = None, names: tuple[str, ...] = (),
           field: str = "self_s") -> float:
        return _sum(totals, field, layer, names)

    def count(layer: str, key: str) -> float:
        return counts.get((layer, key), 0)

    events = count("sim.engine", "events")
    cache_hits = count("perf.cache", "hits")
    cache_misses = count("perf.cache", "misses")
    inc_hits = count("perf.incremental", "hits")
    inc_misses = count("perf.incremental", "misses")
    probes = count("tuner", "probes")
    metrics = {
        "models.self_s": of("models"),
        "hardware.self_s": of("hardware"),
        "hardware.calls": of("hardware", field="entries"),
        "schedulers.self_s": of("schedulers"),
        "schedulers.calls": of("schedulers", field="entries"),
        "schedulers.tasks": count("schedulers", "tasks"),
        "sim.executor.init_s": of(names=("Executor.__init__",)),
        "sim.executor.self_s": of(names=("Executor.run",)),
        "sim.engine.self_s": of("sim.engine"),
        "sim.engine.events": events,
        "sim.engine.events_per_s": _ratio(events, of("sim.engine", field="wall_s")),
        "sim.transfer.self_s": of("sim.transfer"),
        "sim.transfer.calls": of("sim.transfer", field="entries"),
        "sim.trace.self_s": of("sim.trace"),
        "sim.trace.calls": of("sim.trace", field="entries"),
        "memory.prepare_s": of(names=("MemoryManager.prepare",)),
        "memory.op_s": of(
            names=("MemoryManager.op_begin", "MemoryManager.op_finish")
        ),
        "memory.finish_s": of(
            names=("MemoryManager.task_finished", "MemoryManager.plan_flush")
        ),
        "memory.calls": of("memory", field="entries"),
        "memory.capacity_errors": of("memory", field="capacity_errors"),
        "memory.moved_gb": count("memory", "moved_bytes") / 1e9,
        "steady.self_s": of("steady"),
        "steady.calls": of("steady", field="entries"),
        "steady.skipped_iterations": count("steady", "skipped_iterations"),
        "validate.self_s": of("validate"),
        "validate.calls": of("validate", field="entries"),
        "validate.violations": count("validate", "violations"),
        "perf.fingerprint.self_s": of("perf.fingerprint"),
        "perf.fingerprint.calls": of("perf.fingerprint", field="entries"),
        "perf.cache.self_s": of("perf.cache"),
        "perf.cache.hits": cache_hits,
        "perf.cache.misses": cache_misses,
        "perf.cache.hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "perf.cache.write_errors": count("perf.cache", "write_errors"),
        "perf.incremental.self_s": of("perf.incremental"),
        "perf.incremental.hits": inc_hits,
        "perf.incremental.misses": inc_misses,
        "perf.incremental.hit_ratio": _ratio(inc_hits, inc_hits + inc_misses),
        "perf.incremental.saved_iterations": count(
            "perf.incremental", "saved_iterations"
        ),
        "tuner.self_s": of("tuner"),
        "tuner.probes": probes,
        "tuner.feasible_ratio": _ratio(count("tuner", "feasible"), probes),
        "faults.self_s": of("faults"),
        "faults.calls": of("faults", field="entries"),
        "faults.replans": count("faults", "replans"),
        "faults.retried_gb": count("faults", "retried_bytes") / 1e9,
        "faults.false_positives": count("faults", "false_positives"),
        "faults.recovered_ratio": _ratio(
            count("faults", "recovered"), count("faults", "runs")
        ),
    }
    sup = supervisor_spans if supervisor_spans is not None else spans
    sup_totals = _totals(sup) if sup is not spans else totals
    sup_counts = _counts(sup) if sup is not spans else counts
    wait, first, sweeps = _supervisor_wait(sup)
    journal = ("JournalWriter.attempt", "JournalWriter.outcome")
    metrics.update({
        "supervisor.self_s": _sum(
            sup_totals, "self_s", names=("Supervisor.run_tasks",)
        ) - wait,
        "supervisor.wait_s": wait,
        "supervisor.first_result_s": _ratio(first, sweeps),
        "supervisor.tasks": sup_counts.get(("supervisor", "tasks"), 0),
        "supervisor.retries": sup_counts.get(("supervisor", "retries"), 0),
        "supervisor.respawns": sup_counts.get(("supervisor", "respawns"), 0),
        "supervisor.journal_s": _sum(sup_totals, "self_s", names=journal),
        "supervisor.journal_records": _sum(sup_totals, "spans", names=journal),
    })
    return metrics


def layer_ranking(spans: Spans) -> list[tuple[str, float]]:
    """Layers by total self time, largest first."""
    by_layer: dict[str, float] = {}
    for t in _totals(spans).values():
        by_layer[t.layer] = by_layer.get(t.layer, 0.0) + t.self_s
    return sorted(by_layer.items(), key=lambda kv: -kv[1])
