"""A plan is checked exactly once, when it is built.

``Plan.__post_init__`` freezes each device order to a tuple, derives
the collective shares and runs ``Plan.validate``, which runs
``TaskGraph.validate``.  Nothing downstream checks again: the
executor, every fault segment and the decomposers trust a built plan.
Code that wants a different plan builds a new one with
``dataclasses.replace``, and that one is checked as it is built.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.core.config import HarmonyConfig
from repro.core.session import HarmonySession
from repro.errors import SchedulingError
from repro.faults import DeviceLoss, FaultPlan, TransientTransferError, run_resilient
from repro.models import zoo
from repro.schedulers import BatchConfig, build_scheduler
from repro.sim.executor import Executor
from repro.sim.plan import Plan
from repro.tasks.graph import TaskGraph
from repro.tasks.task import TaskKind
from repro.units import MB

from tests.conftest import tight_server


def _plan() -> Plan:
    """Two replicas, two microbatches: compute on both GPUs and one
    gradient all-reduce per layer."""
    model = zoo.synthetic_uniform(num_layers=2)
    return build_scheduler(
        "dp-baseline", model, tight_server(2), BatchConfig(1, 2)
    ).plan()


def _reorder(plan: Plan, **orders) -> Plan:
    return dataclasses.replace(plan, device_order={**plan.device_order, **orders})


def _with_deps(plan: Plan, tid: int, extra: set[int]) -> Plan:
    """The plan over a new graph whose task ``tid`` has ``extra`` deps
    (tasks never gain edges after they are built)."""
    graph = TaskGraph()
    for task in plan.graph:
        if task.tid == tid:
            task = dataclasses.replace(task, deps=task.deps | extra)
        graph.add(task)
    return dataclasses.replace(plan, graph=graph)


#: name -> (build the corrupted plan from a valid one, expected message)
CORRUPTIONS = {
    "dropped task": (
        lambda p: _reorder(p, gpu0=p.device_order["gpu0"][:-1]),
        "appears 0 times",
    ),
    "duplicated task": (
        lambda p: _reorder(
            p, gpu0=p.device_order["gpu0"] + p.device_order["gpu0"][:1]
        ),
        "appears 2 times",
    ),
    "misplaced task": (
        lambda p: _reorder(
            p,
            gpu0=p.device_order["gpu0"][1:],
            gpu1=p.device_order["gpu0"][:1] + p.device_order["gpu1"],
        ),
        "ordered on gpu1 but placed on gpu0",
    ),
    "collective on a non-owner": (
        lambda p: _reorder(p, gpu2=tuple(
            t.tid for t in p.graph if t.kind is TaskKind.ALLREDUCE
        )),
        "ordered on non-participant gpu2",
    ),
    "unknown dependency": (
        lambda p: _with_deps(p, p.device_order["gpu0"][0], {10**6}),
        "dependency on unknown task 1000000",
    ),
    "cycle": (
        # The first forward waits on the last update, which waits on it.
        lambda p: _with_deps(
            p, p.device_order["gpu0"][0], {p.device_order["gpu0"][-1]}
        ),
        "cycle",
    ),
    "self-dependency": (
        lambda p: _with_deps(
            p, p.device_order["gpu0"][0], {p.device_order["gpu0"][0]}
        ),
        "cycle",
    ),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_inconsistent_plan_cannot_be_built(case):
    corrupt, message = CORRUPTIONS[case]
    plan = _plan()
    with pytest.raises(SchedulingError, match=message):
        corrupt(plan)


def test_device_orders_are_tuples():
    plan = _plan()
    assert all(type(o) is tuple for o in plan.device_order.values())
    rebuilt = dataclasses.replace(
        plan, device_order={d: list(o) for d, o in plan.device_order.items()}
    )
    assert rebuilt.device_order == plan.device_order
    assert all(type(o) is tuple for o in rebuilt.device_order.values())


@pytest.fixture
def calls(monkeypatch):
    """Counts of plans built and of the two validators' calls."""
    counts: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        Plan, "__post_init__", counting("built", Plan.__post_init__)
    )
    monkeypatch.setattr(Plan, "validate", counting("plan", Plan.validate))
    monkeypatch.setattr(
        TaskGraph, "validate", counting("graph", TaskGraph.validate)
    )
    return counts


def test_executor_trusts_a_built_plan(calls):
    plan = _plan()
    assert calls == {"built": 1, "plan": 1, "graph": 1}
    Executor(tight_server(2), plan).run()
    assert calls == {"built": 1, "plan": 1, "graph": 1}


def test_resilient_run_checks_each_plan_once(calls):
    model = zoo.synthetic_uniform(num_layers=4)
    server = tight_server(2, capacity=900 * MB)
    healthy = HarmonySession(model, server, HarmonyConfig("harmony-dp")).run()
    faults = FaultPlan(seed=9, faults=(
        DeviceLoss("gpu1", at=1.5 * healthy.makespan),
        TransientTransferError(probability=0.1),
    ))
    calls.clear()
    report = run_resilient(
        model, server, HarmonyConfig("harmony-dp"), faults, iterations=3
    ).faults
    assert report.recovered and report.replans == 1
    segments_per_plan = Counter(id(s.plan) for s in report.segments)
    assert len(segments_per_plan) == 2
    assert max(segments_per_plan.values()) >= 2
    assert calls == {"built": 2, "plan": 2, "graph": 2}
