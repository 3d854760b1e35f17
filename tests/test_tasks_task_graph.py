"""Task records and the dependency graph."""

import pytest

from repro.errors import SchedulingError
from repro.memory.policy import MemoryPolicy
from repro.models import zoo
from repro.models.phases import Phase
from repro.sim.plan import Plan
from repro.tasks.graph import TaskGraph
from repro.tasks.task import Task, TaskKind
from repro.tensors.registry import TensorRegistry


def compute(tid, deps=(), label=None, flops=1.0):
    return Task(
        tid=tid,
        kind=TaskKind.COMPUTE,
        label=label or f"t{tid}",
        phase=Phase.FORWARD,
        deps=frozenset(deps),
        flops=flops,
    )


class TestTask:
    def test_compute_requires_phase(self):
        with pytest.raises(SchedulingError):
            Task(tid=0, kind=TaskKind.COMPUTE, label="x")

    def test_negative_work_rejected(self):
        with pytest.raises(SchedulingError):
            compute(0, flops=-1)

    def test_touched_dedupes_and_preserves_order(self):
        task = Task(
            tid=0, kind=TaskKind.COMPUTE, label="t", phase=Phase.FORWARD,
            reads=(3, 1), writes=(1, 2),
        )
        assert task.touched == (3, 1, 2)

    def test_self_dep_rejected(self):
        # A self-dependency is a cycle of one: the task never becomes
        # ready, so validation names it.
        g = TaskGraph()
        g.add(compute(5, deps=[5]))
        with pytest.raises(SchedulingError, match="cycle.*t5"):
            g.validate()

    def test_place(self):
        task = compute(0)
        task.place("gpu1")
        assert task.device == "gpu1"
        assert str(task).endswith("@gpu1")


class TestTaskGraph:
    def test_add_and_lookup(self):
        g = TaskGraph()
        t = g.add(compute(0))
        assert g.task(0) is t
        assert len(g) == 1

    def test_duplicate_id_rejected(self):
        g = TaskGraph()
        g.add(compute(0))
        with pytest.raises(SchedulingError):
            g.add(compute(0))

    def test_unknown_lookup(self):
        with pytest.raises(SchedulingError):
            TaskGraph().task(3)

    def test_unknown_dep_detected(self):
        g = TaskGraph()
        g.add(compute(0, deps=[99]))
        with pytest.raises(SchedulingError):
            g.validate()

    def test_unplaced_detected(self):
        # Placement is the plan's to check: building one over an
        # unplaced compute task fails.
        g = TaskGraph()
        g.add(compute(0))
        with pytest.raises(SchedulingError, match="t0 left unplaced"):
            Plan(
                label="p", graph=g,
                registry=TensorRegistry(zoo.synthetic_uniform(num_layers=1), 1),
                device_order={"gpu0": [0]}, policy=MemoryPolicy.harmony(),
                samples_per_iteration=1,
            )

    def test_topo_order_respects_deps(self):
        g = TaskGraph()
        g.add(compute(0, deps=[1]))
        g.add(compute(1))
        order = [t.tid for t in g.topo_order()]
        assert order.index(1) < order.index(0)

    def test_cycle_detected(self):
        g = TaskGraph()
        g.add(compute(0, deps=[1]))
        g.add(compute(1, deps=[0]))
        with pytest.raises(SchedulingError):
            g.topo_order()

    def test_successors(self):
        g = TaskGraph()
        g.add(compute(0))
        g.add(compute(1, deps=[0]))
        assert g.successors()[0] == [1]

    def test_critical_path(self):
        g = TaskGraph()
        g.add(compute(0, flops=1))
        g.add(compute(1, deps=[0], flops=2))
        g.add(compute(2, flops=10))  # parallel branch
        length = g.critical_path_length(lambda t: t.flops)
        assert length == 10.0

    def test_compute_tasks_filter(self):
        g = TaskGraph()
        g.add(compute(0))
        g.add(
            Task(tid=1, kind=TaskKind.ALLREDUCE, label="ar")
        )
        assert [t.tid for t in g.compute_tasks()] == [0]
