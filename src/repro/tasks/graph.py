"""Task dependency graph with structural validation.

The graph is append-only: the decomposer adds tasks with their whole
dependency sets, and schedulers add only placement — no edge is added
after a task is built.  :meth:`TaskGraph.validate` checks the
invariants the executor relies on (known dependency ids, acyclicity);
a :class:`~repro.sim.plan.Plan` runs it once, when it is built.
:meth:`TaskGraph.topo_order` provides a deterministic topological order
used by analyses and tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.tasks.task import Task, TaskKind


@dataclass
class TaskGraph:
    """All tasks of one training iteration (or several), indexed by id."""

    tasks: dict[int, Task] = field(default_factory=dict)

    def add(self, task: Task) -> Task:
        if task.tid in self.tasks:
            raise SchedulingError(f"duplicate task id {task.tid}")
        self.tasks[task.tid] = task
        return task

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks.values())

    def task(self, tid: int) -> Task:
        try:
            return self.tasks[tid]
        except KeyError:
            raise SchedulingError(f"unknown task id {tid}") from None

    def compute_tasks(self) -> list[Task]:
        return [t for t in self.tasks.values() if t.kind is TaskKind.COMPUTE]

    def successors(self) -> dict[int, list[int]]:
        """Map from task id to the ids depending on it."""
        succ: dict[int, list[int]] = {tid: [] for tid in self.tasks}
        for task in self.tasks.values():
            for dep in task.deps:
                succ[dep].append(task.tid)
        return succ

    def validate(self) -> None:
        """Check dependency ids and acyclicity (a self-dependency is a
        cycle of one)."""
        for task in self.tasks.values():
            for dep in task.deps:
                if dep not in self.tasks:
                    raise SchedulingError(
                        f"task {task.label}: dependency on unknown task {dep}"
                    )
        self.topo_order()  # raises on cycles

    def topo_order(self) -> list[Task]:
        """Kahn's algorithm with deterministic (task-id) tie-breaking."""
        indegree = {tid: len(t.deps) for tid, t in self.tasks.items()}
        succ = self.successors()
        ready = deque(sorted(tid for tid, deg in indegree.items() if deg == 0))
        order: list[Task] = []
        while ready:
            tid = ready.popleft()
            order.append(self.tasks[tid])
            for nxt in sorted(succ[tid]):
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self.tasks):
            stuck = [t.label for tid, t in self.tasks.items() if indegree[tid] > 0]
            raise SchedulingError(f"task graph has a cycle involving: {stuck[:8]}")
        return order

    def critical_path_length(self, duration) -> float:
        """Longest path through the graph under a per-task duration
        function — a lower bound on any schedule's makespan, used by
        load-balance diagnostics."""
        finish: dict[int, float] = {}
        for task in self.topo_order():
            start = max((finish[d] for d in task.deps), default=0.0)
            finish[task.tid] = start + duration(task)
        return max(finish.values(), default=0.0)
