"""Execution plans: the scheduler's contract with the executor.

A :class:`Plan` is a fully-placed, per-device-ordered task graph plus
the memory policy to run it under.  Every scheduler in
:mod:`repro.schedulers` — baseline or Harmony — produces exactly this
structure, which is what makes optimizations individually toggleable:
the executor has no idea which scheme it is running.

The plan also derives what placement implies for collectives: it
splits each one into per-device shares (:func:`collective_shares`), so
no scheduler says which device contributes which tensors, and a
collective's participants are its share owners.  A plan is checked
once, when it is built; code that wants a different plan builds a new
one (``dataclasses.replace``), which is checked again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.memory.policy import MemoryPolicy
from repro.tasks.graph import TaskGraph
from repro.tasks.task import Share, TaskKind
from repro.tensors.registry import TensorRegistry


@dataclass
class Plan:
    """Scheduler output.  Construction freezes each device order to a
    tuple, derives the collective shares and runs :meth:`validate`, so
    an inconsistent plan raises :class:`~repro.errors.SchedulingError`
    from its constructor and the executor trusts any plan that exists.

    Attributes
    ----------
    label:
        Human-readable scheme name (e.g. ``"harmony-pp"``).
    graph / registry:
        The task graph and its tensor registry.
    device_order:
        For each device, the exact order in which it executes its
        tasks (a tuple once built).  ALLREDUCE tasks appear in *every*
        participant's order (they are synchronization points).
    policy:
        Memory-management policy for the run.
    samples_per_iteration:
        For throughput reporting.
    shares:
        Derived on construction, not passed: collective tid ->
        {participant device -> its :class:`~repro.tasks.task.Share`},
        in participant order: a collective's participants are the keys.
    """

    label: str
    graph: TaskGraph
    registry: TensorRegistry
    device_order: dict[str, tuple[int, ...]]
    policy: MemoryPolicy
    samples_per_iteration: int
    microbatch_size: int = 1
    notes: dict[str, object] = field(default_factory=dict)
    shares: dict[int, dict[str, Share]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.device_order = {
            dev: tuple(order) for dev, order in self.device_order.items()
        }
        self.shares = collective_shares(self.graph, self.label)
        self.validate()

    def validate(self) -> None:
        """Every task appears in device orders the right number of times
        (compute tasks once, on their device; collectives once on each
        share owner), and the graph's dependency ids are known and
        acyclic."""
        seen: dict[int, int] = {}
        for device, order in self.device_order.items():
            for tid in order:
                task = self.graph.task(tid)
                seen[tid] = seen.get(tid, 0) + 1
                if task.kind is TaskKind.COMPUTE:
                    if task.device != device:
                        raise SchedulingError(
                            f"task {task.label} ordered on {device} but placed "
                            f"on {task.device}"
                        )
                elif device not in self.shares[tid]:
                    raise SchedulingError(
                        f"allreduce {task.label} ordered on non-participant {device}"
                    )
        for task in self.graph:
            expected = (
                1 if task.kind is TaskKind.COMPUTE
                else len(self.shares[task.tid])
            )
            if seen.get(task.tid, 0) != expected:
                raise SchedulingError(
                    f"task {task.label} appears {seen.get(task.tid, 0)} times in "
                    f"device orders, expected {expected}"
                )
        self.graph.validate()

    def task_counts(self) -> dict[str, int]:
        """Tasks by phase/kind (fwd/bwd/upd/allreduce) — the shape of
        the decomposition."""
        counts: dict[str, int] = {}
        for task in self.graph:
            if task.kind is TaskKind.COMPUTE:
                key = str(task.phase)
            else:
                key = "allreduce"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def total_collective_bytes(self) -> float:
        """Per-participant wire volume summed over all collectives."""
        return sum(
            t.comm_bytes for t in self.graph if t.kind is TaskKind.ALLREDUCE
        )

    def describe(self) -> str:
        counts = self.task_counts()
        count_text = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        lines = [
            f"plan {self.label!r}: {len(self.graph)} tasks ({count_text}), "
            f"{len(self.registry)} tensors",
            f"  policy: {self.policy}",
        ]
        for device in sorted(self.device_order):
            lines.append(
                f"  {device}: {len(self.device_order[device])} tasks in order"
            )
        return "\n".join(lines)


def collective_shares(
    graph: TaskGraph, label: str
) -> dict[int, dict[str, Share]]:
    """Split every collective of ``graph`` into per-device shares, using
    only the placement the scheduler made.

    A collective's tensor belongs to the device of the first compute
    task, in graph order, that touches it: the replica's device under
    data parallelism, the shard's under harmony-tp, the stage's device
    in its pipeline under DAPPLE.  Each owner's share lists its tensors
    in the collective's own touched / writes / frees order, and the
    participants are the owners, sorted.  The same pass over the compute
    tasks rejects an unplaced one.
    """
    collectives = [t for t in graph if t.kind is TaskKind.ALLREDUCE]
    pending = {tid for task in collectives for tid in task.touched}
    owner: dict[int, str] = {}
    for task in graph:
        if task.kind is not TaskKind.COMPUTE:
            continue
        if task.device is None:
            raise SchedulingError(f"task {task.label} left unplaced by {label}")
        claimed = pending.intersection(task.touched)
        if claimed:
            owner.update(dict.fromkeys(claimed, task.device))
            pending -= claimed
    if pending:
        raise SchedulingError(
            f"collective tensors {sorted(pending)[:6]} are touched by no "
            "compute task, so no device owns them"
        )
    shares: dict[int, dict[str, Share]] = {}
    for task in collectives:
        dev_of = {tid: owner[tid] for tid in task.touched}
        parts = {dev: ([], [], []) for dev in sorted(set(dev_of.values()))}
        for i, tids in enumerate((task.touched, task.writes, task.frees)):
            for tid in tids:
                if tid in dev_of:
                    parts[dev_of[tid]][i].append(tid)
        shares[task.tid] = {
            dev: Share(task.label, *map(tuple, lists))
            for dev, lists in parts.items()
        }
    return shares
