"""Task records: one schedulable unit of work.

A :class:`Task` is deliberately close to the paper's notion — a
(phase, layer-pack, microbatch, replica) tuple with explicit tensor
reads/writes and dependencies, and no device.  The decomposer fixes
everything but the device; a scheduler adds only the binding and each
device's order, so its decisions (placement, ordering, grouping,
packing) are plain data over a list of tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import SchedulingError
from repro.models.phases import Phase
from repro.util.enums import FastEnum


class TaskKind(FastEnum):
    COMPUTE = "compute"
    ALLREDUCE = "allreduce"

    def __str__(self) -> str:
        return self.value


@dataclass
class Task:
    """One schedulable unit.

    Attributes
    ----------
    tid:
        Dense id, unique within a :class:`TaskGraph`.
    kind:
        COMPUTE (forward / backward / update on a layer pack) or
        ALLREDUCE (gradient synchronization across replicas).
    phase:
        Training phase for COMPUTE tasks; ``None`` for ALLREDUCE.
    layers:
        Indices of the layers this task executes (one element unless
        task packing fused several).
    microbatch:
        Microbatch index for FWD/BWD; ``None`` for UPDATE/ALLREDUCE.
    replica:
        Data-parallel replica this task belongs to (0 outside DP).
    reads / writes:
        Tensor ids that must be device-resident when the task starts.
        ``writes`` not yet materialized are allocated on the device.
    frees:
        Tensor ids that are dead once this task completes.
    flops:
        Total compute work (COMPUTE tasks).
    comm_bytes:
        Per-device communication volume (ALLREDUCE tasks), on each
        owner of the shares the plan derives from placement (see
        :class:`~repro.sim.plan.Plan`).
    deps:
        Task ids that must complete before this task may start: the
        whole dependency set, dataflow and in-place accumulation
        ordering alike, fixed when the decomposer builds the task.
    device:
        Placement, assigned by the scheduler (late binding: ``None``
        until then) — the only field set after decomposition.
    """

    tid: int
    kind: TaskKind
    label: str
    phase: Phase | None = None
    layers: tuple[int, ...] = ()
    microbatch: int | None = None
    replica: int = 0
    reads: tuple[int, ...] = ()
    writes: tuple[int, ...] = ()
    frees: tuple[int, ...] = ()
    flops: float = 0.0
    comm_bytes: float = 0.0
    deps: frozenset[int] = frozenset()
    device: str | None = None
    samples: int = 0
    # Lazily-built cache of the derived view the memory manager reads
    # for every task it prepares (reads/writes are fixed at
    # construction, so it never goes stale).
    _touched_cache: tuple[int, ...] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.kind is TaskKind.COMPUTE and self.phase is None:
            raise SchedulingError(f"task {self.label}: compute tasks need a phase")
        if self.flops < 0 or self.comm_bytes < 0:
            raise SchedulingError(f"task {self.label}: negative work")

    @property
    def touched(self) -> tuple[int, ...]:
        """All tensors that must be resident for this task."""
        cached = self._touched_cache
        if cached is None:
            cached = tuple(dict.fromkeys(self.reads + self.writes))
            self._touched_cache = cached
        return cached

    def place(self, device: str) -> None:
        self.device = device

    def __str__(self) -> str:
        where = self.device or "?"
        return f"{self.label}@{where}"


class Share(NamedTuple):
    """One participant's part of a collective: the tensors it makes
    resident, marks written and frees.  It carries the same four
    attributes the memory manager reads from a :class:`Task`, so
    ``MemoryManager.prepare`` and ``task_finished`` take either."""

    label: str
    touched: tuple[int, ...]
    writes: tuple[int, ...]
    frees: tuple[int, ...]
