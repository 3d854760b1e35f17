"""Scheduler base class and shared plumbing.

A scheduler's job (paper Fig. 3, "Task and Swap Scheduler") is to turn
the decomposed task graph into a :class:`Plan`: bind every task to a
device (late binding happens *here*, not in the model definition),
fix each device's execution order, and choose the memory policy.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ConfigError
from repro.hardware.topology import Topology
from repro.memory.policy import MemoryPolicy
from repro.models.graph import ModelGraph
from repro.schedulers.options import HarmonyOptions
from repro.sim.plan import Plan
from repro.tasks.decomposer import IterationTasks


@dataclass(frozen=True)
class BatchConfig:
    """How one mini-batch is split.

    ``num_microbatches`` is per replica (the paper's ``m``); the global
    mini-batch is ``num_replicas * num_microbatches * microbatch_size``
    samples.
    """

    microbatch_size: int = 1
    num_microbatches: int = 1

    def __post_init__(self) -> None:
        if self.microbatch_size < 1:
            raise ConfigError("microbatch_size must be >= 1")
        if self.num_microbatches < 1:
            raise ConfigError("num_microbatches must be >= 1")

    @property
    def per_replica_batch(self) -> int:
        return self.microbatch_size * self.num_microbatches


class Scheduler(abc.ABC):
    """Builds an execution plan for one training iteration."""

    name: str = "scheduler"

    def __init__(self, model: ModelGraph, topology: Topology, batch: BatchConfig):
        if not len(model):
            raise ConfigError("model has no layers")
        topology.validate()
        self.model = model
        self.topology = topology
        self.batch = batch
        self.gpus = [gpu.name for gpu in topology.gpus()]

    @abc.abstractmethod
    def plan(self) -> Plan:
        """Produce the placed, ordered plan."""

    # -- shared helpers -------------------------------------------------------

    def _finish_plan(
        self,
        itasks: IterationTasks,
        device_order: dict[str, list[int]],
        policy: MemoryPolicy,
        notes: dict | None = None,
    ) -> Plan:
        """Assemble the plan, which checks itself once as it is built:
        order against placement, share owners, dependency ids and
        acyclicity.  Collectives need no wiring here: the plan splits
        each into per-device shares from the placement this scheduler
        made, and rejects an unplaced compute task."""
        return Plan(
            label=self.name,
            graph=itasks.graph,
            registry=itasks.registry,
            device_order=device_order,
            policy=policy,
            samples_per_iteration=itasks.samples_per_iteration,
            microbatch_size=itasks.microbatch_size,
            notes=notes or {},
        )

    @staticmethod
    def _place_replica_tasks(
        itasks: IterationTasks, replica: int, device: str
    ) -> None:
        """Bind every compute task of one replica to one device (the
        data-parallel placement rule).  Uses the decomposer's per-replica
        index: the whole-graph scan this used to do made placement
        O(replicas x graph) — quadratic in fleet size."""
        for task in itasks.compute_tasks_of(replica):
            task.place(device)

    @staticmethod
    def _place_stage(
        itasks: IterationTasks,
        replica: int,
        stage: int,
        device: str,
        update_device: str | None = None,
    ) -> None:
        """Bind one pipeline stage (a backward pack) of one replica to
        one device: its forward and backward for every microbatch, and
        the updates of its layers (on ``update_device`` when given)."""
        for mb in range(itasks.num_microbatches):
            itasks.fwd[(replica, stage, mb)].place(device)
            itasks.bwd[(replica, stage, mb)].place(device)
        for pu in itasks.upd_packs_within(stage):
            itasks.upd[(replica, pu)].place(update_device or device)


def one_f_one_b(
    itasks: IterationTasks, replica: int, stage: int, num_stages: int
) -> list[int]:
    """The 1F1B order of one pipeline stage, without its update tail
    (PipeDream's 1F1B, which is DAPPLE's early backward).

    The stage warms up with ``num_stages - stage`` forwards, then runs
    backward-first (backward, forward) pairs and drains the remaining
    backwards, so it never holds more than ``num_stages - stage``
    microbatches' stashes at once."""
    m = itasks.num_microbatches
    warmup = min(num_stages - stage, m)
    fwd = [itasks.fwd[(replica, stage, mb)].tid for mb in range(m)]
    bwd = [itasks.bwd[(replica, stage, mb)].tid for mb in range(m)]
    order = fwd[:warmup]
    for k in range(m - warmup):
        order += (bwd[k], fwd[warmup + k])
    return order + bwd[m - warmup:]


def harmony_order(
    options: HarmonyOptions,
    num_microbatches: int,
    fwd_packs: Sequence[int],
    bwd_packs: Sequence[int],
    fwd_cell: Callable[[int, int], Sequence[int]],
    bwd_cell: Callable[[int, int], Sequence[int]],
    jit_tail: Callable[[int], Sequence[int]],
    deferred_tail: Callable[[], Sequence[int]],
) -> list[int]:
    """One device's order under Harmony's input-batch grouping and
    just-in-time update (paper §3), shared by every Harmony scheme.

    The forward pass runs ``fwd_packs``, then the backward pass runs
    ``bwd_packs`` in reverse.  ``fwd_cell(p, mb)`` and ``bwd_cell(p,
    mb)`` are the task ids pack ``p`` runs for microbatch ``mb``.  With
    grouping each pack runs every microbatch back to back; without it
    each microbatch runs every pack.  With ``jit_update``,
    ``jit_tail(p)`` follows the last microbatch of backward pack ``p``;
    without it, ``deferred_tail()`` follows the whole backward pass."""
    m = num_microbatches
    jit = options.jit_update
    order: list[int] = []
    if options.grouping:
        for p in fwd_packs:
            for mb in range(m):
                order += fwd_cell(p, mb)
        for p in reversed(bwd_packs):
            for mb in range(m):
                order += bwd_cell(p, mb)
            if jit:
                order += jit_tail(p)
    else:
        for mb in range(m):
            for p in fwd_packs:
                order += fwd_cell(p, mb)
        for mb in range(m):
            for p in reversed(bwd_packs):
                order += bwd_cell(p, mb)
                if jit and mb == m - 1:
                    order += jit_tail(p)
    if not jit:
        order += deferred_tail()
    return order
