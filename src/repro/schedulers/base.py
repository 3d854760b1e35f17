"""Scheduler base class and shared plumbing.

A scheduler's job (paper Fig. 3, "Task and Swap Scheduler") is to turn
the decomposed task graph into a :class:`Plan`: bind every task to a
device (late binding happens *here*, not in the model definition),
fix each device's execution order, and choose the memory policy.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hardware.topology import Topology
from repro.memory.policy import MemoryPolicy
from repro.models.graph import ModelGraph
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
