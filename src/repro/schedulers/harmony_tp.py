"""Harmony-TP: operation decomposition across GPUs.

The paper's key idea #2 as a schedule: every layer-level matrix
multiplication is split into per-device subtasks over weight shards,
with Harmony transparently inserting the collectives (all-gather of
partial outputs, all-reduce of partial input gradients) that preserve
the original semantics.  Weight updates are shard-local — no gradient
synchronization exists at all, the structural opposite of data
parallelism.

Memory: each GPU holds 1/N of every layer's W/dW/K/stash plus full
activation replicas, so persistent state pressure falls N-fold — the
right tool when a *single layer* is too large for one GPU.  Cost: two
collectives per layer per microbatch riding the interconnect.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.hardware.topology import Topology
from repro.models.graph import ModelGraph
from repro.schedulers.base import BatchConfig, Scheduler, harmony_order
from repro.schedulers.options import HarmonyOptions
from repro.sim.plan import Plan
from repro.tasks.sharded import ShardedDecomposer, ShardedIterationTasks
from repro.tasks.task import TaskKind


class HarmonyTP(Scheduler):
    name = "harmony-tp"

    def __init__(
        self,
        model: ModelGraph,
        topology: Topology,
        batch: BatchConfig,
        num_shards: int | None = None,
        options: HarmonyOptions | None = None,
    ):
        super().__init__(model, topology, batch)
        self.num_shards = num_shards if num_shards is not None else len(self.gpus)
        if self.num_shards > len(self.gpus):
            raise ConfigError(
                f"{self.num_shards} shards but only {len(self.gpus)} GPUs"
            )
        self.options = options if options is not None else HarmonyOptions()
        if self.options.pack_size != 1:
            raise ConfigError(
                "harmony-tp schedules at layer granularity (packing sharded "
                "subtasks would fuse across collectives)"
            )

    def plan(self) -> Plan:
        opts = self.options
        itasks = ShardedDecomposer(
            self.model,
            microbatch_size=self.batch.microbatch_size,
            num_microbatches=self.batch.num_microbatches,
            num_shards=self.num_shards,
        ).decompose()
        shard_device = {s: self.gpus[s] for s in range(self.num_shards)}
        for task in itasks.graph:
            if task.kind is TaskKind.COMPUTE:
                task.place(shard_device[task.replica])
        device_order = {
            shard_device[s]: self._shard_order(itasks, s)
            for s in range(self.num_shards)
        }
        return self._finish_plan(
            itasks, device_order, opts.memory_policy(),
            notes={"num_shards": self.num_shards},
        )

    def _shard_order(self, itasks: ShardedIterationTasks, s: int) -> list[int]:
        layers = range(len(self.model))

        def fwd_cell(layer: int, mb: int) -> list[int]:
            cell = [itasks.fwd[(s, layer, mb)].tid]
            if (layer, mb) in itasks.gather:
                cell.append(itasks.gather[(layer, mb)].tid)
            return cell

        def bwd_cell(layer: int, mb: int) -> list[int]:
            cell = [itasks.bwd[(s, layer, mb)].tid]
            if layer > 0 and (layer - 1, mb) in itasks.grad_coll:
                cell.append(itasks.grad_coll[(layer - 1, mb)].tid)
            return cell

        return harmony_order(
            self.options,
            self.batch.num_microbatches,
            layers,
            layers,
            fwd_cell,
            bwd_cell,
            lambda layer: (itasks.upd[(s, layer)].tid,),
            lambda: [itasks.upd[(s, layer)].tid for layer in layers],
        )
