"""Single-GPU training with per-GPU memory virtualization.

The setting of the prior work the paper builds on (vDNN, IBM-LMS,
SwapAdvisor, Capuchin): one GPU, host memory as swap target, rigid
PyTorch execution order — per microbatch, forward over all layers then
backward over all layers; every weight update deferred to the end of
the iteration.
"""

from __future__ import annotations

from repro.hardware.topology import Topology
from repro.memory.policy import MemoryPolicy
from repro.models.graph import ModelGraph
from repro.schedulers.base import BatchConfig, Scheduler
from repro.sim.plan import Plan
from repro.tasks.decomposer import Decomposer
from repro.tasks.packing import pack_layers


class SingleGpuScheduler(Scheduler):
    name = "single-gpu-virtualized"

    def __init__(
        self,
        model: ModelGraph,
        topology: Topology,
        batch: BatchConfig,
        pack_size: int = 1,
        policy: MemoryPolicy | None = None,
    ):
        super().__init__(model, topology, batch)
        self.pack_size = pack_size
        self.policy = policy if policy is not None else MemoryPolicy.baseline()

    def plan(self) -> Plan:
        packs = pack_layers(len(self.model), self.pack_size)
        itasks = Decomposer(
            self.model,
            microbatch_size=self.batch.microbatch_size,
            num_microbatches=self.batch.num_microbatches,
            num_replicas=1,
            packs_fwd=packs,
            packs_bwd=packs,
        ).decompose()
        device = self.gpus[0]
        self._place_replica_tasks(itasks, 0, device)
        order: list[int] = []
        num_packs = len(itasks.packs_fwd)
        for mb in range(self.batch.num_microbatches):
            for p in range(num_packs):
                order.append(itasks.fwd[(0, p, mb)].tid)
            for p in reversed(range(num_packs)):
                order.append(itasks.bwd[(0, p, mb)].tid)
        for pu in range(len(itasks.packs_upd)):
            order.append(itasks.upd[(0, pu)].tid)
        return self._finish_plan(itasks, {device: order}, self.policy)
