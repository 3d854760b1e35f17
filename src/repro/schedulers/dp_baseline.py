"""Data-parallel training with per-GPU memory virtualization.

The baseline of the paper's Fig. 2(a): each GPU holds a full model
replica and processes its own microbatches in rigid PyTorch order
(forward all layers, backward all layers, per microbatch; gradient
all-reduce and weight updates only after the entire backward pass).
Each GPU's virtualizer swaps to host memory in isolation, so every
replica re-swaps the same weights per microbatch — the paper's
"repeated swaps" — and the aggregate traffic rides the shared host
uplink, growing linearly with the number of GPUs.

With one replica this is also the ``single`` scheme: one virtualized
GPU, the setting of the prior work the paper builds on (vDNN,
IBM-LMS, SwapAdvisor, Capuchin).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.hardware.topology import Topology
from repro.memory.policy import MemoryPolicy
from repro.models.graph import ModelGraph
from repro.schedulers.base import BatchConfig, Scheduler
from repro.sim.plan import Plan
from repro.tasks.decomposer import Decomposer
from repro.tasks.packing import pack_layers


class DataParallelBaseline(Scheduler):
    name = "dp-baseline"

    def __init__(
        self,
        model: ModelGraph,
        topology: Topology,
        batch: BatchConfig,
        num_replicas: int | None = None,
        pack_size: int = 1,
        policy: MemoryPolicy | None = None,
    ):
        super().__init__(model, topology, batch)
        self.num_replicas = num_replicas if num_replicas is not None else len(self.gpus)
        if self.num_replicas > len(self.gpus):
            raise ConfigError(
                f"{self.num_replicas} replicas but only {len(self.gpus)} GPUs"
            )
        self.pack_size = pack_size
        self.policy = policy if policy is not None else MemoryPolicy.baseline()

    def plan(self) -> Plan:
        packs = pack_layers(len(self.model), self.pack_size)
        itasks = Decomposer(
            self.model,
            microbatch_size=self.batch.microbatch_size,
            num_microbatches=self.batch.num_microbatches,
            num_replicas=self.num_replicas,
            packs_fwd=packs,
            packs_bwd=packs,
        ).decompose()
        replica_device = {r: self.gpus[r] for r in range(self.num_replicas)}
        device_order: dict[str, list[int]] = {}
        num_packs = len(itasks.packs_fwd)
        for r, device in replica_device.items():
            self._place_replica_tasks(itasks, r, device)
            order: list[int] = []
            for mb in range(self.batch.num_microbatches):
                for p in range(num_packs):
                    order.append(itasks.fwd[(r, p, mb)].tid)
                for p in reversed(range(num_packs)):
                    order.append(itasks.bwd[(r, p, mb)].tid)
            # Rigid tail: all gradient syncs, then all updates, mirroring
            # "weight update ... only starts after the backward pass for
            # the entire model" (paper §2, unnecessary swaps).
            for pu in range(len(itasks.packs_upd)):
                if pu in itasks.allreduce:
                    order.append(itasks.allreduce[pu].tid)
            for pu in range(len(itasks.packs_upd)):
                order.append(itasks.upd[(r, pu)].tid)
            device_order[device] = order
        return self._finish_plan(itasks, device_order, self.policy)
