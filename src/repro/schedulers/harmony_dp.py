"""Harmony-DP: data-parallel training, Harmony-style.

Same replica placement as the DP baseline, but the schedule applies
the paper's optimizations:

* **input-batch grouping** — each layer pack's forward (and backward)
  runs across all ``m`` microbatches back-to-back, so its weights are
  swapped in once per pass instead of once per microbatch;
* **just-in-time update** — each pack's all-reduce and weight update
  run immediately after its backward group, while W and dW are still
  resident;
* **coherent memory** — dirty-bit tracking (clean weights drop for
  free) and p2p-capable swaps.

With these, the per-iteration weight swap volume drops from the
baseline's ``(4m+2)N|W|`` to ``3N|W|`` (paper §3, Fig. 5(b) vs 5(c)).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.hardware.topology import Topology
from repro.models.graph import ModelGraph
from repro.schedulers.base import BatchConfig, Scheduler, harmony_order
from repro.schedulers.options import HarmonyOptions
from repro.sim.plan import Plan
from repro.tasks.decomposer import Decomposer, IterationTasks
from repro.tasks.packing import pack_layers


class HarmonyDP(Scheduler):
    name = "harmony-dp"

    def __init__(
        self,
        model: ModelGraph,
        topology: Topology,
        batch: BatchConfig,
        num_replicas: int | None = None,
        options: HarmonyOptions | None = None,
    ):
        super().__init__(model, topology, batch)
        self.num_replicas = num_replicas if num_replicas is not None else len(self.gpus)
        if self.num_replicas > len(self.gpus):
            raise ConfigError(
                f"{self.num_replicas} replicas but only {len(self.gpus)} GPUs"
            )
        self.options = options if options is not None else HarmonyOptions()

    def plan(self) -> Plan:
        opts = self.options
        n = len(self.model)
        itasks = Decomposer(
            self.model,
            microbatch_size=self.batch.microbatch_size,
            num_microbatches=self.batch.num_microbatches,
            num_replicas=self.num_replicas,
            packs_fwd=pack_layers(n, opts.pack_size),
            packs_bwd=pack_layers(n, opts.bwd_pack_size),
            recompute=opts.recompute,
            zero_optimizer=opts.zero_optimizer,
        ).decompose()
        replica_device = {r: self.gpus[r] for r in range(self.num_replicas)}
        device_order: dict[str, list[int]] = {}
        for r, device in replica_device.items():
            self._place_replica_tasks(itasks, r, device)
            if opts.cpu_optimizer:
                host = self.topology.host_of(device).name
                for pu in range(len(itasks.packs_upd)):
                    itasks.upd[(r, pu)].place(host)
            device_order[device] = self._replica_order(itasks, r)
        if opts.cpu_optimizer:
            self._append_host_orders(itasks, replica_device, device_order)
        return self._finish_plan(itasks, device_order, opts.memory_policy())

    def _append_host_orders(
        self,
        itasks: IterationTasks,
        replica_device: dict[int, str],
        device_order: dict[str, list[int]],
    ) -> None:
        """CPU-offloaded optimizer: each host updates its replicas'
        weights, in descending pack order (matching the order the
        backward groups — and hence the all-reduces — complete)."""
        for pu in reversed(range(len(itasks.packs_upd))):
            for r, device in replica_device.items():
                host = self.topology.host_of(device).name
                device_order.setdefault(host, []).append(
                    itasks.upd[(r, pu)].tid
                )

    def _replica_order(self, itasks: IterationTasks, r: int) -> list[int]:
        cpu_optimizer = self.options.cpu_optimizer

        def deferred_tail() -> list[int]:
            upd_packs = range(len(itasks.packs_upd))
            order = [
                itasks.allreduce[pu].tid for pu in upd_packs
                if pu in itasks.allreduce
            ]
            if not cpu_optimizer:
                order += [itasks.upd[(r, pu)].tid for pu in upd_packs]
            return order + [
                itasks.weight_gather[pu].tid for pu in upd_packs
                if pu in itasks.weight_gather
            ]

        return harmony_order(
            self.options,
            self.batch.num_microbatches,
            range(len(itasks.packs_fwd)),
            range(len(itasks.packs_bwd)),
            lambda p, mb: (itasks.fwd[(r, p, mb)].tid,),
            lambda p, mb: (itasks.bwd[(r, p, mb)].tid,),
            lambda p: self._sync_and_update(itasks, r, p),
            deferred_tail,
        )

    def _sync_and_update(self, itasks: IterationTasks, r: int, p: int) -> list[int]:
        """JIT tail of one backward pack: sync + update for every
        update pack whose layers that backward pack covers, in reverse
        layer order (matching the backward sweep's direction).  With a
        CPU-offloaded optimizer the updates run on the host instead and
        only the gradient sync stays here."""
        order = []
        for pu in reversed(itasks.upd_packs_within(p)):
            if pu in itasks.allreduce:
                order.append(itasks.allreduce[pu].tid)
            if not self.options.cpu_optimizer:
                order.append(itasks.upd[(r, pu)].tid)
            if pu in itasks.weight_gather:
                order.append(itasks.weight_gather[pu].tid)
        return order
