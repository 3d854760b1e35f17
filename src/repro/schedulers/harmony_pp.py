"""Harmony-PP: virtualized pipeline parallelism (paper Fig. 4).

Layer packs are late-bound round-robin across GPUs (layer 1 on GPU 1,
layer 2 on GPU 2, layer 3 on GPU 1, ... in the Fig. 4 example), and
every pack's forward/backward runs across the whole microbatch group
back-to-back before the pipeline moves on.  Boundary activations and
gradients travel between GPUs over p2p links; each pack's update runs
just-in-time after its backward group.

Compared to classic pipeline stages this both (a) swaps each weight
tensor at most three times per iteration *globally* — ``3|W|`` vs the
baseline's ``(4m+2)N|W|`` — and (b) spreads the stash load that makes
classic pipelines memory-imbalanced, because consecutive layers live
on different GPUs (interleaved placement balances what 1F1B
concentrates on the head stage).
"""

from __future__ import annotations

from repro.hardware.topology import Topology
from repro.models.graph import ModelGraph
from repro.schedulers.base import BatchConfig, Scheduler, harmony_order
from repro.schedulers.options import HarmonyOptions
from repro.sim.plan import Plan
from repro.tasks.decomposer import Decomposer, IterationTasks
from repro.tasks.packing import pack_layers


class HarmonyPP(Scheduler):
    name = "harmony-pp"

    def __init__(
        self,
        model: ModelGraph,
        topology: Topology,
        batch: BatchConfig,
        options: HarmonyOptions | None = None,
    ):
        super().__init__(model, topology, batch)
        self.options = options if options is not None else HarmonyOptions()

    def plan(self) -> Plan:
        opts = self.options
        n = len(self.model)
        packs = pack_layers(n, opts.pack_size)
        itasks = Decomposer(
            self.model,
            microbatch_size=self.batch.microbatch_size,
            num_microbatches=self.batch.num_microbatches,
            num_replicas=1,
            packs_fwd=packs,
            packs_bwd=packs,
            sync_gradients=False,
            recompute=opts.recompute,
        ).decompose()
        num_packs = len(packs)
        pack_device = {
            p: self.gpus[p % len(self.gpus)] for p in range(num_packs)
        }
        for p, device in pack_device.items():
            self._place_stage(
                itasks, 0, p, device,
                self.topology.host_of(device).name if opts.cpu_optimizer else None,
            )
        device_order = {
            dev: self._device_order(itasks, pack_device, dev)
            for dev in self.gpus[: min(len(self.gpus), num_packs)]
        }
        if opts.cpu_optimizer:
            self._append_host_orders(itasks, pack_device, device_order)
        return self._finish_plan(
            itasks,
            device_order,
            opts.memory_policy(),
            notes={"pack_device": pack_device},
        )

    def _append_host_orders(
        self,
        itasks: IterationTasks,
        pack_device: dict[int, str],
        device_order: dict[str, list[int]],
    ) -> None:
        """CPU-offloaded optimizer: each host runs the updates of its
        server's packs, in descending pack order (the order in which
        backward groups — and therefore the updates' dependencies —
        complete)."""
        for p in sorted(pack_device, reverse=True):
            host = self.topology.host_of(pack_device[p]).name
            for pu in reversed(itasks.upd_packs_within(p)):
                device_order.setdefault(host, []).append(
                    itasks.upd[(0, pu)].tid
                )

    def _device_order(
        self,
        itasks: IterationTasks,
        pack_device: dict[int, str],
        device: str,
    ) -> list[int]:
        my_packs = [p for p, d in pack_device.items() if d == device]

        def updates(p: int) -> list[int]:
            # A CPU-offloaded optimizer runs every update on the host.
            if self.options.cpu_optimizer:
                return []
            return [itasks.upd[(0, pu)].tid for pu in itasks.upd_packs_within(p)]

        return harmony_order(
            self.options,
            self.batch.num_microbatches,
            my_packs,
            my_packs,
            lambda p, mb: (itasks.fwd[(0, p, mb)].tid,),
            lambda p, mb: (itasks.bwd[(0, p, mb)].tid,),
            lambda p: updates(p)[::-1],
            lambda: [tid for p in my_packs for tid in updates(p)],
        )
