"""PipeDream-style 1F1B pipeline schedule (PAPERS.md: "PipeDream: Fast
and Efficient Pipeline Parallel DNN Training").

The model is split into compute-balanced contiguous stages, one per
GPU.  Each stage runs the canonical 1F1B steady state: a warm-up of
``num_stages - stage - 1`` forwards, then strictly alternating
forward/backward pairs, then a cool-down of the remaining backwards.
The warm-up depth caps the number of in-flight microbatches per stage
at its pipeline depth (``num_stages - stage``), which is the schedule's
whole point — activation memory stays bounded by depth instead of by
the microbatch count, unlike GPipe.

This differs from :class:`~repro.schedulers.pp_baseline.PipelineBaseline`
in two ways: a one-shallower warm-up (forward-then-backward steady
pairs rather than backward-then-forward), and just-in-time per-stage
weight updates as soon as a stage's last backward retires — PipeDream
stages update independently rather than waiting for a synchronous
tail.  Memory is managed by the baseline per-GPU virtualization policy,
making this a faithful "contemporary system + swapping" comparison
point for the Harmony schedules.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.hardware.topology import Topology
from repro.memory.policy import MemoryPolicy
from repro.models.graph import ModelGraph
from repro.schedulers.base import BatchConfig, Scheduler
from repro.sim.plan import Plan
from repro.tasks.decomposer import Decomposer, IterationTasks
from repro.tasks.packing import partition_layers_balanced


class PipeDream1F1B(Scheduler):
    name = "pipedream-1f1b"

    def __init__(
        self,
        model: ModelGraph,
        topology: Topology,
        batch: BatchConfig,
        num_stages: int | None = None,
        policy: MemoryPolicy | None = None,
    ):
        super().__init__(model, topology, batch)
        self.num_stages = num_stages if num_stages is not None else len(self.gpus)
        if self.num_stages > len(self.gpus):
            raise ConfigError(
                f"{self.num_stages} stages but only {len(self.gpus)} GPUs"
            )
        self.policy = policy if policy is not None else MemoryPolicy.baseline()

    def in_flight_bound(self, stage: int) -> int:
        """The 1F1B invariant: stage ``s`` never holds more than
        ``num_stages - s`` microbatches' stashes at once (and never more
        than there are microbatches)."""
        return min(self.num_stages - stage, self.batch.num_microbatches)

    def plan(self) -> Plan:
        stages = partition_layers_balanced(self.model, self.num_stages)
        itasks = Decomposer(
            self.model,
            microbatch_size=self.batch.microbatch_size,
            num_microbatches=self.batch.num_microbatches,
            num_replicas=1,
            packs_fwd=stages,
            packs_bwd=stages,
            sync_gradients=False,
        ).decompose()
        device_order: dict[str, list[int]] = {}
        for s in range(self.num_stages):
            device = self.gpus[s]
            for mb in range(self.batch.num_microbatches):
                itasks.fwd[(0, s, mb)].place(device)
                itasks.bwd[(0, s, mb)].place(device)
            for pu in itasks.upd_packs_within(s):
                itasks.upd[(0, pu)].place(device)
            device_order[device] = self._stage_order(itasks, s)
        return self._finish_plan(
            itasks,
            device_order,
            self.policy,
            notes={
                "stages": stages,
                "schedule": "pipedream-1f1b",
                "in_flight_bound": {
                    s: self.in_flight_bound(s) for s in range(self.num_stages)
                },
            },
        )

    def _stage_order(self, itasks: IterationTasks, stage: int) -> list[int]:
        m = self.batch.num_microbatches
        warmup = min(self.num_stages - stage - 1, m)
        order = [itasks.fwd[(0, stage, mb)].tid for mb in range(warmup)]
        # Steady state: inject one more forward, retire one backward.
        for k in range(m - warmup):
            order.append(itasks.fwd[(0, stage, warmup + k)].tid)
            order.append(itasks.bwd[(0, stage, k)].tid)
        # Cool-down: drain the warm-up's outstanding backwards.
        order += [itasks.bwd[(0, stage, mb)].tid for mb in range(m - warmup, m)]
        # PipeDream stages update just-in-time, independently of one
        # another — no synchronous tail across the pipeline.
        order += [
            itasks.upd[(0, pu)].tid
            for pu in reversed(itasks.upd_packs_within(stage))
        ]
        return order
