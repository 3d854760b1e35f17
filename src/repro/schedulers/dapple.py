"""DAPPLE's early-backward hybrid schedule (PAPERS.md: "DAPPLE: A
Pipelined Data Parallel Approach for Training Large Models"), which
also builds PipeDream's 1F1B (PAPERS.md: "PipeDream: Fast and
Efficient Pipeline Parallel DNN Training").

Two ideas from the paper, both expressed here:

* **Early backward scheduling.**  Each stage warms up with
  ``num_stages - stage`` forwards, then runs backward-first
  (backward, forward) pairs — the first backward is scheduled as early
  as its dependencies allow, so each microbatch's stashed activations
  are freed at the earliest possible point instead of piling up
  GPipe-style until the forward wave completes.  A stage therefore
  never holds more than ``num_stages - stage`` microbatches' stashes.
  This is PipeDream's 1F1B order
  (:func:`~repro.schedulers.base.one_f_one_b`): with one pipeline the
  two schedules are the same plan, so the ``pipedream-1f1b`` scheme is
  this class with ``num_pipelines=1``, and ``dapple`` differs from it
  only with more than one pipeline.

* **Hybrid data + pipeline layout.**  With ``num_pipelines = R > 1``
  the GPUs are carved into R pipeline replicas of
  ``len(gpus) // R`` stages each.  Gradients are synchronized per
  *stage*: every stage's allreduce ring spans that stage's device in
  each pipeline and fires as soon as the stage's last backward retires
  — deep stages sync while shallow stages are still computing, instead
  of one rigid all-replica tail.  Nothing here wires those rings: a
  replica spans several devices, but each stage's gradients are first
  touched by that stage's backward, so the plan's placement rule
  (:func:`~repro.sim.plan.collective_shares`) gives every stage device
  its pipeline's gradient shard.

Memory is managed by the baseline per-GPU virtualization policy: this
is a "contemporary system + swapping" comparison point, not a Harmony
variant.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.hardware.topology import Topology
from repro.memory.policy import MemoryPolicy
from repro.models.graph import ModelGraph
from repro.schedulers.base import BatchConfig, Scheduler, one_f_one_b
from repro.sim.plan import Plan
from repro.tasks.decomposer import Decomposer, IterationTasks
from repro.tasks.packing import partition_layers_balanced


class DappleScheduler(Scheduler):
    name = "dapple"

    def __init__(
        self,
        model: ModelGraph,
        topology: Topology,
        batch: BatchConfig,
        num_stages: int | None = None,
        num_pipelines: int = 1,
        policy: MemoryPolicy | None = None,
    ):
        super().__init__(model, topology, batch)
        if num_pipelines < 1:
            raise ConfigError("num_pipelines must be >= 1")
        self.num_pipelines = num_pipelines
        default_stages = len(self.gpus) // num_pipelines
        self.num_stages = num_stages if num_stages is not None else default_stages
        if self.num_stages < 1:
            raise ConfigError(
                f"{num_pipelines} pipelines over {len(self.gpus)} GPUs leave "
                "no room for even one stage"
            )
        if self.num_stages * num_pipelines > len(self.gpus):
            raise ConfigError(
                f"{num_pipelines} pipelines x {self.num_stages} stages need "
                f"{num_pipelines * self.num_stages} GPUs but only "
                f"{len(self.gpus)} exist"
            )
        self.policy = policy if policy is not None else MemoryPolicy.baseline()

    def stage_device(self, replica: int, stage: int) -> str:
        """Pipelines occupy contiguous GPU ranges; stage ``s`` of
        pipeline ``r`` is GPU ``r * num_stages + s``."""
        return self.gpus[replica * self.num_stages + stage]

    def plan(self) -> Plan:
        stages = partition_layers_balanced(self.model, self.num_stages)
        itasks = Decomposer(
            self.model,
            microbatch_size=self.batch.microbatch_size,
            num_microbatches=self.batch.num_microbatches,
            num_replicas=self.num_pipelines,
            packs_fwd=stages,
            packs_bwd=stages,
            sync_gradients=self.num_pipelines > 1,
        ).decompose()
        device_order: dict[str, list[int]] = {}
        for r in range(self.num_pipelines):
            for s in range(self.num_stages):
                device = self.stage_device(r, s)
                self._place_stage(itasks, r, s, device)
                device_order[device] = self._stage_order(itasks, r, s)
        return self._finish_plan(
            itasks,
            device_order,
            self.policy,
            notes={
                "stages": stages,
                "schedule": "dapple",
                "num_pipelines": self.num_pipelines,
            },
        )

    def _stage_order(
        self, itasks: IterationTasks, replica: int, stage: int
    ) -> list[int]:
        order = one_f_one_b(itasks, replica, stage, self.num_stages)
        # Synchronous tail, per stage: sync each pack's gradients across
        # the pipelines (deepest pack first — dependency-completion
        # order), then apply the local update.
        for pu in reversed(itasks.upd_packs_within(stage)):
            if pu in itasks.allreduce:
                order.append(itasks.allreduce[pu].tid)
            order.append(itasks.upd[(replica, pu)].tid)
        return order
