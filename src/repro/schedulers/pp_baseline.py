"""Pipeline-parallel training with per-GPU memory virtualization.

The baseline of the paper's Fig. 2(c): the model is split into
compute-balanced contiguous stages, one per GPU, run under a 1F1B
(PipeDream-style) or GPipe schedule.  The 1F1B stage order
(:func:`~repro.schedulers.base.one_f_one_b`) is the one
``pipedream-1f1b`` and ``dapple`` run; only the update tail differs,
ascending updates here against their descending ones.

Stages are compute-balanced but *memory*-imbalanced — the head stage
must hold stashed activations for every in-flight microbatch while the
tail holds one — so per-GPU virtualization swaps heavily at the head
and not at all at the tail, creating the bottleneck stage the paper
highlights.
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

_SCHEDULES = ("1f1b", "gpipe")


class PipelineBaseline(Scheduler):
    name = "pp-baseline"

    def __init__(
        self,
        model: ModelGraph,
        topology: Topology,
        batch: BatchConfig,
        num_stages: int | None = None,
        schedule: str = "1f1b",
        policy: MemoryPolicy | None = None,
        balance: str = "compute",
    ):
        super().__init__(model, topology, batch)
        self.num_stages = num_stages if num_stages is not None else len(self.gpus)
        if self.num_stages > len(self.gpus):
            raise ConfigError(
                f"{self.num_stages} stages but only {len(self.gpus)} GPUs"
            )
        if schedule not in _SCHEDULES:
            raise ConfigError(f"unknown pipeline schedule {schedule!r}")
        if balance not in ("compute", "memory"):
            raise ConfigError(f"unknown balance objective {balance!r}")
        self.schedule = schedule
        #: What the stage partition equalizes.  ``compute`` is what real
        #: pipeline systems do (and what creates the Fig. 2(c) memory
        #: imbalance); ``memory`` equalizes each stage's share of the
        #: *weighted* footprint — stash scaled by the stage's number of
        #: in-flight microbatches under 1F1B — a partial remediation
        #: that trades pipeline compute balance for memory balance.
        self.balance = balance
        self.policy = policy if policy is not None else MemoryPolicy.baseline()

    def _stage_partition(self) -> list[tuple[int, ...]]:
        if self.balance == "compute":
            return partition_layers_balanced(self.model, self.num_stages)
        # Memory balance: approximate each layer's 1F1B-weighted
        # footprint.  Earlier layers carry more in-flight stashes (up to
        # num_stages), so weight stash by a depth factor that decays
        # linearly front to back.
        n = len(self.model)
        mb = self.batch.microbatch_size

        def footprint(i: int) -> float:
            layer = self.model.layer(i)
            depth_factor = self.num_stages - (i / max(n - 1, 1)) * (
                self.num_stages - 1
            )
            state = layer.param_bytes + layer.grad_bytes + layer.optimizer_bytes
            return state + depth_factor * layer.stash_bytes(mb)

        return partition_layers_balanced(self.model, self.num_stages, load=footprint)

    def plan(self) -> Plan:
        stages = self._stage_partition()
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
            self._place_stage(itasks, 0, s, device)
            device_order[device] = self._stage_order(itasks, s)
        return self._finish_plan(
            itasks,
            device_order,
            self.policy,
            notes={"stages": stages, "schedule": self.schedule},
        )

    def _stage_order(self, itasks: IterationTasks, stage: int) -> list[int]:
        if self.schedule == "gpipe":
            # All forwards, then all backwards: every stage holds every
            # microbatch's stash at the fwd/bwd boundary.
            m = self.batch.num_microbatches
            order = [itasks.fwd[(0, stage, mb)].tid for mb in range(m)]
            order += [itasks.bwd[(0, stage, mb)].tid for mb in range(m)]
        else:
            order = one_f_one_b(itasks, 0, stage, self.num_stages)
        # Synchronous tail: the stage's updates in ascending layer order.
        return order + [
            itasks.upd[(0, pu)].tid for pu in itasks.upd_packs_within(stage)
        ]
