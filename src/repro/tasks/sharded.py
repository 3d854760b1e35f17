"""Operation decomposition: splitting single ops across devices.

The paper's second key idea (§1): "we further decompose individual
operations — such as a matrix multiplication — into subtasks that can
run on different physical devices", with Harmony "transparently
introducing collective communication operations (like AllReduce) to
preserve the semantics of the original tasks".

This module implements that decomposition in the Megatron column-
parallel style:

* every layer's weights (and gradients, optimizer state, stash) are
  split into ``S`` equal shards, one per device;
* a layer's forward becomes ``S`` subtasks, each computing a partial
  output (``ACT_PART``, 1/S of the activation) from its weight shard
  and a device-local replica of the full input;
* an **all-gather** collective combines the partials into a full
  activation replica on every shard;
* a layer's backward becomes ``S`` subtasks, each producing a dense
  partial input-gradient contribution (``GRAD_PART``);
* an **all-reduce** collective sums those into the full input gradient
  replicated per shard;
* weight updates are fully local — each shard owns its slice of W, dW,
  and K, so no gradient synchronization is needed at all.

Per-device memory for persistent state drops by S× (the reason to
decompose ops when a single layer's weights dwarf one GPU), paid for
with two collectives per layer per microbatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.models.graph import ModelGraph
from repro.models.phases import Phase
from repro.tasks.graph import TaskGraph
from repro.tasks.task import Task, TaskKind
from repro.tensors.registry import TensorRegistry


@dataclass
class ShardedIterationTasks:
    """The decomposed task graph of one sharded training iteration."""

    graph: TaskGraph
    registry: TensorRegistry
    model: ModelGraph
    num_shards: int
    num_microbatches: int
    microbatch_size: int
    fwd: dict[tuple[int, int, int], Task] = field(default_factory=dict)
    bwd: dict[tuple[int, int, int], Task] = field(default_factory=dict)
    upd: dict[tuple[int, int], Task] = field(default_factory=dict)
    gather: dict[tuple[int, int], Task] = field(default_factory=dict)
    grad_coll: dict[tuple[int, int], Task] = field(default_factory=dict)

    @property
    def samples_per_iteration(self) -> int:
        # One logical replica: shards cooperate on the same microbatches.
        return self.num_microbatches * self.microbatch_size


class ShardedDecomposer:
    """Builds :class:`ShardedIterationTasks`: every layer split S ways.

    Parameters mirror :class:`~repro.tasks.decomposer.Decomposer`, with
    ``num_shards`` devices cooperating on each operation instead of
    holding independent replicas.  Layer granularity only — packing
    sharded subtasks would fuse across collectives, which changes the
    computation's semantics.
    """

    def __init__(
        self,
        model: ModelGraph,
        microbatch_size: int,
        num_microbatches: int,
        num_shards: int,
    ):
        if num_microbatches < 1:
            raise SchedulingError("num_microbatches must be >= 1")
        if num_shards < 1:
            raise SchedulingError("num_shards must be >= 1")
        self.model = model
        self.microbatch_size = microbatch_size
        self.num_microbatches = num_microbatches
        self.num_shards = num_shards
        self._next_tid = 0

    def _tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def decompose(self) -> ShardedIterationTasks:
        registry = TensorRegistry(
            self.model, self.microbatch_size, weight_shards=self.num_shards
        )
        itasks = ShardedIterationTasks(
            graph=TaskGraph(),
            registry=registry,
            model=self.model,
            num_shards=self.num_shards,
            num_microbatches=self.num_microbatches,
            microbatch_size=self.microbatch_size,
        )
        self._emit_forward(itasks)
        self._emit_backward(itasks)
        self._emit_update(itasks)
        return itasks

    # -- forward -------------------------------------------------------------

    def _emit_forward(self, itasks: ShardedIterationTasks) -> None:
        reg = itasks.registry
        s_count = self.num_shards
        last_layer = len(self.model) - 1
        for mb in range(self.num_microbatches):
            for layer in range(len(self.model)):
                spec = self.model.layer(layer)
                for s in range(s_count):
                    reads = [
                        reg.activation(layer - 1, mb, s).tid,
                        reg.weight(layer, s).tid,
                    ]
                    part = reg.act_part(layer, mb, s) if s_count > 1 else None
                    if part is not None:
                        writes = [reg.stash(layer, mb, s).tid, part.tid]
                    else:
                        writes = [
                            reg.stash(layer, mb, s).tid,
                            reg.activation(layer, mb, s).tid,
                        ]
                    frees = [reg.activation(layer - 1, mb, s).tid]
                    if layer == last_layer:
                        # Logits have no consumer; the backward restarts
                        # from the stash.
                        frees.append(writes[-1])
                    deps: set[int] = set()
                    if layer > 0:
                        if s_count > 1:
                            deps.add(itasks.gather[(layer - 1, mb)].tid)
                        else:
                            deps.add(itasks.fwd[(0, layer - 1, mb)].tid)
                    task = Task(
                        tid=self._tid(),
                        kind=TaskKind.COMPUTE,
                        label=f"fwd[L{layer}.s{s}]/mb{mb}",
                        phase=Phase.FORWARD,
                        layers=(layer,),
                        microbatch=mb,
                        replica=s,
                        reads=tuple(reads),
                        writes=tuple(writes),
                        frees=tuple(frees),
                        flops=spec.flops(Phase.FORWARD, self.microbatch_size)
                        / s_count,
                        deps=frozenset(deps),
                        samples=(
                            self.microbatch_size if layer == 0 and s == 0 else 0
                        ),
                    )
                    itasks.graph.add(task)
                    itasks.fwd[(s, layer, mb)] = task
                if s_count > 1 and layer != last_layer:
                    self._emit_gather(itasks, layer, mb)

    def _emit_gather(self, itasks: ShardedIterationTasks, layer: int, mb: int) -> None:
        """All-gather the layer's partial outputs into a full activation
        replica on every shard."""
        reg = itasks.registry
        s_count = self.num_shards
        parts = [reg.act_part(layer, mb, s).tid for s in range(s_count)]
        fulls = [reg.activation(layer, mb, s).tid for s in range(s_count)]
        out_bytes = self.model.layer(layer).out_bytes(self.microbatch_size)
        task = Task(
            tid=self._tid(),
            kind=TaskKind.ALLREDUCE,
            label=f"allgather[L{layer}]/mb{mb}",
            layers=(layer,),
            microbatch=mb,
            reads=tuple(parts),
            writes=tuple(fulls),
            frees=tuple(parts),
            comm_bytes=(s_count - 1) / s_count * out_bytes,
            deps=frozenset(
                itasks.fwd[(s, layer, mb)].tid for s in range(s_count)
            ),
        )
        itasks.graph.add(task)
        itasks.gather[(layer, mb)] = task

    # -- backward --------------------------------------------------------------

    def _emit_backward(self, itasks: ShardedIterationTasks) -> None:
        reg = itasks.registry
        s_count = self.num_shards
        last_layer = len(self.model) - 1
        for mb in range(self.num_microbatches):
            for layer in range(last_layer, -1, -1):
                spec = self.model.layer(layer)
                for s in range(s_count):
                    reads = [
                        reg.stash(layer, mb, s).tid,
                        reg.weight(layer, s).tid,
                        reg.weight_grad(layer, s).tid,
                    ]
                    writes = [reg.weight_grad(layer, s).tid]
                    frees = [reg.stash(layer, mb, s).tid]
                    deps: set[int] = set()
                    if layer != last_layer:
                        grad_in = reg.act_grad(layer, mb, s).tid
                        reads.insert(0, grad_in)
                        frees.append(grad_in)
                        if s_count > 1:
                            deps.add(itasks.grad_coll[(layer, mb)].tid)
                        else:
                            deps.add(itasks.bwd[(0, layer + 1, mb)].tid)
                    if layer > 0:
                        if s_count > 1:
                            writes.append(reg.grad_part(layer - 1, mb, s).tid)
                        else:
                            writes.append(reg.act_grad(layer - 1, mb, s).tid)
                    deps.add(itasks.fwd[(s, layer, mb)].tid)
                    if mb > 0:
                        # In-place accumulation into the shard's dW.
                        deps.add(itasks.bwd[(s, layer, mb - 1)].tid)
                    task = Task(
                        tid=self._tid(),
                        kind=TaskKind.COMPUTE,
                        label=f"bwd[L{layer}.s{s}]/mb{mb}",
                        phase=Phase.BACKWARD,
                        layers=(layer,),
                        microbatch=mb,
                        replica=s,
                        reads=tuple(reads),
                        writes=tuple(writes),
                        frees=tuple(frees),
                        flops=spec.flops(Phase.BACKWARD, self.microbatch_size)
                        / s_count,
                        deps=frozenset(deps),
                    )
                    itasks.graph.add(task)
                    itasks.bwd[(s, layer, mb)] = task
                if s_count > 1 and layer > 0:
                    self._emit_grad_collective(itasks, layer - 1, mb)

    def _emit_grad_collective(
        self, itasks: ShardedIterationTasks, boundary: int, mb: int
    ) -> None:
        """All-reduce the shards' dense partial input-gradient
        contributions into full dX replicas (2(S-1)/S x |dX| per
        participant on the wire)."""
        reg = itasks.registry
        s_count = self.num_shards
        parts = [reg.grad_part(boundary, mb, s).tid for s in range(s_count)]
        fulls = [reg.act_grad(boundary, mb, s).tid for s in range(s_count)]
        grad_bytes = self.model.layer(boundary).out_bytes(self.microbatch_size)
        task = Task(
            tid=self._tid(),
            kind=TaskKind.ALLREDUCE,
            label=f"gradreduce[L{boundary}]/mb{mb}",
            layers=(boundary,),
            microbatch=mb,
            reads=tuple(parts),
            writes=tuple(fulls),
            frees=tuple(parts),
            comm_bytes=2 * (s_count - 1) / s_count * grad_bytes,
            deps=frozenset(
                itasks.bwd[(s, boundary + 1, mb)].tid for s in range(s_count)
            ),
        )
        itasks.graph.add(task)
        itasks.grad_coll[(boundary, mb)] = task

    # -- update ------------------------------------------------------------------

    def _emit_update(self, itasks: ShardedIterationTasks) -> None:
        """Per-shard updates: every shard owns its W/dW/K slice, so no
        gradient synchronization is needed — a structural advantage of
        operation decomposition over data parallelism."""
        reg = itasks.registry
        last_mb = self.num_microbatches - 1
        for layer in range(len(self.model)):
            spec = self.model.layer(layer)
            for s in range(self.num_shards):
                tensors = [
                    reg.weight_grad(layer, s).tid,
                    reg.weight(layer, s).tid,
                    reg.opt_state(layer, s).tid,
                ]
                task = Task(
                    tid=self._tid(),
                    kind=TaskKind.COMPUTE,
                    label=f"upd[L{layer}.s{s}]",
                    phase=Phase.UPDATE,
                    layers=(layer,),
                    replica=s,
                    reads=tuple(tensors),
                    writes=tuple(tensors),
                    flops=spec.flops(Phase.UPDATE, 1) / self.num_shards,
                    deps=frozenset({itasks.bwd[(s, layer, last_mb)].tid}),
                )
                itasks.graph.add(task)
                itasks.upd[(s, layer)] = task
