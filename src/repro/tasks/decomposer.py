"""Task decomposition: model graph -> fine-grained iteration task graph.

This is the paper's Task Decomposer (Fig. 3):

* "Split model-wise ops into fine-grained ops" — one task per
  (phase, layer-pack, microbatch, replica);
* "Decouple ops and unbind resources" — tasks carry explicit tensor
  reads/writes and **no device**; placement is the scheduler's job
  (late binding);
* "Split data into microbatches" — a mini-batch becomes
  ``num_replicas * num_microbatches`` microbatches.

Dataflow dependencies are derived from the tensor roles of Fig. 5(a):
forward produces activations and stashes, backward consumes stashes and
accumulates weight gradients, update folds gradients into weights and
optimizer state.  Gradient accumulation is an in-place mutation of a
shared dW buffer, so each backward task also depends on the same layer
pack's backward for the previous microbatch — the paper's observation
that SGD's mutable state prevents treating tasks as pure.  That edge is
part of the task's ``deps`` from the start; nothing adds edges later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import SchedulingError
from repro.models.graph import ModelGraph
from repro.models.phases import Phase
from repro.tasks.graph import TaskGraph
from repro.tasks.packing import pack_covering, pack_layers, validate_packs
from repro.tasks.task import Task, TaskKind
from repro.tensors.registry import TensorRegistry

Packs = Sequence[tuple[int, ...]]


@dataclass
class IterationTasks:
    """The decomposed task graph of one training iteration, with the
    lookup tables schedulers use to order and place tasks."""

    graph: TaskGraph
    registry: TensorRegistry
    model: ModelGraph
    num_replicas: int
    num_microbatches: int
    microbatch_size: int
    packs_fwd: list[tuple[int, ...]]
    packs_bwd: list[tuple[int, ...]]
    packs_upd: list[tuple[int, ...]]
    fwd: dict[tuple[int, int, int], Task] = field(default_factory=dict)
    bwd: dict[tuple[int, int, int], Task] = field(default_factory=dict)
    upd: dict[tuple[int, int], Task] = field(default_factory=dict)
    allreduce: dict[int, Task] = field(default_factory=dict)
    #: ZeRO-style weight all-gathers after sharded updates, keyed by
    #: update-pack index (empty unless ``zero_optimizer``).
    weight_gather: dict[int, Task] = field(default_factory=dict)
    #: Lazy replica -> compute-task index (see :meth:`compute_tasks_of`).
    _replica_compute: dict[int, list[Task]] | None = field(
        default=None, repr=False
    )

    @property
    def samples_per_iteration(self) -> int:
        return self.num_replicas * self.num_microbatches * self.microbatch_size

    def compute_tasks_of(self, replica: int) -> list[Task]:
        """Every COMPUTE task of one replica, in graph insertion order.

        Built lazily in one pass over the graph and reused for every
        replica: data-parallel schedulers place each replica's tasks on
        one device, and scanning the whole graph once per replica is
        O(N^2) on wide fleets (the dominant plan-time cost at 1024
        devices before this index existed)."""
        index = self._replica_compute
        if index is None:
            index = {}
            for task in self.graph:
                if task.kind is TaskKind.COMPUTE:
                    index.setdefault(task.replica, []).append(task)
            self._replica_compute = index
        return index.get(replica, [])

    def upd_packs_within(self, bwd_pack_index: int) -> list[int]:
        """Update-pack indices whose layers all belong to one backward
        pack — the updates a jit scheduler runs right after that pack's
        backward group."""
        pack = self.packs_bwd[bwd_pack_index]
        lo, hi = pack[0], pack[-1]
        return [
            pu
            for pu, upack in enumerate(self.packs_upd)
            if lo <= upack[0] and upack[-1] <= hi
        ]


class Decomposer:
    """Builds :class:`IterationTasks` from a model and batching config.

    Parameters
    ----------
    model:
        The layer chain to train.
    microbatch_size:
        Samples per microbatch.
    num_microbatches:
        Microbatches per replica per iteration (``m`` in the paper's
        analytical model).
    num_replicas:
        Data-parallel replicas (``N`` in Harmony-DP / DP baseline);
        1 for pipeline-parallel and single-GPU schedules.
    packs_fwd / packs_bwd:
        Contiguous layer partitions used as forward / backward task
        granularity.  Defaults to one layer per task (the paper's
        layer-granularity examples); the tuner searches over these.
    packs_upd:
        Granularity of weight-update (and gradient-sync) tasks.
        Defaults to one layer per task regardless of fwd/bwd packing:
        the update is element-wise, so a coarse update task would
        inflate the working set (W + dW + K of every packed layer
        simultaneously resident) for no reuse benefit.
    sync_gradients:
        Whether to emit per-layer-pack ALLREDUCE tasks (DP with > 1
        replica).
    """

    def __init__(
        self,
        model: ModelGraph,
        microbatch_size: int,
        num_microbatches: int,
        num_replicas: int = 1,
        packs_fwd: Packs | None = None,
        packs_bwd: Packs | None = None,
        packs_upd: Packs | None = None,
        sync_gradients: bool = True,
        recompute: bool = False,
        zero_optimizer: bool = False,
    ):
        if num_microbatches < 1:
            raise SchedulingError("num_microbatches must be >= 1")
        if num_replicas < 1:
            raise SchedulingError("num_replicas must be >= 1")
        self.model = model
        self.microbatch_size = microbatch_size
        self.num_microbatches = num_microbatches
        self.num_replicas = num_replicas
        n = len(model)
        self.packs_fwd = list(packs_fwd) if packs_fwd else pack_layers(n, 1)
        self.packs_bwd = list(packs_bwd) if packs_bwd else pack_layers(n, 1)
        self.packs_upd = list(packs_upd) if packs_upd else pack_layers(n, 1)
        validate_packs(self.packs_fwd, n)
        validate_packs(self.packs_bwd, n)
        validate_packs(self.packs_upd, n)
        self.recompute = recompute
        if recompute and self.packs_fwd != self.packs_bwd:
            raise SchedulingError(
                "recompute requires identical forward and backward packs "
                "(the checkpoint is the pack's input activation)"
            )
        self.sync_gradients = sync_gradients and num_replicas > 1
        #: ZeRO stage-1 (paper-cited optimizer-state sharding): each
        #: replica holds 1/N of the optimizer state, updates its slice
        #: of the weights, and an all-gather rebuilds full weights.
        self.zero_optimizer = zero_optimizer and num_replicas > 1
        self._next_tid = 0

    def _tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    # -- public -----------------------------------------------------------

    def decompose(self) -> IterationTasks:
        registry = TensorRegistry(
            self.model,
            self.microbatch_size,
            optimizer_shards=self.num_replicas if self.zero_optimizer else 1,
        )
        graph = TaskGraph()
        itasks = IterationTasks(
            graph=graph,
            registry=registry,
            model=self.model,
            num_replicas=self.num_replicas,
            num_microbatches=self.num_microbatches,
            microbatch_size=self.microbatch_size,
            packs_fwd=self.packs_fwd,
            packs_bwd=self.packs_bwd,
            packs_upd=self.packs_upd,
        )
        for replica in range(self.num_replicas):
            self._emit_forward(itasks, replica)
            self._emit_backward(itasks, replica)
        if self.sync_gradients:
            self._emit_allreduce(itasks)
        for replica in range(self.num_replicas):
            self._emit_update(itasks, replica)
        return itasks

    # -- forward ------------------------------------------------------------

    def _emit_forward(self, itasks: IterationTasks, replica: int) -> None:
        reg = itasks.registry
        last_layer = len(self.model) - 1
        # Microbatch-invariant per-pack values (weight tids, pack flops)
        # are computed during mb 0 — at the exact code position the
        # per-mb expressions held, so tensor *creation order* (and
        # therefore tid assignment) is unchanged — and reused for every
        # later microbatch.
        weight_tids: list[list[int]] = []
        pack_flops: list[float] = []
        for mb in range(self.num_microbatches):
            for p, pack in enumerate(self.packs_fwd):
                first, last = pack[0], pack[-1]
                in_act = reg.activation(first - 1, mb, replica).tid
                if mb == 0:
                    weight_tids.append([reg.weight(l, replica).tid for l in pack])
                    pack_flops.append(sum(
                        self.model.layer(l).flops(Phase.FORWARD, self.microbatch_size)
                        for l in pack
                    ))
                reads = [in_act]
                reads += weight_tids[p]
                if self.recompute:
                    # Checkpoint only the pack's input; the backward pass
                    # re-runs the pack's forward from it.
                    writes = [reg.checkpoint(first, mb, replica).tid]
                else:
                    writes = [reg.stash(l, mb, replica).tid for l in pack]
                frees = [in_act]
                out_act = reg.activation(last, mb, replica).tid
                writes.append(out_act)
                if last == last_layer:
                    # The final boundary (logits/loss) has no consumer:
                    # the backward pass restarts from the stash.
                    frees.append(out_act)
                deps: set[int] = set()
                if p > 0:
                    deps.add(itasks.fwd[(replica, p - 1, mb)].tid)
                flops = pack_flops[p]
                task = Task(
                    tid=self._tid(),
                    kind=TaskKind.COMPUTE,
                    label=f"fwd[p{p}:{first}-{last}]/mb{mb}/r{replica}",
                    phase=Phase.FORWARD,
                    layers=pack,
                    microbatch=mb,
                    replica=replica,
                    reads=tuple(reads),
                    writes=tuple(writes),
                    frees=tuple(frees),
                    flops=flops,
                    deps=frozenset(deps),
                    samples=self.microbatch_size if p == 0 else 0,
                )
                itasks.graph.add(task)
                itasks.fwd[(replica, p, mb)] = task

    # -- backward -----------------------------------------------------------

    def _emit_backward(self, itasks: IterationTasks, replica: int) -> None:
        reg = itasks.registry
        last_layer = len(self.model) - 1
        num_packs = len(self.packs_bwd)
        # Microbatch-invariant per-pack values, filled during mb 0 at
        # the exact code position the per-mb expressions held so tid
        # creation order is unchanged (weight grads are first *created*
        # here), then reused for every later microbatch.
        w_tids: dict[int, list[int]] = {}
        dw_tids: dict[int, list[int]] = {}
        covering: dict[int, range] = {}
        bwd_flops: dict[int, float] = {}
        for mb in range(self.num_microbatches):
            for rp, pack in enumerate(reversed(self.packs_bwd)):
                p = num_packs - 1 - rp  # pack index in forward order
                first, last = pack[0], pack[-1]
                if self.recompute:
                    checkpoint = reg.checkpoint(first, mb, replica).tid
                    reads = [checkpoint]
                    frees = [checkpoint]
                else:
                    reads = [reg.stash(l, mb, replica).tid for l in pack]
                    frees = list(reads)
                if mb == 0:
                    w_tids[p] = [reg.weight(l, replica).tid for l in pack]
                    dw_tids[p] = [reg.weight_grad(l, replica).tid for l in pack]
                    covering[p] = range(
                        pack_covering(self.packs_fwd, first),
                        pack_covering(self.packs_fwd, last) + 1,
                    )
                    flops = sum(
                        self.model.layer(l).flops(Phase.BACKWARD, self.microbatch_size)
                        for l in pack
                    )
                    if self.recompute:
                        # The pack's forward is re-run from the checkpoint
                        # before differentiating — compute traded for memory.
                        flops += sum(
                            self.model.layer(l).flops(
                                Phase.FORWARD, self.microbatch_size
                            )
                            for l in pack
                        )
                    bwd_flops[p] = flops
                reads += w_tids[p]
                reads += dw_tids[p]
                writes = list(dw_tids[p])
                deps: set[int] = set()
                if last != last_layer:
                    grad_in = reg.act_grad(last, mb, replica).tid
                    reads.insert(0, grad_in)
                    frees.append(grad_in)
                    deps.add(itasks.bwd[(replica, p + 1, mb)].tid)
                if first > 0:
                    writes.append(reg.act_grad(first - 1, mb, replica).tid)
                # The stash must exist: depend on every forward task
                # whose pack covers any of this pack's layers.
                for fp in covering[p]:
                    deps.add(itasks.fwd[(replica, fp, mb)].tid)
                if mb > 0:
                    # In-place accumulation into the shared dW buffer
                    # serializes the pack's backward across microbatches.
                    deps.add(itasks.bwd[(replica, p, mb - 1)].tid)
                flops = bwd_flops[p]
                task = Task(
                    tid=self._tid(),
                    kind=TaskKind.COMPUTE,
                    label=f"bwd[p{p}:{first}-{last}]/mb{mb}/r{replica}",
                    phase=Phase.BACKWARD,
                    layers=pack,
                    microbatch=mb,
                    replica=replica,
                    reads=tuple(dict.fromkeys(reads)),
                    writes=tuple(dict.fromkeys(writes)),
                    frees=tuple(dict.fromkeys(frees)),
                    flops=flops,
                    deps=frozenset(deps),
                )
                itasks.graph.add(task)
                itasks.bwd[(replica, p, mb)] = task

    # -- gradient synchronization --------------------------------------------

    def _emit_allreduce(self, itasks: IterationTasks) -> None:
        reg = itasks.registry
        last_mb = self.num_microbatches - 1
        n = self.num_replicas
        for p, pack in enumerate(self.packs_upd):
            grad_bytes = sum(self.model.layer(l).grad_bytes for l in pack)
            tensors = [
                reg.weight_grad(l, r).tid for r in range(n) for l in pack
            ]
            deps = frozenset(
                itasks.bwd[(r, pack_covering(self.packs_bwd, l), last_mb)].tid
                for r in range(n)
                for l in (pack[0], pack[-1])
            )
            task = Task(
                tid=self._tid(),
                kind=TaskKind.ALLREDUCE,
                label=f"allreduce[p{p}]",
                layers=pack,
                reads=tuple(tensors),
                writes=tuple(tensors),
                comm_bytes=2.0 * (n - 1) / n * grad_bytes,
                deps=deps,
            )
            itasks.graph.add(task)
            itasks.allreduce[p] = task

    # -- weight update ---------------------------------------------------------

    def _emit_update(self, itasks: IterationTasks, replica: int) -> None:
        reg = itasks.registry
        last_mb = self.num_microbatches - 1
        for p, pack in enumerate(self.packs_upd):
            reads = []
            writes = []
            for l in pack:
                reads += [
                    reg.weight_grad(l, replica).tid,
                    reg.weight(l, replica).tid,
                    reg.opt_state(l, replica).tid,
                ]
                writes += [
                    reg.weight(l, replica).tid,
                    reg.opt_state(l, replica).tid,
                    reg.weight_grad(l, replica).tid,  # reset to zero
                ]
            deps = {
                itasks.bwd[(replica, pack_covering(self.packs_bwd, l), last_mb)].tid
                for l in (pack[0], pack[-1])
            }
            if p in itasks.allreduce:
                deps.add(itasks.allreduce[p].tid)
            flops = sum(
                self.model.layer(l).flops(Phase.UPDATE, 1) for l in pack
            )
            if self.zero_optimizer:
                # Each replica updates only its 1/N slice of the pack.
                flops /= self.num_replicas
            task = Task(
                tid=self._tid(),
                kind=TaskKind.COMPUTE,
                label=f"upd[p{p}]/r{replica}",
                phase=Phase.UPDATE,
                layers=pack,
                replica=replica,
                reads=tuple(reads),
                writes=tuple(writes),
                flops=flops,
                deps=frozenset(deps),
            )
            itasks.graph.add(task)
            itasks.upd[(replica, p)] = task
        if self.zero_optimizer and replica == self.num_replicas - 1:
            self._emit_weight_gather(itasks)

    def _emit_weight_gather(self, itasks: IterationTasks) -> None:
        """ZeRO stage-1 epilogue: after every replica has updated its
        weight slice, an all-gather rebuilds the full updated weights on
        every replica — (N-1)/N x |W| per participant on the wire."""
        reg = itasks.registry
        n = self.num_replicas
        for p, pack in enumerate(self.packs_upd):
            weight_bytes = sum(self.model.layer(l).param_bytes for l in pack)
            tensors = [reg.weight(l, r).tid for r in range(n) for l in pack]
            task = Task(
                tid=self._tid(),
                kind=TaskKind.ALLREDUCE,
                label=f"wgather[p{p}]",
                layers=pack,
                reads=tuple(tensors),
                writes=tuple(tensors),
                comm_bytes=(n - 1) / n * weight_bytes,
                deps=frozenset(itasks.upd[(r, p)].tid for r in range(n)),
            )
            itasks.graph.add(task)
            itasks.weight_gather[p] = task
