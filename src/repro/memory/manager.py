"""The memory manager: residency planning, eviction, and coherence.

This is the component the paper describes in §3: "Harmony's memory
manager ... is responsible for swapping in input data and state, either
from host (CPU) to device (GPU) memory or directly between device
memories; it is also responsible for swapping out tensors from device
to host memory based on their usage status and memory pressure [and]
maintains a state machine tracking the lifetime of all tensors used."

The same class also implements the *baseline* per-GPU virtualization
when given :meth:`MemoryPolicy.baseline` — write-back on every
eviction, no peer-to-peer — so baseline and Harmony runs differ only in
policy and schedule, never in accounting.

The manager is passive: it *plans* memory operations
(:class:`MemOp` lists) and applies their state effects; the simulation
engine decides when each operation's transfer occupies which links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.errors import CapacityError, SimulationError
from repro.hardware.topology import Topology
from repro.memory.allocator import DevicePool
from repro.memory.policy import MemoryPolicy
from repro.memory.stats import Direction, SwapStats
from repro.tasks.task import Share, Task
from repro.tensors.registry import TensorRegistry
from repro.tensors.state import TensorRuntime, TensorState
from repro.tensors.tensor import TensorKind, TensorMeta
from repro.units import fmt_bytes
from repro.util.enums import FastEnum


class MemOpKind(FastEnum):
    SWAP_OUT = "swap_out"   # device -> host transfer
    SWAP_IN = "swap_in"     # host -> device transfer
    P2P = "p2p"             # device -> device transfer
    DROP = "drop"           # instant clean eviction
    ALLOC = "alloc"         # instant on-device materialization
    WAIT = "wait"           # barrier on an in-flight transfer elsewhere

    def __str__(self) -> str:
        return self.value


@dataclass(slots=True)
class MemOp:
    """One planned memory operation on one tensor.

    ``forced`` marks an eviction the owning task planned against its own
    (pinned) inputs — the idealized no-reuse accounting swaps a task's
    inputs out and back in, which the pin would otherwise veto.
    """

    kind: MemOpKind
    tensor: TensorMeta
    src: str | None = None
    dst: str | None = None
    forced: bool = False
    #: For SWAP_OUT under ``MemoryPolicy.remote_swap``: the host whose
    #: DRAM receives the copy (chosen once when the transfer is routed,
    #: so retries reuse the same target).  ``None`` = the local host.
    host: str | None = None

    def __str__(self) -> str:
        return f"{self.kind.value}({self.tensor.label}, {self.src}->{self.dst})"


class MemoryManager:
    """Tracks every tensor's lifetime and plans residency for tasks."""

    def __init__(
        self,
        topology: Topology,
        registry: TensorRegistry,
        policy: MemoryPolicy,
        stats: SwapStats | None = None,
        clock: Callable[[], float] | None = None,
    ):
        self.topology = topology
        self.registry = registry
        self.policy = policy
        self.stats = stats if stats is not None else SwapStats()
        #: Simulated-time source (the executor wires the engine clock in);
        #: drives the per-device memory-usage timeline.
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.pools: dict[str, DevicePool] = {
            gpu.name: DevicePool(gpu.name, gpu.memory_bytes)
            for gpu in topology.gpus()
        }
        self.usage_log: dict[str, list[tuple[float, float]]] = {
            gpu.name: [] for gpu in topology.gpus()
        }
        #: Bytes of non-persistent ("activation-class": A/dA/S and the
        #: pack variants) tensors currently resident per device, and the
        #: high-water mark.  This is the per-stage activation footprint
        #: pipeline schedules trade against throughput (1F1B's in-flight
        #: bound, DAPPLE's early backward); persistent state (W/dW/K) is
        #: excluded so depth effects are not drowned out by weights.
        self.activation_resident: dict[str, float] = {
            gpu.name: 0.0 for gpu in topology.gpus()
        }
        self.activation_peak: dict[str, float] = {
            gpu.name: 0.0 for gpu in topology.gpus()
        }
        # Runtimes are created lazily: the registry keeps growing while
        # the decomposer (or a test) names tensors, and the manager must
        # track whatever exists by the time each tensor is first touched.
        self.runtimes: dict[int, TensorRuntime] = {}
        #: Bytes of live swapped-out tensor copies per host device —
        #: ``sum(rt.meta.size_bytes for rt if rt.host_device == host)``,
        #: maintained incrementally (``op_finish`` adds a copy, freeing
        #: or rebirth takes it out) so the remote-swap target choice
        #: never scans the runtimes.
        self._host_used: dict[str, float] = {}
        self._use_seq = 0
        self._waiters: dict[int, list[Callable[[], None]]] = {}

    # -- initial state -------------------------------------------------------

    def materialize_initial(self) -> None:
        """Place persistent state (W, dW, K) and the input microbatches in
        host memory, as at the start of a steady-state iteration."""
        for meta in self.registry.all_tensors():
            rt = self.runtime(meta.tid)
            if meta.persistent or _is_input(meta):
                rt.materialize_on_host()

    def new_iteration(self) -> None:
        """Rewind for the plan's next replay: nothing is in flight
        between iterations, per-microbatch tensors are reborn (fresh
        inputs arrive on the host, and the old copies leave the host
        ledger), and persistent state keeps whatever residency the
        previous iteration left it — the steady-state carry-over."""
        self._waiters.clear()
        runtimes = self.runtimes
        for rt in list(runtimes.values()):
            meta = rt.meta
            if meta.persistent:
                continue
            self._drop_host_copy(rt)
            fresh = runtimes[meta.tid] = TensorRuntime(meta)
            if _is_input(meta):
                fresh.materialize_on_host()

    # -- iteration-boundary state ----------------------------------------------

    def boundary_state(self, observers: bool = True) -> tuple:
        """What this manager carries across an iteration boundary, as
        plain values: the state that steers the next iteration (each
        runtime in creation order; the host ledger; the use counter;
        every pool with its reservations in insertion order, which
        victim scans follow), then — unless ``observers`` is false — the
        usage log and the activation counters, which only record.
        :meth:`restore` installs it."""
        state = (
            tuple(
                (tid, rt.state, rt.device, rt.dirty, rt.pinned, rt.last_use,
                 rt.host_device, rt.home)
                for tid, rt in self.runtimes.items()
            ),
            tuple(self._host_used.items()),
            self._use_seq,
            tuple(
                (name, pool.used, pool.peak_used, pool.demand,
                 pool.peak_demand, pool.pressure,
                 tuple(pool._reservations.items()))
                for name, pool in self.pools.items()
            ),
        )
        if not observers:
            return state
        return state + (
            tuple((dev, tuple(log)) for dev, log in self.usage_log.items()),
            tuple(self.activation_resident.items()),
            tuple(self.activation_peak.items()),
        )

    def restore(self, state: tuple) -> None:
        """Install a :meth:`boundary_state` (with observers) on a
        manager nothing has run on yet."""
        runtimes, host_used, use_seq, pools, usage_log, resident, peak = state
        by_id = self.registry.by_id
        self.runtimes = {
            tid: TensorRuntime(by_id(tid), *fields) for tid, *fields in runtimes
        }
        self._host_used = dict(host_used)
        self._use_seq = use_seq
        for name, *fields, resv in pools:
            pool = self.pools[name]
            pool.used, pool.peak_used, pool.demand, pool.peak_demand, pool.pressure = fields
            pool._reservations = dict(resv)
        self.usage_log = {dev: list(log) for dev, log in usage_log}
        self.activation_resident = dict(resident)
        self.activation_peak = dict(peak)

    # -- the reservation path ---------------------------------------------------

    # Every byte that enters or leaves a GPU pool passes through these two:
    # they alone reserve and release pool bytes, keep the activation-class
    # counters, and sample the usage log, so the log records every
    # reservation and its maximum is the pool's peak.

    def _reserve(self, device: str, meta: TensorMeta) -> None:
        pool = self.pools[device]
        pool.reserve(meta.tid, meta.size_bytes)
        if not meta.persistent:
            resident = self.activation_resident[device] + meta.size_bytes
            self.activation_resident[device] = resident
            if resident > self.activation_peak[device]:
                self.activation_peak[device] = resident
        self.usage_log[device].append((self.clock(), pool.used))

    def _release(self, device: str, meta: TensorMeta) -> None:
        pool = self.pools[device]
        pool.release(meta.tid)
        if not meta.persistent:
            self.activation_resident[device] -= meta.size_bytes
        self.usage_log[device].append((self.clock(), pool.used))

    # -- residency planning ----------------------------------------------------

    def _next_use(self) -> int:
        self._use_seq += 1
        return self._use_seq

    def runtime(self, tid: int) -> TensorRuntime:
        try:
            return self.runtimes[tid]
        except KeyError:
            rt = TensorRuntime(self.registry.by_id(tid))
            self.runtimes[tid] = rt
            return rt

    def pool(self, device: str) -> DevicePool:
        try:
            return self.pools[device]
        except KeyError:
            raise SimulationError(f"no memory pool for device {device!r}") from None

    def prepare(self, task: Task | Share, device: str) -> list[MemOp]:
        """Plan the memory operations that make ``task``'s tensors
        resident on ``device`` (a collective participant passes its
        :class:`~repro.tasks.task.Share`).

        Returns ops in execution order: waits and evictions first, then
        incoming transfers/allocations.  Pins every touched tensor;
        :meth:`task_finished` unpins.  Raises :class:`CapacityError`
        when the working set cannot fit even after evicting everything
        evictable.
        """
        if device not in self.pools:
            # The task runs on a host (e.g. a CPU-offloaded optimizer
            # step, the ZeRO-Offload design the paper cites): host
            # memory is unbounded, so preparation reduces to writing
            # back any device-resident inputs.
            return self._prepare_on_host(task)

        touched = task.touched
        policy = self.policy
        # Idealized no-reuse swapper (paper §3 accounting, keep_resident
        # off): every unpinned tensor leaves the device before the task,
        # including this task's own inputs — they are swapped out and
        # back in, exactly as the closed-form volume model counts.
        evict_all: list[MemOp] = []
        freed = 0.0
        evicted_ids: set[int] = set()
        if not policy.keep_resident:
            evict_all, freed = self._take_victims(device, math.inf)
            evicted_ids = {op.tensor.tid for op in evict_all}
            touched_set = set(touched)
            for op in evict_all:
                op.forced = op.tensor.tid in touched_set

        waits: list[MemOp] = []
        incoming: list[MemOp] = []
        append_incoming = incoming.append
        incoming_bytes = 0.0
        self._use_seq += 1
        seq = self._use_seq
        runtimes = self.runtimes
        runtime = self.runtime
        # Hot-loop locals: the state compares below run once per touched
        # tensor per task, and LOAD_FAST beats a global + enum attribute
        # lookup on every compare.
        on_device = TensorState.ON_DEVICE
        on_host = TensorState.ON_HOST
        swap_in_kind = MemOpKind.SWAP_IN
        # get-or-create with a dict fast path: runtimes are always truthy.
        rts = [runtimes.get(tid) or runtime(tid) for tid in touched]
        for tid, rt in zip(touched, rts):
            rt.last_use = seq
            meta = rt.meta
            state = rt.state
            if tid in evicted_ids:
                append_incoming(MemOp(swap_in_kind, meta, None, device))
                incoming_bytes += meta.size_bytes
            elif state is on_device and rt.device == device:
                pass  # already resident
            elif state is on_device:
                # Resident on a peer device: move it here.
                if policy.p2p_enabled:
                    append_incoming(MemOp(MemOpKind.P2P, meta, rt.device, device))
                else:
                    # Bounce through host memory: two host-link transfers.
                    # The outbound half is forced: the planning task has
                    # pinned the tensor (it is its own input in motion).
                    append_incoming(
                        MemOp(MemOpKind.SWAP_OUT, meta, rt.device, None, forced=True)
                    )
                    append_incoming(MemOp(swap_in_kind, meta, None, device))
                incoming_bytes += meta.size_bytes
            elif state is on_host:
                append_incoming(MemOp(swap_in_kind, meta, None, device))
                incoming_bytes += meta.size_bytes
            elif state is TensorState.SWAPPING_OUT:
                waits.append(MemOp(MemOpKind.WAIT, meta))
                append_incoming(MemOp(swap_in_kind, meta, None, device))
                incoming_bytes += meta.size_bytes
            elif state is TensorState.SWAPPING_IN:
                if rt.device != device:
                    raise SimulationError(
                        f"{meta.label}: concurrently swapped into {rt.device} "
                        f"while task {task.label} needs it on {device}"
                    )
                waits.append(MemOp(MemOpKind.WAIT, meta))
            elif state is TensorState.UNMATERIALIZED:
                if tid not in task.writes:
                    raise SimulationError(
                        f"task {task.label} reads unmaterialized tensor {meta.label}"
                    )
                append_incoming(MemOp(MemOpKind.ALLOC, meta, None, device))
                incoming_bytes += meta.size_bytes
            else:  # FREED
                raise SimulationError(
                    f"task {task.label} touches freed tensor {meta.label}"
                )

        # Pin before selecting victims so this task's tensors survive.
        for rt in rts:
            rt.pinned += 1

        try:
            if self.policy.keep_resident:
                evictions = self._plan_evictions(task, device, incoming_bytes)
            else:
                inflight_waits, inflight = self._inflight_departures(device)
                evictions = inflight_waits + evict_all
                if incoming_bytes > self.pool(device).free + freed + inflight + 1e-6:
                    raise CapacityError(
                        f"task {task.label} needs {fmt_bytes(incoming_bytes)} "
                        f"incoming on {device} "
                        f"(capacity {fmt_bytes(self.pool(device).capacity)})"
                    )
        except CapacityError:
            for rt in rts:
                rt.pinned -= 1
            raise
        return waits + evictions + incoming

    def _prepare_on_host(self, task: Task | Share) -> list[MemOp]:
        """Residency plan for a host-placed task: device-resident inputs
        are written back (their swap-out is this task's data movement);
        host-resident tensors are free to use; written tensors that do
        not exist yet materialize directly in host memory."""
        ops: list[MemOp] = []
        seq = self._next_use()
        touched = task.touched
        rts = [self.runtime(tid) for tid in touched]
        for tid, rt in zip(touched, rts):
            rt.last_use = seq
            if rt.state is TensorState.ON_DEVICE:
                ops.append(
                    MemOp(MemOpKind.SWAP_OUT, rt.meta, rt.device, None, forced=True)
                )
            elif rt.in_flight:
                ops.append(MemOp(MemOpKind.WAIT, rt.meta))
                # If it lands on a device, the defensive re-check in the
                # transfer engine converts the wait into a write-back.
                ops.append(
                    MemOp(MemOpKind.SWAP_OUT, rt.meta, rt.device, None, forced=True)
                )
            elif rt.state is TensorState.UNMATERIALIZED:
                if tid not in task.writes:
                    raise SimulationError(
                        f"host task {task.label} reads unmaterialized tensor "
                        f"{rt.meta.label}"
                    )
                rt.materialize_on_host()
            elif rt.state is TensorState.FREED:
                raise SimulationError(
                    f"host task {task.label} touches freed tensor {rt.meta.label}"
                )
        for rt in rts:
            rt.pinned += 1
        return ops

    def _plan_evictions(
        self, task: Task, device: str, incoming_bytes: float
    ) -> list[MemOp]:
        pool = self.pool(device)
        deficit = incoming_bytes - pool.free
        if deficit <= 0:
            return []
        ops: list[MemOp] = []
        freed = 0.0
        # Bytes already on their way out (a peer fetched a tensor away,
        # or an earlier eviction's write-back is still in flight) will
        # free themselves; wait for them instead of evicting more.
        waits, inflight = self._inflight_departures(device)
        if inflight:
            ops += waits
            freed += inflight
        if freed < deficit:
            victims, freed = self._take_victims(device, deficit, freed)
            ops += victims
        if freed < deficit - 1e-6:
            # Last resort: unpinned tensors still arriving (a peer parked
            # a cross-device swap here) become evictable once they land.
            for tid in self.pool(device).resident_tensors():
                if freed >= deficit:
                    break
                rt = self.runtime(tid)
                if (
                    rt.state is TensorState.SWAPPING_IN
                    and rt.device == device
                    and rt.pinned == 0
                ):
                    ops.append(MemOp(MemOpKind.WAIT, rt.meta))
                    ops.append(MemOp(MemOpKind.SWAP_OUT, rt.meta, device, None))
                    freed += rt.meta.size_bytes
        if freed < deficit - 1e-6:
            raise CapacityError(
                f"task {task.label} needs {fmt_bytes(incoming_bytes)} incoming on "
                f"{device} but only {fmt_bytes(pool.free + freed)} can be made free "
                f"(capacity {fmt_bytes(pool.capacity)}); reduce pack or microbatch size"
            )
        return ops

    def _inflight_departures(self, device: str) -> tuple[list[MemOp], float]:
        """WAIT ops (and their byte total) for tensors currently leaving
        ``device`` — in-flight swap-outs and p2p moves away."""
        waits: list[MemOp] = []
        total = 0.0
        runtimes = self.runtimes
        for tid in self.pool(device).resident_tensors():
            rt = runtimes[tid]
            leaving = rt.state is TensorState.SWAPPING_OUT or (
                rt.state is TensorState.SWAPPING_IN and rt.device != device
            )
            if leaving:
                waits.append(MemOp(MemOpKind.WAIT, rt.meta))
                total += rt.meta.size_bytes
        return waits, total

    def _take_victims(
        self, device: str, needed: float, freed: float = 0.0
    ) -> tuple[list[MemOp], float]:
        """The one walk over :meth:`_victim_order`: eviction ops for
        ``device``'s victims in order, at least one, until ``freed``
        (the bytes counted before the walk plus each victim's size)
        covers ``needed``.  Returns the ops and the final ``freed``."""
        ops: list[MemOp] = []
        for rt in self._victim_order(device):
            ops.append(self._eviction_op(rt, device))
            freed += rt.meta.size_bytes
            if freed >= needed:
                break
        return ops, freed

    def _victim_order(self, device: str) -> list[TensorRuntime]:
        pool = self.pool(device)
        runtimes = self.runtimes
        candidates = [
            rt
            for rt in (runtimes[tid] for tid in pool.resident_tensors())
            if rt.state is TensorState.ON_DEVICE and rt.pinned == 0
        ]
        if self.policy.eviction == "largest_first":
            candidates.sort(key=lambda rt: (-rt.meta.size_bytes, rt.last_use))
        elif self.policy.eviction == "activations_first":
            # vDNN-style: offload per-microbatch tensors before touching
            # persistent state, LRU within each class.
            candidates.sort(
                key=lambda rt: (rt.meta.persistent, rt.last_use, rt.meta.tid)
            )
        else:  # lru
            candidates.sort(key=lambda rt: (rt.last_use, rt.meta.tid))
        return candidates

    def _eviction_op(self, rt: TensorRuntime, device: str) -> MemOp:
        if self.policy.track_clean and not rt.dirty:
            return MemOp(MemOpKind.DROP, rt.meta, device, None)
        if self.policy.swap_to_peer and self.policy.p2p_enabled:
            peer = self._peer_with_room(device, rt.meta.size_bytes)
            if peer is not None:
                return MemOp(MemOpKind.P2P, rt.meta, device, peer)
        return MemOp(MemOpKind.SWAP_OUT, rt.meta, device, None)

    def _peer_with_room(self, device: str, nbytes: float) -> str | None:
        """Cross-device swap target (paper §2 inefficiency #3: baselines
        'miss the opportunity to use fast device-to-device links for
        cross-device swaps').  Only peers reachable without the host
        uplink and with comfortable headroom qualify."""
        best: str | None = None
        best_free = 0.0
        for name, pool in self.pools.items():
            if name == device:
                continue
            headroom = pool.free - 0.25 * pool.capacity
            if headroom < nbytes:
                continue
            if not self.topology.shares_switch(device, name):
                continue
            if pool.free > best_free:
                best, best_free = name, pool.free
        return best

    def swap_host_for(self, device: str, nbytes: float, holder: str | None) -> str:
        """Which host's DRAM a swap-out from ``device`` should target.

        Without ``remote_swap`` (the default) this is always the local
        host, so single-server behavior — and every existing trace — is
        untouched.  With it, the nearest host (by hop count, name-
        ordered within a tier: ``Topology.hosts_by_distance``) whose
        ledgered spill volume leaves room wins; a fleet whose every
        host is full falls back to the local host, which is the
        pre-feature behavior under pressure.  ``holder`` is the host
        that already keeps the tensor's copy: the write-back replaces
        that copy in place, so it needs no room there.
        """
        local = self.topology.host_of(device).name
        if not self.policy.remote_swap:
            return local
        used = self._host_used
        for host in self.topology.hosts_by_distance(device):
            taken = used.get(host.name, 0.0)
            if host.name != holder:
                taken += nbytes
            if taken <= host.memory_bytes:
                return host.name
        return local

    # -- op lifecycle (called by the engine) -------------------------------------

    def op_begin(self, op: MemOp) -> bool:
        """Apply an op's start-of-transfer effects.  Returns False when
        the op has become a no-op (state already satisfied)."""
        rt = self.runtimes.get(op.tensor.tid) or self.runtime(op.tensor.tid)
        kind = op.kind
        meta = rt.meta
        state = rt.state
        on_device = TensorState.ON_DEVICE
        if kind is MemOpKind.P2P and state is TensorState.ON_HOST:
            # The source copy was evicted in the meantime; degrade to a
            # host fetch.
            op.kind = kind = MemOpKind.SWAP_IN
            op.src = None
        if kind is MemOpKind.SWAP_OUT:
            if state is not on_device:
                return False
            if op.src is not None and rt.device != op.src:
                return False  # moved elsewhere since planning; not ours to evict
            op.src = rt.device
            rt.begin_swap_out(force=op.forced)
            return True
        if kind is MemOpKind.SWAP_IN:
            if state is on_device and rt.device == op.dst:
                return False
            self._reserve(op.dst, meta)
            rt.begin_swap_in(op.dst)
            return True
        if kind is MemOpKind.P2P:
            if state is on_device and rt.device == op.dst:
                return False
            op.src = rt.device
            self._reserve(op.dst, meta)
            rt.begin_move(op.dst)
            return True
        if kind is MemOpKind.DROP:
            if state is not on_device:
                return False
            if op.src is not None and rt.device != op.src:
                return False
            if rt.dirty:
                # Written since the drop was planned; degrade to a
                # write-back so the update is not lost.
                op.kind = MemOpKind.SWAP_OUT
                op.src = rt.device
                rt.begin_swap_out()
                return True
            device = rt.device
            rt.drop()
            self._release(device, meta)
            self.stats.record(device, meta.kind, Direction.DROP, meta.size_bytes)
            return True
        if kind is MemOpKind.ALLOC:
            self._reserve(op.dst, meta)
            rt.materialize_on_device(op.dst)
            self._assign_home(rt, op.dst)
            return True
        raise SimulationError(f"op_begin on unexpected op {op}")

    def op_finish(self, op: MemOp) -> None:
        """Apply an op's end-of-transfer effects and wake waiters."""
        rt = self.runtimes.get(op.tensor.tid) or self.runtime(op.tensor.tid)
        meta = rt.meta
        kind = op.kind
        stats = self.stats
        if kind is MemOpKind.SWAP_OUT:
            src = op.src
            rt.finish_swap_out()
            host = op.host if op.host is not None else self.topology.host_of(src).name
            old_host = rt.host_device
            if old_host != host:
                used = self._host_used
                if old_host is not None:
                    used[old_host] = used.get(old_host, 0.0) - meta.size_bytes
                used[host] = used.get(host, 0.0) + meta.size_bytes
            rt.host_device = host
            self._release(src, meta)
            stats.record(src, meta.kind, Direction.SWAP_OUT, meta.size_bytes)
        elif kind is MemOpKind.SWAP_IN:
            rt.finish_swap_in()
            rt.dirty = False  # host copy is current right after a swap-in
            stats.record(op.dst, meta.kind, Direction.SWAP_IN, meta.size_bytes)
            self._assign_home(rt, op.dst)
        elif kind is MemOpKind.P2P:
            src = op.src
            rt.finish_swap_in()
            self._release(src, meta)
            stats.record(op.dst, meta.kind, Direction.P2P_IN, meta.size_bytes)
            stats.record(src, meta.kind, Direction.P2P_OUT, meta.size_bytes)
            self._assign_home(rt, op.dst)
        else:
            raise SimulationError(f"op_finish on non-transfer op {op}")
        if self._waiters:  # guard: the waiter map is almost always empty
            self._fire_waiters(meta.tid)

    def _assign_home(self, rt: TensorRuntime, device: str) -> None:
        old = rt.home
        if old == device:
            return
        size = rt.meta.size_bytes
        if old is not None:
            self.pools[old].unassign_demand(size)
        self.pools[device].assign_demand(size)
        rt.home = device

    def _unassign_home(self, rt: TensorRuntime) -> None:
        if rt.home is not None:
            self.pools[rt.home].unassign_demand(rt.meta.size_bytes)
            rt.home = None

    # -- execution-time victim substitution ----------------------------------------

    def substitute_victims(self, op: MemOp) -> list[MemOp] | None:
        """A planned eviction found its victim pinned at execution time
        (a concurrent task on another device claimed it, which takes it
        out of the victim order).  Pick other victims covering at least
        the same byte count, and at least one even for a 0-byte victim,
        or ``None`` if nothing is evictable right now."""
        device = op.src
        if device is None:
            return None
        needed = op.tensor.size_bytes
        ops, freed = self._take_victims(device, needed)
        return ops if ops and freed >= needed else None

    # -- waiters ------------------------------------------------------------------

    def add_waiter(self, tid: int, callback: Callable[[], None]) -> None:
        """Register a callback fired when the tensor's in-flight transfer
        completes or its pin count drops to zero (whichever happens
        next); callbacks must re-check state and re-register if their
        condition is still unmet."""
        self._waiters.setdefault(tid, []).append(callback)

    def _fire_waiters(self, tid: int) -> None:
        callbacks = self._waiters.pop(tid, None)
        if callbacks:
            for callback in callbacks:
                callback()

    # -- task completion --------------------------------------------------------------

    def task_finished(self, task: Task | Share) -> None:
        """Unpin the task's tensors, mark its writes dirty, and free its
        dead tensors."""
        self._use_seq += 1
        seq = self._use_seq
        runtimes = self.runtimes
        runtime = self.runtime
        waiters = self._waiters
        for tid in task.touched:
            rt = runtimes.get(tid) or runtime(tid)
            if rt.pinned <= 0:
                raise SimulationError(
                    f"task {task.label}: unpinning unpinned tensor {rt.meta.label}"
                )
            rt.pinned -= 1
            rt.last_use = seq
            if rt.pinned == 0 and waiters:
                self._fire_waiters(tid)
        for tid in task.writes:
            # Present in ``runtimes``: the unpin loop above touched it.
            rt = runtimes[tid]
            if rt.state is TensorState.ON_DEVICE:
                rt.mark_written()
        for tid in task.frees:
            self._free(tid)

    def _free(self, tid: int) -> None:
        rt = self.runtime(tid)
        state = rt.state
        if state is TensorState.FREED:
            return
        device = rt.device if state is TensorState.ON_DEVICE else None
        if state is TensorState.SWAPPING_IN or state is TensorState.SWAPPING_OUT:
            raise SimulationError(f"freeing in-flight tensor {rt.meta.label}")
        rt.free()
        self._drop_host_copy(rt)
        if device is not None:
            self._release(device, rt.meta)
        self._unassign_home(rt)

    def _drop_host_copy(self, rt: TensorRuntime) -> None:
        """Take a dead tensor's host copy out of the host ledger."""
        host = rt.host_device
        if host is not None:
            self._host_used[host] -= rt.meta.size_bytes
            rt.host_device = None

    # -- end-of-iteration flush ------------------------------------------------------

    def plan_flush(self) -> list[MemOp]:
        """Write back all dirty device-resident state — the evictions the
        *next* iteration's traffic would inevitably contain, so that a
        one-iteration simulation reports steady-state swap volume."""
        ops: list[MemOp] = []
        for device in sorted(self.pools):
            pool = self.pools[device]
            for tid in sorted(pool.resident_tensors()):
                rt = self.runtime(tid)
                if rt.state is not TensorState.ON_DEVICE:
                    continue
                if rt.dirty:
                    ops.append(MemOp(MemOpKind.SWAP_OUT, rt.meta, device, None))
                else:
                    ops.append(MemOp(MemOpKind.DROP, rt.meta, device, None))
        return ops


def _is_input(meta: TensorMeta) -> bool:
    """An input microbatch: it arrives in host memory each iteration."""
    return meta.kind is TensorKind.ACTIVATION and meta.layer == -1
