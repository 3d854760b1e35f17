"""Transfer execution: memory operations -> timed link occupancy.

Each transfer occupies every link on its route (cut-through, bottleneck
bandwidth) via :class:`ResourceTimeline` FIFO queues.  Swap-ins ride
the host->device route, swap-outs the device->host route — both cross
the shared host uplink — while p2p moves ride switch-local routes and
therefore bypass the bottleneck, which is the entire point of
Harmony's optimization #3.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import FaultError, SimulationError
from repro.hardware.topology import Route, Topology
from repro.memory.manager import MemOp, MemOpKind, MemoryManager
from repro.memory.stats import Direction
from repro.sim.collective import CollectiveOp, ring_collective
from repro.sim.engine import Engine, ResourceTimeline
from repro.sim.trace import Trace
from repro.tensors.state import TensorState

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector

_CATEGORY = {
    MemOpKind.SWAP_IN: "swap_in",
    MemOpKind.SWAP_OUT: "swap_out",
    MemOpKind.P2P: "p2p",
}


class _Chain:
    """One in-progress op chain; calling it resumes the chain.

    A slotted object, not a closure: a closure passed as its own
    continuation references itself through its cell, which made every
    finished chain — and, through ``done``, the executor behind it —
    cyclic garbage.  Only the pending event or waiter that will resume
    a chain references it.  A call may re-enter through a nested
    substitute chain; the shared cursor keeps every op exactly-once.
    """

    __slots__ = ("ops", "cursor", "execute", "done")

    def __init__(
        self,
        ops: Sequence[MemOp],
        execute: Callable[[MemOp, Callable[[], None]], bool],
        done: Callable[[], None],
    ):
        self.ops = ops
        self.cursor = 0
        self.execute = execute
        self.done = done

    def __call__(self) -> None:
        ops = self.ops
        n = len(ops)
        execute = self.execute
        while self.cursor < n:
            op = ops[self.cursor]
            self.cursor += 1
            if not execute(op, self):
                return  # async: the chain re-runs when the op completes
        self.done()


class TransferEngine:
    """Executes memory-op chains, one op at a time, over shared links.

    With a :class:`~repro.faults.injector.FaultInjector` attached,
    transfer timing honors link degradation and flaps, and each
    point-to-point attempt may fail transiently: the failed attempt
    still occupies every link on the route (the wire time really was
    spent), its bytes are ledgered as retries, and the transfer is
    re-attempted after exponential backoff until the policy's retry
    budget is exhausted.
    """

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        manager: MemoryManager,
        trace: Trace,
        links: dict[str, ResourceTimeline],
        injector: "FaultInjector | None" = None,
    ):
        self.engine = engine
        self.topology = topology
        self.manager = manager
        self.trace = trace
        self.links = links
        self.injector = injector
        # Route -> timelines, keyed by route identity: the topology's
        # route cache keeps every Route alive and unique per (src, dst),
        # and each transfer over it needs the same timeline list.
        self._route_timelines: dict[int, list[ResourceTimeline]] = {}
        # Participant tuple -> resolved ring + its timeline list.  Ring
        # resolution walks O(world) routes; caching it makes every
        # collective after the first O(1) in fleet size.
        self._collectives: dict[
            tuple[str, ...], tuple[CollectiveOp, list[ResourceTimeline]]
        ] = {}

    # -- routes -------------------------------------------------------------

    def _route_for(self, op: MemOp) -> Route:
        if op.kind is MemOpKind.SWAP_IN:
            # Fetch from the host that actually holds the copy: on a
            # multi-server topology a tensor written back on server A
            # and fetched by server B crosses the inter-server network.
            manager = self.manager
            tid = op.tensor.tid
            rt = manager.runtimes.get(tid) or manager.runtime(tid)
            src_host = rt.host_device or self.topology.host_of(op.dst).name
            return self.topology.route(src_host, op.dst)
        if op.kind is MemOpKind.SWAP_OUT:
            # The manager picks the receiving host (the local one unless
            # remote_swap spills to a neighbor server, or the host that
            # already keeps this tensor's copy); the choice sticks to the
            # op so fault retries re-ride the same route and op_finish
            # lands the copy where the bytes actually went.
            if op.host is None:
                manager = self.manager
                tid = op.tensor.tid
                rt = manager.runtimes.get(tid) or manager.runtime(tid)
                op.host = manager.swap_host_for(
                    op.src, op.tensor.size_bytes, rt.host_device
                )
            return self.topology.route(op.src, op.host)
        if op.kind is MemOpKind.P2P:
            return self.topology.route(op.src, op.dst)
        raise SimulationError(f"no route for op {op}")

    def _timelines(self, route: Route) -> list[ResourceTimeline]:
        cached = self._route_timelines.get(id(route))
        if cached is None:
            cached = [self.links[link.name] for link in route.links]
            self._route_timelines[id(route)] = cached
        return cached

    # -- execution -------------------------------------------------------------

    def execute_chain(self, ops: Sequence[MemOp], done: Callable[[], None]) -> None:
        """Run ``ops`` strictly in order, then call ``done``.

        Synchronous ops (waits that need no wait, allocations, drops,
        satisfied transfers) are consumed in a loop rather than through
        continuation recursion — most ops in a chain complete instantly,
        and the loop spends one iteration where the recursive form spent
        three frames.  The chain is its own continuation (see
        :class:`_Chain`)."""
        _Chain(ops, self._execute_op, done)()

    def execute_op(self, op: MemOp, done: Callable[[], None]) -> None:
        """Run one op; ``done`` fires when it completes (possibly now)."""
        if self._execute_op(op, done):
            done()

    def _execute_op(self, op: MemOp, cont: Callable[[], None]) -> bool:
        """Start one op.  Returns True if it completed synchronously;
        otherwise ``cont`` has been registered to fire on completion."""
        manager = self.manager
        kind = op.kind
        tid = op.tensor.tid
        swapping_in = TensorState.SWAPPING_IN
        swapping_out = TensorState.SWAPPING_OUT
        if kind is MemOpKind.WAIT:
            rt = manager.runtimes.get(tid) or manager.runtime(tid)
            state = rt.state
            if state is swapping_in or state is swapping_out:
                manager.add_waiter(tid, cont)
                return False
            return True
        if kind is MemOpKind.ALLOC:
            manager.op_begin(op)
            return True
        # Eviction ops can race with a concurrent task on another device
        # pinning the victim: substitute another victim, or wait for the
        # pin to release if nothing else is evictable.
        if (kind is MemOpKind.DROP or kind is MemOpKind.SWAP_OUT) and not op.forced:
            rt = manager.runtimes.get(tid) or manager.runtime(tid)
            if rt.pinned > 0 and rt.resident_on == op.src:
                substitutes = manager.substitute_victims(op)
                if substitutes is None:
                    manager.add_waiter(tid, lambda: self.execute_op(op, cont))
                else:
                    self.execute_chain(substitutes, cont)
                return False
        if kind is MemOpKind.DROP:
            manager.op_begin(op)
            if op.kind is MemOpKind.DROP:  # not degraded to a write-back
                return True
            # op_begin degraded the drop to a SWAP_OUT (the tensor was
            # dirtied since planning); fall through to transfer it.
            self._schedule_transfer(op, cont)
            return False
        # Transfer op: if the tensor is mid-flight elsewhere (e.g. a peer
        # is still writing it back to host), retry when that completes.
        rt = manager.runtimes.get(tid) or manager.runtime(tid)
        state = rt.state
        if state is swapping_in or state is swapping_out:
            manager.add_waiter(tid, lambda: self.execute_op(op, cont))
            return False
        if not manager.op_begin(op):
            return True  # state already satisfied; nothing to move
        self._schedule_transfer(op, cont)
        return False

    def _schedule_transfer(
        self, op: MemOp, done: Callable[[], None], attempt: int = 0
    ) -> None:
        # op_begin may have degraded a planned P2P into a SWAP_IN.
        route = self._route_for(op)
        engine = self.engine
        injector = self.injector
        size = op.tensor.size_bytes
        if injector is None:
            ready = engine.now
            duration = route.transfer_time(size)
        else:
            ready, duration = injector.transfer_timing(route, size, engine.now)
        timelines = self._timelines(route)
        if timelines:
            start, end = ResourceTimeline.acquire_all(timelines, ready, duration)
        else:
            # A zero-hop route (host-local materialization) occupies no
            # link; acquire_all rejects empty lists, so the window is
            # explicit here.
            start, end = ready, ready + duration
        kind = op.kind
        category = _CATEGORY[kind]
        device = op.src if kind is MemOpKind.SWAP_OUT else op.dst

        if (
            injector is not None
            and duration > 0
            and injector.transfer_fails(route, start)
        ):
            self._schedule_failed_attempt(
                op, route, device, category, start, end, attempt, done
            )
            return

        # A ``partial`` on a bound method, not a closure: this runs once
        # per transfer and a closure would allocate a cell per captured
        # variable each time.
        engine.at(
            end,
            partial(self._finish_transfer, op, device, category, start, end,
                    duration, done),
        )

    def _finish_transfer(
        self,
        op: MemOp,
        device: str,
        category: str,
        start: float,
        end: float,
        duration: float,
        done: Callable[[], None],
    ) -> None:
        self.manager.op_finish(op)
        if duration > 0:
            self.trace.add(
                device, start, end, category, op.tensor.label,
                nbytes=op.tensor.size_bytes,
            )
        done()

    def _schedule_failed_attempt(
        self,
        op: MemOp,
        route: Route,
        device: str,
        category: str,
        start: float,
        end: float,
        attempt: int,
        done: Callable[[], None],
    ) -> None:
        """A transient transfer failure: the attempt holds the links for
        its full duration, its bytes are ledgered as retried, and the
        op re-runs after exponential backoff."""
        injector = self.injector
        if attempt >= injector.max_retries:
            label = op.tensor.label

            def exhausted() -> None:
                raise FaultError(
                    f"transfer of {label} over {route.src}->{route.dst} "
                    f"failed {attempt + 1} time(s); retry budget "
                    f"({injector.max_retries}) exhausted"
                )

            self.engine.at(end, exhausted)
            return

        meta = op.tensor
        stats = self.manager.stats

        def failed() -> None:
            if op.kind is MemOpKind.P2P:
                stats.record_retry(op.dst, meta.kind, Direction.P2P_IN, meta.size_bytes)
                stats.record(op.src, meta.kind, Direction.P2P_OUT, meta.size_bytes)
            else:
                direction = (
                    Direction.SWAP_OUT
                    if op.kind is MemOpKind.SWAP_OUT
                    else Direction.SWAP_IN
                )
                stats.record_retry(device, meta.kind, direction, meta.size_bytes)
            self.trace.add(
                device, start, end, category, meta.label, nbytes=meta.size_bytes
            )
            self.engine.after(
                injector.backoff_delay(attempt),
                lambda: self._schedule_transfer(op, done, attempt=attempt + 1),
            )

        self.engine.at(end, failed)

    # -- collectives -------------------------------------------------------------

    def execute_allreduce(
        self,
        participants: Sequence[str],
        comm_bytes: float,
        done: Callable[[float, float], None],
    ) -> None:
        """Ring all-reduce across ``participants``: one timed event that
        occupies the links of every ring hop for the closed-form
        duration (see :mod:`repro.sim.collective`); ``comm_bytes`` is
        the per-participant wire volume (2(N-1)/N x payload,
        precomputed by the decomposer).  The ring's routes, bottleneck,
        and involved-link set are resolved once per participant set and
        cached, so repeat collectives cost O(1) in fleet size."""
        if len(participants) < 2:
            done(self.engine.now, self.engine.now)
            return
        key = tuple(participants)
        cached = self._collectives.get(key)
        if cached is None:
            spec = ring_collective(self.topology, key)
            cached = (spec, [self.links[name] for name in spec.link_names])
            self._collectives[key] = cached
        spec, timelines = cached
        if self.injector is None:
            ready = self.engine.now
            duration = spec.duration(comm_bytes)
        else:
            # The ring runs at the pace of its slowest hop under the
            # currently-active link faults; a flapped hop defers the
            # whole collective.
            timings = [
                self.injector.transfer_timing(route, comm_bytes, self.engine.now)
                for route in spec.routes
            ]
            ready = max(t for t, _ in timings)
            duration = max(d for _, d in timings)
        if timelines:
            start, end = ResourceTimeline.acquire_all(timelines, ready, duration)
        else:
            start, end = ready, ready + duration
        self.engine.at(end, lambda: done(start, end))
