"""The executor: runs a placed plan to completion on the event engine.

Per-device execution is *strictly ordered*: each device runs its plan's
task sequence in order, mirroring how CUDA streams execute work in
issue order.  A task goes through two stages — memory preparation (the
manager's op chain: evictions, swap-ins, p2p moves) and compute.  With
``prefetch`` enabled the executor overlaps the *next* task's
preparation with the current task's compute (double buffering) when
memory headroom allows, degrading gracefully to serial behaviour when
it does not — the "memory–performance tango" of the paper's §4.

ALLREDUCE tasks are synchronization points: every participant parks at
the task, makes its share of the collective's tensors resident (the
plan's ``shares``), the ring transfer occupies the involved links, and
all participants resume together, each finishing its own share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import CapacityError, SimulationError, SteadyStateError

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.perf.incremental import CheckpointStore
from repro.hardware.topology import Topology
from repro.memory.manager import MemoryManager
from repro.memory.stats import Direction, SwapStats
from repro.models.costmodel import CostModel
from repro.sim.engine import Engine, ResourceTimeline
from repro.sim.plan import Plan
from repro.sim.result import DeviceReport, RunResult
from repro.sim.trace import Trace, TraceEvent
from repro.sim.transfer import TransferEngine
from repro.steady import SteadyMode, SteadyReport, resolve_mode
from repro.tasks.task import Task, TaskKind
from repro.util.gcpause import paused_gc


@dataclass(frozen=True)
class ExecOptions:
    """Executor knobs.

    prefetch:
        Overlap next-task memory preparation with current compute
        (double buffering).  Off by default; the prefetch ablation
        benchmark measures its effect.
    flush_at_end:
        Write back dirty persistent state when all tasks finish, so a
        one-iteration run reports steady-state swap volume (the
        write-backs the next iteration would otherwise trigger).
    iterations:
        Replay the plan this many times back-to-back.  Persistent state
        (weights, gradients, optimizer moments) keeps its residency
        across iterations — the true steady state — while per-microbatch
        tensors are reborn each iteration.  The flush (if enabled) runs
        only after the last iteration.
    audit:
        Run the :mod:`repro.validate` physical-consistency audit on the
        finished run.  The report is attached to ``RunResult.audit``;
        any violation raises :class:`~repro.errors.AuditError`.
    injector:
        Fault injector (:mod:`repro.faults`) for this run: stretches
        compute under stragglers, degrades/defers/fails transfers, and
        arms device-loss and memory-pressure events on the engine.
        ``None`` simulates a healthy machine.  Only with
        ``iterations == 1``: fault daemons are armed in absolute time.
    steady_state:
        Steady-state fast-forward mode (``"auto"``/``"off"``/``"force"``
        or a :class:`~repro.steady.SteadyMode`); ``None`` means
        ``"auto"`` (see :func:`repro.steady.resolve_mode`).
        Detection and the ``force`` check apply only when
        ``iterations > 1``: a one-iteration run has no boundary to
        detect at.
    checkpoints:
        Prefix-checkpoint store (:mod:`repro.perf.incremental`).  The
        executor restores the deepest stored boundary
        ``<= iterations - 1`` before simulating, and writes throttled
        boundary snapshots as it runs — byte-identical results either
        way.  Requires ``checkpoint_key`` (the hierarchical prefix key);
        a one-iteration run reaches no boundary, so it neither restores
        nor writes.
    checkpoint_key:
        The :func:`repro.perf.fingerprint.base_fingerprint` of this run
        — the session layer computes it whenever it hands over a store
        (a spec with no canonical form raises
        :class:`~repro.perf.fingerprint.FingerprintError` there).
        Without a key the store is ignored and the run starts cold.
    """

    prefetch: bool = False
    flush_at_end: bool = True
    iterations: int = 1
    audit: bool = False
    injector: "FaultInjector | None" = None
    steady_state: "SteadyMode | str | None" = None
    checkpoints: "CheckpointStore | None" = None
    checkpoint_key: str | None = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise SimulationError("iterations must be >= 1")
        if self.injector is not None and self.iterations > 1:
            raise SimulationError(
                "fault injection runs one iteration per executor "
                f"(got iterations={self.iterations}); "
                "repro.faults.run_resilient chains iterations"
            )
        if self.steady_state is not None:
            SteadyMode.parse(self.steady_state)  # validate eagerly


class _Clock:
    """Usage-log clock: epoch-rebased runs report absolute time
    (``epoch`` stays 0.0 until the first iteration boundary, and
    ``0.0 + now`` is bitwise ``now``).  The manager holds the bound
    :meth:`now`, which reaches the engine but not the executor, so the
    executor -> manager -> clock chain closes no reference cycle."""

    __slots__ = ("engine", "epoch")

    def __init__(self, engine: Engine):
        self.engine = engine
        #: Absolute time of the current iteration's local t=0.
        self.epoch = 0.0

    def now(self) -> float:
        return self.epoch + self.engine.now


@dataclass(slots=True)
class _DeviceState:
    name: str
    order: tuple[int, ...]
    run_idx: int = 0
    computing: int | None = None
    prep_inflight: int | None = None
    ready: set[int] = field(default_factory=set)


class Executor:
    def __init__(
        self,
        topology: Topology,
        plan: Plan,
        cost_model: CostModel | None = None,
        options: ExecOptions | None = None,
    ):
        # A Plan is consistent by construction (Plan.__post_init__
        # validates it), so the executor trusts it.
        self.topology = topology
        self.plan = plan
        self.cost = cost_model if cost_model is not None else CostModel()
        self.options = options if options is not None else ExecOptions()
        self.engine = Engine()
        self.stats = SwapStats()
        self.trace = Trace()
        self._clock = _Clock(self.engine)
        self.manager = MemoryManager(
            topology, plan.registry, plan.policy, self.stats,
            clock=self._clock.now,
        )
        self.links = {name: ResourceTimeline(name) for name in topology.links}
        self.compute_streams = {
            device.name: ResourceTimeline(f"compute:{device.name}")
            for device in (*topology.gpus(), *topology.hosts())
        }
        self.injector = self.options.injector
        self.transfers = TransferEngine(
            self.engine, topology, self.manager, self.trace, self.links,
            injector=self.injector,
        )
        if self.injector is not None:
            self.injector.arm(self.engine, self.manager.pools)
        self.devstates = {
            dev: _DeviceState(dev, order)
            for dev, order in plan.device_order.items()
        }
        # Frozen sorted view: every iteration starts by advancing each
        # device, and the device set never changes mid-run.
        self._device_names = tuple(sorted(self.devstates))
        self._tasks = plan.graph.tasks  # every ordered tid exists
        # Targeted wake-up state.  The scheduling loop used to rescan
        # every device after every completion (O(devices) per task, with
        # an O(deps) subset check per device) — quadratic on wide
        # fleets.  Instead: a per-task countdown of unfinished direct
        # deps (checked in O(1) by _advance), a reverse-dependency map,
        # and a task -> hosting-devices map.  A completion then advances
        # exactly the devices that could have been unblocked: the
        # completed task's own device(s) — its order continues, and a
        # serially-deferred prepare retries — plus the devices of every
        # dependent whose countdown just hit zero.  Any other device's
        # head task saw none of its gates change, so the old full scan
        # would have no-opped on it; wakes stay in sorted device order,
        # so the event stream is bit-identical.
        self._dep_template = {
            tid: len(t.deps) for tid, t in self._tasks.items()
        }
        self._dep_missing = dict(self._dep_template)
        rdeps: dict[int, list[int]] = {}
        hosts: dict[int, set[str]] = {}
        for tid, t in self._tasks.items():
            for dep in t.deps:
                rdeps.setdefault(dep, []).append(tid)
        for dev in self._device_names:
            for tid in self.devstates[dev].order:
                hosts.setdefault(tid, set()).add(dev)
        self._rdeps = {tid: tuple(ts) for tid, ts in rdeps.items()}
        self._task_devices = {
            tid: tuple(sorted(devs)) for tid, devs in hosts.items()
        }
        self.done: set[int] = set()
        self._arrivals: dict[int, set[str]] = {}
        self._started_collectives: set[int] = set()
        self._samples = 0
        self.steady_mode = resolve_mode(self.options.steady_state)
        self._all_timelines = (
            *self.links.values(), *self.compute_streams.values()
        )
        #: Boundary index a prefix checkpoint restored this run from
        #: (``None`` = cold).  Deliberately *not* part of RunResult:
        #: restored and cold results must compare equal byte-for-byte,
        #: so reuse accounting lives here and on the store's counters.
        self.restored_from: int | None = None

    # -- public ------------------------------------------------------------

    def run(self) -> RunResult:
        # Gen-2 GC passes rescanning the O(fleet) live plan graph are
        # what made per-event cost grow with fleet size (see
        # :mod:`repro.util.gcpause`).
        with paused_gc():
            try:
                result = self._run_cycles()
            finally:
                # The engine never runs again.  Whatever it still holds
                # (a fault injector's trailing daemons, or the in-flight
                # work of a run an exception aborted) would keep its
                # callbacks, and the executor they reach, in a cycle
                # through the calendar; the rest of a finished run's
                # graph is acyclic, so refcounting frees it.
                self.engine.discard_pending()
        if self.options.audit:
            # Imported lazily: repro.validate pulls in the session layer
            # for its differential checker, which imports this module.
            from repro.validate.audit import audit_run

            result.audit = audit_run(
                result, self.topology, self.plan,
                iterations=self.options.iterations,
            )
            result.audit.raise_if_failed()
        return result

    def _run_cycles(self) -> RunResult:
        """The event loop, with the clock rebased at iteration boundaries.

        Every iteration starts at local ``t=0`` with every resource
        timeline free (the engine fully drains between iterations, so
        zeroing loses nothing); the iteration's trace events are
        committed to absolute time by adding ``self._clock.epoch`` at the
        boundary.  An iteration is therefore a pure function of its
        entry state, and once two consecutive entry fingerprints match
        bitwise, every remaining iteration is proven identical:
        ``auto``/``force`` fast-forward all but the last analytically
        (:mod:`repro.steady.cycle`), while ``off`` simply keeps
        simulating — both arms produce bit-for-bit equal results (but
        for ``memory_profile``, which samples live iterations only), as
        the equivalence tests and the bench assert.  A
        one-iteration run (every fault-injected run is one) reaches no
        boundary: its clock is never rebased, and detection and the
        ``force`` check stay off.
        """
        from repro.steady.cycle import (
            apply_fast_forward,
            capture_ledger,
            entry_fingerprint,
            start_journals,
            stop_journals,
        )

        mode = self.steady_mode
        n = self.options.iterations
        engine = self.engine
        detecting = n > 1 and mode is not SteadyMode.OFF
        detected_at: int | None = None
        skipped = 0
        period: float | None = None

        store = self.options.checkpoints
        store_key = self.options.checkpoint_key
        if store_key is None or n == 1:
            store = None  # no key, or no boundary: run cold
        snap = store.best(store_key, n - 1) if store is not None else None
        if snap is not None:
            # Resume at the donor's deepest shared boundary, with the
            # donor's detection inputs: the decision at the top of the
            # loop then runs against *our* iteration count, as a cold
            # run's would at this boundary.
            from repro.perf.incremental import install_snapshot

            install_snapshot(self, snap)
            it = self.restored_from = snap.iteration
            prev_fp, fp, ledger = snap.prev_fp, snap.fp, snap.ledger
            detecting = detecting and snap.detecting
        else:
            self.manager.materialize_initial()
            it = 0  # iterations completed
            prev_fp, ledger = None, None
            fp = entry_fingerprint(self) if detecting else None
        mark = len(self.trace.events)  # first event of the live iteration
        while True:
            # -- at boundary ``it``: the one detection decision --------
            if detecting:
                skip = n - 1 - it  # iterations to fast-forward; the
                # final iteration always runs live so the flush departs
                # from a naturally-arising state.
                if fp == prev_fp and skip > 0:
                    detected_at = it + 1
                    period = ledger.period
                    skipped = skip
                    apply_fast_forward(self, ledger, skip)
                    mark = len(self.trace.events)
                    detecting = False
                    it = n - 1
                prev_fp = fp
            if detecting:
                start_journals(self)
                events_before = engine.events_processed
                samples_before = self._samples
            for dev in self._device_names:
                self._advance(dev)
            engine.run()
            self._check_complete()
            local_makespan = engine.now
            it += 1
            if it == n:
                if detecting:
                    stop_journals(self)
                break
            if detecting:
                # Capture before the commit below shifts events[mark:]
                # to absolute time: the cycle is stored in local time.
                ledger = capture_ledger(
                    self, mark, events_before, samples_before, local_makespan
                )
                stop_journals(self)
            # -- iteration boundary: commit and rebase ----------------
            self._commit_trace(mark)
            self._clock.epoch += local_makespan
            mark = len(self.trace.events)
            self._reset_iteration()
            if engine.pending_events:
                raise SimulationError(
                    "steady-state loop: events pending across an iteration "
                    "boundary (only fault daemons linger, and injected "
                    "runs are single-iteration)"
                )
            engine.now = 0.0
            for tl in self._all_timelines:
                tl.free_at = 0.0
            fp = entry_fingerprint(self) if detecting else None
            if store is not None and (detecting or mode is SteadyMode.OFF):
                # Donor-side prefix checkpoint: captured before the
                # detection decision, with its inputs, so a restoring
                # run can make the decision itself.  Detection jumps
                # straight to the final iteration, so no post-detection
                # boundary is captured and snapshots never carry
                # compressed segments.  Throttled to O(log n) boundaries.
                from repro.perf.incremental import (
                    capture_snapshot,
                    snapshot_boundary,
                )

                if snapshot_boundary(it, n) and not store.has(store_key, it):
                    store.put(
                        store_key,
                        capture_snapshot(
                            self, it, prev_fp, fp, ledger, detecting
                        ),
                    )
        if self.options.flush_at_end:
            self._flush()
            engine.run()
        self._commit_trace(mark)
        if mode is SteadyMode.FORCE and n > 1 and skipped == 0:
            raise SteadyStateError(
                f"steady-state 'force': no cycle proven over {n} iterations "
                "(detection needs a warm-up, a matching entry, and at least "
                "one skippable iteration before the final live one)"
            )
        result = self._result()
        result.steady = SteadyReport(
            mode=mode.value,
            detected_at=detected_at,
            skipped=skipped,
            period=period,
            live_iterations=n - skipped,
        )
        return result

    def _commit_trace(self, mark: int) -> None:
        """Shift ``trace.events[mark:]`` from local to absolute time."""
        epoch = self._clock.epoch
        if epoch == 0.0:
            return
        events = self.trace.events
        for i in range(mark, len(events)):
            e = events[i]
            events[i] = TraceEvent(
                e[0], epoch + e[1], epoch + e[2], e[3], e[4], e[5]
            )

    def _reset_iteration(self) -> None:
        """Rewind the plan for a replay: every device starts its order
        over, and the manager rebirths per-microbatch tensors."""
        self.done.clear()
        self._dep_missing = dict(self._dep_template)
        self._arrivals.clear()
        self._started_collectives.clear()
        for st in self.devstates.values():
            st.run_idx = 0
            st.computing = None
            st.prep_inflight = None
            st.ready.clear()
        self.manager.new_iteration()

    # -- iteration-boundary state ---------------------------------------------

    def boundary_state(self) -> tuple:
        """Everything this run carries across an iteration boundary:
        epoch, samples, event count, the committed trace, timeline busy
        seconds by timeline name, then the manager's and the swap
        ledger's own boundary state.  The rest (device states, arrival
        sets, waiters, the engine calendar) is in its reset form at a
        boundary.  :meth:`restore` installs it."""
        if self.trace.segments:  # fast-forward jumps to the last iteration
            raise AssertionError("compressed trace segments are not resumable")
        return (
            self._clock.epoch,
            self._samples,
            self.engine.events_processed,
            tuple(self.trace.events),
            tuple((tl.name, tl.busy_seconds) for tl in self._all_timelines),
            self.manager.boundary_state(),
            self.stats.boundary_state(),
        )

    def restore(self, state: tuple) -> None:
        """Install a :meth:`boundary_state` on an executor that has not
        run: its engine, device states and trace are in the form a
        boundary reset leaves them."""
        epoch, samples, events, trace, busy, manager, stats = state
        self._clock.epoch = epoch
        self._samples = samples
        self.engine.events_processed = events
        self.trace.events[:] = trace
        timelines = {tl.name: tl for tl in self._all_timelines}
        for name, busy_seconds in busy:
            timelines[name].busy_seconds = busy_seconds
        self.manager.restore(manager)
        self.stats.restore(stats)

    # -- scheduling loop ------------------------------------------------------

    def _advance_wakers(self, tid: int) -> None:
        """Advance exactly the devices whose head task may have been
        unblocked by ``tid`` completing (see the wake-up maps in
        ``__init__``); also retires ``tid`` from its dependents'
        countdowns — call exactly once per completion."""
        task_devices = self._task_devices
        woken = set(task_devices.get(tid, ()))
        dep_missing = self._dep_missing
        for dependent in self._rdeps.get(tid, ()):
            left = dep_missing[dependent] - 1
            dep_missing[dependent] = left
            if left == 0:
                woken.update(task_devices.get(dependent, ()))
        advance = self._advance
        for dev in sorted(woken):
            advance(dev)

    def _advance(self, dev: str) -> None:
        st = self.devstates[dev]
        if st.run_idx >= len(st.order):
            return
        tid = st.order[st.run_idx]
        task = self._tasks[tid]
        if task.kind is TaskKind.ALLREDUCE:
            self._advance_collective(dev, task)
            return
        if tid in st.ready:
            if st.computing is None:
                self._start_compute(dev, task)
            return
        if st.prep_inflight is not None:
            return
        if st.computing is not None and not self.options.prefetch:
            return
        if self._dep_missing[task.tid]:
            return
        self._start_prepare(dev, task)

    # -- compute tasks -----------------------------------------------------------

    def _start_prepare(self, dev: str, task: Task) -> None:
        st = self.devstates[dev]
        st.prep_inflight = task.tid
        prefetching = st.computing is not None
        try:
            ops = self.manager.prepare(task, dev)
        except CapacityError:
            st.prep_inflight = None
            if prefetching:
                return  # retry serially once the current task releases its pins
            raise

        def prepared() -> None:
            st.prep_inflight = None
            st.ready.add(task.tid)
            self._advance(dev)

        self.transfers.execute_chain(ops, prepared)

    def _start_compute(self, dev: str, task: Task) -> None:
        st = self.devstates[dev]
        st.ready.discard(task.tid)
        st.computing = task.tid
        st.run_idx += 1
        device_spec = self.topology.device(dev)
        duration = self.cost.task_time(task.flops, device_spec)
        if self.injector is not None:
            duration = self.injector.compute_duration(dev, duration, self.engine.now)
        start, end = self.compute_streams[dev].acquire(self.engine.now, duration)

        def complete() -> None:
            self.trace.add(dev, start, end, "compute", task.label)
            self.manager.task_finished(task)
            self.done.add(task.tid)
            self._samples += task.samples
            st.computing = None
            self._advance_wakers(task.tid)

        self.engine.at(end, complete)
        if self.options.prefetch:
            self._advance(dev)  # start preparing the next task right away

    # -- allreduce ----------------------------------------------------------------

    def _advance_collective(self, dev: str, task: Task) -> None:
        st = self.devstates[dev]
        if st.computing is not None or st.prep_inflight is not None:
            return
        if self._dep_missing[task.tid]:
            return
        arrivals = self._arrivals.setdefault(task.tid, set())
        arrivals.add(dev)
        if len(arrivals) != len(self.plan.shares[task.tid]):
            return
        if task.tid in self._started_collectives:
            return
        self._started_collectives.add(task.tid)
        self._start_allreduce(task)

    def _start_allreduce(self, task: Task) -> None:
        shares = self.plan.shares[task.tid]
        participants = tuple(shares)
        for dev in participants:
            st = self.devstates[dev]
            st.computing = task.tid
            st.run_idx += 1
        pending = {"chains": len(participants)}

        def chain_done() -> None:
            pending["chains"] -= 1
            if pending["chains"] == 0:
                self.transfers.execute_allreduce(
                    participants, task.comm_bytes, collective_done
                )

        def collective_done(start: float, end: float) -> None:
            comm_kind = (
                self.plan.registry.by_id(task.reads[0]).kind
                if task.reads
                else None
            )
            for dev in participants:
                if end > start:
                    self.trace.add(
                        dev, start, end, "allreduce", task.label,
                        nbytes=task.comm_bytes,
                    )
                if comm_kind is not None and task.comm_bytes:
                    # Collectives ride the device-to-device links; account
                    # their wire volume alongside p2p moves.
                    self.stats.record(
                        dev, comm_kind, Direction.P2P_IN, task.comm_bytes
                    )
                self.manager.task_finished(shares[dev])
                self.devstates[dev].computing = None
            self.done.add(task.tid)
            self._advance_wakers(task.tid)

        for dev in participants:
            ops = self.manager.prepare(shares[dev], dev)
            self.transfers.execute_chain(ops, chain_done)

    # -- completion --------------------------------------------------------------

    def _check_complete(self) -> None:
        if len(self.done) == len(self.plan.graph):
            return
        diagnostics = []
        for dev in self._device_names:
            st = self.devstates[dev]
            if st.run_idx < len(st.order):
                task = self.plan.graph.task(st.order[st.run_idx])
                missing = sorted(task.deps - self.done)
                diagnostics.append(
                    f"{dev}: stuck at {task.label} (missing deps {missing[:6]})"
                )
        raise SimulationError(
            "deadlock: "
            f"{len(self.plan.graph) - len(self.done)} tasks never ran; "
            + "; ".join(diagnostics)
        )

    def _flush(self) -> None:
        ops = self.manager.plan_flush()
        by_device: dict[str, list] = {}
        for op in ops:
            by_device.setdefault(op.src, []).append(op)
        for device in sorted(by_device):
            self.transfers.execute_chain(by_device[device], lambda: None)

    # -- results ------------------------------------------------------------------

    def partial_result(self) -> RunResult:
        """Best-effort result for an interrupted run (a device loss
        aborted the event loop): whatever the trace and ledgers saw up
        to the interruption, with only the actually-finished samples.
        Compute busy time sums the trace's finished compute tasks: the
        compute streams also hold the tasks the loss cut short.  The
        resilient runner audits and accounts lost work from this."""
        result = self._result(self.trace.busy_seconds_by_device("compute"))
        result.samples = self._samples
        return result

    def _result(self, compute_busy: dict[str, float] | None = None) -> RunResult:
        """Assemble the run's result.  Each GPU's compute busy time
        comes from ``compute_busy`` when given (absent devices report
        0), else from its compute stream's busy ledger — O(live
        iterations) under fast-forward, where summing the expanded
        trace would be O(events x N), and identical between the
        off/auto arms (both fold the same additions)."""
        if compute_busy is None:
            compute_busy = {
                dev: tl.busy_seconds for dev, tl in self.compute_streams.items()
            }
        makespan = max(self.trace.makespan(), self._clock.now())
        devices = {}
        volumes = self.stats.volume_totals()
        for gpu in self.topology.gpus():
            pool = self.manager.pools[gpu.name]
            devices[gpu.name] = DeviceReport(
                name=gpu.name,
                capacity=pool.capacity,
                peak_used=pool.peak_used,
                peak_demand=pool.peak_demand,
                compute_busy=compute_busy.get(gpu.name, 0),
                swap_in_bytes=volumes.get((gpu.name, Direction.SWAP_IN), 0),
                swap_out_bytes=volumes.get((gpu.name, Direction.SWAP_OUT), 0),
                peak_activation=self.manager.activation_peak.get(gpu.name, 0.0),
            )
        return RunResult(
            label=self.plan.label,
            makespan=makespan,
            samples=self._samples or self.plan.samples_per_iteration,
            stats=self.stats,
            trace=self.trace,
            devices=devices,
            link_busy={name: tl.busy_seconds for name, tl in self.links.items()},
            num_tasks=len(self.plan.graph),
            events_processed=self.engine.events_processed,
            memory_profile={
                dev: list(log) for dev, log in self.manager.usage_log.items()
            },
        )
