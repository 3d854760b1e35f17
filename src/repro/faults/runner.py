"""The resilient runner: iteration-granular execution under faults.

A resilient run executes ``iterations`` training iterations as a chain
of *segments*, each a fresh discrete-event simulation of one iteration
(one :class:`~repro.sim.executor.Executor`), stitched together on a
global wall-clock ``offset``.  The :class:`~repro.faults.injector.
FaultInjector` translates the plan's global fault times into each
segment's local time, so one :class:`~repro.faults.model.FaultPlan`
spans the whole run.

Between iterations the runner charges checkpoint cost (training state
streamed to host DRAM over the shared uplink) every
``policy.checkpoint_every`` iterations.  When a :class:`~repro.errors.
DeviceLostError` escapes a segment, the runner

1. collects the aborted segment's partial result and accounts the lost
   wall/compute time,
2. charges *detection*: the time the ``policy.detection`` detector
   takes to confirm the loss (:mod:`repro.faults.detection`; zero for
   the default ``none``, the heartbeat detectors' suspicion +
   confirmation otherwise), recorded per incident,
3. dispatches the confirmed loss to the configured **recovery policy**
   (:data:`~repro.faults.recovery.RECOVERY_REGISTRY`): shrink onto the
   survivors and re-plan (``restart-replan``/``degrade-continue``),
   hold for a grace window and resume the full world if the device
   returns (``wait-rejoin``), or swap in a cold standby
   (``spare-substitute``) — each composed with the Harmony/baseline
   checkpoint-usability and reload asymmetry in
   :class:`~repro.faults.resilience.ResiliencePolicy`,
4. continues until all iterations are credited or recovery becomes
   impossible (no survivors, re-planning fails, retry budgets exhaust),
   in which case the :class:`~repro.faults.report.FaultReport` records
   ``recovered=False`` instead of raising.

:class:`~repro.faults.model.DeviceReturn` events come due between
segments: elastic policies grow the world back (one more re-plan and a
shard reload); ``degrade-continue`` ignores them.  After the run the
detector scans every initial GPU's heartbeat stream: straggler-induced
false-positive suspicions are ledgered in ``report.incidents`` with
``false_positive=True``, and the emissions scanned are counted in
``report.heartbeats_observed``.

The returned :class:`~repro.sim.result.RunResult` aggregates the whole
run (makespan, credited samples) and carries the report in ``.faults``.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.config import HarmonyConfig
from repro.errors import (
    CapacityError,
    ConfigError,
    DeviceLostError,
    FaultError,
    SchedulingError,
    TopologyError,
)
from repro.faults.detection import build_detector
from repro.faults.injector import FaultInjector
from repro.faults.model import DeviceLoss, DeviceReturn, FaultPlan, SpareDevice
from repro.faults.recovery import build_recovery
from repro.faults.report import FaultReport, IncidentReport, SegmentReport
from repro.faults.resilience import ResiliencePolicy
from repro.hardware.device import DeviceSpec
from repro.hardware.topology import Topology
from repro.models.graph import ModelGraph
from repro.schedulers import build_scheduler
from repro.sim.executor import ExecOptions, Executor
from repro.sim.plan import Plan
from repro.sim.result import RunResult
from repro.steady import SteadyMode, SteadyReport, resolve_mode

#: Exceptions that mean "the fault could not be absorbed" rather than
#: "the simulator is broken": they end the run with ``recovered=False``.
_RECOVERY_FAILURES = (
    FaultError,
    CapacityError,
    ConfigError,
    SchedulingError,
    TopologyError,
)


def _uplink_bandwidth(topology: Topology) -> float:
    """Bottleneck bandwidth of the slowest GPU->host route — the rate
    checkpoint writes and state reloads move at."""
    gpus = topology.gpus()
    if not gpus:
        raise TopologyError(f"topology {topology.name!r} has no GPUs")
    return min(
        topology.host_route(gpu.name).bottleneck_bandwidth for gpu in gpus
    )


def _compute_seconds(result: RunResult) -> float:
    return sum(d.compute_busy for d in result.devices.values())


class _ResilientRun:
    """Mutable state of one resilient run (the loop in :func:`run_resilient`)."""

    def __init__(
        self,
        model: ModelGraph,
        topology: Topology,
        config: "HarmonyConfig",
        fault_plan: FaultPlan,
        policy: ResiliencePolicy | None,
        iterations: int,
    ):
        if iterations < 1:
            raise ConfigError("iterations must be >= 1")
        self.model = model
        self.config = config
        self.scheme = config.parallelism
        self.fault_plan = fault_plan
        self.policy = (
            policy if policy is not None else ResiliencePolicy.for_scheme(self.scheme)
        )
        self.iterations = iterations
        #: Checkpointable training state: weights + optimizer moments
        #: (gradients are recomputed, activations are per-iteration).
        self.state_bytes = model.param_bytes + model.optimizer_bytes
        self.rng: random.Random = fault_plan.rng()
        self.topo = topology
        #: The pristine world: rejoin wiring is looked up here, never
        #: reconstructed from a shrunken survivor.
        self.initial_topo = topology
        self.plan: Plan | None = None
        self.lost: set[str] = set()
        self.pending: deque[DeviceLoss] = deque(fault_plan.device_losses())
        self.pending_returns: list[DeviceReturn] = fault_plan.device_returns()
        self.spares: list[SpareDevice] = fault_plan.spare_devices()
        self.recovery = build_recovery(self.policy.recovery)
        self.detector = None  # built by fault_free_reference()
        self.offset = 0.0           # global wall-clock
        self.completed = 0          # credited iterations
        self.since_ckpt = 0         # credited since the last checkpoint
        #: (samples, wall seconds, compute seconds) per credited iteration,
        #: popped when a loss rolls iterations back.
        self.credited: list[tuple[int, float, float]] = []
        self.report = FaultReport(plan=fault_plan, policy=self.policy)
        self.last_result: RunResult | None = None

    # -- building blocks ---------------------------------------------------

    def build_plan(self) -> Plan:
        return build_scheduler(
            self.scheme, self.model, self.topo, self.config.batch,
            options=self.config.options,
        ).plan()

    def fault_free_reference(self) -> None:
        """One healthy iteration on the full topology; its plan seeds the
        first segment, its makespan anchors the goodput ratio and the
        detector's heartbeat timing defaults."""
        self.plan = self.build_plan()
        healthy = Executor(
            self.topo, self.plan, cost_model=self.config.cost_model,
            options=ExecOptions(prefetch=self.config.prefetch),
        ).run()
        self.report.fault_free_makespan = healthy.makespan * self.iterations
        self.report.fault_free_samples = healthy.samples * self.iterations
        self.last_result = healthy
        self.detector = build_detector(self.policy.detection, healthy.makespan)

    def fail(self, reason: str) -> None:
        self.report.recovered = False
        self.report.failure_reason = reason

    def absorb_stats(self, result: RunResult) -> None:
        self.report.retried_bytes += result.stats.retried_volume()
        self.report.retry_events += result.stats.retry_events()

    # -- accounting helpers (the recovery policies compose these) ----------

    def charge_recovery(self, seconds: float) -> None:
        """Recovery *work*: detection, reloads, spare attach."""
        self.report.recovery_seconds += seconds
        self.offset += seconds

    def charge_stall(self, seconds: float) -> None:
        """Deliberate waiting (wait-rejoin's grace hold)."""
        self.report.stall_seconds += seconds
        self.offset += seconds

    def rollback(self, world_preserved: bool = False) -> None:
        """Un-credit iterations back to the last checkpoint this policy
        can still use.  ``world_preserved`` recoveries (wait-rejoin
        resume, spare substitution) keep the world's size and shape, so
        the checkpoint stays usable even for the rigid baselines —
        their layout assumption holds."""
        redo = (
            self.since_ckpt
            if self.policy.checkpoint_usable_after_loss or world_preserved
            else self.completed
        )
        redo = min(redo, self.completed)
        for _ in range(redo):
            _, wall, compute = self.credited.pop()
            self.report.lost_wall_seconds += wall
            self.report.lost_compute_seconds += compute
        self.completed -= redo
        self.since_ckpt = 0
        self.report.iterations_redone += redo

    def reload_seconds(self, topology: Topology) -> float:
        """State-reload stall onto ``topology``: the lost shard for
        partial-reload policies, the full state for cold restarts."""
        reload_bytes = self.state_bytes
        if self.policy.partial_reload:
            reload_bytes /= len(topology.gpus())
        return reload_bytes / _uplink_bandwidth(topology)

    # -- world transitions (the recovery-policy vocabulary) ----------------

    def shrink(self, device: str, at: float) -> bool:
        """Drop ``device``, roll back per the checkpoint asymmetry,
        reload state, and re-plan onto the survivors — today's recovery
        path, extracted."""
        self.rollback()
        try:
            survivor = self.topo.without_device(device)
            survivor.validate()
            recovery = self.reload_seconds(survivor)
            self.topo = survivor
            self.plan = self.build_plan()
        except _RECOVERY_FAILURES as exc:
            self.fail(f"lost {device} at t={at:.4g}s: {exc}")
            return False
        self.report.replans += 1
        self.charge_recovery(recovery)
        return True

    def rejoin(self, device: str, at: float) -> bool:
        """Grow the world back: re-attach ``device`` with its original
        wiring, reload its (wiped) shard, re-plan.  A world-*size*
        change, so the rigid baselines roll back like on a loss."""
        spec = self.initial_topo.devices.get(device)
        if spec is None:
            return True  # a return for a device this world never had
        self.rollback()
        try:
            grown = self.topo.with_device(
                spec, self.initial_topo.device_links(device)
            )
            grown.validate()
            recovery = self.reload_seconds(grown)
            self.topo = grown
            self.plan = self.build_plan()
        except _RECOVERY_FAILURES as exc:
            self.fail(f"rejoin of {device} at t={at:.4g}s failed: {exc}")
            return False
        self.lost.discard(device)
        self.report.replans += 1
        self.report.rejoins += 1
        self.charge_recovery(recovery)
        return True

    def resume_full(self, device: str) -> bool:
        """wait-rejoin's happy path: the world never shrank, the plan
        is unchanged, the checkpoint stayed usable for every scheme —
        pay only the rejoiner's state reload (plus the stall already
        charged) and carry on."""
        self.rollback(world_preserved=True)
        try:
            recovery = self.reload_seconds(self.topo)
        except _RECOVERY_FAILURES as exc:
            self.fail(f"resume after {device} rejoin failed: {exc}")
            return False
        self.lost.discard(device)
        self.report.rejoins += 1
        self.charge_recovery(recovery)
        return True

    def substitute(self, device: str, spare: SpareDevice) -> bool:
        """Swap ``spare`` into ``device``'s position: same size, same
        shape, checkpoints stay usable; pay attach + shard reload and
        one re-plan (the device names changed)."""
        old = self.topo.devices.get(device)
        if old is None:
            self.fail(f"cannot substitute for unknown device {device!r}")
            return False
        self.rollback(world_preserved=True)
        try:
            swapped = self.topo.substitute(
                device,
                DeviceSpec(
                    spare.device, old.kind, old.memory_bytes,
                    old.flops_per_sec,
                ),
            )
            swapped.validate()
            recovery = (
                self.policy.spare_attach_seconds + self.reload_seconds(swapped)
            )
            self.topo = swapped
            self.plan = self.build_plan()
        except _RECOVERY_FAILURES as exc:
            self.fail(
                f"substituting spare {spare.device!r} for {device!r} "
                f"failed: {exc}"
            )
            return False
        self.report.replans += 1
        self.report.spares_used += 1
        self.charge_recovery(recovery)
        return True

    def claim_return(
        self, device: str, deadline: float
    ) -> DeviceReturn | None:
        """Consume the first pending return of ``device`` due by
        ``deadline`` (wait-rejoin's grace check)."""
        for ret in self.pending_returns:
            if ret.device == device and ret.at <= deadline:
                self.pending_returns.remove(ret)
                return ret
        return None

    def claim_spare(self) -> SpareDevice | None:
        """Consume the next cold standby, FIFO."""
        return self.spares.pop(0) if self.spares else None

    # -- loss handling -----------------------------------------------------

    def strike(self, device: str, at_global: float) -> bool:
        """Absorb losing ``device`` at global time ``at_global``:
        charge detection, ledger the incident, dispatch the recovery
        policy; returns False when the run is over."""
        # Consume the plan event that caused this strike: once the
        # device rejoins, a stale pending entry must not re-kill it
        # (a genuinely later second loss still will).
        for pending_loss in self.pending:
            if pending_loss.device == device and pending_loss.at <= at_global:
                self.pending.remove(pending_loss)
                break
        self.report.device_losses.append((device, at_global))
        self.lost.add(device)
        suspected, confirmed = self.detector.death(
            self.fault_plan, device, at_global
        )
        incident = IncidentReport(
            device=device, kind="loss", occurred_at=at_global,
            suspected_at=suspected, confirmed_at=confirmed,
            detector=self.detector.name,
        )
        self.report.incidents.append(incident)
        self.charge_recovery(max(0.0, confirmed - at_global))
        if not self.recovery.on_loss(self, device, at_global):
            return False
        incident.recovered_at = self.offset
        incident.action = self.recovery.name
        return True

    def drain_pending_events(self) -> bool:
        """Losses and returns whose global time already passed while no
        segment was running (checkpoint stalls, recovery windows,
        grace holds) still take effect — losses just abort no in-flight
        work, and returns re-bind at this boundary."""
        while True:
            loss = (
                self.pending[0]
                if self.pending and self.pending[0].at <= self.offset
                else None
            )
            ret = (
                self.pending_returns[0]
                if self.pending_returns
                and self.pending_returns[0].at <= self.offset
                else None
            )
            if loss is not None and (ret is None or loss.at <= ret.at):
                self.pending.popleft()
                if loss.device in self.lost or loss.device not in self.topo.devices:
                    continue
                if not self.strike(loss.device, loss.at):
                    return False
            elif ret is not None:
                self.pending_returns.pop(0)
                if ret.device not in self.lost:
                    continue
                if not self.recovery.on_return(self, ret):
                    return False
            else:
                return True

    # -- the loop ----------------------------------------------------------

    def run_segment(self, index: int) -> bool:
        injector = FaultInjector(
            self.fault_plan, self.policy,
            offset=self.offset, rng=self.rng, lost=self.lost,
        )
        executor = Executor(
            self.topo, self.plan, cost_model=self.config.cost_model,
            options=ExecOptions(prefetch=self.config.prefetch, injector=injector),
        )
        try:
            result = executor.run()
        except DeviceLostError as exc:
            partial = executor.partial_result()
            self.absorb_stats(partial)
            self.report.segments.append(SegmentReport(
                index=index, iteration=self.completed, result=partial,
                plan=self.plan, topology=self.topo,
                started_at=self.offset, duration=exc.at,
                aborted=True, lost_device=exc.device,
            ))
            self.report.lost_wall_seconds += exc.at
            self.report.lost_compute_seconds += _compute_seconds(partial)
            self.offset += exc.at
            self.last_result = partial
            return self.strike(exc.device, self.offset)
        except _RECOVERY_FAILURES as exc:
            self.fail(str(exc))
            return False

        self.absorb_stats(result)
        self.report.segments.append(SegmentReport(
            index=index, iteration=self.completed, result=result,
            plan=self.plan, topology=self.topo,
            started_at=self.offset, duration=result.makespan,
        ))
        self.offset += result.makespan
        self.credited.append(
            (result.samples, result.makespan, _compute_seconds(result))
        )
        self.completed += 1
        self.since_ckpt += 1
        self.last_result = result

        # Periodic checkpoint: stream training state to host DRAM over
        # the uplink.  Skipped after the final iteration — there is no
        # more work a restart could need it for.
        if (
            self.policy.checkpoint_every > 0
            and self.since_ckpt >= self.policy.checkpoint_every
            and self.completed < self.iterations
        ):
            cost = self.state_bytes / _uplink_bandwidth(self.topo)
            self.report.checkpoints += 1
            self.report.checkpoint_seconds += cost
            self.offset += cost
            self.since_ckpt = 0
        return True

    def collect_suspicions(self) -> None:
        """Post-run scan of every initial GPU's heartbeat stream up to
        the run's end: counts the emissions scanned, and ledgers the
        episodes that never confirmed — the straggler-induced false
        positives.  Confirmed deaths were already ledgered by
        :meth:`strike` (same pure functions, same times), so only
        exonerated episodes are added here."""
        horizon = self.report.total_makespan
        for gpu in self.initial_topo.gpus():
            beats, episodes = self.detector.scan(
                self.fault_plan, gpu.name, horizon
            )
            self.report.heartbeats_observed += beats
            for ep in episodes:
                if not ep.false_positive:
                    continue
                self.report.incidents.append(IncidentReport(
                    device=ep.device, kind="suspicion",
                    occurred_at=ep.suspected_at,
                    suspected_at=ep.suspected_at,
                    exonerated_at=ep.exonerated_at,
                    false_positive=True,
                    detector=self.detector.name,
                ))

    def execute(self) -> RunResult:
        self.fault_free_reference()
        # Finite by construction (each loss strikes once, each return
        # rejoins at most once), but guard the loop against accounting
        # bugs turning it into a spin.
        max_segments = (self.iterations + 1) * (
            len(self.pending) + len(self.pending_returns) + 2
        )
        index = 0
        while self.completed < self.iterations and self.report.recovered:
            if index >= max_segments:
                raise FaultError(
                    f"resilient run exceeded {max_segments} segments for "
                    f"{self.iterations} iteration(s); accounting bug?"
                )
            if not self.drain_pending_events():
                break
            if not self.run_segment(index):
                break
            index += 1

        self.report.total_makespan = self.offset
        self.report.samples = sum(s for s, _, _ in self.credited)
        self.collect_suspicions()
        self.report.incidents.sort(key=lambda i: (i.suspected_at, i.device))
        result = replace(
            self.last_result,
            makespan=self.report.total_makespan,
            samples=self.report.samples,
        )
        result.faults = self.report
        return result


def run_resilient(
    model: ModelGraph,
    topology: Topology,
    config: "HarmonyConfig",
    fault_plan: FaultPlan,
    policy: ResiliencePolicy | None = None,
    iterations: int = 1,
) -> RunResult:
    """Execute ``iterations`` under ``fault_plan`` with checkpointing,
    retries, failure detection, and policy-driven recovery; never
    raises on an injected fault — inspect ``result.faults.recovered``.
    Deterministic: the same (model, topology, config, fault_plan,
    policy) replays byte-identically.

    Every segment simulates one iteration, so nothing is ever
    fast-forwarded: ``result.steady`` records the veto, and a
    ``force`` steady-state mode in ``config`` is a
    :class:`~repro.errors.ConfigError`."""
    mode = resolve_mode(config.steady_state)
    if mode is SteadyMode.FORCE:
        raise ConfigError(
            "steady-state 'force' is incompatible with fault injection: "
            "fault windows veto fast-forward"
        )
    result = _ResilientRun(
        model, topology, config, fault_plan, policy, iterations
    ).execute()
    result.steady = SteadyReport(
        mode=mode.value, live_iterations=iterations,
        vetoes=("fault-injection",),
    )
    return result
