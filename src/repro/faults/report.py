"""Fault accounting: what the faults cost, segment by segment.

A resilient run executes as a sequence of *segments* — one per
iteration attempt, each its own discrete-event simulation — separated
by checkpoint stalls and recovery windows.  :class:`SegmentReport`
keeps each segment's artifacts (result, plan, topology, global start
time) so the audit layer can re-check faulty runs; :class:`FaultReport`
aggregates them into the quantities the degradation experiments plot:
lost work, retried bytes, recovery time, and goodput versus the
fault-free makespan.

:class:`IncidentReport` is the per-incident ledger the detection and
recovery layers fill: when a device was suspected, confirmed,
exonerated (false positives), and recovered, and which policy acted —
the raw material for the MTTR x policy x scheme tables.  Reports have
no wire format of their own: what crosses a worker pipe or lands in a
journal is pickled, and the fault sweeps reduce each report to its
table row in the worker first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.units import GB, fmt_time

if TYPE_CHECKING:
    from repro.faults.model import FaultPlan
    from repro.faults.resilience import ResiliencePolicy
    from repro.hardware.topology import Topology
    from repro.sim.plan import Plan
    from repro.sim.result import RunResult


@dataclass
class SegmentReport:
    """One executed segment (an iteration attempt) of a resilient run."""

    index: int
    iteration: int
    result: "RunResult"
    plan: "Plan"
    topology: "Topology"
    started_at: float            # global time the segment began
    duration: float              # wall time the segment consumed
    aborted: bool = False
    lost_device: str | None = None

    @property
    def completed(self) -> bool:
        return not self.aborted


@dataclass
class IncidentReport:
    """One device incident through the detect -> recover lifecycle.

    ``kind`` is ``"loss"`` for a real :class:`DeviceLoss` and
    ``"suspicion"`` for a detector episode that never confirmed
    (always ``false_positive=True``).  Times are global simulated
    seconds; ``None`` means the stage never happened.
    """

    device: str
    kind: str
    #: When the underlying event physically happened (the loss time,
    #: or the start of the suspicious silence for a false positive).
    occurred_at: float
    suspected_at: float
    confirmed_at: float | None = None
    exonerated_at: float | None = None
    recovered_at: float | None = None
    #: Recovery-policy name that handled the confirmed loss.
    action: str | None = None
    false_positive: bool = False
    #: Name of the detector (:data:`~repro.faults.detection.
    #: DETECTOR_REGISTRY`) behind the incident; ``"none"`` confirms a
    #: loss the instant it strikes.
    detector: str = "none"

    @property
    def mttr(self) -> float | None:
        """Time from the physical loss to recovery completing (the
        world running again), ``None`` while unrecovered or for false
        positives."""
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.occurred_at


@dataclass
class FaultReport:
    """Aggregate outcome of a resilient (fault-injected) run."""

    plan: "FaultPlan"
    policy: "ResiliencePolicy"
    segments: list[SegmentReport] = field(default_factory=list)
    #: (device, global time) for every loss that actually struck.
    device_losses: list[tuple[str, float]] = field(default_factory=list)
    #: Times ``build_scheduler`` was re-invoked mid-run on survivors.
    replans: int = 0
    #: Iterations that had completed but were rolled back by a loss.
    iterations_redone: int = 0
    #: Wall-clock lost to rolled-back work (completed-but-rolled-back
    #: iterations plus the partial iteration in flight at each loss).
    lost_wall_seconds: float = 0.0
    #: Compute-seconds of traced work discarded by losses.
    lost_compute_seconds: float = 0.0
    #: Bytes re-sent after transient transfer failures (wire time the
    #: failed attempts wasted; also in each segment's SwapStats ledger).
    retried_bytes: float = 0.0
    retry_events: int = 0
    checkpoints: int = 0
    checkpoint_seconds: float = 0.0
    #: Detection + state-reload + spare-attach time across recoveries.
    recovery_seconds: float = 0.0
    #: Deliberate waits (wait-rejoin grace holds): the world stalled on
    #: purpose, distinct from recovery work.
    stall_seconds: float = 0.0
    #: Per-incident detection/recovery lifecycle records, ordered by
    #: suspicion time.
    incidents: list[IncidentReport] = field(default_factory=list)
    #: Lost devices that rejoined the world (DeviceReturn honored).
    rejoins: int = 0
    #: Cold standbys substituted in for dead devices.
    spares_used: int = 0
    #: Heartbeat emissions the detector scanned: every initial GPU's
    #: stream up to ``total_makespan``, 0 under the ``none`` detector.
    heartbeats_observed: int = 0
    #: Makespan of the same config with no faults injected.
    fault_free_makespan: float = 0.0
    #: End-to-end wall-clock of the faulty run (segments + checkpoints
    #: + recoveries).
    total_makespan: float = 0.0
    #: Samples from iterations that were credited (completed and never
    #: rolled back).
    samples: int = 0
    fault_free_samples: int = 0
    recovered: bool = True
    failure_reason: str | None = None

    # -- derived metrics ---------------------------------------------------

    @property
    def goodput(self) -> float:
        """Credited samples per second of total wall-clock."""
        if self.total_makespan <= 0:
            return 0.0
        return self.samples / self.total_makespan

    @property
    def fault_free_goodput(self) -> float:
        if self.fault_free_makespan <= 0:
            return 0.0
        return self.fault_free_samples / self.fault_free_makespan

    @property
    def goodput_ratio(self) -> float:
        """Faulty goodput relative to fault-free (1.0 = unhurt; the
        degradation-gracefulness metric the sweep compares)."""
        if self.fault_free_goodput <= 0:
            return 0.0
        return self.goodput / self.fault_free_goodput

    @property
    def overhead_seconds(self) -> float:
        """Wall-clock added by faults and fault-tolerance machinery."""
        return self.total_makespan - self.fault_free_makespan

    def mttr_values(self) -> list[float]:
        """Per-incident mean-time-to-repair samples (recovered losses
        only), sorted — feed of the MTTR p50/p95 columns."""
        return sorted(
            i.mttr for i in self.incidents if i.mttr is not None
        )

    def false_positives(self) -> list[IncidentReport]:
        return [i for i in self.incidents if i.false_positive]

    def summary(self) -> str:
        lines = [
            (
                f"fault report: {len(self.device_losses)} device loss(es), "
                f"{self.replans} re-plan(s), "
                + ("recovered" if self.recovered else
                   f"RECOVERY FAILED ({self.failure_reason})")
            ),
            (
                f"  makespan {fmt_time(self.total_makespan)} vs fault-free "
                f"{fmt_time(self.fault_free_makespan)} "
                f"(goodput ratio {self.goodput_ratio:.3f})"
            ),
            (
                f"  lost work {fmt_time(self.lost_wall_seconds)} wall / "
                f"{fmt_time(self.lost_compute_seconds)} compute, "
                f"{self.iterations_redone} iteration(s) redone"
            ),
            (
                f"  retries {self.retry_events} ({self.retried_bytes / GB:.3f} GB "
                f"re-sent), checkpoints {self.checkpoints} "
                f"({fmt_time(self.checkpoint_seconds)}), recovery "
                f"{fmt_time(self.recovery_seconds)}"
            ),
        ]
        if self.stall_seconds or self.rejoins or self.spares_used:
            lines.append(
                f"  policy {self.policy.recovery}: "
                f"{self.rejoins} rejoin(s), {self.spares_used} spare(s) "
                f"used, {fmt_time(self.stall_seconds)} stalled waiting"
            )
        for dev, t in self.device_losses:
            lines.append(f"  lost {dev} at t={t:.4g}s")
        for inc in self.false_positives():
            lines.append(
                f"  false positive: {inc.device} suspected at "
                f"t={inc.suspected_at:.4g}s, exonerated at "
                f"t={inc.exonerated_at:.4g}s ({inc.detector})"
            )
        return "\n".join(lines)
