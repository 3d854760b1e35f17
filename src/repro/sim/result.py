"""Run results: the metrics every experiment reads off a simulation.

A :class:`RunResult` carries the three quantities the paper's figures
plot — throughput (Fig. 2(a)), swap volume (Fig. 2(a), §3 analysis),
and per-device memory footprint (Fig. 2(c)) — plus the trace and link
utilizations for diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.memory.stats import SwapStats

if TYPE_CHECKING:
    from repro.faults.report import FaultReport
    from repro.steady import SteadyReport
    from repro.validate.violations import AuditReport
from repro.sim.trace import Trace
from repro.units import GB, fmt_bytes, fmt_time
from repro.util.tables import Table


@dataclass(frozen=True)
class DeviceReport:
    """Per-device outcome of a run."""

    name: str
    capacity: float
    peak_used: float
    peak_demand: float
    compute_busy: float
    swap_in_bytes: float
    swap_out_bytes: float
    #: High-water mark of non-persistent (activation-class) bytes
    #: resident on the device — the per-stage footprint pipeline
    #: schedules bound (1F1B's in-flight cap, DAPPLE's early backward).
    peak_activation: float = 0.0

    @property
    def overflow_bytes(self) -> float:
        """How far the device's live footprint exceeded its capacity —
        the amount that *must* swap (Fig. 2(c)'s above-the-line bars)."""
        return max(0.0, self.peak_demand - self.capacity)

    @property
    def swap_pressure(self) -> str:
        """Qualitative label matching Fig. 2(c)'s annotations."""
        if self.overflow_bytes <= 0:
            return "no swap"
        if self.overflow_bytes < 0.25 * self.capacity:
            return "light swap"
        return "heavy swap"


@dataclass
class RunResult:
    label: str
    makespan: float
    samples: int
    stats: SwapStats
    trace: Trace
    devices: dict[str, DeviceReport]
    link_busy: dict[str, float] = field(default_factory=dict)
    num_tasks: int = 0
    #: Engine events executed to produce this result — the numerator of
    #: the benchmark harness's events/sec metric (see ``repro.perf``).
    events_processed: int = 0
    #: Per-device (time, bytes-resident) samples taken at every
    #: allocation/eviction — the memory-usage-over-time curve.  Only the
    #: live iterations are sampled: a fast-forwarded run (see
    #: :mod:`repro.steady`) has none for the iterations it skipped.
    memory_profile: dict[str, list[tuple[float, float]]] = field(
        default_factory=dict
    )
    #: Physical-consistency audit outcome, set when the run executed
    #: with ``ExecOptions.audit`` (see :mod:`repro.validate`).
    audit: "AuditReport | None" = None
    #: Fault-injection accounting, set when the run executed under a
    #: :class:`~repro.faults.model.FaultPlan` (see :mod:`repro.faults`).
    #: For a resilient run this is the aggregate over all segments and
    #: the other fields describe the final executed segment.
    faults: "FaultReport | None" = None
    #: Steady-state fast-forward accounting (see :mod:`repro.steady`),
    #: set by every finished run (a one-iteration run reports nothing
    #: skipped); a resilient fault run records the fast-forward veto.
    #: Only :meth:`Executor.partial_result` leaves it ``None``.
    steady: "SteadyReport | None" = None

    @property
    def throughput(self) -> float:
        """Samples per second (the paper's seqs/sec for BERT)."""
        if self.makespan <= 0:
            return 0.0
        return self.samples / self.makespan

    @property
    def goodput(self) -> float:
        """*Credited* samples per second of end-to-end wall-clock.  For
        a fault-injected run this excludes rolled-back work and counts
        checkpoint, detection, recovery, and stall time in the
        denominator (the MTTR sweep's quality axis); for a healthy run
        goodput equals throughput."""
        if self.faults is not None:
            return self.faults.goodput
        return self.throughput

    def activation_peaks(self) -> dict[str, float]:
        """Per-device peak activation-class residency, sorted by device
        name — the per-stage memory axis of the schedule-zoo figure."""
        return {
            name: self.devices[name].peak_activation
            for name in sorted(self.devices)
        }

    @property
    def swap_out_volume(self) -> float:
        """Global swap-out volume per iteration — Fig. 2(a)'s right axis."""
        return self.stats.swap_out_volume()

    @property
    def host_traffic(self) -> float:
        return self.stats.host_traffic()

    def bottleneck_link(self) -> tuple[str, float]:
        """The busiest link and its utilization over the makespan."""
        if not self.link_busy or self.makespan <= 0:
            return ("none", 0.0)
        name = max(self.link_busy, key=lambda k: self.link_busy[k])
        return name, min(1.0, self.link_busy[name] / self.makespan)

    def memory_sparkline(self, device: str, width: int = 80) -> str:
        """Render one device's memory usage over time as an ASCII
        sparkline (8 levels, scaled to device capacity)."""
        samples = self.memory_profile.get(device, [])
        if not samples:
            return "(no memory samples)"
        capacity = self.devices[device].capacity if device in self.devices else 0.0
        if capacity <= 0:
            # CPU/host pseudo-devices report zero capacity; scale to the
            # observed peak instead (or a flat line if nothing was used).
            capacity = max(used for _, used in samples)
        if capacity <= 0:
            capacity = 1.0
        glyphs = " .:-=+*#"
        if self.makespan <= 0:
            # A zero-length run (e.g. everything was free): the profile
            # is a single instant; render it as a flat line.
            buckets = [samples[-1][1]] * width
        else:
            buckets = [0.0] * width
            # Carry the last-seen level forward across buckets.
            level = 0.0
            idx = 0
            for i in range(width):
                t_hi = (i + 1) / width * self.makespan
                while idx < len(samples) and samples[idx][0] <= t_hi:
                    level = samples[idx][1]
                    idx += 1
                buckets[i] = level
        line = "".join(
            glyphs[min(len(glyphs) - 1, int(b / capacity * (len(glyphs) - 1)))]
            for b in buckets
        )
        return f"{device} mem |{line}| 0..{fmt_bytes(capacity)}"

    def summary(self) -> str:
        table = Table(
            ["device", "cap", "peak used", "peak demand", "pressure",
             "swap in", "swap out", "busy%"],
            title=(
                f"{self.label}: {fmt_time(self.makespan)}/iter, "
                f"{self.throughput:.3g} samples/s, "
                f"swap-out {self.swap_out_volume / GB:.2f} GB"
            ),
        )
        for name in sorted(self.devices):
            d = self.devices[name]
            busy = 100 * d.compute_busy / self.makespan if self.makespan else 0
            table.add_row(
                [
                    name,
                    fmt_bytes(d.capacity),
                    fmt_bytes(d.peak_used),
                    fmt_bytes(d.peak_demand),
                    d.swap_pressure,
                    fmt_bytes(d.swap_in_bytes),
                    fmt_bytes(d.swap_out_bytes),
                    f"{busy:.0f}",
                ]
            )
        return table.render()
