"""Failure detection: heartbeats, suspicion, confirmation, exoneration.

Real runtimes never observe "the GPU died at t" — they observe silence.
Each device emits a heartbeat every ``interval`` simulated seconds; a
:class:`ComputeStraggler` window stretches the spacing by its slowdown
(the throttled device services its heartbeat timer late, exactly like
its kernels), and a :class:`DeviceLoss` silences the device for good.
A *detector* watches the gaps and moves each device through the
suspicion lifecycle::

    healthy --(gap exceeds threshold)--> suspected
    suspected --(heartbeat arrives)----> exonerated   (false positive)
    suspected --(confirm window passes)-> confirmed dead -> recovery

Two detectors ship in :data:`DETECTOR_REGISTRY`, mirroring the
scheduler zoo's registry discipline:

``fixed-timeout``
    Suspects after a constant silence (``timeout`` seconds).  Simple,
    but a straggler slower than ``timeout / interval`` false-positives
    on *every* stretched gap.
``phi-accrual``
    Adaptive, in the spirit of the phi-accrual detector: the suspicion
    threshold is ``phi_threshold`` times the mean of the last
    ``window`` observed gaps.  The first stretched gap of a straggler
    window still trips it (nothing has been learned yet), but the
    stretched gap then enters the window, the mean rises, and
    subsequent stretched gaps pass — one deterministic false positive,
    then adaptation.

Everything here is a pure function of the :class:`FaultPlan` and the
:class:`DetectorConfig`, so suspicion times replay byte-identically
under the plan's seed.  The :class:`HeartbeatMonitor` additionally
arms the emissions as *daemon* events on each segment's engine (they
tick only while real work runs, like every other injected event), so
heartbeats genuinely flow through the simulation and are ledgered in
the :class:`~repro.faults.report.FaultReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Iterable

from repro.errors import ConfigError
from repro.faults.model import FaultPlan

if TYPE_CHECKING:
    from repro.sim.engine import Engine


@dataclass(frozen=True)
class DetectorConfig:
    """Heartbeat and detector knobs.

    Zero-valued timing fields mean "derive from the workload": the
    resilient runner calls :meth:`resolve` with the fault-free
    iteration time, which fills ``interval`` with a quarter iteration,
    ``timeout`` with four intervals, and ``confirm`` with two — so one
    config works across models without hand-tuning absolute seconds.
    """

    kind: str = "fixed-timeout"
    #: Heartbeat period, simulated seconds (0 -> iteration time / 4).
    interval: float = 0.0
    #: fixed-timeout: silence that triggers suspicion (0 -> 4x interval).
    timeout: float = 0.0
    #: Suspicion -> confirmed-dead wait (0 -> 2x interval).
    confirm: float = 0.0
    #: phi-accrual: suspect when a gap exceeds this multiple of the
    #: mean recent gap.
    phi_threshold: float = 3.0
    #: phi-accrual: how many recent gaps the mean adapts over.
    window: int = 8

    def __post_init__(self) -> None:
        for field_name in ("interval", "timeout", "confirm"):
            if getattr(self, field_name) < 0:
                raise ConfigError(
                    f"DetectorConfig.{field_name} must be >= 0, got "
                    f"{getattr(self, field_name)}"
                )
        if self.phi_threshold <= 1.0:
            raise ConfigError(
                f"DetectorConfig.phi_threshold must be > 1 (a threshold at "
                f"or below the expected gap suspects healthy devices), got "
                f"{self.phi_threshold}"
            )
        if self.window < 1:
            raise ConfigError(
                f"DetectorConfig.window must be >= 1, got {self.window}"
            )

    def resolve(self, iteration_time: float) -> "DetectorConfig":
        """Fill derived defaults from the fault-free iteration time."""
        if iteration_time <= 0:
            raise ConfigError(
                f"iteration time must be positive to derive heartbeat "
                f"timing, got {iteration_time}"
            )
        interval = self.interval if self.interval > 0 else iteration_time / 4.0
        return replace(
            self,
            interval=interval,
            timeout=self.timeout if self.timeout > 0 else 4.0 * interval,
            confirm=self.confirm if self.confirm > 0 else 2.0 * interval,
        )

    @property
    def resolved(self) -> bool:
        return self.interval > 0 and self.timeout > 0 and self.confirm > 0


class FixedTimeoutDetector:
    """Suspect after a constant silence, however noisy the device."""

    name = "fixed-timeout"

    def __init__(self, config: DetectorConfig):
        self.config = config

    def threshold(self, gaps: list[float]) -> float:
        """Silence after the last heartbeat that triggers suspicion."""
        return self.config.timeout


class PhiAccrualDetector:
    """Adaptive suspicion: threshold tracks the observed gap mean."""

    name = "phi-accrual"

    def __init__(self, config: DetectorConfig):
        self.config = config

    def threshold(self, gaps: list[float]) -> float:
        recent = gaps[-self.config.window:]
        expected = (
            sum(recent) / len(recent) if recent else self.config.interval
        )
        return self.config.phi_threshold * expected


#: Detector name -> class.  Mirrors ``SCHEDULER_REGISTRY``: the CLI,
#: docs table, and tests enumerate this instead of hardcoding names.
DETECTOR_REGISTRY: dict[str, type] = {
    FixedTimeoutDetector.name: FixedTimeoutDetector,
    PhiAccrualDetector.name: PhiAccrualDetector,
}


def detector_names() -> tuple[str, ...]:
    return tuple(DETECTOR_REGISTRY)


def build_detector(config: DetectorConfig):
    cls = DETECTOR_REGISTRY.get(config.kind)
    if cls is None:
        raise ConfigError(
            f"unknown detector {config.kind!r}; valid detectors: "
            + ", ".join(detector_names())
        )
    if not config.resolved:
        raise ConfigError(
            "DetectorConfig must be resolved (call resolve(iteration_time)) "
            "before building a detector"
        )
    return cls(config)


# -- the deterministic heartbeat stream ---------------------------------------


def straggler_factor(plan: FaultPlan, device: str, t: float) -> float:
    """Combined slowdown of every straggler window active on ``device``
    at global time ``t`` (1.0 when healthy)."""
    factor = 1.0
    for s in plan.stragglers():
        if s.device == device and s.active(t):
            factor *= s.slowdown
    return factor


def heartbeat_times(
    plan: FaultPlan, device: str, horizon: float, interval: float
) -> list[float]:
    """Global emission times for ``device``'s heartbeats up to
    ``horizon``: every ``interval`` seconds, stretched by the straggler
    slowdown active when the timer starts, silenced forever at the
    device's :class:`DeviceLoss` (if any).  Pure and deterministic."""
    if interval <= 0:
        raise ConfigError(f"heartbeat interval must be positive, got {interval}")
    died_at = min(
        (l.at for l in plan.device_losses() if l.device == device),
        default=math.inf,
    )
    times = [0.0]
    t = 0.0
    while True:
        t += interval * straggler_factor(plan, device, t)
        if t >= died_at or t > horizon:
            break
        times.append(t)
    return times


@dataclass(frozen=True)
class SuspicionEpisode:
    """One pass of a device through the suspicion lifecycle."""

    device: str
    suspected_at: float
    #: Heartbeat resumed: the suspicion was a false positive.
    exonerated_at: float | None = None
    #: Silence outlived the confirm window: declared dead.
    confirmed_at: float | None = None

    @property
    def false_positive(self) -> bool:
        return self.exonerated_at is not None


def scan_device(
    plan: FaultPlan, device: str, config: DetectorConfig, horizon: float
) -> list[SuspicionEpisode]:
    """Run the detector over ``device``'s heartbeat stream up to
    ``horizon``: every gap that exceeds the (possibly adaptive)
    threshold opens a suspicion episode, exonerated when the next
    heartbeat lands; a device that goes permanently silent gets a
    trailing episode confirmed ``config.confirm`` after suspicion."""
    detector = build_detector(config)
    died_at = min(
        (l.at for l in plan.device_losses() if l.device == device),
        default=math.inf,
    )
    emissions = heartbeat_times(plan, device, horizon, config.interval)
    episodes: list[SuspicionEpisode] = []
    gaps: list[float] = []
    for prev, nxt in zip(emissions, emissions[1:]):
        gap = nxt - prev
        limit = detector.threshold(gaps)
        if gap > limit:
            episodes.append(SuspicionEpisode(
                device, suspected_at=prev + limit, exonerated_at=nxt,
            ))
        # The stretched gap enters the history either way: this is the
        # adaptation that stops phi-accrual re-suspecting a straggler.
        gaps.append(gap)
    if died_at < math.inf and died_at <= horizon:
        suspected = emissions[-1] + detector.threshold(gaps)
        episodes.append(SuspicionEpisode(
            device, suspected_at=suspected,
            confirmed_at=suspected + config.confirm,
        ))
    return episodes


def death_detection(
    plan: FaultPlan, device: str, died_at: float, config: DetectorConfig
) -> tuple[float, float]:
    """(suspected_at, confirmed_at) for a device that dies at global
    ``died_at``: silence after the last pre-death heartbeat trips the
    (possibly adapted) threshold, and the confirm window seals it."""
    detector = build_detector(config)
    emissions = heartbeat_times(plan, device, died_at, config.interval)
    gaps = [b - a for a, b in zip(emissions, emissions[1:])]
    # Feed the detector only the gaps it had fully observed pre-death.
    suspected = emissions[-1] + detector.threshold(gaps)
    return suspected, suspected + config.confirm


def detection_latency(
    plan: FaultPlan, device: str, died_at: float, config: DetectorConfig
) -> float:
    """Seconds between the physical loss and the detector *confirming*
    it — what the scalar ``ResiliencePolicy.detection_delay`` becomes
    once detection is simulated.  A device already under (false)
    suspicion when it dies is confirmed faster, so the latency is
    clamped at zero rather than going negative."""
    _, confirmed = death_detection(plan, device, died_at, config)
    return max(0.0, confirmed - died_at)


# -- heartbeats as daemon engine events ---------------------------------------


class HeartbeatMonitor:
    """Arms per-device heartbeat emissions on each segment's engine.

    Emissions are daemon events: they tick only while non-daemon work
    remains, so a drained segment never idles waiting on heartbeats.
    The monitor is a run-scoped ledger — ``observed`` accumulates
    ``(device, global time)`` across every segment, and the shared
    ``lost`` set (the resilient runner's) keeps dead devices silent in
    later segments.  Decisions come from the pure scan above; the
    monitor exists so the heartbeat traffic is *real* in the
    simulation and auditable after it.
    """

    def __init__(
        self, plan: FaultPlan, config: DetectorConfig, lost: set[str],
    ):
        if not config.resolved:
            raise ConfigError(
                "HeartbeatMonitor needs a resolved DetectorConfig"
            )
        self.plan = plan
        self.config = config
        self.lost = lost  # shared with the resilient runner, not copied
        self.observed: list[tuple[str, float]] = []

    def arm(
        self, engine: "Engine", devices: Iterable[str], offset: float
    ) -> None:
        for device in sorted(devices):
            if device in self.lost:
                continue
            self._schedule(engine, device, offset, 0.0)

    def _schedule(
        self, engine: "Engine", device: str, offset: float, local: float
    ) -> None:
        engine.at(local, partial(self._beat, engine, device, offset), daemon=True)

    def _beat(self, engine: "Engine", device: str, offset: float) -> None:
        # Each emission schedules a fresh partial for the next: a beat
        # that re-queued itself would hold a reference to itself.
        now_global = offset + engine.now
        self.observed.append((device, now_global))
        gap = self.config.interval * straggler_factor(
            self.plan, device, now_global
        )
        engine.after(
            gap, partial(self._beat, engine, device, offset), daemon=True
        )
