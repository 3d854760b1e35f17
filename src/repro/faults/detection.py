"""Failure detection: heartbeats, suspicion, confirmation, exoneration.

Real runtimes never observe "the GPU died at t" — they observe silence.
Each device emits a heartbeat every ``interval`` simulated seconds; a
:class:`ComputeStraggler` window stretches the spacing by its slowdown
(the throttled device services its heartbeat timer late, exactly like
its kernels), and a :class:`DeviceLoss` silences the device until its
next :class:`DeviceReturn` (for good if it never returns).
A *detector* watches the gaps and moves each device through the
suspicion lifecycle::

    healthy --(gap exceeds threshold)--> suspected
    suspected --(heartbeat arrives)----> exonerated   (false positive)
    suspected --(confirm window passes)-> confirmed dead -> recovery

Three detectors ship in :data:`DETECTOR_REGISTRY`, mirroring the
scheduler zoo's registry discipline:

``none``
    The oracle: a loss is confirmed the instant it strikes.  No device
    emits heartbeats, so nothing is ever suspected, and no timing is
    derived.  ``ResiliencePolicy``'s default.
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
under the plan's seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.faults.model import FaultPlan, straggler_factor


@dataclass(frozen=True)
class DetectorConfig:
    """Heartbeat and detector knobs.

    Zero-valued timing fields mean "derive from the workload": the
    resilient runner builds its detector with the fault-free iteration
    time, and a heartbeat detector :meth:`resolve`-s against it, which
    fills ``interval`` with a quarter iteration, ``timeout`` with four
    intervals, and ``confirm`` with two — so one config works across
    models without hand-tuning absolute seconds.
    """

    #: Name in :data:`DETECTOR_REGISTRY`.
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


class NoDetector:
    """The oracle: every loss is confirmed the instant it strikes.

    No device emits heartbeats, so nothing is scanned or suspected, and
    the config's timing (resolved or not) is never read."""

    name = "none"

    def __init__(
        self, config: DetectorConfig, iteration_time: float | None = None
    ):
        self.config = config

    def death(
        self, plan: FaultPlan, device: str, died_at: float
    ) -> tuple[float, float]:
        return died_at, died_at

    def scan(
        self, plan: FaultPlan, device: str, horizon: float
    ) -> tuple[int, list["SuspicionEpisode"]]:
        return 0, []


class _HeartbeatDetector:
    """Watches one device's heartbeat stream (:func:`heartbeat_times`);
    subclasses choose the silence that triggers suspicion."""

    name: str

    def __init__(
        self, config: DetectorConfig, iteration_time: float | None = None
    ):
        if iteration_time is not None:
            config = config.resolve(iteration_time)
        if not config.resolved:
            raise ConfigError(
                "DetectorConfig must be resolved (call resolve(iteration_time), "
                "or pass the iteration time to build_detector)"
            )
        self.config = config

    def threshold(self, gaps: list[float]) -> float:
        """Silence after the last heartbeat that triggers suspicion,
        given the gaps observed so far."""
        raise NotImplementedError

    def _confirmed(
        self, device: str, last_beat: float, gaps: list[float]
    ) -> "SuspicionEpisode":
        suspected = last_beat + self.threshold(gaps)
        return SuspicionEpisode(
            device, suspected_at=suspected,
            confirmed_at=suspected + self.config.confirm,
        )

    def _watch(
        self, plan: FaultPlan, device: str, horizon: float
    ) -> tuple[list[float], list["SuspicionEpisode"], list[float]]:
        """(heartbeats, episodes, gap history) on ``device``'s stream up
        to ``horizon``.  A gap that exceeds the (possibly adaptive)
        threshold opens an episode, exonerated by the heartbeat that
        ends it; a gap that spans a loss is that loss's episode,
        confirmed ``config.confirm`` after suspicion, and stays out of
        the history (the silence was a death, not a slow beat)."""
        losses = [l.at for l in plan.device_losses() if l.device == device]
        emissions = heartbeat_times(plan, device, horizon, self.config.interval)
        episodes: list[SuspicionEpisode] = []
        gaps: list[float] = []
        for prev, nxt in zip(emissions, emissions[1:]):
            if any(prev < at <= nxt for at in losses):
                episodes.append(self._confirmed(device, prev, gaps))
                continue
            gap = nxt - prev
            limit = self.threshold(gaps)
            if gap > limit:
                episodes.append(SuspicionEpisode(
                    device, suspected_at=prev + limit, exonerated_at=nxt,
                ))
            # The stretched gap enters the history either way: this is the
            # adaptation that stops phi-accrual re-suspecting a straggler.
            gaps.append(gap)
        return emissions, episodes, gaps

    def death(
        self, plan: FaultPlan, device: str, died_at: float
    ) -> tuple[float, float]:
        """(suspected_at, confirmed_at) for a device that dies at global
        ``died_at``: silence after the last pre-death heartbeat trips the
        (possibly adapted) threshold, and the confirm window seals it."""
        emissions, _, gaps = self._watch(plan, device, died_at)
        # Feed the detector only the gaps it had fully observed pre-death.
        episode = self._confirmed(device, emissions[-1], gaps)
        return episode.suspected_at, episode.confirmed_at

    def scan(
        self, plan: FaultPlan, device: str, horizon: float
    ) -> tuple[int, list["SuspicionEpisode"]]:
        """(heartbeats emitted, suspicion episodes) on ``device``'s
        stream up to ``horizon`` (see :meth:`_watch`); a device silent
        from a loss to the horizon gets a trailing confirmed episode."""
        emissions, episodes, gaps = self._watch(plan, device, horizon)
        if any(
            emissions[-1] < l.at <= horizon
            for l in plan.device_losses() if l.device == device
        ):
            episodes.append(self._confirmed(device, emissions[-1], gaps))
        return len(emissions), episodes


class FixedTimeoutDetector(_HeartbeatDetector):
    """Suspect after a constant silence, however noisy the device."""

    name = "fixed-timeout"

    def threshold(self, gaps: list[float]) -> float:
        return self.config.timeout


class PhiAccrualDetector(_HeartbeatDetector):
    """Adaptive suspicion: threshold tracks the observed gap mean."""

    name = "phi-accrual"

    def threshold(self, gaps: list[float]) -> float:
        recent = gaps[-self.config.window:]
        expected = (
            sum(recent) / len(recent) if recent else self.config.interval
        )
        return self.config.phi_threshold * expected


#: Detector name -> class.  Mirrors ``SCHEDULER_REGISTRY``: the CLI,
#: docs table, and tests enumerate this instead of hardcoding names.
DETECTOR_REGISTRY: dict[str, type] = {
    NoDetector.name: NoDetector,
    FixedTimeoutDetector.name: FixedTimeoutDetector,
    PhiAccrualDetector.name: PhiAccrualDetector,
}


def detector_names() -> tuple[str, ...]:
    return tuple(DETECTOR_REGISTRY)


def build_detector(
    config: DetectorConfig, iteration_time: float | None = None
):
    """The detector ``config.kind`` names.  Heartbeat detectors fill
    unset timing from the fault-free ``iteration_time``
    (:meth:`DetectorConfig.resolve`); without one, ``config`` must
    already be resolved."""
    cls = DETECTOR_REGISTRY.get(config.kind)
    if cls is None:
        raise ConfigError(
            f"unknown detector {config.kind!r}; valid detectors: "
            + ", ".join(detector_names())
        )
    return cls(config, iteration_time)


# -- the deterministic heartbeat stream ---------------------------------------


def heartbeat_times(
    plan: FaultPlan, device: str, horizon: float, interval: float
) -> list[float]:
    """Global emission times for ``device``'s heartbeats up to
    ``horizon``: every ``interval`` seconds, stretched by the straggler
    slowdown active when the timer starts, silent from each of the
    device's :class:`DeviceLoss` to its next :class:`DeviceReturn`
    (whose heartbeat restarts the timer), or for good without one.
    Pure and deterministic."""
    if interval <= 0:
        raise ConfigError(f"heartbeat interval must be positive, got {interval}")
    returns = [r.at for r in plan.device_returns() if r.device == device]
    silences = [
        (l.at, min((at for at in returns if at > l.at), default=math.inf))
        for l in plan.device_losses() if l.device == device
    ]
    stragglers = [s for s in plan.stragglers() if s.device == device]
    times = [0.0]
    t = 0.0
    while True:
        t += interval * straggler_factor(stragglers, t)
        for lost, back in silences:
            if lost <= t < back:
                t = back
        if t > horizon:
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
    """The suspicion episodes ``config``'s detector opens on ``device``
    up to ``horizon`` (see ``scan`` on the detector classes)."""
    return build_detector(config).scan(plan, device, horizon)[1]


def detection_latency(
    plan: FaultPlan, device: str, died_at: float, config: DetectorConfig
) -> float:
    """Seconds between the physical loss and the detector *confirming*
    it: the detection charge the resilient runner adds to
    ``recovery_seconds`` (0 under ``none``).  A device already under
    (false) suspicion when it dies is confirmed faster, so the latency
    is clamped at zero rather than going negative."""
    _, confirmed = build_detector(config).death(plan, device, died_at)
    return max(0.0, confirmed - died_at)
