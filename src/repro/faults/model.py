"""The fault model: what can go wrong on a commodity server, as data.

The paper's premise is training on *commodity* hardware — exactly the
machines where GPUs drop off the bus, PCIe links flap or degrade,
transfers stall, and neighbours steal memory bandwidth.  Every fault
here is a plain frozen dataclass with explicit (global, simulated)
times, collected into a :class:`FaultPlan` that owns its own RNG seed,
so a faulty run replays *exactly*: same plan, same seed, byte-identical
trace.

Fault vocabulary
----------------
:class:`DeviceLoss`
    A GPU disappears at time ``at``.  Whether it is gone forever is the
    recovery policy's problem, not the fault's: pair it with a
    :class:`DeviceReturn` to model a flapping host.
:class:`DeviceReturn`
    A previously-lost device rejoins at time ``at`` (a rebooted host, a
    re-seated card).  Its on-device state is gone — rejoining always
    costs a state reload.
:class:`SpareDevice`
    A cold standby named ``device`` that a recovery policy may attach
    in a dead device's place (``Topology.substitute``).  Not an event:
    it has no time, only availability.
:class:`LinkDegradation`
    A link's bandwidth is divided by ``factor`` during a window (a
    flaky riser, PCIe retraining to a lower generation).
:class:`LinkFlap`
    A link is *down* during a window; transfers wanting it wait for the
    window to close.
:class:`TransientTransferError`
    Each point-to-point transfer attempt started inside the window
    fails with probability ``probability`` (drawn from the plan's RNG);
    the resilience layer retries with exponential backoff, and the
    wasted wire time/bytes are ledgered separately.
:class:`ComputeStraggler`
    Compute on one device runs ``slowdown`` times slower during a
    window (thermal throttling, a noisy neighbour).
:class:`MemoryPressure`
    A fraction of a device pool's capacity is unavailable during a
    window (fragmentation, a co-tenant allocation) — the effective
    capacity shrinks, forcing more aggressive eviction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Iterable, Union

from repro.errors import ConfigError


def _check_window(label: str, start: float, end: float) -> None:
    if start < 0:
        raise ConfigError(f"{label}: window starts before t=0 ({start})")
    if end < start:
        raise ConfigError(f"{label}: window ends before it starts ({start}..{end})")


@dataclass(frozen=True)
class DeviceLoss:
    """Device ``device`` is permanently lost at global time ``at``."""

    device: str
    at: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigError(f"DeviceLoss({self.device}): negative time {self.at}")


@dataclass(frozen=True)
class DeviceReturn:
    """Lost device ``device`` rejoins at global time ``at`` (memory
    wiped — the runtime must reload its state shard)."""

    device: str
    at: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigError(
                f"DeviceReturn({self.device}): negative time {self.at}"
            )


@dataclass(frozen=True)
class SpareDevice:
    """A cold standby GPU named ``device``, attachable by a recovery
    policy in a dead device's position.  The spare clones the lost
    device's spec and wiring (commodity chassis keep identical cards on
    the shelf), so substitution preserves the world's size and shape."""

    device: str

    def __post_init__(self) -> None:
        if not self.device:
            raise ConfigError("SpareDevice: device name must be non-empty")


@dataclass(frozen=True)
class LinkDegradation:
    """Link bandwidth divided by ``factor`` during ``[start, end)``."""

    link: str
    factor: float
    start: float
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ConfigError(
                f"LinkDegradation({self.link}): factor must be >= 1, "
                f"got {self.factor}"
            )
        _check_window(f"LinkDegradation({self.link})", self.start, self.end)

    def active(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclass(frozen=True)
class LinkFlap:
    """Link fully down during ``[start, end)``: transfers defer."""

    link: str
    start: float
    end: float

    def __post_init__(self) -> None:
        _check_window(f"LinkFlap({self.link})", self.start, self.end)
        if not math.isfinite(self.end):
            raise ConfigError(f"LinkFlap({self.link}): flap must end")

    def active(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclass(frozen=True)
class TransientTransferError:
    """Each transfer attempt in the window fails w.p. ``probability``."""

    probability: float
    start: float = 0.0
    end: float = math.inf
    link: str | None = None  # restrict to transfers crossing this link

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability < 1.0:
            raise ConfigError(
                f"TransientTransferError: probability must be in [0, 1), "
                f"got {self.probability}"
            )
        _check_window("TransientTransferError", self.start, self.end)

    def active(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclass(frozen=True)
class ComputeStraggler:
    """Compute on ``device`` runs ``slowdown``x slower in the window."""

    device: str
    slowdown: float
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise ConfigError(
                f"ComputeStraggler({self.device}): slowdown must be >= 1, "
                f"got {self.slowdown}"
            )
        _check_window(f"ComputeStraggler({self.device})", self.start, self.end)

    def active(self, t: float) -> bool:
        return self.start <= t < self.end


def straggler_factor(stragglers: Iterable[ComputeStraggler], t: float) -> float:
    """Combined slowdown of the ``stragglers`` windows active at global
    time ``t`` (1.0 when none is).  Callers pass one device's stragglers,
    filtered once up front: the injector stretches each compute task by
    it, the detector each heartbeat gap."""
    factor = 1.0
    for s in stragglers:
        if s.active(t):
            factor *= s.slowdown
    return factor


@dataclass(frozen=True)
class MemoryPressure:
    """``fraction`` of ``device``'s capacity is unavailable in the window."""

    device: str
    fraction: float
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction < 1.0:
            raise ConfigError(
                f"MemoryPressure({self.device}): fraction must be in [0, 1), "
                f"got {self.fraction}"
            )
        _check_window(f"MemoryPressure({self.device})", self.start, self.end)


Fault = Union[
    DeviceLoss,
    DeviceReturn,
    SpareDevice,
    LinkDegradation,
    LinkFlap,
    TransientTransferError,
    ComputeStraggler,
    MemoryPressure,
]


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seed-driven fault schedule for one run.

    All times are *global* simulated seconds from the start of the
    (possibly multi-iteration, possibly re-planned) resilient run; the
    injector maps them into each execution segment.  The plan owns its
    RNG seed: every probabilistic decision (transient-failure draws,
    victim selection in generated plans) comes from ``rng()``, so the
    same plan replays byte-identically.
    """

    seed: int = 0
    faults: tuple[Fault, ...] = ()

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def __bool__(self) -> bool:
        return bool(self.faults)

    # -- typed views -------------------------------------------------------

    def _of(self, cls) -> list:
        return [f for f in self.faults if isinstance(f, cls)]

    def device_losses(self) -> list[DeviceLoss]:
        return sorted(self._of(DeviceLoss), key=lambda f: (f.at, f.device))

    def device_returns(self) -> list[DeviceReturn]:
        return sorted(self._of(DeviceReturn), key=lambda f: (f.at, f.device))

    def spare_devices(self) -> list[SpareDevice]:
        """Spares in declaration order — policies consume them FIFO."""
        return self._of(SpareDevice)

    def link_degradations(self) -> list[LinkDegradation]:
        return self._of(LinkDegradation)

    def link_flaps(self) -> list[LinkFlap]:
        return self._of(LinkFlap)

    def transient_errors(self) -> list[TransientTransferError]:
        return self._of(TransientTransferError)

    def stragglers(self) -> list[ComputeStraggler]:
        return self._of(ComputeStraggler)

    def memory_pressures(self) -> list[MemoryPressure]:
        return self._of(MemoryPressure)

    def with_faults(self, extra: Iterable[Fault]) -> "FaultPlan":
        return replace(self, faults=self.faults + tuple(extra))

    def describe(self) -> str:
        lines = [f"fault plan (seed {self.seed}, {len(self.faults)} fault(s))"]
        for f in self.faults:
            lines.append(f"  {f}")
        return "\n".join(lines)


def mttf_loss_plan(
    devices: list[str],
    mttf: float,
    horizon: float,
    seed: int = 0,
    extra: Iterable[Fault] = (),
) -> FaultPlan:
    """Device-loss schedule for an MTTF sweep.

    Losses land deterministically at ``mttf, 2*mttf, ...`` up to
    ``horizon`` (the *expected* failure schedule for a fleet with that
    mean time to failure — keeping the sweep monotone in ``mttf``
    rather than noisy); victims are drawn without replacement from the
    plan's RNG, so the same (devices, mttf, seed) triple always loses
    the same GPUs at the same times.
    """
    if mttf <= 0:
        raise ConfigError(f"mttf must be positive, got {mttf}")
    rng = random.Random(seed)
    victims = list(devices)
    rng.shuffle(victims)
    losses: list[Fault] = []
    t = mttf
    while t <= horizon and victims:
        losses.append(DeviceLoss(victims.pop(0), t))
        t += mttf
    return FaultPlan(seed=seed, faults=tuple(losses) + tuple(extra))


def random_fault_plan(
    devices: list[str],
    links: list[str],
    seed: int = 0,
    horizon: float = 1.0,
    loss_rate: float = 0.0,
    transient_p: float = 0.0,
    straggler_p: float = 0.0,
    straggler_slowdown: float = 2.0,
    degradation_p: float = 0.0,
    degradation_factor: float = 4.0,
) -> FaultPlan:
    """Draw a random-but-reproducible fault mix for property tests.

    ``loss_rate`` is the per-device probability of dying within the
    horizon (loss time uniform in it); ``straggler_p`` /
    ``degradation_p`` gate per-device / per-link windows.  All draws
    come from one ``random.Random(seed)`` in a fixed order, so the plan
    is a pure function of its arguments.
    """
    rng = random.Random(seed)
    faults: list[Fault] = []
    for dev in devices:
        if loss_rate and rng.random() < loss_rate:
            faults.append(DeviceLoss(dev, rng.uniform(0.0, horizon)))
    for dev in devices:
        if straggler_p and rng.random() < straggler_p:
            t0 = rng.uniform(0.0, horizon)
            faults.append(
                ComputeStraggler(
                    dev, straggler_slowdown, t0, t0 + rng.uniform(0.0, horizon)
                )
            )
    for link in links:
        if degradation_p and rng.random() < degradation_p:
            t0 = rng.uniform(0.0, horizon)
            faults.append(
                LinkDegradation(
                    link, degradation_factor, t0, t0 + rng.uniform(0.0, horizon)
                )
            )
    if transient_p:
        faults.append(TransientTransferError(transient_p))
    return FaultPlan(seed=seed, faults=tuple(faults))
