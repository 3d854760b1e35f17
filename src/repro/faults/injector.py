"""Runtime fault injection: the hooks the simulator consults.

A :class:`FaultInjector` adapts one :class:`~repro.faults.model.FaultPlan`
(global times) to one execution *segment* (local engine times starting
at ``offset``).  The executor asks it to stretch compute durations
(stragglers); the transfer engine asks it for transfer timing under
link degradation and flaps, and whether an attempt fails transiently;
:meth:`arm` schedules device-loss raises and memory-pressure windows
on the engine as *daemon* events — they strike only if real work is
still running when their time comes.

The injector deliberately owns no RNG of its own: the resilient runner
threads one :func:`random.Random` (seeded by the plan) through every
segment, so transient-failure draws continue the same stream across
re-plans and the whole faulty run replays byte-identically.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterable

from repro.errors import DeviceLostError, FaultError
from repro.faults.model import FaultPlan, straggler_factor
from repro.faults.resilience import ResiliencePolicy

if TYPE_CHECKING:
    from repro.hardware.topology import Route
    from repro.memory.allocator import DevicePool
    from repro.sim.engine import Engine


class FaultInjector:
    """Injects one fault plan into one execution segment."""

    def __init__(
        self,
        plan: FaultPlan,
        policy: ResiliencePolicy | None = None,
        offset: float = 0.0,
        rng: random.Random | None = None,
        lost: Iterable[str] = (),
    ):
        self.plan = plan
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.offset = offset
        self.rng = rng if rng is not None else plan.rng()
        #: Devices already lost in earlier segments: their (consumed)
        #: loss events must not re-fire.
        self.lost = set(lost)
        self._stragglers: dict[str, list] = {}
        for straggler in plan.stragglers():
            self._stragglers.setdefault(straggler.device, []).append(straggler)
        self._transients = plan.transient_errors()
        self._degradations: dict[str, list] = {}
        for deg in plan.link_degradations():
            self._degradations.setdefault(deg.link, []).append(deg)
        self._flaps: dict[str, list] = {}
        for flap in plan.link_flaps():
            self._flaps.setdefault(flap.link, []).append(flap)

    # -- arming (device loss, memory pressure) -----------------------------

    def arm(self, engine: "Engine", pools: dict[str, "DevicePool"]) -> None:
        """Schedule the plan's discrete events on a segment's engine.

        Everything is scheduled as a daemon event: if the segment's real
        work drains first, the fault simply never struck this segment.
        """
        for loss in self.plan.device_losses():
            if loss.device in self.lost or loss.device not in pools:
                continue
            local = loss.at - self.offset
            if local < 0:
                continue  # struck before this segment; the runner handled it

            def strike(device: str = loss.device) -> None:
                raise DeviceLostError(device, engine.now)

            engine.at(local, strike, daemon=True)

        for mp in self.plan.memory_pressures():
            pool = pools.get(mp.device)
            if pool is None or mp.end <= self.offset:
                continue
            amount = mp.fraction * pool.capacity
            start_local = max(0.0, mp.start - self.offset)
            engine.at(
                start_local,
                lambda pool=pool, a=amount: pool.add_pressure(a),
                daemon=True,
            )
            end_local = mp.end - self.offset
            if end_local != float("inf"):
                engine.at(
                    end_local,
                    lambda pool=pool, a=amount: pool.add_pressure(-a),
                    daemon=True,
                )

    # -- compute -----------------------------------------------------------

    def compute_duration(self, device: str, base: float, now: float) -> float:
        """Straggler-adjusted duration for compute started at local
        ``now`` (the slowdown active at start applies to the whole
        task — simulated kernels do not migrate mid-flight)."""
        if device not in self._stragglers:
            return base
        return base * straggler_factor(
            self._stragglers[device], self.offset + now
        )

    # -- transfers ---------------------------------------------------------

    def transfer_timing(
        self, route: "Route", nbytes: float, now: float
    ) -> tuple[float, float]:
        """(earliest local start, duration) for a transfer under the
        currently-active link faults.

        Flapped links defer the start past the flap window (chained
        flaps are followed to a fixed point); degraded links divide the
        route's bottleneck bandwidth by the active factor."""
        ready = now
        for _ in range(64):
            deferred = ready
            for link in route.links:
                for flap in self._flaps.get(link.name, ()):
                    if flap.active(self.offset + deferred):
                        deferred = max(deferred, flap.end - self.offset)
            if deferred == ready:
                break
            ready = deferred
        else:
            raise FaultError(
                f"route {route.src}->{route.dst}: link flaps never clear"
            )
        if nbytes == 0 or not route.links:
            return ready, 0.0
        t = self.offset + ready
        bandwidth = float("inf")
        for link in route.links:
            eff = link.bandwidth_bytes_per_sec
            for deg in self._degradations.get(link.name, ()):
                if deg.active(t):
                    eff /= deg.factor
            bandwidth = min(bandwidth, eff)
        return ready, route.total_latency + nbytes / bandwidth

    def transfer_fails(self, route: "Route", start: float) -> bool:
        """Seeded draw: does a transfer attempt starting at local
        ``start`` fail transiently?  Only consumes RNG when a transient
        spec is active, so fault-free windows leave the stream alone."""
        t = self.offset + start
        ok = 1.0
        link_names = {link.name for link in route.links}
        for spec in self._transients:
            if not spec.active(t):
                continue
            if spec.link is not None and spec.link not in link_names:
                continue
            ok *= 1.0 - spec.probability
        p = 1.0 - ok
        if p <= 0.0:
            return False
        return self.rng.random() < p

    def backoff_delay(self, attempt: int) -> float:
        return self.policy.backoff_delay(attempt)

    @property
    def max_retries(self) -> int:
        return self.policy.max_retries
