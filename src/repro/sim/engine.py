"""Event calendar and serially-shared resources.

:class:`Engine` is a minimal discrete-event core: callbacks scheduled
at absolute times, executed in (time, insertion-sequence) order.
:class:`ResourceTimeline` models a serially-shared resource — a PCIe
link or a GPU compute stream — as "next free at" bookkeeping: work
submitted while the resource is busy queues FIFO behind it.  This
serialization is deliberately simple and is exactly the mechanism that
surfaces the paper's Fig. 2(a) bottleneck: all GPUs' swap traffic
queues on the one host uplink.

Both classes sit on the simulator's innermost loop, so they use
``__slots__`` and a *bucketed* calendar: one heap entry per distinct
timestamp, with a FIFO list of ``(daemon, callback)`` pairs per bucket.
Simulated clusters produce heavy timestamp collisions (every microbatch
boundary wakes many devices at once), so bucketing replaces per-event
4-tuple heap churn with a list append, while FIFO drain preserves the
exact (time, insertion-sequence) order of the old one-tuple-per-event
heap (see ``docs/INTERNALS.md`` §Performance).
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.errors import SimulationError


class Engine:
    """Deterministic event loop.

    Events scheduled with ``daemon=True`` (fault injections, pressure
    windows) only execute while non-daemon work remains: once the last
    real event has run, :meth:`run` returns without draining trailing
    daemon events, so a fault scheduled past the end of the run neither
    strikes nor inflates the clock.
    """

    __slots__ = (
        "_times", "_buckets", "now", "_live", "_pending", "events_processed"
    )

    def __init__(self) -> None:
        #: Min-heap of distinct timestamps with a pending bucket.
        self._times: list[float] = []
        #: time -> FIFO of (daemon, callback) pairs scheduled at it.
        self._buckets: dict[float, list[tuple[bool, Callable[[], None]]]] = {}
        #: Current simulated time.  A plain attribute (not a property):
        #: it is read on every schedule/log call in the inner loop.
        self.now = 0.0
        self._live = 0  # non-daemon events pending
        self._pending = 0  # all events pending (daemons included)
        #: Total events executed over the engine's lifetime — the
        #: denominator-free counter behind the benchmark harness's
        #: events/sec metric.
        self.events_processed = 0

    def at(
        self, time: float, callback: Callable[[], None], daemon: bool = False
    ) -> None:
        """Schedule ``callback`` at absolute simulated ``time``."""
        now = self.now
        # The past-event tolerance is *relative* to the clock: at large
        # simulated times (exactly the regime steady-state fast-forward
        # creates) a ulp of float error on ``start + duration`` dwarfs
        # any absolute epsilon — 1e-12 absolute would reject legitimate
        # events at t ~ 1e9 where one ulp is ~1.2e-7.  The tolerance
        # math only runs on the rare ``time < now`` path; almost every
        # schedule is at-or-after the clock and takes one compare.
        if time < now and time < now - 1e-12 * (now if now > 1.0 else 1.0):
            raise SimulationError(
                f"cannot schedule event in the past ({time} < {now})"
            )
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(daemon, callback)]
            heapq.heappush(self._times, time)
        else:
            bucket.append((daemon, callback))
        self._pending += 1
        if not daemon:
            self._live += 1

    def after(
        self, delay: float, callback: Callable[[], None], daemon: bool = False
    ) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.at(self.now + delay, callback, daemon=daemon)

    def run(self, max_events: int = 100_000_000) -> None:
        """Drain the event calendar (down to trailing daemon events).

        The loop sets ``self.now`` once per *bucket* rather than once
        per event — same-time batches skip the redundant clock compare —
        and drains each bucket by index so that same-time events a
        callback schedules mid-drain land behind the bucket's remaining
        entries, exactly where the old per-event heap would have put
        them (larger insertion sequence, same timestamp).
        """
        times = self._times
        buckets = self._buckets
        pop = heapq.heappop
        push = heapq.heappush
        events = 0
        while times and self._live > 0:
            time = pop(times)
            bucket = buckets[time]
            if time > self.now:
                self.now = time
            i = 0
            while i < len(bucket):
                if events >= max_events:
                    # Stash the remainder so pending counts stay honest
                    # for the diagnostic (and any post-mortem).
                    buckets[time] = bucket[i:]
                    push(times, time)
                    self._pending -= i
                    raise SimulationError(
                        f"exceeded {max_events} events at t={self.now} with "
                        f"{self._pending} event(s) still pending; likely "
                        "livelock"
                    )
                daemon, callback = bucket[i]
                i += 1
                if not daemon:
                    self._live -= 1
                callback()
                events += 1
                if self._live == 0 or (times and times[0] < time):
                    # _live == 0: trailing daemons stay pending, like the
                    # old heap.  times[0] < time: a callback scheduled an
                    # event slightly in the past (within the relative
                    # tolerance above); the old heap ran it before the
                    # rest of this batch, so stash the remainder and let
                    # the outer loop pop the earlier bucket first.
                    break
            self._pending -= i
            if i < len(bucket):
                buckets[time] = bucket[i:]
                push(times, time)
            else:
                del buckets[time]
        self.events_processed += events

    @property
    def pending_events(self) -> int:
        return self._pending

    def discard_pending(self) -> None:
        """Drop every pending event, for an engine that will never run
        again (see ``Executor.run``)."""
        self._times.clear()
        self._buckets.clear()
        self._live = self._pending = 0


class ResourceTimeline:
    """A serially-shared resource: FIFO occupancy with busy accounting."""

    __slots__ = ("name", "free_at", "busy_seconds", "journal")

    def __init__(self, name: str):
        self.name = name
        self.free_at = 0.0
        self.busy_seconds = 0.0
        #: When set (a list), every acquire appends its duration — the
        #: per-iteration delta capture behind steady-state fast-forward
        #: (see :mod:`repro.steady.cycle`).  ``None`` costs one branch.
        self.journal: list[float] | None = None

    def acquire(self, now: float, duration: float) -> tuple[float, float]:
        """Queue ``duration`` of exclusive use; returns (start, end)."""
        if duration < 0:
            raise SimulationError(f"{self.name}: negative duration")
        start = now if now > self.free_at else self.free_at
        end = start + duration
        self.free_at = end
        self.busy_seconds += duration
        if self.journal is not None:
            self.journal.append(duration)
        return start, end

    @staticmethod
    def acquire_all(
        resources: list["ResourceTimeline"], now: float, duration: float
    ) -> tuple[float, float]:
        """Occupy several resources together (a multi-link route or a
        collective): starts when the last becomes free."""
        if duration < 0:
            names = ", ".join(r.name for r in resources) or "no resources"
            raise SimulationError(f"{names}: negative duration")
        if not resources:
            # An empty acquisition used to hand back a phantom
            # ``(now, now + duration)`` window that occupied nothing —
            # invisible to the audit layer's exclusivity cross-checks.
            raise SimulationError(
                "acquire_all on an empty resource list (a transfer must "
                "occupy at least one timeline; local moves bypass "
                "acquisition explicitly)"
            )
        start = now
        for r in resources:
            if r.free_at > start:
                start = r.free_at
        end = start + duration
        for r in resources:
            r.free_at = end
            r.busy_seconds += duration
            if r.journal is not None:
                r.journal.append(duration)
        return start, end

    def utilization(self, horizon: float) -> float:
        """Raw busy/horizon ratio — deliberately *not* clamped to 1.0:
        a value above 1.0 means double-booked busy accounting, which
        the audit layer flags (``LINK_BUSY_EXCEEDS_MAKESPAN``) rather
        than this accessor masking it."""
        if horizon <= 0:
            return 0.0
        return self.busy_seconds / horizon
