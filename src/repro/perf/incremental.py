"""Incremental re-simulation: prefix checkpoints at iteration boundaries.

The run cache (:mod:`repro.perf.cache`) reuses *whole* runs; this module
reuses *prefixes*.  The executor rebases its clock at every iteration
boundary, so an iteration is a pure function of its entry state, and
the simulator's complete state at an iteration boundary — tensor
residency, pool accounting, swap ledger, timeline busy counters,
committed trace, epoch — is a resumable continuation.  :class:`CheckpointStore` keys those continuations by the
hierarchical prefix key (:func:`repro.perf.fingerprint.base_fingerprint`
— the spec *modulo iteration count* — then the boundary index), and a
run that shares the key restores the deepest boundary ``<= n - 1`` and
simulates only the divergent suffix.

The tuner's hill-climb revisits and a sweep's neighboring cells are
exactly this shape: same model/topology/config probed repeatedly (or
at growing iteration depths), each probe previously cold-starting
iteration 1.  With a warm store, a probe at ``n``
iterations restores boundary ``n - 1`` and simulates one iteration plus
the flush — the bench's ``incremental`` section measures the per-probe
speedup and asserts byte-identity against a cold run, the same
guarantee the run cache makes.

Snapshots live in a :class:`~repro.util.blobstore.BlobStore`, the run
cache's tiers: they round-trip through ``pickle`` in every tier (memory
included), so a restored executor never shares mutable state with its
donor — the byte-identical guarantee is a property of the serialized
form, exactly as for :class:`~repro.perf.cache.RunCache` hits.

Steady-state interplay: snapshots are captured *mid-boundary*, after
the entry fingerprint is computed but before the cycle-detection branch
runs, and carry the detection inputs (``prev_fp``, ``fp``, the just
captured :class:`~repro.steady.cycle.CycleLedger`, and whether the
donor was still detecting).  A restoring run replays the detection
decision against its *own* iteration count, so an ``auto`` run restored
at boundary ``k`` fast-forwards (or not) exactly as its cold twin would
at that same boundary.  Donors never write post-detection boundaries,
and the prefix key separates resolved steady modes, so ``off`` and
``auto`` runs never exchange snapshots.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.util.blobstore import MISS, BlobStore

if TYPE_CHECKING:
    from repro.sim.executor import Executor
    from repro.steady.cycle import CycleLedger


@dataclass(frozen=True)
class Snapshot:
    """Complete simulator state at one iteration boundary.

    Captured after the boundary reset (engine drained
    and rebased to local ``t=0``, timelines freed, per-microbatch
    tensors reborn), so the volatile scheduling state — device states,
    arrival sets, in-flight waiters — is in its deterministic
    freshly-reset form and need not be stored; only the state that
    *carries across* iterations is.
    """

    #: Iterations completed at capture time (the boundary index).
    iteration: int
    #: Absolute time of the boundary (sum of committed local makespans).
    epoch: float
    samples: int
    events_processed: int
    #: Committed trace events, already in absolute time.
    trace_events: tuple
    #: (timeline name, busy_seconds) for every link and compute stream.
    busy: tuple[tuple[str, float], ...]
    #: Per-tensor runtime fields, in the manager's insertion order:
    #: (tid, state, device, dirty, pinned, last_use, host_device,
    #: history).  Metas are rebuilt from the restoring plan's registry.
    runtimes: tuple[tuple, ...]
    home: tuple[tuple[int, str | None], ...]
    use_seq: int
    #: Per-pool accounting incl. the reservation table in insertion
    #: order (victim scans iterate it).
    pools: tuple[tuple, ...]
    usage_log: tuple[tuple[str, tuple], ...]
    activation_resident: tuple[tuple[str, float], ...]
    activation_peak: tuple[tuple[str, float], ...]
    #: Swap-ledger contents as items in recording order (float sums over
    #: the ledger are order-sensitive).
    stats_volume: tuple
    stats_events: tuple
    stats_retried: tuple
    stats_retry_events: tuple
    #: Cycle-detection inputs at this boundary (``None``/False when the
    #: donor ran with steady-state off).
    prev_fp: tuple | None
    fp: tuple | None
    ledger: "CycleLedger | None"
    detecting: bool
    #: Per-host spill-volume ledger in accumulation order (the
    #: remote-swap target choice compares these float sums against host
    #: capacity, so they are restored verbatim, not recomputed).
    #: Defaults empty — correct for donors that never remote-swapped.
    host_used: tuple[tuple[str, float], ...] = ()


def capture_snapshot(
    ex: "Executor",
    iteration: int,
    prev_fp: tuple | None,
    fp: tuple | None,
    ledger: "CycleLedger | None",
    detecting: bool,
) -> Snapshot:
    """Snapshot the executor mid-boundary (see :class:`Snapshot`)."""
    if ex.trace.segments:
        raise AssertionError(
            "prefix checkpoint at a post-fast-forward boundary (compressed "
            "segments are not resumable; donors stop capturing at detection)"
        )
    manager = ex.manager
    stats = ex.stats
    return Snapshot(
        iteration=iteration,
        epoch=ex._clock.epoch,
        samples=ex._samples,
        events_processed=ex.engine.events_processed,
        trace_events=tuple(ex.trace.events),
        busy=tuple((tl.name, tl.busy_seconds) for tl in ex._all_timelines),
        runtimes=tuple(
            (tid, rt.state, rt.device, rt.dirty, rt.pinned, rt.last_use,
             rt.host_device, tuple(rt._history))
            for tid, rt in manager.runtimes.items()
        ),
        home=tuple(manager._home.items()),
        host_used=tuple(manager._host_used.items()),
        use_seq=manager._use_seq,
        pools=tuple(
            (name, pool.used, pool.peak_used, pool.demand, pool.peak_demand,
             pool.pressure, tuple(pool._reservations.items()))
            for name, pool in manager.pools.items()
        ),
        usage_log=tuple(
            (dev, tuple(log)) for dev, log in manager.usage_log.items()
        ),
        activation_resident=tuple(manager.activation_resident.items()),
        activation_peak=tuple(manager.activation_peak.items()),
        stats_volume=tuple(stats._volume.items()),
        stats_events=tuple(stats._events.items()),
        stats_retried=tuple(stats._retried.items()),
        stats_retry_events=tuple(stats._retry_events.items()),
        prev_fp=prev_fp,
        fp=fp,
        ledger=ledger,
        detecting=detecting,
    )


def install_snapshot(ex: "Executor", snap: Snapshot) -> None:
    """Rebuild the executor's carried-across state from ``snap``.

    Called on a freshly-constructed executor *before* anything has been
    scheduled or materialized: the engine calendar is empty, device
    states and arrival sets are in their reset form, and the trace has
    no events — exactly the shape the donor's boundary reset left
    behind, minus the state this function installs.
    """
    from repro.tensors.state import TensorRuntime

    manager = ex.manager
    registry = ex.plan.registry
    runtimes: dict[int, TensorRuntime] = {}
    for tid, state, device, dirty, pinned, last_use, host, history in (
        snap.runtimes
    ):
        rt = TensorRuntime(registry.by_id(tid))
        rt.state = state
        rt.device = device
        rt.dirty = dirty
        rt.pinned = pinned
        rt.last_use = last_use
        rt.host_device = host
        rt._history = list(history)
        runtimes[tid] = rt
    manager.runtimes = runtimes
    manager._home = dict(snap.home)
    manager._host_used = dict(snap.host_used)
    manager._use_seq = snap.use_seq
    for name, used, peak_used, demand, peak_demand, pressure, resv in (
        snap.pools
    ):
        pool = manager.pools[name]
        pool.used = used
        pool.peak_used = peak_used
        pool.demand = demand
        pool.peak_demand = peak_demand
        pool.pressure = pressure
        pool._reservations = dict(resv)
    for dev, log in snap.usage_log:
        manager.usage_log[dev] = list(log)
    manager.activation_resident = dict(snap.activation_resident)
    manager.activation_peak = dict(snap.activation_peak)
    stats = ex.stats
    stats._volume.clear()
    stats._volume.update(snap.stats_volume)
    stats._events.clear()
    stats._events.update(snap.stats_events)
    stats._retried.clear()
    stats._retried.update(snap.stats_retried)
    stats._retry_events.clear()
    stats._retry_events.update(snap.stats_retry_events)
    # The ledger was replaced wholesale; rebuild the running device
    # roster that record() normally maintains incrementally.
    stats._devices.clear()
    stats._devices.update(d for (d, _, _) in stats._volume)
    timelines = {tl.name: tl for tl in ex._all_timelines}
    for name, busy_seconds in snap.busy:
        timelines[name].busy_seconds = busy_seconds
    ex.trace.events[:] = snap.trace_events
    ex.engine.events_processed = snap.events_processed
    ex._clock.epoch = snap.epoch
    ex._samples = snap.samples


class CheckpointStore(BlobStore):
    """Prefix-checkpoint tiers: ``base key -> {boundary: snapshot}``.

    A key layout over :class:`~repro.util.blobstore.BlobStore` (memory
    tier, optional atomic disk tier under ``checkpoint_dir``, torn-entry
    invalidation, counters).  Disk layout:
    ``<dir>/<key[:2]>/<key>/<iteration>.pkl`` — one directory per base
    key, so :meth:`best` enumerates the stored boundaries with a single
    ``listdir``.
    """

    label = "checkpoints"
    unit = "snapshot(s)"

    def __init__(self, checkpoint_dir: str | os.PathLike | None = None):
        super().__init__(checkpoint_dir)
        #: Total simulated iterations short-circuited by restores — the
        #: work the prefix reuse saved, in iteration units.
        self.saved_iterations = 0

    @property
    def checkpoint_dir(self) -> str | None:
        """The disk tier's directory (``None``: memory only)."""
        return self.root

    @staticmethod
    def _folder(base_key: str) -> str:
        return os.path.join(base_key[:2], base_key)

    def put(self, base_key: str, snapshot: Snapshot) -> None:
        """Store one boundary snapshot under its prefix key."""
        self._save(
            self._folder(base_key), f"{snapshot.iteration}.pkl", snapshot
        )

    def has(self, base_key: str, iteration: int) -> bool:
        """Cheap existence probe (no counters) — lets donors skip
        re-pickling a boundary an earlier identical run already saved."""
        return self._contains(self._folder(base_key), f"{iteration}.pkl")

    def best(self, base_key: str, max_iteration: int) -> Snapshot | None:
        """The deepest stored boundary ``<= max_iteration``, freshly
        deserialized, or ``None``.  Counts one hit or one miss; a hit
        credits its depth to ``saved_iterations``.  A torn boundary is
        invalidated and the next shallower one tried."""
        folder = self._folder(base_key)
        stored = []
        for name in self._names(folder):
            stem, ext = os.path.splitext(name)
            if ext == ".pkl" and stem.isdigit() and int(stem) <= max_iteration:
                stored.append(int(stem))
        for iteration in sorted(stored, reverse=True):
            snap = self._load(folder, f"{iteration}.pkl")
            if snap is not MISS:
                with self._lock:
                    self._tally(True)
                    self.saved_iterations += iteration
                return snap
        self._tally(False)
        return None

    def counters(self) -> dict[str, int]:
        with self._lock:
            return {
                **super().counters(),
                "saved_iterations": self.saved_iterations,
            }

    def _detail(self) -> str:
        return f"{self.saved_iterations} iteration(s) saved, "


def snapshot_boundary(iteration: int, total: int) -> bool:
    """Donor write throttle: powers of two plus the deepest restorable
    boundary (``total - 1``; the final iteration always runs live)."""
    return iteration == total - 1 or (iteration & (iteration - 1)) == 0
