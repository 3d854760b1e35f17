"""Incremental re-simulation: prefix checkpoints at iteration boundaries.

The run cache (:mod:`repro.perf.cache`) reuses *whole* runs; this module
reuses *prefixes*.  The executor rebases its clock at every iteration
boundary, so an iteration is a pure function of its entry state, and
the state the simulator carries across a boundary
(``Executor.boundary_state``: its own counters and committed trace,
the memory manager's and the swap ledger's parts) is a resumable
continuation.  :class:`CheckpointStore` keys those continuations by the
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
donor was still detecting).  A restoring run enters the executor loop
at its one detection decision, made against the restoring run's *own*
iteration count, so an ``auto`` run restored
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
    """Simulator state at one iteration boundary.

    Captured after the boundary reset (engine drained and rebased to
    local ``t=0``, timelines freed, per-microbatch tensors reborn), so
    the volatile scheduling state is in its freshly-reset form and only
    what *carries across* iterations is stored:
    :meth:`Executor.boundary_state <repro.sim.executor.Executor.boundary_state>`.
    """

    #: Iterations completed at capture time (the boundary index).
    iteration: int
    #: ``Executor.boundary_state()`` at the boundary.
    state: tuple
    #: Cycle-detection inputs at this boundary (``None``/False when the
    #: donor ran with steady-state off).
    prev_fp: tuple | None
    fp: tuple | None
    ledger: "CycleLedger | None"
    detecting: bool


def capture_snapshot(
    ex: "Executor", iteration: int, prev_fp: tuple | None, fp: tuple | None,
    ledger: "CycleLedger | None", detecting: bool,
) -> Snapshot:
    """Snapshot the executor mid-boundary (see :class:`Snapshot`)."""
    return Snapshot(iteration, ex.boundary_state(), prev_fp, fp, ledger, detecting)


def install_snapshot(ex: "Executor", snap: Snapshot) -> None:
    """Restore ``snap`` on an executor that has not run yet."""
    ex.restore(snap.state)


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
