"""Performance layer: run fingerprinting, caching, and prefix checkpoints.

The CLI commands and the tuner all reduce to the same shape of work —
evaluate many independent ``(model, topology, config)`` points — and
this package gives that shape its economics (the points themselves fan
out over :class:`repro.supervisor.Supervisor`, the one owner of worker
processes):

* :mod:`repro.perf.fingerprint` — a stable content address for one run
  spec (canonical hash of config + topology + model graph + a scheduler
  version salt), so "the same simulation" is a checkable identity.
* :mod:`repro.perf.cache` — :class:`RunCache`, an in-memory tier with
  an optional on-disk tier keyed by those fingerprints.  A cache hit is
  byte-identical to a fresh run (tested) because entries round-trip
  through the same serialized form.
* :mod:`repro.perf.incremental` — :class:`CheckpointStore` and the
  prefix-checkpoint machinery: multi-iteration runs snapshot their
  state at iteration boundaries under a per-iteration-stable
  :func:`base_fingerprint`, and later runs of the same point (at any
  depth) restore the deepest shared boundary and simulate only the
  suffix — byte-identical to a cold run.
* :mod:`repro.perf.runner` — :class:`RunSpec`, one point of a sweep,
  and the worker entry point that simulates it.
* :mod:`repro.perf.bench` — the tracked benchmark harness behind
  ``python -m repro bench`` and the repo-root ``BENCH_sim.json``.

Both stores are key layouts over one
:class:`~repro.util.blobstore.BlobStore` (memory tier, atomic disk
tier, torn-entry invalidation, counters).
"""

from repro.perf.cache import RunCache
from repro.perf.fingerprint import (
    SCHEDULER_VERSION,
    base_fingerprint,
    fingerprint,
)
from repro.perf.incremental import CheckpointStore, Snapshot
from repro.perf.runner import RunSpec

__all__ = [
    "CheckpointStore",
    "RunCache",
    "RunSpec",
    "Snapshot",
    "SCHEDULER_VERSION",
    "base_fingerprint",
    "fingerprint",
]
