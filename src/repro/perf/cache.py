"""The content-addressed run cache.

:class:`RunCache` maps fingerprints (see
:mod:`repro.perf.fingerprint`) to serialized run payloads — usually
:class:`~repro.sim.result.RunResult`, but any picklable value (the
tuner caches :class:`~repro.tuner.profiler.ProfilePoint`).

Two tiers, both :class:`~repro.util.blobstore.BlobStore`'s:

* **memory** — always on; entries live for the process.
* **disk** — optional, rooted at ``cache_dir`` (the CLI's
  ``--cache-dir``, conventionally ``~/.cache/repro``) and laid out as
  ``<cache_dir>/<key[:2]>/<key>.pkl``; entries survive across processes
  and are written atomically, so concurrent sweep workers never
  observe torn blobs.

Every hit is a fresh deserialization of the stored pickle, which is
what makes the byte-identical guarantee testable: a hit is never a
shared mutable object that an earlier caller may have decorated (e.g.
attached an audit report to).

One cache instance may be shared by concurrent callers (the job
server hands a single instance to every tenant's supervisor); the
blob store guards its tiers and counters with a lock.

Invalidation is by construction: the fingerprint already contains the
scheduler version salt, so semantics changes miss instead of serving
stale entries.  The ``invalidations`` counter ledgers the one remaining
case — a disk entry that exists but fails to load is deleted and
treated as a miss — and ``write_errors`` counts disk stores that
failed (the first one warns).
"""

from __future__ import annotations

import os
from typing import Any

from repro.util.blobstore import MISS as _MISS
from repro.util.blobstore import BlobStore


class RunCache(BlobStore):
    """In-memory (+ optional on-disk) fingerprint -> payload cache."""

    #: Sentinel returned by ``get(key, default=RunCache.MISS)`` so
    #: callers can cache falsy payloads without re-computing them.
    MISS = _MISS
    label = "run cache"

    def __init__(self, cache_dir: str | os.PathLike | None = None):
        super().__init__(cache_dir)

    @property
    def cache_dir(self) -> str | None:
        """The disk tier's directory (``None``: memory only)."""
        return self.root

    @staticmethod
    def _where(key: str) -> tuple[str, str]:
        # Two-level fan-out keeps directories small on big sweeps.
        return key[:2], f"{key}.pkl"

    def get(self, key: str, default: Any = None) -> Any:
        """The cached payload for ``key``, freshly deserialized, or
        ``default`` on a miss.  Counts one hit or one miss.

        Pass ``default=RunCache.MISS`` when a cached payload may itself
        be falsy — the sentinel is the only value ``get`` never returns
        for a hit, so ``result is RunCache.MISS`` is an unambiguous
        miss test.
        """
        payload = self._load(*self._where(key))
        self._tally(payload is not _MISS)
        return default if payload is _MISS else payload

    def put(self, key: str, payload: Any) -> None:
        """Serialize and store ``payload`` in every enabled tier."""
        self._save(*self._where(key), payload)

