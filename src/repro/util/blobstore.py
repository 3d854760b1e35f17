"""The two-tier pickled blob store: the one atomic disk-blob implementation.

:class:`~repro.perf.cache.RunCache` (whole runs by fingerprint) and
:class:`~repro.perf.incremental.CheckpointStore` (prefix snapshots by
base key and boundary) are key layouts over :class:`BlobStore`: each
maps its keys to a ``(folder, name)`` pair and decides what counts as
a hit.  This module owns the rest:

* the **memory tier** — always on, laid out like the disk tier
  (folder -> name -> blob) so one folder lists without a scan;
* the **disk tier** — optional, under ``root``; a blob is written to a
  temporary file and renamed into place with ``os.replace``, so
  concurrent writers and readers (pool workers sharing a directory)
  never observe a torn blob;
* **torn-entry invalidation** — a disk blob that fails to unpickle
  (corrupt, truncated, written by an incompatible Python) is deleted,
  counted in ``invalidations`` and read as absent;
* the warn-once ``write_errors`` counter — a failed disk write (dir
  deleted, disk full, permissions) is counted and the memory tier keeps
  serving; the first failure warns, so a dead directory surfaces
  instead of silently degrading every later process to cold misses;
* the ``hits``/``misses``/``stores`` counters.

Payloads round-trip through ``pickle`` in every tier, memory included:
a hit is a fresh deserialization, never a shared mutable object that an
earlier caller may have decorated.  One store may be shared by
concurrent threads (the job server hands one run cache to every
tenant): the memory tier and the counters are guarded by a lock, and no
lock is held while pickling or touching the disk.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import warnings
from typing import Any

#: Marker :meth:`BlobStore._load` returns for an absent entry, so a
#: stored falsy payload (``None``, ``0``, ``[]``) is never a miss.
MISS = object()


class BlobStore:
    """Memory (+ optional disk) tiers of pickled blobs, with counters."""

    #: Name used in the write-error warning and :meth:`describe`.
    label = "blob store"
    #: What :meth:`describe` calls the memory-tier entries.
    unit = "entries"

    def __init__(self, root: str | os.PathLike | None = None):
        self._lock = threading.RLock()
        self._memory: dict[str, dict[str, bytes]] = {}
        self.root = os.fspath(root) if root is not None else None
        if self.root is not None:
            os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidations = 0
        self.write_errors = 0
        self._warned_write_error = False

    # -- tiers -----------------------------------------------------------

    def _load(self, folder: str, name: str) -> Any:
        """The payload under ``folder/name``, freshly unpickled, or
        :data:`MISS`.  A disk blob is promoted to the memory tier; a torn
        one is deleted and counted.  Hits and misses are the caller's
        to count (:meth:`_tally`)."""
        with self._lock:
            blob = self._memory.get(folder, {}).get(name)
        if blob is not None:
            return pickle.loads(blob)
        if self.root is None:
            return MISS
        path = os.path.join(self.root, folder, name)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return MISS
        try:
            payload = pickle.loads(blob)
        except Exception:
            try:
                os.unlink(path)
            except OSError:
                pass
            with self._lock:
                self.invalidations += 1
            return MISS
        with self._lock:
            self._memory.setdefault(folder, {})[name] = blob
        return payload

    def _save(self, folder: str, name: str, payload: Any) -> None:
        """Pickle ``payload`` into every enabled tier."""
        blob = pickle.dumps(payload)
        with self._lock:
            self._memory.setdefault(folder, {})[name] = blob
            self.stores += 1
        if self.root is None:
            return
        directory = os.path.join(self.root, folder)
        tmp = None
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, os.path.join(directory, name))
        except OSError as exc:
            with self._lock:
                self.write_errors += 1
                warn_now = not self._warned_write_error
                self._warned_write_error = True
            if warn_now:
                warnings.warn(
                    f"{self.label}: disk write to {self.root} failed "
                    f"({exc}); continuing in memory only, further "
                    f"failures are counted in counters()['write_errors']",
                    RuntimeWarning,
                    stacklevel=3,
                )
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def _contains(self, folder: str, name: str) -> bool:
        """Existence probe across both tiers; counts nothing."""
        with self._lock:
            if name in self._memory.get(folder, ()):
                return True
        return self.root is not None and os.path.exists(
            os.path.join(self.root, folder, name)
        )

    def _names(self, folder: str) -> set[str]:
        """Every entry name in ``folder`` across both tiers (the disk
        listing may include in-flight ``.tmp`` files)."""
        with self._lock:
            names = set(self._memory.get(folder, ()))
        if self.root is not None:
            try:
                names.update(os.listdir(os.path.join(self.root, folder)))
            except OSError:
                pass
        return names

    def _tally(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    # -- public ----------------------------------------------------------

    def clear(self) -> None:
        """Drop the memory tier (disk entries are left in place)."""
        with self._lock:
            self._memory.clear()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(entries) for entries in self._memory.values())

    # -- reporting -------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def counters(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "invalidations": self.invalidations,
                "write_errors": self.write_errors,
            }

    def _detail(self) -> str:
        """Layer-specific text :meth:`describe` puts before the entry
        count (ends in ``", "`` when non-empty)."""
        return ""

    def describe(self) -> str:
        with self._lock:
            hits, misses = self.hits, self.misses
            write_errors = self.write_errors
            detail = self._detail()
            entries = len(self)
        rate = hits / (hits + misses) if hits + misses else 0.0
        tier = f", disk={self.root}" if self.root else ""
        errors = (
            f", {write_errors} disk write error(s)" if write_errors else ""
        )
        return (
            f"{self.label}: {hits} hits / {misses} misses "
            f"({100 * rate:.0f}%), {detail}{entries} {self.unit}"
            f"{tier}{errors}"
        )
