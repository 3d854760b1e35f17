"""Pausing the cyclic GC around allocation-heavy simulator phases.

Planning and simulating a large fleet allocates millions of objects
(tasks, heap entries, partials, trace tuples).  With the cyclic
collector left at its defaults, every allocation burst also triggers
generational passes whose gen-2 sweeps rescan the *entire live* plan and
topology graph — an O(fleet) cost paid O(fleet) times, which turned
both planning and the event loop superlinear at 1024+ devices.  Pausing
collection for the bounded duration of one plan/run keeps per-event cost
size-independent.

Nothing here relies on the collector to free a run.  Pending events
form cycles through the engine's calendar while a run is live, but
those break as it drains, and a finished run's objects are acyclic
(see ``docs/INTERNALS.md``, "Analytic collectives"): reference counting
frees them as soon as the caller drops the result, and a collection
after the guard finds nothing of the run's to free.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def paused_gc():
    """Disable cyclic collection inside the block.

    Nesting-safe: when the collector is already off (an enclosing guard,
    or the embedding application's choice), the guard is a no-op and the
    outermost holder re-enables.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
