"""Cycle detection and analytic fast-forward over a live executor.

The executor's steady-state loop (see ``Executor._run_cycles``) rebases
its clock at every iteration boundary: each iteration runs from local
``t=0`` with every resource timeline free, and the events it traced are
committed to absolute time by adding the run's ``epoch`` afterwards.
That makes an iteration a *pure function of its entry state* — two
iterations entered in bitwise-identical state produce bitwise-identical
event streams — so periodicity detection reduces to comparing entry
fingerprints, with no float-translation noise to tolerate.

The entry fingerprint is the memory manager's boundary state without
its observers (``MemoryManager.boundary_state(observers=False)``): every
tensor runtime, the host ledger, and every device pool with its
reservation table *in insertion order* (victim scans iterate it).
``last_use`` and the use counter grow forever, so the fingerprint keeps
only the LRU *rank order* of ``last_use``, which is all victim
selection reads.

Monotone observers — the trace, the swap ledger, ``usage_log``,
``events_processed`` — are deliberately excluded: they are outputs, and
the fast-forward advances them by folding per-iteration deltas captured
from journaling hooks (:class:`CycleLedger`) through
:func:`repro.steady.fold.fold_repeat`, which is bit-for-bit equal to
running the iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.steady.fold import fold_repeat

if TYPE_CHECKING:
    from repro.sim.executor import Executor
    from repro.sim.trace import TraceEvent


@dataclass(frozen=True)
class CycleLedger:
    """Per-iteration deltas of one proven-steady iteration — everything
    the fast-forward must replay for each skipped iteration."""

    #: Local makespan of the iteration: the epoch advance per cycle.
    period: float
    #: Swap-ledger record sequence per (device, kind, direction) key, in
    #: recording order — folded record-by-record, not as a per-key
    #: total, because float addition from a different base rounds
    #: differently.
    stats_records: dict[tuple, list[float]]
    #: Acquire durations per resource timeline, in acquisition order.
    busy: dict[str, list[float]]
    #: The iteration's trace events in local (rebased) time.
    trace_cycle: "tuple[TraceEvent, ...]"
    #: Engine events executed by the iteration.
    events_delta: int
    #: Samples finished by the iteration.
    samples_delta: int


def entry_fingerprint(ex: "Executor") -> tuple:
    """Bitwise fingerprint of the executor's iteration-entry state."""
    runtimes, host_used, _, pools = ex.manager.boundary_state(observers=False)
    # Runtime fields: (tid, state, device, dirty, pinned, last_use, ...).
    lru_rank = tuple(rt[0] for rt in sorted(runtimes, key=lambda rt: (rt[5], rt[0])))
    tensors = tuple(rt[:5] + rt[6:] for rt in runtimes)
    return (tensors, lru_rank, host_used, pools)


def start_journals(ex: "Executor") -> None:
    """Arm the per-iteration delta capture (swap records and timeline
    acquire durations) for one live iteration."""
    ex.stats._journal = []
    for tl in ex._all_timelines:
        tl.journal = []


def stop_journals(ex: "Executor") -> None:
    ex.stats._journal = None
    for tl in ex._all_timelines:
        tl.journal = None


def capture_ledger(
    ex: "Executor",
    mark: int,
    events_before: int,
    samples_before: int,
    period: float,
) -> CycleLedger:
    """Read the just-finished iteration's deltas off the journals.

    Must run *before* the boundary commit shifts ``trace.events[mark:]``
    to absolute time — the cycle is stored in local time.
    """
    stats_records: dict[tuple, list[float]] = {}
    for key, nbytes in ex.stats._journal:
        stats_records.setdefault(key, []).append(nbytes)
    busy = {
        tl.name: list(tl.journal)
        for tl in ex._all_timelines
        if tl.journal
    }
    return CycleLedger(
        period=period,
        stats_records=stats_records,
        busy=busy,
        trace_cycle=tuple(ex.trace.events[mark:]),
        events_delta=ex.engine.events_processed - events_before,
        samples_delta=ex._samples - samples_before,
    )


def apply_fast_forward(ex: "Executor", ledger: CycleLedger, skip: int) -> None:
    """Advance the executor past ``skip`` proven-identical iterations.

    Called at an iteration boundary (entry state is the fixed point):
    the simulation state itself needs no change — only the monotone
    outputs move, each folded exactly as ``skip`` live iterations would
    have moved it.  The trace gains one run-length
    :class:`~repro.sim.trace.PeriodicSegment` instead of
    ``skip * len(cycle)`` events.
    """
    from repro.sim.trace import PeriodicSegment

    start_offset = ex._clock.epoch
    ex._clock.epoch = fold_repeat(ex._clock.epoch, (ledger.period,), skip)
    ex.trace.add_segment(
        PeriodicSegment(
            insert_at=len(ex.trace.events),
            start_offset=start_offset,
            period=ledger.period,
            count=skip,
            end_offset=ex._clock.epoch,
            events=ledger.trace_cycle,
        )
    )
    volume = ex.stats._volume
    events = ex.stats._events
    for key, records in ledger.stats_records.items():
        volume[key] = fold_repeat(volume[key], records, skip)
        events[key] += len(records) * skip
    timelines = {tl.name: tl for tl in ex._all_timelines}
    for name, durations in ledger.busy.items():
        tl = timelines[name]
        tl.busy_seconds = fold_repeat(tl.busy_seconds, durations, skip)
    ex.engine.events_processed += ledger.events_delta * skip
    ex._samples += ledger.samples_delta * skip
