"""Tensor lifetime state machine.

The paper (§3): "Harmony's memory manager maintains a state machine
tracking the lifetime of all tensors used."  This module is that state
machine.  A tensor is, at any simulated instant, in exactly one of:

* ``UNMATERIALIZED`` — not yet produced (per-microbatch tensors before
  their producing task runs),
* ``ON_HOST`` — payload lives only in host memory,
* ``SWAPPING_IN`` — in flight host→device (or device→device),
* ``ON_DEVICE`` — resident on exactly one device,
* ``SWAPPING_OUT`` — in flight device→host,
* ``FREED`` — dead; its memory is reclaimed everywhere.

Orthogonally, an ``ON_DEVICE`` tensor is **clean** if host memory holds
a current copy (eviction may then *drop* it without a write-back) or
**dirty** if the device copy is the only current one (eviction must
swap out).  Baseline per-GPU virtualization in the paper's analytical
model does not exploit cleanliness — it writes back on every eviction —
so cleanliness tracking is a policy flag in the memory manager, not a
hard-wired behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TensorStateError
from repro.tensors.tensor import TensorMeta
from repro.util.enums import FastEnum


class TensorState(FastEnum):
    UNMATERIALIZED = "unmaterialized"
    ON_HOST = "on_host"
    SWAPPING_IN = "swapping_in"
    ON_DEVICE = "on_device"
    SWAPPING_OUT = "swapping_out"
    FREED = "freed"


_ALLOWED: dict[TensorState, frozenset[TensorState]] = {
    TensorState.UNMATERIALIZED: frozenset({TensorState.ON_DEVICE, TensorState.ON_HOST}),
    TensorState.ON_HOST: frozenset({TensorState.SWAPPING_IN, TensorState.FREED}),
    TensorState.SWAPPING_IN: frozenset({TensorState.ON_DEVICE}),
    TensorState.ON_DEVICE: frozenset(
        {TensorState.SWAPPING_OUT, TensorState.ON_HOST, TensorState.FREED,
         TensorState.SWAPPING_IN}
    ),
    TensorState.SWAPPING_OUT: frozenset({TensorState.ON_HOST}),
    TensorState.FREED: frozenset(),
}


@dataclass(slots=True)
class TensorRuntime:
    """Mutable lifetime record for one tensor during a simulation.

    Attributes
    ----------
    meta:
        The immutable identity/size record.
    state:
        Current lifetime state.
    device:
        Device name when ``ON_DEVICE``/``SWAPPING_*``; ``None`` otherwise.
    dirty:
        True when the device copy is the only current copy.
    pinned:
        Reference count of in-flight tasks requiring residency; pinned
        tensors are never chosen as eviction victims.
    last_use:
        Monotonic sequence number of the most recent task touching this
        tensor (drives LRU eviction).
    """

    meta: TensorMeta
    state: TensorState = TensorState.UNMATERIALIZED
    device: str | None = None
    dirty: bool = False
    pinned: int = 0
    last_use: int = -1
    #: Which host's DRAM holds the host copy (multi-server topologies
    #: have several hosts; ``None`` means "any" / not yet written back).
    host_device: str | None = None
    #: The device whose demand (footprint) this tensor counts against,
    #: assigned by the memory manager; ``None`` while unassigned.
    home: str | None = None

    def _transition(self, new: TensorState) -> None:
        if new not in _ALLOWED[self.state]:
            raise TensorStateError(
                f"{self.meta.label}: illegal transition {self.state.value} -> {new.value}"
            )
        self.state = new

    # -- transitions -----------------------------------------------------

    # Where a transition method's own precondition check already pins the
    # source state down to one value, the target is recorded directly (the
    # _ALLOWED lookup would re-prove what the precondition guarantees);
    # methods reachable from several states keep the full _transition.

    def materialize_on_host(self) -> None:
        """Initial placement of persistent state (weights, K) in host
        memory before training starts."""
        if self.state is not TensorState.UNMATERIALIZED:
            raise TensorStateError(
                f"{self.meta.label}: materialize_on_host requires "
                f"UNMATERIALIZED, is {self.state.value}"
            )
        self.state = TensorState.ON_HOST
        self.dirty = False

    def materialize_on_device(self, device: str) -> None:
        """A producing task creates this tensor directly on its device."""
        self._transition(TensorState.ON_DEVICE)
        self.device = device
        self.dirty = True  # no host copy exists yet

    def begin_swap_in(self, device: str) -> None:
        if self.state is not TensorState.ON_HOST:
            raise TensorStateError(
                f"{self.meta.label}: swap-in requires ON_HOST, is {self.state.value}"
            )
        self.state = TensorState.SWAPPING_IN
        self.device = device

    def begin_move(self, device: str) -> None:
        """Start a device-to-device (p2p) move."""
        if self.state is not TensorState.ON_DEVICE:
            raise TensorStateError(
                f"{self.meta.label}: p2p move requires ON_DEVICE, is {self.state.value}"
            )
        self.state = TensorState.SWAPPING_IN
        self.device = device

    def finish_swap_in(self) -> None:
        if self.state is not TensorState.SWAPPING_IN:
            raise TensorStateError(
                f"{self.meta.label}: finish_swap_in requires SWAPPING_IN, "
                f"is {self.state.value}"
            )
        self.state = TensorState.ON_DEVICE

    def begin_swap_out(self, force: bool = False) -> None:
        """Start a write-back.  ``force`` lets the owning task's own
        planned out-and-back-in eviction (idealized no-reuse accounting)
        bypass the pin it itself holds."""
        if self.pinned and not force:
            raise TensorStateError(f"{self.meta.label}: cannot evict a pinned tensor")
        self._transition(TensorState.SWAPPING_OUT)

    def finish_swap_out(self) -> None:
        if self.state is not TensorState.SWAPPING_OUT:
            raise TensorStateError(
                f"{self.meta.label}: finish_swap_out requires SWAPPING_OUT, "
                f"is {self.state.value}"
            )
        self.state = TensorState.ON_HOST
        self.device = None
        self.dirty = False

    def drop(self) -> None:
        """Evict without write-back (legal only when clean)."""
        if self.dirty:
            raise TensorStateError(f"{self.meta.label}: cannot drop a dirty tensor")
        if self.pinned:
            raise TensorStateError(f"{self.meta.label}: cannot drop a pinned tensor")
        self._transition(TensorState.ON_HOST)
        self.device = None

    def free(self) -> None:
        """The tensor is dead (its last consumer ran); reclaim memory."""
        if self.pinned:
            raise TensorStateError(f"{self.meta.label}: cannot free a pinned tensor")
        self._transition(TensorState.FREED)
        self.device = None
        self.dirty = False

    def mark_written(self) -> None:
        """A task mutated the device copy; host copy (if any) is stale."""
        if self.state is not TensorState.ON_DEVICE:
            raise TensorStateError(
                f"{self.meta.label}: write requires ON_DEVICE, is {self.state.value}"
            )
        self.dirty = True

    # -- queries -----------------------------------------------------------

    @property
    def resident_on(self) -> str | None:
        return self.device if self.state is TensorState.ON_DEVICE else None

    @property
    def in_flight(self) -> bool:
        return self.state in (TensorState.SWAPPING_IN, TensorState.SWAPPING_OUT)
