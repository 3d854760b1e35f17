"""Per-device memory pools.

A :class:`DevicePool` does byte-level accounting for one device:

* ``used`` — bytes physically resident (or reserved for an in-flight
  swap-in); bounded by ``capacity``.
* ``demand`` — bytes of *live* state assigned to this device whether
  resident or swapped out.  This is the "Mem Usage" quantity of the
  paper's Fig. 2(c): a pipeline stage's footprint can exceed its GPU's
  capacity, and the excess is exactly what must swap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CapacityError, SimulationError


@dataclass(slots=True)
class DevicePool:
    name: str
    capacity: float
    used: float = 0.0
    peak_used: float = 0.0
    demand: float = 0.0
    peak_demand: float = 0.0
    #: Bytes made unavailable by an injected memory-pressure window
    #: (:class:`~repro.faults.model.MemoryPressure`): shrinks the
    #: effective capacity for future reservations without evicting
    #: anything already resident.
    pressure: float = 0.0
    _reservations: dict[int, float] = field(default_factory=dict)

    @property
    def effective_capacity(self) -> float:
        return self.capacity - self.pressure

    @property
    def free(self) -> float:
        return self.effective_capacity - self.used

    def add_pressure(self, nbytes: float) -> None:
        """Open (positive) or close (negative) a pressure window."""
        self.pressure += nbytes
        if self.pressure < -1e-6 or self.pressure > self.capacity:
            raise SimulationError(
                f"{self.name}: pressure {self.pressure:.3g} B outside "
                f"[0, capacity={self.capacity:.3g} B]"
            )

    def reserve(self, tid: int, nbytes: float) -> None:
        """Claim bytes for a tensor (on alloc or at swap-in start)."""
        if nbytes < 0:
            raise SimulationError(f"{self.name}: negative reservation")
        if tid in self._reservations:
            raise SimulationError(f"{self.name}: tensor {tid} already reserved")
        used = self.used + nbytes
        if used > (self.capacity - self.pressure) * (1 + 1e-9):
            raise CapacityError(
                f"{self.name}: reserving {nbytes:.3g} B would exceed capacity "
                f"({self.used:.3g}/{self.effective_capacity:.3g} B used"
                + (f", {self.pressure:.3g} B under pressure" if self.pressure else "")
                + ")"
            )
        self._reservations[tid] = nbytes
        self.used = used
        if used > self.peak_used:
            self.peak_used = used

    def release(self, tid: int) -> float:
        """Return a tensor's bytes to the pool (eviction done or freed)."""
        try:
            nbytes = self._reservations.pop(tid)
        except KeyError:
            raise SimulationError(
                f"{self.name}: releasing tensor {tid} that holds no reservation"
            ) from None
        self.used -= nbytes
        return nbytes

    def resident_tensors(self) -> list[int]:
        return list(self._reservations)

    # -- demand (footprint) accounting ------------------------------------

    def assign_demand(self, nbytes: float) -> None:
        self.demand += nbytes
        self.peak_demand = max(self.peak_demand, self.demand)

    def unassign_demand(self, nbytes: float) -> None:
        self.demand -= nbytes
        if self.demand < -1e-6:
            raise SimulationError(f"{self.name}: negative demand")
