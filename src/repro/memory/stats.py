"""Swap-volume accounting, broken down the way the paper reasons.

The analytical comparison in §3 talks about per-tensor-kind volumes
("here we focus on model weights W"); Fig. 2(a) plots *global swap-out
volume*; Fig. 2(c) needs per-device views.  :class:`SwapStats` records
every byte moved, keyed by (device, tensor kind, direction), so all
three views — and the exact weight-only cross-check against the
closed-form model — fall out of one ledger.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.tensors.tensor import TensorKind
from repro.units import GB
from repro.util.enums import FastEnum


class Direction(FastEnum):
    SWAP_IN = "swap_in"        # host -> device over the host link
    SWAP_OUT = "swap_out"      # device -> host over the host link
    P2P_IN = "p2p_in"          # device -> device (receiving side)
    P2P_OUT = "p2p_out"        # device -> device (sending side)
    DROP = "drop"              # clean eviction, no traffic

    def __str__(self) -> str:
        return self.value


_HOST_DIRECTIONS = (Direction.SWAP_IN, Direction.SWAP_OUT)


@dataclass
class SwapStats:
    """Ledger of all data movement in one simulated run."""

    _volume: dict[tuple[str, TensorKind, Direction], float] = field(
        default_factory=lambda: defaultdict(float)
    )
    _events: dict[tuple[str, TensorKind, Direction], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    #: Bytes re-sent after transient transfer failures, ledgered
    #: separately: a retried attempt occupies the wire (and therefore
    #: *also* lands in ``_volume``, keeping trace<->ledger conservation
    #: exact), but this ledger isolates the waste for the fault report.
    _retried: dict[tuple[str, TensorKind, Direction], float] = field(
        default_factory=lambda: defaultdict(float)
    )
    _retry_events: dict[tuple[str, TensorKind, Direction], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    #: Running device roster: every device that ever appeared in a
    #: record.  Maintained incrementally so :meth:`devices` (called by
    #: the validation layer per run) never rescans the whole ledger —
    #: on wide fleets the ledger has O(devices x kinds x directions)
    #: keys and the rescan was a per-call fleet-sized cost.
    #: :meth:`restore` rebuilds it from the restored keys; steady-state
    #: fast-forward only folds existing keys, so the roster is
    #: untouched there.
    _devices: set[str] = field(default_factory=set, repr=False)
    #: When set (a list), every record also appends ``(key, nbytes)`` —
    #: the per-iteration delta capture behind steady-state fast-forward
    #: (see :mod:`repro.steady.cycle`), which must replay the exact
    #: per-key record *sequence* rather than a per-key total to stay
    #: bitwise-faithful.  ``None`` (the default) costs one branch.
    _journal: list | None = field(default=None, repr=False)

    def record(
        self, device: str, kind: TensorKind, direction: Direction, nbytes: float
    ) -> None:
        key = (device, kind, direction)
        self._volume[key] += nbytes
        self._events[key] += 1
        self._devices.add(device)
        if self._journal is not None:
            self._journal.append((key, nbytes))

    def record_retry(
        self, device: str, kind: TensorKind, direction: Direction, nbytes: float
    ) -> None:
        """Ledger one failed transfer attempt whose bytes must move
        again: counted in the main volume ledger (the wire really was
        occupied) *and* in the separate retry ledger."""
        self.record(device, kind, direction, nbytes)
        self._retried[(device, kind, direction)] += nbytes
        self._retry_events[(device, kind, direction)] += 1

    # -- iteration-boundary state ------------------------------------------

    def _ledgers(self) -> tuple[dict, ...]:
        return (self._volume, self._events, self._retried, self._retry_events)

    def boundary_state(self) -> tuple:
        """The four ledgers as items in recording order (float sums over
        a ledger are order-sensitive); :meth:`restore` installs them."""
        return tuple(tuple(ledger.items()) for ledger in self._ledgers())

    def restore(self, state: tuple) -> None:
        for ledger, items in zip(self._ledgers(), state):
            ledger.clear()
            ledger.update(items)
        self._devices = {device for device, _, _ in self._volume}

    # -- aggregated views --------------------------------------------------

    def volume(
        self,
        device: str | None = None,
        kind: TensorKind | None = None,
        direction: Direction | None = None,
    ) -> float:
        """Total bytes matching the given filters (None = any)."""
        return _filtered_sum(self._volume, device, kind, direction)

    def events(
        self,
        device: str | None = None,
        kind: TensorKind | None = None,
        direction: Direction | None = None,
    ) -> int:
        return _filtered_sum(self._events, device, kind, direction)

    def host_traffic(self, device: str | None = None) -> float:
        """Bytes crossing the device<->host boundary (both directions) —
        the traffic that rides the oversubscribed uplink."""
        return sum(self.volume(device, None, d) for d in _HOST_DIRECTIONS)

    def swap_out_volume(self, device: str | None = None) -> float:
        """The paper's Fig. 2(a) metric: global swap-out volume."""
        return self.volume(device, None, Direction.SWAP_OUT)

    def swap_in_volume(self, device: str | None = None) -> float:
        return self.volume(device, None, Direction.SWAP_IN)

    def p2p_volume(self) -> float:
        """Bytes moved device-to-device (counted once, receiver side)."""
        return self.volume(None, None, Direction.P2P_IN)

    def kind_swap_volume(self, kind: TensorKind) -> float:
        """Host-crossing volume for one tensor kind (e.g. weights only —
        the quantity in the paper's (4m+2)N|W| analysis)."""
        return self.volume(None, kind, Direction.SWAP_IN) + self.volume(
            None, kind, Direction.SWAP_OUT
        )

    def retried_volume(
        self,
        device: str | None = None,
        kind: TensorKind | None = None,
        direction: Direction | None = None,
    ) -> float:
        """Bytes wasted on failed transfer attempts (subset of
        :meth:`volume` — conservation checks include them)."""
        return _filtered_sum(self._retried, device, kind, direction)

    def retry_events(
        self,
        device: str | None = None,
        kind: TensorKind | None = None,
        direction: Direction | None = None,
    ) -> int:
        return _filtered_sum(self._retry_events, device, kind, direction)

    def volume_totals(self) -> dict[tuple[str, Direction], float]:
        """Per-(device, direction) totals of the volume ledger in one
        pass, each bitwise equal to ``volume(device, None, direction)``
        (the builtin ``sum`` of the same values in the same order);
        pairs with no entries are absent."""
        return _device_direction_totals(self._volume)

    def retried_totals(self) -> dict[tuple[str, Direction], float]:
        """:meth:`volume_totals` of the retry ledger (``retried_volume``)."""
        return _device_direction_totals(self._retried)

    def devices(self) -> list[str]:
        """Sorted roster of devices that moved any bytes — served from
        the running :attr:`_devices` aggregate, not a ledger scan."""
        return sorted(self._devices)

    def summary(self) -> str:
        volumes = self.volume_totals()
        retried = self.retried_totals()
        lines = ["swap stats (GB):"]
        for device in self.devices():
            parts = [
                f"{d.value}={volumes[device, d] / GB:.2f}"
                for d in Direction
                if volumes.get((device, d))
            ]
            wasted = sum(retried.get((device, d), 0.0) for d in Direction)
            if wasted:
                parts.append(f"retried={wasted / GB:.2f}")
            lines.append(f"  {device}: " + (", ".join(parts) or "none"))
        return "\n".join(lines)


def _filtered_sum(
    ledger: dict,
    device: str | None,
    kind: TensorKind | None,
    direction: Direction | None,
):
    """The builtin ``sum()`` of ``ledger``'s values whose key matches
    every filter that is not ``None``, in ledger order."""
    return sum(
        v
        for (d, k, dr), v in ledger.items()
        if (device is None or d == device)
        and (kind is None or k == kind)
        and (direction is None or dr == direction)
    )


def _device_direction_totals(ledger: dict) -> dict[tuple[str, Direction], float]:
    """Group ``ledger``'s values by (device, direction) in ledger order
    and ``sum()`` each group: the values, order and summation of the
    filtered ``sum()`` in :meth:`SwapStats.volume`.  Adding them up in a
    loop instead would drift in the last bit from Python 3.12 on, where
    ``sum()`` of floats is compensated."""
    groups: dict[tuple[str, Direction], list[float]] = {}
    for (device, _, direction), v in ledger.items():
        groups.setdefault((device, direction), []).append(v)
    return {key: sum(values) for key, values in groups.items()}
