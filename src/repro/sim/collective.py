"""Analytic collective operations: ring topology costed in closed form.

A gradient all-reduce over N participants is physically 2(N-1) ring
rounds of chunk exchanges, but simulating every hop of every round is
O(world) events per collective — the cost that made large-fleet runs
quadratic-ish.  :class:`CollectiveOp` resolves the ring *once* per
participant set (a collective's participants are the owners of its
per-device shares, which :class:`~repro.sim.plan.Plan` derives from
placement): each ring hop's route through the link hierarchy, the
bottleneck bandwidth across all hops, and the worst-case hop latency.
A collective then becomes one timed event whose duration is the closed
form

    max_hop_latency + comm_bytes / bottleneck_bandwidth

with ``comm_bytes`` the per-participant wire volume the decomposer
precomputed (``2(N-1)/N x payload`` for all-reduce, ``(N-1)/N x
payload`` for the ZeRO all-gather).  The cut-through assumption matches
:meth:`Route.transfer_time`: rounds pipeline, so latency is paid once.

``TestClosedFormCollective`` in ``tests/test_fleet_scaling.py``
recomputes the window from the topology's routes and holds the
transfer engine's completion callback and every ring link's busy time
to it bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.hardware.topology import Route, Topology


@dataclass(frozen=True)
class CollectiveOp:
    """One resolved ring collective over a fixed participant set.

    Immutable and cached per participant tuple by the transfer engine,
    so per-collective cost is independent of fleet size after the first
    resolution (the resolution itself is O(participants x path length)
    thanks to the topology's cached route table).
    """

    participants: tuple[str, ...]
    #: Ring hop i: participants[i] -> participants[(i+1) % N].
    routes: tuple[Route, ...]
    #: Slowest link on any ring hop — the ring runs at its pace.
    bottleneck_bandwidth: float
    #: Worst single-hop latency, paid once (cut-through pipelining).
    max_latency: float
    #: Every distinct link the ring occupies, in first-use order
    #: (hop order, then link order along each hop's route).
    link_names: tuple[str, ...]

    def duration(self, comm_bytes: float) -> float:
        """Closed-form collective duration for one participant's wire
        volume — the same float expression the pre-analytic simulator
        evaluated per call, so cached specs change nothing bitwise."""
        return self.max_latency + comm_bytes / self.bottleneck_bandwidth


def ring_collective(topology: Topology, participants: tuple[str, ...]) -> CollectiveOp:
    """Resolve the ring for ``participants`` against ``topology``."""
    if len(participants) < 2:
        raise SimulationError(
            f"a collective needs at least two participants, got "
            f"{participants!r}"
        )
    n = len(participants)
    routes = tuple(
        topology.route(a, participants[(i + 1) % n])
        for i, a in enumerate(participants)
    )
    seen: dict[str, None] = {}
    for route in routes:
        for link in route.links:
            seen[link.name] = None
    return CollectiveOp(
        participants=tuple(participants),
        routes=routes,
        bottleneck_bandwidth=min(r.bottleneck_bandwidth for r in routes),
        max_latency=max(r.total_latency for r in routes),
        link_names=tuple(seen),
    )
