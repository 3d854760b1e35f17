"""The memory-performance tango (paper §4) as explicit sweeps.

Two trade-offs the paper singles out:

1. **pack size vs microbatch size** under a fixed memory capacity —
   bigger packs cut transfers but force smaller microbatches (lower
   arithmetic intensity); smaller packs allow bigger microbatches but
   move more data.  :func:`tango_surface` maps the whole surface.
2. **double buffering** — prefetching the next task's swap-ins behind
   current compute hides transfer latency but doubles the transient
   working set; with tight memory the prefetch self-disables and the
   swap cost lands on the critical path.  :func:`prefetch_tradeoff`
   measures both sides.
"""

from __future__ import annotations

from repro.hardware.topology import Topology
from repro.models.graph import ModelGraph
from repro.tuner.profiler import ProfilePoint, profile_configuration
from repro.tuner.search import _splits
from repro.util.tables import Table


def tango_surface(
    model: ModelGraph,
    topology: Topology,
    minibatch_per_replica: int,
    pack_sizes: list[int] | None = None,
    parallelism: str = "harmony-pp",
) -> list[ProfilePoint]:
    """Profile every (pack size x microbatch split) cell.

    Infeasible cells are included (marked ``feasible=False``) — the
    fence line is part of the tango's story.
    """
    if pack_sizes is None:
        pack_sizes = sorted(
            {1, 2, max(1, len(model) // 4), max(1, len(model) // 2), len(model)}
        )
    points = []
    for pack in pack_sizes:
        for size, m in _splits(minibatch_per_replica):
            points.append(
                profile_configuration(
                    model, topology, pack, size, m, parallelism=parallelism
                )
            )
    return points


def tango_table(points: list[ProfilePoint]) -> Table:
    table = Table(
        ["pack", "mb size", "m", "feasible", "samples/s", "swap-out GB"],
        title="memory-performance tango surface",
    )
    for p in sorted(points, key=lambda p: (p.pack_size, p.microbatch_size)):
        table.add_row(
            [
                p.pack_size,
                p.microbatch_size,
                p.num_microbatches,
                "yes" if p.feasible else "NO",
                f"{p.throughput:.3f}",
                f"{p.swap_out_bytes / 1e9:.2f}",
            ]
        )
    return table


def prefetch_tradeoff(
    model: ModelGraph,
    topology: Topology,
    microbatch_size: int,
    num_microbatches: int,
    pack_size: int = 1,
    parallelism: str = "harmony-pp",
) -> tuple[ProfilePoint, ProfilePoint]:
    """The same configuration with and without double buffering."""
    base = profile_configuration(
        model, topology, pack_size, microbatch_size, num_microbatches,
        parallelism=parallelism, prefetch=False,
    )
    prefetched = profile_configuration(
        model, topology, pack_size, microbatch_size, num_microbatches,
        parallelism=parallelism, prefetch=True,
    )
    return base, prefetched
