"""Layer packing / partitioning utilities.

Task packing (paper optimization #4) fuses several consecutive
layer-level operations into one task, trading kernel-launch overhead
and inter-task transfers against a larger working set.  Pipeline-stage
assignment is the same problem at a coarser granularity.  Both reduce
to partitioning an ordered list of layers into contiguous runs; this
module provides the partitioning algorithms.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import SchedulingError
from repro.models.graph import ModelGraph


def pack_layers(num_layers: int, pack_size: int) -> list[tuple[int, ...]]:
    """Partition ``num_layers`` into contiguous packs of ``pack_size``
    (the final pack may be smaller).

    >>> pack_layers(5, 2)
    [(0, 1), (2, 3), (4,)]
    """
    if num_layers < 1:
        raise SchedulingError("num_layers must be >= 1")
    if pack_size < 1:
        raise SchedulingError("pack_size must be >= 1")
    return [
        tuple(range(start, min(start + pack_size, num_layers)))
        for start in range(0, num_layers, pack_size)
    ]


def validate_packs(packs: Sequence[tuple[int, ...]], num_layers: int) -> None:
    """Ensure packs are a contiguous, complete, in-order partition."""
    flattened = [layer for pack in packs for layer in pack]
    if flattened != list(range(num_layers)):
        raise SchedulingError(
            f"packs {packs!r} are not a contiguous in-order partition of "
            f"{num_layers} layers"
        )


def pack_covering(packs: Sequence[tuple[int, ...]], layer: int) -> int:
    """Index of the pack that holds ``layer``.

    >>> pack_covering([(0, 1), (2, 3), (4,)], 3)
    1
    """
    for p, pack in enumerate(packs):
        if pack[0] <= layer <= pack[-1]:
            return p
    raise SchedulingError(f"no pack covers layer {layer}")


def partition_layers_balanced(
    model: ModelGraph,
    num_parts: int,
    load: Callable[[int], float] | None = None,
) -> list[tuple[int, ...]]:
    """Split a model into ``num_parts`` contiguous runs minimizing the
    maximum per-run load (the classic linear-partition problem, solved
    by binary search on the bottleneck value).

    ``load(layer_index)`` defaults to forward FLOPs per sample — the
    compute-balanced partition that pipeline-parallel systems use, and
    that the paper notes leads to *memory*-imbalanced stages.
    """
    n = len(model)
    if num_parts < 1:
        raise SchedulingError("num_parts must be >= 1")
    if num_parts > n:
        raise SchedulingError(f"cannot split {n} layers into {num_parts} parts")
    if load is None:
        load = lambda i: model.layer(i).flops_fwd_per_sample  # noqa: E731
    loads = [float(load(i)) for i in range(n)]
    if any(x < 0 for x in loads):
        raise SchedulingError("layer loads must be non-negative")

    def parts_needed(cap: float) -> int:
        parts, current = 1, 0.0
        for x in loads:
            if current + x > cap and current > 0:
                parts += 1
                current = 0.0
            current += x
        return parts

    lo = max(loads) if loads else 0.0
    hi = sum(loads) or 1.0
    for __ in range(64):
        mid = (lo + hi) / 2
        if parts_needed(mid) <= num_parts:
            hi = mid
        else:
            lo = mid

    # Greedy emit under the found bottleneck, then pad to exactly
    # num_parts by splitting the largest remaining runs if short.
    runs: list[list[int]] = [[]]
    current = 0.0
    for i, x in enumerate(loads):
        if current + x > hi and runs[-1]:
            runs.append([])
            current = 0.0
        runs[-1].append(i)
        current += x
    while len(runs) < num_parts:
        # Split the run with the largest load that has >= 2 layers.
        candidates = [r for r in runs if len(r) >= 2]
        victim = max(candidates, key=lambda r: sum(loads[i] for i in r))
        idx = runs.index(victim)
        half = len(victim) // 2
        runs[idx : idx + 1] = [victim[:half], victim[half:]]
    return [tuple(run) for run in runs]


def suggest_pack_size(
    model: ModelGraph,
    capacity_bytes: float,
    microbatch_size: int,
    headroom: float = 0.5,
) -> int:
    """Largest uniform pack size whose worst working set fits within
    ``headroom`` of device capacity — the analytic pre-filter the tuner
    uses to avoid simulating obviously-infeasible granularities.

    Returns at least 1; the memory manager still raises
    :class:`~repro.errors.CapacityError` if even single-layer tasks do
    not fit.
    """
    if not 0 < headroom <= 1:
        raise SchedulingError("headroom must be in (0, 1]")
    budget = headroom * capacity_bytes
    best = 1
    for size in range(1, len(model) + 1):
        worst = max(
            pack_working_set_bytes(model, pack, microbatch_size)
            for pack in pack_layers(len(model), size)
        )
        if worst <= budget:
            best = size
        else:
            break
    return best


def pack_working_set_bytes(
    model: ModelGraph, pack: tuple[int, ...], microbatch_size: int
) -> float:
    """Peak bytes a packed forward task needs resident: all weights in
    the pack, the pack's input activation, per-layer stashes, and the
    output activation.  Used by the tuner's memory-feasibility check."""
    first, last = pack[0], pack[-1]
    weights = sum(model.layer(i).param_bytes for i in pack)
    stashes = sum(model.layer(i).stash_bytes(microbatch_size) for i in pack)
    inp = model.layer(first).in_bytes(microbatch_size)
    out = model.layer(last).out_bytes(microbatch_size)
    return weights + stashes + inp + out
