"""Tuning search: find the best (pack size, microbatch shape).

The paper calls "algorithmically determining the optimal task
granularity and the size of microbatches they operate on" an open,
multi-dimensional problem.  This tuner takes the profile-guided view:
enumerate the feasible grid for a fixed per-replica mini-batch, then
hill-climb pack size around the best grid point (including a distinct
backward pack size, motivated by backward's 2-3x footprint).

The search is embarrassingly parallel and highly redundant — the grid
fans out over a plain :class:`~repro.supervisor.Supervisor` pool
(``jobs``), and every profiled point is content-addressed in a
:class:`~repro.perf.cache.RunCache` so the hill-climb's revisits (and
any later search over the same workload) are cache hits instead of
fresh simulations.

A search can also run under a :class:`~repro.supervisor.Supervisor`
(the CLI's ``--journal``): every profiled point becomes a journaled,
watchdogged task, so a crashed or interrupted search resumes from its
last completed probe instead of starting over.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from dataclasses import dataclass, field

if TYPE_CHECKING:
    from repro.perf.incremental import CheckpointStore

from repro.errors import ConfigError
from repro.hardware.topology import Topology
from repro.models.graph import ModelGraph
from repro.perf.cache import RunCache
from repro.perf.fingerprint import fingerprint
from repro.supervisor import Supervisor, Task
from repro.tuner.profiler import (
    ProfilePoint,
    profile_config,
    profile_configuration,
)
from repro.util.tables import Table


def _splits(minibatch: int) -> list[tuple[int, int]]:
    """All (microbatch_size, num_microbatches) factorizations.

    Divisors come in pairs (d, minibatch // d), so enumerating up to
    √minibatch finds them all — O(√n) instead of scanning every
    candidate size, which matters when the tuner is pointed at large
    per-replica mini-batches.
    """
    out = []
    size = 1
    while size * size <= minibatch:
        if minibatch % size == 0:
            out.append((size, minibatch // size))
            partner = minibatch // size
            if partner != size:
                out.append((partner, size))
        size += 1
    out.sort()
    return out


def _pack_candidates(num_layers: int) -> list[int]:
    """A coarse geometric ladder of pack sizes."""
    sizes = []
    size = 1
    while size < num_layers:
        sizes.append(size)
        size *= 2
    sizes.append(num_layers)
    return sorted(set(sizes))


# A combo is one point of the search space:
# (pack_size, microbatch_size, num_microbatches, prefetch, pack_size_bwd)
_Combo = tuple[int, int, int, bool, "int | None"]


def _combo_label(combo: _Combo) -> str:
    pack, mb_size, m, prefetch, bwd = combo
    extras = ("+prefetch" if prefetch else "") + (
        f"+bwd{bwd}" if bwd is not None else ""
    )
    return f"pack{pack}-{mb_size}x{m}{extras}"


def _profile_combo(
    payload: tuple[
        ModelGraph, Topology, str, _Combo, int,
        "str | None", "str | None",
    ],
) -> ProfilePoint:
    """Worker: profile one combo (top-level for pickling).

    The checkpoint store crosses the process boundary as its *directory*
    (the store object holds a lock): workers reopen the disk tier and
    share prefix snapshots through it.  A memory-only store stays with
    the inline path — its snapshots cannot cross processes.
    """
    model, topology, parallelism, combo, iterations, steady, ckpt_dir = payload
    pack, mb_size, m, prefetch, bwd = combo
    checkpoints = None
    if ckpt_dir is not None:
        from repro.perf.incremental import CheckpointStore

        checkpoints = CheckpointStore(ckpt_dir)
    return profile_configuration(
        model, topology, pack, mb_size, m,
        parallelism=parallelism, prefetch=prefetch, pack_size_bwd=bwd,
        iterations=iterations, steady_state=steady, checkpoints=checkpoints,
    )


class _Profiler:
    """Cache-aware, optionally parallel evaluator of profile points.

    Every evaluation goes through here so the search phases share one
    pair of hit/miss counters; batches fan out over the supervisor's
    workers and come back in submission order.
    """

    def __init__(
        self,
        model: ModelGraph,
        topology: Topology,
        parallelism: str,
        cache: RunCache | None = None,
        jobs: int = 1,
        supervisor: "Supervisor | None" = None,
        iterations: int = 1,
        steady_state: "str | None" = None,
        checkpoints: "CheckpointStore | None" = None,
    ):
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {iterations}")
        self.model = model
        self.topology = topology
        self.parallelism = parallelism
        self.cache = cache
        self.jobs = jobs
        self.supervisor = supervisor
        self.iterations = iterations
        self.steady_state = steady_state
        self.checkpoints = checkpoints
        self.hits = 0
        self.misses = 0

    def _key(self, combo: _Combo) -> str:
        pack, mb_size, m, prefetch, bwd = combo
        config = profile_config(
            pack, mb_size, m, parallelism=self.parallelism,
            prefetch=prefetch, pack_size_bwd=bwd,
            iterations=self.iterations, steady_state=self.steady_state,
        )
        return "profile:" + fingerprint(self.model, self.topology, config)

    def one(
        self,
        pack: int,
        mb_size: int,
        m: int,
        prefetch: bool = False,
        bwd: int | None = None,
    ) -> ProfilePoint:
        return self.many([(pack, mb_size, m, prefetch, bwd)])[0]

    def many(self, combos: list[_Combo]) -> list[ProfilePoint]:
        points: list[ProfilePoint | None] = [None] * len(combos)
        pending: list[int] = []
        miss = RunCache.MISS
        cache = self.cache
        # Every probe is keyed by its fingerprint, cached or not: the key
        # also names it in a supervisor's journal, so a search replays
        # only journaled probes of its own model, topology and config.
        keys = [self._key(combo) for combo in combos]
        for i, key in enumerate(keys):
            cached = cache.get(key, miss) if cache is not None else miss
            if cached is not miss:
                self.hits += 1
                points[i] = cached
            else:
                self.misses += 1
                pending.append(i)
        if pending:
            if self.supervisor is None and (
                self.jobs == 1 or len(pending) == 1
            ):
                # In this process: hand the store object straight
                # through, so a memory-only store works (and counters
                # accrue in-process).
                computed = [self._profile_inline(combos[i]) for i in pending]
            else:
                supervisor = self.supervisor
                if supervisor is None:
                    supervisor = Supervisor.plain(self.jobs)
                ckpt_dir = (
                    self.checkpoints.checkpoint_dir
                    if self.checkpoints is not None
                    else None
                )
                # The profiler owns cache accounting, so tasks are not
                # supervisor-cacheable; the journal still records every
                # point, making an interrupted search resumable.
                tasks = [
                    Task(
                        key=keys[i],
                        fn=_profile_combo,
                        payload=(
                            self.model, self.topology, self.parallelism,
                            combos[i], self.iterations, self.steady_state,
                            ckpt_dir,
                        ),
                        label=_combo_label(combos[i]),
                    )
                    for i in pending
                ]
                computed = supervisor.run_tasks(tasks)
            for i, point in zip(pending, computed):
                points[i] = point
                if cache is not None:
                    cache.put(keys[i], point)
        return points  # type: ignore[return-value]

    def _profile_inline(self, combo: _Combo) -> ProfilePoint:
        pack, mb_size, m, prefetch, bwd = combo
        return profile_configuration(
            self.model, self.topology, pack, mb_size, m,
            parallelism=self.parallelism, prefetch=prefetch,
            pack_size_bwd=bwd, iterations=self.iterations,
            steady_state=self.steady_state, checkpoints=self.checkpoints,
        )


@dataclass
class TuneResult:
    best: ProfilePoint
    points: list[ProfilePoint] = field(default_factory=list)
    #: Run-cache accounting over the whole search / just the hill-climb
    #: refinement (all zero when the tuner ran without a cache).
    cache_hits: int = 0
    cache_misses: int = 0
    hill_hits: int = 0
    hill_misses: int = 0
    #: Prefix-checkpoint accounting (all zero without a store, or when
    #: probes ran in worker processes against the store's disk tier —
    #: those counters accrue in the workers).
    prefix_hits: int = 0
    prefix_misses: int = 0
    #: Simulated iterations short-circuited by prefix restores across
    #: the search — the work incremental re-simulation saved.
    saved_iterations: int = 0

    @property
    def feasible_points(self) -> list[ProfilePoint]:
        return [p for p in self.points if p.feasible]

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def hill_climb_hit_rate(self) -> float:
        """Fraction of hill-climb probes served from the run cache —
        the revisit savings the cache exists for."""
        total = self.hill_hits + self.hill_misses
        return self.hill_hits / total if total else 0.0

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of simulated probes that restored a prefix
        checkpoint instead of cold-starting iteration 1."""
        total = self.prefix_hits + self.prefix_misses
        return self.prefix_hits / total if total else 0.0

    def table(self) -> Table:
        table = Table(
            ["config", "feasible", "samples/s", "swap-out GB", "peak mem GB"],
            title=f"tuner search ({len(self.points)} points); best: {self.best.label}",
        )
        for p in sorted(
            self.points, key=lambda p: (-p.throughput, p.pack_size)
        ):
            table.add_row(
                [
                    p.label,
                    "yes" if p.feasible else "NO",
                    f"{p.throughput:.3f}",
                    f"{p.swap_out_bytes / 1e9:.2f}",
                    f"{p.peak_used_bytes / 1e9:.2f}",
                ]
            )
        return table


def tune(
    model: ModelGraph,
    topology: Topology,
    minibatch_per_replica: int,
    parallelism: str = "harmony-pp",
    prefetch_options: tuple[bool, ...] = (False,),
    refine: bool = True,
    search_bwd_pack: bool = False,
    cache: RunCache | None = None,
    jobs: int = 1,
    supervisor: "Supervisor | None" = None,
    profile_iterations: int = 1,
    steady_state: "str | None" = None,
    checkpoints: "CheckpointStore | None" = None,
) -> TuneResult:
    """Grid-search microbatch splits x pack sizes x prefetch, then
    hill-climb pack size around the winner.

    ``search_bwd_pack`` additionally probes *smaller backward pack
    sizes* at the winner: the paper notes a fixed pack has 2-3x the
    footprint in the backward pass, "motivating the need for different
    pack and microbatch sizes across these passes".

    ``jobs`` fans the grid out over a plain
    :class:`~repro.supervisor.Supervisor` pool (single probes stay in
    this process); ``cache`` makes repeated probes (hill-climb
    revisits, re-runs of the same search) cache hits.  ``supervisor``
    routes every probe through that supervisor instead — crash
    recovery, watchdog, and ``--journal`` resumability.

    ``profile_iterations`` makes each probe simulate that many
    iterations (settled steady-state throughput rather than a first
    iteration's); ``checkpoints`` then turns re-probes into incremental
    re-simulations — restore the deepest shared iteration boundary,
    simulate only the suffix (:mod:`repro.perf.incremental`).  All of
    these leave the selected ``best`` point bit-identical to a serial,
    uncached, unsupervised search.
    """
    if minibatch_per_replica < 1:
        raise ConfigError("minibatch_per_replica must be >= 1")
    profiler = _Profiler(
        model, topology, parallelism, cache=cache, jobs=jobs,
        supervisor=supervisor, iterations=profile_iterations,
        steady_state=steady_state, checkpoints=checkpoints,
    )
    ckpt0 = checkpoints.counters() if checkpoints is not None else None
    combos: list[_Combo] = [
        (pack, mb_size, m, prefetch, None)
        for mb_size, m in _splits(minibatch_per_replica)
        for pack in _pack_candidates(len(model))
        for prefetch in prefetch_options
    ]
    points = profiler.many(combos)
    feasible = [p for p in points if p.feasible]
    if not feasible:
        raise ConfigError(
            "no feasible configuration found: the model cannot be trained "
            "on this topology at any profiled granularity"
        )
    best = max(feasible, key=lambda p: p.throughput)
    hill_hits = hill_misses = 0
    if refine:
        hits0, misses0 = profiler.hits, profiler.misses
        best, extra = _hill_climb(model, best, profiler)
        points = points + extra
        hill_hits = profiler.hits - hits0
        hill_misses = profiler.misses - misses0
    if search_bwd_pack:
        best, extra = _refine_bwd_pack(best, profiler)
        points = points + extra
    prefix_hits = prefix_misses = saved = 0
    if ckpt0 is not None:
        ckpt1 = checkpoints.counters()
        prefix_hits = ckpt1["hits"] - ckpt0["hits"]
        prefix_misses = ckpt1["misses"] - ckpt0["misses"]
        saved = ckpt1["saved_iterations"] - ckpt0["saved_iterations"]
    return TuneResult(
        best=best,
        points=points,
        cache_hits=profiler.hits,
        cache_misses=profiler.misses,
        hill_hits=hill_hits,
        hill_misses=hill_misses,
        prefix_hits=prefix_hits,
        prefix_misses=prefix_misses,
        saved_iterations=saved,
    )


def _refine_bwd_pack(
    start: ProfilePoint,
    profiler: _Profiler,
) -> tuple[ProfilePoint, list[ProfilePoint]]:
    """Probe backward pack sizes smaller than the forward winner's
    (backward working sets are the larger ones, so only shrinking can
    relieve pressure)."""
    best = start
    extra: list[ProfilePoint] = []
    candidates = sorted(
        {max(1, start.pack_size // 2), max(1, start.pack_size - 1)}
        - {start.pack_size}
    )
    for bwd in candidates:
        point = profiler.one(
            start.pack_size, start.microbatch_size, start.num_microbatches,
            prefetch=start.prefetch, bwd=bwd,
        )
        extra.append(point)
        if point.feasible and point.throughput > best.throughput:
            best = point
    return best, extra


def _hill_climb(
    model: ModelGraph,
    start: ProfilePoint,
    profiler: _Profiler,
) -> tuple[ProfilePoint, list[ProfilePoint]]:
    """Local search over pack size (+/-1 steps) from the grid winner.

    With a cache the climb re-probes already-visited pack sizes (the
    grid winner itself and the direction it came from) — those are
    exactly the revisits that become cache hits.  Without a cache it
    skips them, matching the cost of the classic seen-set version.
    Either way a revisit can never beat the incumbent (the comparison
    is strict), so the selected point is identical.
    """
    best = start
    extra: list[ProfilePoint] = []
    visited = {start.pack_size}
    revisit = profiler.cache is not None
    improved = True
    while improved:
        improved = False
        for candidate in (
            best.pack_size - 1, best.pack_size, best.pack_size + 1
        ):
            if candidate < 1 or candidate > len(model):
                continue
            first_visit = candidate not in visited
            if not first_visit and not revisit:
                continue
            point = profiler.one(
                candidate, best.microbatch_size, best.num_microbatches,
                prefetch=best.prefetch,
            )
            if first_visit:
                visited.add(candidate)
                extra.append(point)
            if point.feasible and point.throughput > best.throughput:
                best = point
                improved = True
    return best, extra
