"""Online tuning by simulated annealing.

The paper (§3) suggests "a reinforcement learning agent can be used for
such online tuning" of task combinations.  This module provides a
learning-driven search over the same space as the grid tuner —
(pack size, microbatch split, prefetch) — using simulated annealing
with a deterministic seeded RNG: each step profiles one configuration
(one simulated iteration, exactly what an online agent would observe),
proposes a neighbour, and accepts uphill moves with a temperature-
decayed probability.

Annealing reaches near-grid-optimal configurations while profiling far
fewer points than the exhaustive grid — the property that matters for
*online* tuning, where every probe costs a real training iteration.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.hardware.topology import Topology
from repro.models.graph import ModelGraph
from repro.tuner.profiler import ProfilePoint, profile_configuration
from repro.tuner.search import _splits

if TYPE_CHECKING:
    from repro.perf.incremental import CheckpointStore


@dataclass(frozen=True)
class _Config:
    pack_size: int
    microbatch_size: int
    prefetch: bool


@dataclass
class AnnealResult:
    best: ProfilePoint
    history: list[ProfilePoint] = field(default_factory=list)
    #: Prefix-checkpoint accounting for the anneal's probes (zero
    #: without a store).
    prefix_hits: int = 0
    prefix_misses: int = 0
    saved_iterations: int = 0

    @property
    def probes(self) -> int:
        return len(self.history)

    @property
    def prefix_hit_rate(self) -> float:
        total = self.prefix_hits + self.prefix_misses
        return self.prefix_hits / total if total else 0.0


def anneal(
    model: ModelGraph,
    topology: Topology,
    minibatch_per_replica: int,
    parallelism: str = "harmony-pp",
    steps: int = 24,
    initial_temperature: float = 0.3,
    seed: int = 0,
    profile_iterations: int = 1,
    steady_state: "str | None" = None,
    checkpoints: "CheckpointStore | None" = None,
) -> AnnealResult:
    """Anneal over (pack, microbatch split, prefetch).

    ``steps`` bounds the number of profiled configurations — the
    online-tuning budget.  Deterministic for a given ``seed``.

    ``profile_iterations`` makes each probe observe that many simulated
    iterations; with a ``checkpoints`` store, probes of configurations
    the store has seen (a previous anneal, a donor grid search, or this
    anneal re-crossing its own path at a deeper budget) restore the
    deepest shared iteration boundary instead of cold-starting —
    byte-identical, per :mod:`repro.perf.incremental`.
    """
    if minibatch_per_replica < 1:
        raise ConfigError("minibatch_per_replica must be >= 1")
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    if profile_iterations < 1:
        raise ConfigError("profile_iterations must be >= 1")
    rng = random.Random(seed)
    ckpt0 = checkpoints.counters() if checkpoints is not None else None
    splits = [size for size, _ in _splits(minibatch_per_replica)]
    max_pack = len(model)

    def neighbours(cfg: _Config) -> list[_Config]:
        out = []
        for delta in (-2, -1, 1, 2):
            pack = cfg.pack_size + delta
            if 1 <= pack <= max_pack:
                out.append(_Config(pack, cfg.microbatch_size, cfg.prefetch))
        idx = splits.index(cfg.microbatch_size)
        for didx in (-1, 1):
            if 0 <= idx + didx < len(splits):
                out.append(_Config(cfg.pack_size, splits[idx + didx], cfg.prefetch))
        out.append(_Config(cfg.pack_size, cfg.microbatch_size, not cfg.prefetch))
        return out

    def profile(cfg: _Config) -> ProfilePoint:
        return profile_configuration(
            model,
            topology,
            cfg.pack_size,
            cfg.microbatch_size,
            minibatch_per_replica // cfg.microbatch_size,
            parallelism=parallelism,
            prefetch=cfg.prefetch,
            iterations=profile_iterations,
            steady_state=steady_state,
            checkpoints=checkpoints,
        )

    current = _Config(1, splits[0], False)
    current_point = profile(current)
    history = [current_point]
    best_point = current_point

    seen: dict[_Config, ProfilePoint] = {current: current_point}
    for step in range(1, steps):
        temperature = initial_temperature * (1 - step / steps)
        candidates = neighbours(current)
        proposal = candidates[rng.randrange(len(candidates))]
        point = seen.get(proposal)
        if point is None:
            point = profile(proposal)
            seen[proposal] = point
            history.append(point)
        if not point.feasible:
            continue  # fenced-off region: stay put
        if not current_point.feasible:
            accept = True
        else:
            gain = (point.throughput - current_point.throughput) / max(
                current_point.throughput, 1e-12
            )
            accept = gain >= 0 or (
                temperature > 0 and rng.random() < math.exp(gain / temperature)
            )
        if accept:
            current, current_point = proposal, point
            if point.feasible and point.throughput > best_point.throughput:
                best_point = point
    if not best_point.feasible:
        raise ConfigError(
            "annealing found no feasible configuration within its budget"
        )
    prefix_hits = prefix_misses = saved = 0
    if ckpt0 is not None:
        ckpt1 = checkpoints.counters()
        prefix_hits = ckpt1["hits"] - ckpt0["hits"]
        prefix_misses = ckpt1["misses"] - ckpt0["misses"]
        saved = ckpt1["saved_iterations"] - ckpt0["saved_iterations"]
    return AnnealResult(
        best=best_point,
        history=history,
        prefix_hits=prefix_hits,
        prefix_misses=prefix_misses,
        saved_iterations=saved,
    )
