"""Profiling one (pack size, microbatch shape) configuration.

A profile point is one simulated iteration's outcome (or several, with
``iterations > 1`` — e.g. an online tuner measuring settled steady-state
throughput), or an explicit infeasibility marker when the
configuration's working set cannot fit (the hard wall of the
memory-performance tango).

Multi-iteration probes accept a prefix-checkpoint store
(:mod:`repro.perf.incremental`): re-probes of a configuration the store
has seen restore the deepest shared iteration boundary and simulate
only the suffix — byte-identical to a cold probe, at roughly
``1/iterations`` the cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.config import HarmonyConfig
from repro.core.session import HarmonySession
from repro.errors import CapacityError
from repro.hardware.topology import Topology
from repro.models.graph import ModelGraph
from repro.schedulers.base import BatchConfig
from repro.schedulers.options import HarmonyOptions

if TYPE_CHECKING:
    from repro.perf.incremental import CheckpointStore


@dataclass(frozen=True)
class ProfilePoint:
    """Outcome of one profiled configuration."""

    pack_size: int
    microbatch_size: int
    num_microbatches: int
    prefetch: bool
    feasible: bool
    throughput: float = 0.0
    makespan: float = 0.0
    swap_out_bytes: float = 0.0
    p2p_bytes: float = 0.0
    peak_used_bytes: float = 0.0
    failure: str = ""
    pack_size_bwd: int | None = None

    @property
    def label(self) -> str:
        pf = "+pf" if self.prefetch else ""
        bwd = (
            f"/bwd={self.pack_size_bwd}"
            if self.pack_size_bwd is not None
            and self.pack_size_bwd != self.pack_size
            else ""
        )
        return (
            f"pack={self.pack_size}{bwd} mb={self.microbatch_size}x"
            f"{self.num_microbatches}{pf}"
        )


def profile_config(
    pack_size: int,
    microbatch_size: int,
    num_microbatches: int,
    parallelism: str = "harmony-pp",
    prefetch: bool = False,
    pack_size_bwd: int | None = None,
    iterations: int = 1,
    steady_state: str | None = None,
) -> HarmonyConfig:
    """The exact session config a profile point simulates — the tuner
    fingerprints this to content-address points in its run cache."""
    return HarmonyConfig(
        parallelism=parallelism,
        batch=BatchConfig(microbatch_size, num_microbatches),
        options=HarmonyOptions(pack_size=pack_size, pack_size_bwd=pack_size_bwd),
        prefetch=prefetch,
        iterations=iterations,
        steady_state=steady_state,
    )


def profile_configuration(
    model: ModelGraph,
    topology: Topology,
    pack_size: int,
    microbatch_size: int,
    num_microbatches: int,
    parallelism: str = "harmony-pp",
    prefetch: bool = False,
    pack_size_bwd: int | None = None,
    iterations: int = 1,
    steady_state: str | None = None,
    checkpoints: "CheckpointStore | None" = None,
) -> ProfilePoint:
    """Simulate one configuration; infeasible configurations (working
    set exceeds device memory) are reported, not raised — the tuner
    treats them as fenced-off regions of the search space."""
    config = profile_config(
        pack_size, microbatch_size, num_microbatches,
        parallelism=parallelism, prefetch=prefetch, pack_size_bwd=pack_size_bwd,
        iterations=iterations, steady_state=steady_state,
    )
    session = HarmonySession(model, topology, config, checkpoints=checkpoints)
    try:
        result = session.run()
    except CapacityError as exc:
        return ProfilePoint(
            pack_size=pack_size,
            microbatch_size=microbatch_size,
            num_microbatches=num_microbatches,
            prefetch=prefetch,
            feasible=False,
            failure=str(exc),
            pack_size_bwd=pack_size_bwd,
        )
    peak = max(d.peak_used for d in result.devices.values())
    return ProfilePoint(
        pack_size=pack_size,
        microbatch_size=microbatch_size,
        num_microbatches=num_microbatches,
        prefetch=prefetch,
        feasible=True,
        throughput=result.throughput,
        makespan=result.makespan,
        swap_out_bytes=result.swap_out_volume,
        p2p_bytes=result.stats.p2p_volume(),
        peak_used_bytes=peak,
        pack_size_bwd=pack_size_bwd,
    )
