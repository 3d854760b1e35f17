"""The four workloads: their inputs, their ops and the digest of each
op's simulated outputs.

An *op* is one unit a user waits on.  A *round* is one pass over a
workload's op grid in the order the workload seed picks; the benchmark
times whole rounds, so every run covers the same ops and its figures
do not depend on which part of the grid a short run happened to reach.

Every call into ``repro`` goes through a module attribute (``zoo.build``,
``search.tune``, ...) so that the span recorder's wrappers see it.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from typing import Any

from repro import BatchConfig, CapacityError, HarmonyConfig, HarmonySession
from repro.experiments import faults_degradation
from repro.hardware import presets
from repro.models import zoo
from repro.perf.cache import RunCache
from repro.perf.incremental import CheckpointStore
from repro.schedulers import scheme_names
from repro.supervisor.supervisor import Supervisor
from repro.tuner import search
from repro.units import MB

#: Fault-plan seeds that have reference digests; a ``faults`` round
#: runs each of them once.
FAULT_SEEDS = (1, 2)


class Expected(Exception):
    """Raised by an op for an outcome the reference marks as expected
    (an infeasible ``compare`` point)."""


def run_digest(result) -> dict:
    """What a simulated run computed, reduced to the figures that a
    host-time optimization must leave unchanged."""
    stats = result.stats
    return {
        "makespan": result.makespan,
        "samples": result.samples,
        "swap_in_bytes": stats.swap_in_volume(),
        "swap_out_bytes": stats.swap_out_volume(),
        "p2p_bytes": stats.p2p_volume(),
        "link_busy_s": sum(result.link_busy.values()),
        "peak_bytes": {
            name: dev.peak_used for name, dev in sorted(result.devices.items())
        },
    }


class Workload:
    """One workload: ``setup`` builds its inputs, ``round`` lists one
    round of op keys, ``run`` executes an op (the timed part) and
    ``digest`` reduces its outcome (outside the timed part)."""

    name = ""

    def __init__(self, scratch: str):
        #: Directory for files an op writes (caches, journals).
        self.scratch = scratch

    def setup(self) -> None:
        raise NotImplementedError

    def grid(self) -> list[str]:
        """Every op key, in canonical order."""
        raise NotImplementedError

    def round(self, seed: int) -> list[str]:
        """The grid in the order ``seed`` picks."""
        keys = self.grid()
        random.Random(seed).shuffle(keys)
        return keys

    def run(self, key: str) -> Any:
        raise NotImplementedError

    def digest(self, key: str, outcome: Any) -> Any:
        raise NotImplementedError

    def failure(self, key: str, outcome: Any) -> str | None:
        """A reason the outcome is wrong regardless of the reference."""
        return None

    def cleanup(self, key: str, outcome: Any) -> None:
        """Release what an op left on disk (outside the timed part)."""


class Compare(Workload):
    """Every model x every registered scheme x m in {2, 4, 8}, audited,
    on the paper's four-GPU server."""

    name = "compare"
    MODELS = ("bert-large", "gpt2", "t5", "megatron")
    MICROBATCHES = (2, 4, 8)

    def setup(self) -> None:
        self.models = {name: zoo.build(name) for name in self.MODELS}
        self.topology = presets.gtx1080ti_server(4)

    def grid(self) -> list[str]:
        return [
            f"{model}/{scheme}/m={m}"
            for model in self.MODELS
            for scheme in scheme_names()
            for m in self.MICROBATCHES
        ]

    def run(self, key: str) -> Any:
        model, scheme, m = key.split("/")
        config = HarmonyConfig(
            scheme, batch=BatchConfig(1, int(m[2:])), audit=True
        )
        try:
            return HarmonySession(self.models[model], self.topology, config).run()
        except CapacityError as exc:
            raise Expected(type(exc).__name__) from exc

    def digest(self, key: str, outcome: Any) -> Any:
        if isinstance(outcome, Expected):
            return {"error": str(outcome)}
        return run_digest(outcome)


class Fleet(Workload):
    """One audited iteration on a 1024-GPU rack cluster, alternating a
    Harmony and a baseline data-parallel scheme."""

    name = "fleet"
    SCHEMES = ("harmony-dp", "dp-baseline")

    def setup(self) -> None:
        self.topology = presets.rack_cluster(num_racks=16, servers_per_rack=16)
        self.model = zoo.synthetic_uniform(
            num_layers=4, param_bytes_per_layer=10 * MB, activation_bytes=2 * MB
        )

    def grid(self) -> list[str]:
        return list(self.SCHEMES)

    def run(self, key: str) -> Any:
        config = HarmonyConfig(key, batch=BatchConfig(1, 2), audit=True)
        return HarmonySession(self.model, self.topology, config).run()

    def digest(self, key: str, outcome: Any) -> Any:
        return run_digest(outcome)


class Tune(Workload):
    """The tuner's search on gpt2 at two profile depths sharing one
    disk-backed run cache and prefix-checkpoint store."""

    name = "tune"
    DEPTHS = (2, 8)

    def setup(self) -> None:
        self.model = zoo.build("gpt2")
        self.topology = presets.gtx1080ti_server(4)

    def grid(self) -> list[str]:
        return ["gpt2/minibatch=8"]

    def run(self, key: str) -> Any:
        root = tempfile.mkdtemp(prefix="tune-", dir=self.scratch)
        cache = RunCache(os.path.join(root, "cache"))
        checkpoints = CheckpointStore(os.path.join(root, "checkpoints"))
        results = [
            search.tune(
                self.model, self.topology, 8, cache=cache,
                checkpoints=checkpoints, profile_iterations=depth,
            )
            for depth in self.DEPTHS
        ]
        return root, results

    def digest(self, key: str, outcome: Any) -> Any:
        _, results = outcome
        return [
            {
                "best": r.best.label,
                "throughput": r.best.throughput,
                "points": len(r.points),
            }
            for r in results
        ]

    def cleanup(self, key: str, outcome: Any) -> None:
        if isinstance(outcome, tuple):
            shutil.rmtree(outcome[0], ignore_errors=True)


class Faults(Workload):
    """The MTTF degradation sweep under a supervisor, then the
    recovery-policy sweep on a raw pool, both on bert-large with two
    workers.  With ``inline`` set the same cells run in this process (the
    traced run's view of the worker side)."""

    name = "faults"
    JOBS = 2
    inline = False

    def setup(self) -> None:
        self.model = zoo.build("bert-large")

    def grid(self) -> list[str]:
        return [f"seed={s}" for s in FAULT_SEEDS]

    def run(self, key: str) -> Any:
        seed = int(key.split("=")[1])
        root = tempfile.mkdtemp(prefix="faults-", dir=self.scratch)
        if self.inline:
            supervisor = Supervisor(inline=True)
            jobs = 1
        else:
            supervisor = Supervisor(
                jobs=self.JOBS, journal=os.path.join(root, "journal.jsonl")
            )
            jobs = self.JOBS
        rows = faults_degradation.run(
            model=self.model, supervisor=supervisor, seed=seed
        )
        recovery = faults_degradation.run_recovery(
            model=self.model, jobs=jobs, seed=seed
        )
        return root, rows, recovery

    @staticmethod
    def _cells(outcome) -> tuple[list, list]:
        """(cell name, row) for the degradation and the recovery sweep."""
        _, rows, recovery = outcome
        return (
            [(f"{r.scheme}@mttf={r.mttf_iters:g}", r) for r in rows],
            [(f"{r.scheme}@{r.policy}", r) for r in recovery],
        )

    def digest(self, key: str, outcome: Any) -> Any:
        degradation, recovery = self._cells(outcome)
        return {
            "degradation": [
                {
                    "cell": cell,
                    "goodput": r.goodput,
                    "replans": r.replans,
                    "iterations_redone": r.iterations_redone,
                    "recovered": r.recovered,
                }
                for cell, r in degradation
            ],
            "recovery": [
                {
                    "cell": cell,
                    "goodput": r.goodput,
                    "losses": r.losses,
                    "rejoins": r.rejoins,
                    "spares_used": r.spares_used,
                    "stall_seconds": r.stall_seconds,
                    "recovered": r.recovered,
                }
                for cell, r in recovery
            ],
        }

    def failure(self, key: str, outcome: Any) -> str | None:
        degradation, recovery = self._cells(outcome)
        lost = [cell for cell, r in degradation + recovery if not r.recovered]
        return f"unrecovered fault cells: {', '.join(lost)}" if lost else None

    def cleanup(self, key: str, outcome: Any) -> None:
        if isinstance(outcome, tuple):
            shutil.rmtree(outcome[0], ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Compare, Fleet, Tune, Faults)
}
