"""Schedulers: baseline, Harmony, and contemporary training schedules.

Every scheduler turns a model + topology + batching configuration into
a :class:`~repro.sim.Plan`.  The baselines reproduce how today's
frameworks behave with per-GPU memory virtualization bolted on
(the paper's Fig. 2 measurements); the Harmony schedulers implement the
paper's four optimizations — input-batch grouping, just-in-time
update scheduling, p2p transfers, and task packing — as individually
toggleable options, so the ablation benchmarks can attribute the win.
The zoo also carries the paper's contemporaries as comparison points:
PipeDream's 1F1B schedule and DAPPLE's early-backward hybrid schedule.
Those two share one stage order (DAPPLE's early backward with one
pipeline is 1F1B with a synchronous flush), so one class builds both,
as one class builds ``single`` (a one-replica DP baseline).  Each
class's own body defines ``plan``; shared code lives in functions and
helper methods of :mod:`repro.schedulers.base`.

The registry below is the single source of truth for scheme names:
the session, CLI, differential cross-checker, golden traces, and the
property/steady/fault test suites all enumerate it rather than keeping
their own lists, so a newly registered scheduler is exercised by the
whole stack for free.
"""

from typing import Callable

from repro.errors import ConfigError
from repro.schedulers.base import Scheduler, BatchConfig
from repro.schedulers.dp_baseline import DataParallelBaseline
from repro.schedulers.pp_baseline import PipelineBaseline
from repro.schedulers.harmony_dp import HarmonyDP
from repro.schedulers.harmony_pp import HarmonyPP
from repro.schedulers.harmony_tp import HarmonyTP
from repro.schedulers.dapple import DappleScheduler
from repro.schedulers.options import HarmonyOptions

#: scheme name -> factory(model, topology, batch, options).  Baseline
#: schemes honor only the ``pack_size`` option; Harmony schemes take the
#: full :class:`HarmonyOptions`; the contemporary pipeline schedules
#: (pipedream-1f1b, dapple) partition whole layers into stages and take
#: no options.  Insertion order is the canonical presentation order
#: (``compare`` tables, differential reports, golden-trace file sets).
SCHEDULER_REGISTRY: dict[str, Callable[..., Scheduler]] = {
    "single": lambda model, topology, batch, options: DataParallelBaseline(
        model, topology, batch, num_replicas=1, pack_size=options.pack_size
    ),
    "dp-baseline": lambda model, topology, batch, options: DataParallelBaseline(
        model, topology, batch, pack_size=options.pack_size
    ),
    "pp-baseline": lambda model, topology, batch, options: PipelineBaseline(
        model, topology, batch
    ),
    "harmony-dp": lambda model, topology, batch, options: HarmonyDP(
        model, topology, batch, options=options
    ),
    "harmony-pp": lambda model, topology, batch, options: HarmonyPP(
        model, topology, batch, options=options
    ),
    "harmony-tp": lambda model, topology, batch, options: HarmonyTP(
        model, topology, batch, options=options
    ),
    "pipedream-1f1b": lambda model, topology, batch, options: DappleScheduler(
        model, topology, batch
    ),
    "dapple": lambda model, topology, batch, options: DappleScheduler(
        model, topology, batch
    ),
}


def scheme_names() -> tuple[str, ...]:
    """Every registered scheme name, in canonical presentation order."""
    return tuple(SCHEDULER_REGISTRY)


def check_scheme(scheme: str) -> str:
    """``scheme`` if it is a registered name, else a
    :class:`~repro.errors.ConfigError` that lists every name."""
    if scheme not in SCHEDULER_REGISTRY:
        raise ConfigError(
            f"unknown scheme {scheme!r}; valid schemes: "
            + ", ".join(scheme_names())
        )
    return scheme


def build_scheduler(
    scheme: str,
    model,
    topology,
    batch: BatchConfig,
    options: HarmonyOptions | None = None,
) -> Scheduler:
    """Construct the scheduler for a scheme name (the single registry
    the session, CLI, and differential cross-checker all share).  Its
    plans are labelled with the scheme name."""
    options = options if options is not None else HarmonyOptions()
    scheduler = SCHEDULER_REGISTRY[check_scheme(scheme)](
        model, topology, batch, options
    )
    scheduler.name = scheme
    return scheduler


__all__ = [
    "Scheduler",
    "BatchConfig",
    "DataParallelBaseline",
    "PipelineBaseline",
    "HarmonyDP",
    "HarmonyPP",
    "HarmonyTP",
    "DappleScheduler",
    "HarmonyOptions",
    "SCHEDULER_REGISTRY",
    "scheme_names",
    "check_scheme",
    "build_scheduler",
]
