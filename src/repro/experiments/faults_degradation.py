"""Graceful degradation under faults: Harmony vs the rigid baselines.

The sweep injects device losses at decreasing MTTF (mean time to
failure, expressed in fault-free iteration times) into a fixed
multi-iteration workload and measures the goodput each scheme retains.
Harmony's late-binding design re-plans the remaining work onto the
survivors and restarts from the last checkpoint; the per-GPU-
virtualization baselines are pinned to their world size, so a loss
invalidates their checkpoints and rolls back every credited iteration.
The claim mirrored here: Harmony schemes degrade strictly more
gracefully than their corresponding baseline under the same fault plan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from repro.core.config import HarmonyConfig
from repro.faults.detection import DetectorConfig
from repro.faults.model import (
    DeviceLoss,
    DeviceReturn,
    FaultPlan,
    SpareDevice,
    TransientTransferError,
    mttf_loss_plan,
)
from repro.faults.recovery import recovery_names
from repro.faults.resilience import ResiliencePolicy
from repro.faults.runner import run_resilient
from repro.hardware import presets
from repro.hardware.topology import Topology
from repro.models import zoo
from repro.models.graph import ModelGraph
from repro.perf.fingerprint import fingerprint
from repro.schedulers.base import BatchConfig
from repro.sim.executor import ExecOptions, Executor
from repro.schedulers import build_scheduler
from repro.supervisor import Supervisor, Task
from repro.units import GB
from repro.util.tables import Table

#: (harmony scheme, rigid baseline it is compared against)
SCHEME_PAIRS = (
    ("harmony-dp", "dp-baseline"),
    ("harmony-pp", "pp-baseline"),
)


@dataclass(frozen=True)
class DegradationRow:
    """One (scheme, MTTF) cell of the sweep."""

    scheme: str
    mttf_iters: float          # MTTF in fault-free iteration times (inf = healthy)
    losses: int
    replans: int
    iterations_redone: int
    retried_gb: float
    goodput: float             # credited samples / total wall-clock
    goodput_ratio: float       # vs the scheme's own fault-free run
    recovered: bool


def iteration_time(
    scheme: str, model: ModelGraph, topology: Topology, batch: BatchConfig
) -> float:
    """The scheme's fault-free iteration time: the unit of a cell's MTTF."""
    plan = build_scheduler(scheme, model, topology, batch).plan()
    return Executor(topology, plan, options=ExecOptions()).run().makespan


def mttf_plan(
    topology: Topology, mttf_iters: float, iter_time: float, iterations: int,
    seed: int, extra: tuple = (),
) -> FaultPlan:
    """One cell's fault plan: device losses every ``mttf_iters``
    fault-free iteration times (``iter_time`` each) over a horizon of
    ``iterations`` of them, plus ``extra``; no loss at an infinite
    MTTF.  Measuring both in the scheme's own iteration time gives
    every scheme proportionally equal fault pressure."""
    if mttf_iters == float("inf"):
        return FaultPlan(seed=seed, faults=extra)
    return mttf_loss_plan(
        [g.name for g in topology.gpus()],
        mttf=mttf_iters * iter_time,
        horizon=iter_time * iterations,
        seed=seed,
        extra=extra,
    )


def _run_cell(payload) -> DegradationRow:
    """Worker for one (MTTF, scheme) cell (top-level for pickling).

    The cell's :class:`~repro.faults.report.FaultReport` carries every
    segment's trace, plan and topology, of which the sweep reads a few
    numbers.  So the worker reduces the report to its row, and only the
    row crosses the pipe and lands in the journal and the run cache."""
    scheme, mttf, model, topology, config, plan, iterations = payload
    report = run_resilient(
        model, topology, config, plan, iterations=iterations
    ).faults
    return DegradationRow(
        scheme=scheme,
        mttf_iters=mttf,
        losses=len(report.device_losses),
        replans=report.replans,
        iterations_redone=report.iterations_redone,
        retried_gb=report.retried_bytes / GB,
        goodput=report.goodput,
        goodput_ratio=report.goodput_ratio,
        recovered=report.recovered,
    )


def run(
    model: ModelGraph | None = None,
    num_gpus: int = 4,
    iterations: int = 6,
    mttf_iters: tuple[float, ...] = (float("inf"), 8.0, 4.0, 2.5),
    transient_probability: float = 0.02,
    seed: int = 1,
    batch: BatchConfig | None = None,
    jobs: int = 1,
    supervisor: "Supervisor | None" = None,
) -> list[DegradationRow]:
    """Sweep fault rates over every scheme pair; rows are grouped by
    MTTF so the table reads as Fig.-style columns per scheme.

    Every (MTTF, scheme) cell is an independent resilient run whose
    fault plan is fully determined by ``seed``, so the cells run as
    tasks on ``supervisor`` (default: a plain one over ``jobs``
    workers).  Each cell returns its row (:func:`_run_cell`) and the
    rows come back in cell order, keeping the table byte-identical to
    a serial sweep.  A durable supervisor journals and watchdogs the
    cells, so an interrupted MTTF sweep resumes from its last
    completed cell (the CLI's ``--journal``)."""
    model = model if model is not None else zoo.synthetic_uniform(num_layers=8)
    topology = presets.gtx1080ti_server(num_gpus=num_gpus)
    batch = batch if batch is not None else BatchConfig()
    schemes = [s for pair in SCHEME_PAIRS for s in pair]
    iter_time = {
        scheme: iteration_time(scheme, model, topology, batch)
        for scheme in schemes
    }

    tasks = []
    for mttf, scheme in product(mttf_iters, schemes):
        faults: tuple = ()
        if transient_probability > 0:
            faults = (
                TransientTransferError(probability=transient_probability),
            )
        plan = mttf_plan(
            topology, mttf, iter_time[scheme], iterations, seed, faults
        )
        config = HarmonyConfig(scheme, batch=batch)
        tasks.append(
            Task(
                # "faults-row:" since cells return rows: a journal or run
                # cache written when they returned FaultReports
                # ("faults:") must not replay one into a row slot.
                key=(
                    f"faults-row:{fingerprint(model, topology, config)}"
                    f":mttf={mttf:g}:iters={iterations}"
                    f":seed={seed}:tp={transient_probability:g}"
                ),
                fn=_run_cell,
                payload=(scheme, mttf, model, topology, config, plan, iterations),
                label=f"{scheme}@mttf={mttf:g}",
                cacheable=True,
            )
        )
    if supervisor is None:
        supervisor = Supervisor.plain(jobs)
    return supervisor.run_tasks(tasks)


def table(rows: list[DegradationRow] | None = None) -> Table:
    rows = rows if rows is not None else run()
    out = Table(
        ["mttf (iters)", "scheme", "losses", "replans", "redone",
         "retried GB", "goodput", "vs fault-free", "recovered"],
        title="graceful degradation under device loss (goodput ratio, higher is better)",
    )
    for row in rows:
        mttf = "healthy" if row.mttf_iters == float("inf") else f"{row.mttf_iters:g}"
        out.add_row([
            mttf,
            row.scheme,
            str(row.losses),
            str(row.replans),
            str(row.iterations_redone),
            f"{row.retried_gb:.3f}",
            f"{row.goodput:.3f}",
            f"{row.goodput_ratio:.3f}",
            "yes" if row.recovered else "NO",
        ])
    return out


# -- recovery-policy sweep (MTTR x policy x scheme) ---------------------------

#: Schemes the recovery sweep crosses with every registered policy:
#: both Harmony/baseline DP flavors plus Harmony's pipeline scheme.
RECOVERY_SCHEMES = ("harmony-dp", "dp-baseline", "harmony-pp")


@dataclass(frozen=True)
class RecoveryRow:
    """One (scheme, recovery policy) cell of the MTTR sweep."""

    scheme: str
    policy: str
    losses: int
    rejoins: int
    spares_used: int
    mttr_p50: float            # median time-to-repair across incidents
    mttr_p95: float
    stall_seconds: float       # grace-window holds (wait-rejoin)
    goodput: float
    goodput_ratio: float       # vs the scheme's own fault-free run
    recovered: bool


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a sorted sample (0.0 when empty)."""
    if not values:
        return 0.0
    idx = min(len(values) - 1, max(0, int(round(q * (len(values) - 1)))))
    return values[idx]


def _run_recovery_cell(payload) -> RecoveryRow:
    """Worker for one (scheme, policy) cell: like :func:`_run_cell`, it
    reduces the fault report to its row, so only the row travels back
    to the parent."""
    scheme, model, topology, config, plan, policy, iterations = payload
    report = run_resilient(
        model, topology, config, plan, policy=policy, iterations=iterations
    ).faults
    mttrs = report.mttr_values()
    return RecoveryRow(
        scheme=scheme,
        policy=policy.recovery,
        losses=len(report.device_losses),
        rejoins=report.rejoins,
        spares_used=report.spares_used,
        mttr_p50=_percentile(mttrs, 0.50),
        mttr_p95=_percentile(mttrs, 0.95),
        stall_seconds=report.stall_seconds,
        goodput=report.goodput,
        goodput_ratio=report.goodput_ratio,
        recovered=report.recovered,
    )


def run_recovery(
    model: ModelGraph | None = None,
    num_gpus: int = 4,
    iterations: int = 6,
    policies: tuple[str, ...] | None = None,
    schemes: tuple[str, ...] = RECOVERY_SCHEMES,
    seed: int = 1,
    batch: BatchConfig | None = None,
    jobs: int = 1,
    supervisor: "Supervisor | None" = None,
) -> list[RecoveryRow]:
    """Cross every recovery policy with ``schemes`` on one *fixed* fault
    scenario — a mid-run device loss, a return inside the grace window,
    and one cold spare — so the policies differ only in what they do
    about it.  Detection runs the adaptive phi-accrual detector; the
    loss is timed per scheme in its own iteration times so every scheme
    faces the same relative disruption.  Deterministic in ``seed``.

    As in :func:`run`, the cells run as tasks on ``supervisor``
    (default: a plain one over ``jobs`` workers) and return their rows
    in cell order; a durable supervisor journals them, so ``repro
    faults --recovery --journal`` resumes like the MTTF sweep."""
    model = model if model is not None else zoo.synthetic_uniform(num_layers=8)
    topology = presets.gtx1080ti_server(num_gpus=num_gpus)
    batch = batch if batch is not None else BatchConfig()
    policies = policies if policies is not None else recovery_names()
    iter_time = {
        scheme: iteration_time(scheme, model, topology, batch)
        for scheme in schemes
    }
    victim = topology.gpus()[0].name

    tasks = []
    for scheme, policy_name in product(schemes, policies):
        t_iter = iter_time[scheme]
        plan = FaultPlan(seed=seed, faults=(
            DeviceLoss(victim, at=1.5 * t_iter),
            # Comes back three-quarters of an iteration later: inside
            # wait-rejoin's grace window below.
            DeviceReturn(victim, at=2.25 * t_iter),
            SpareDevice("spare0"),
        ))
        policy = replace(
            ResiliencePolicy.for_scheme(scheme),
            recovery=policy_name,
            grace_window=1.5 * t_iter,
            spare_attach_seconds=0.05 * t_iter,
            detection=DetectorConfig(kind="phi-accrual"),
        )
        config = HarmonyConfig(scheme, batch=batch)
        tasks.append(
            Task(
                key=(
                    f"recovery-row:{fingerprint(model, topology, config)}"
                    f":policy={policy_name}:iters={iterations}:seed={seed}"
                ),
                fn=_run_recovery_cell,
                payload=(scheme, model, topology, config, plan, policy, iterations),
                label=f"{scheme}@{policy_name}",
            )
        )
    if supervisor is None:
        supervisor = Supervisor.plain(jobs)
    return supervisor.run_tasks(tasks)


def recovery_table(rows: list[RecoveryRow] | None = None) -> Table:
    rows = rows if rows is not None else run_recovery()
    out = Table(
        ["scheme", "policy", "losses", "rejoins", "spares",
         "mttr p50 (s)", "mttr p95 (s)", "stalled (s)", "goodput",
         "vs fault-free", "recovered"],
        title="recovery-policy zoo: MTTR and goodput per policy (fixed fault plan)",
    )
    for row in rows:
        out.add_row([
            row.scheme,
            row.policy,
            str(row.losses),
            str(row.rejoins),
            str(row.spares_used),
            f"{row.mttr_p50:.3f}",
            f"{row.mttr_p95:.3f}",
            f"{row.stall_seconds:.3f}",
            f"{row.goodput:.3f}",
            f"{row.goodput_ratio:.3f}",
            "yes" if row.recovered else "NO",
        ])
    return out


def gracefulness(rows: list[DegradationRow]) -> list[tuple[str, str, float, float, float]]:
    """(harmony scheme, baseline, mttf, harmony ratio, baseline ratio)
    for every cell where a device loss actually struck both schemes —
    the quantity the claim test asserts on.  Cells whose MTTF exceeds
    the run's horizon see no loss and carry only retry noise, so they
    say nothing about degradation."""
    by_key = {(r.scheme, r.mttf_iters): r for r in rows}
    out = []
    for harmony, baseline in SCHEME_PAIRS:
        for (scheme, mttf), row in sorted(by_key.items()):
            if scheme != harmony or mttf == float("inf"):
                continue
            base = by_key[(baseline, mttf)]
            if row.losses == 0 or base.losses == 0:
                continue
            out.append((harmony, baseline, mttf, row.goodput_ratio, base.goodput_ratio))
    return out
