"""HarmonySession: model + server + config -> plan -> simulated run."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import HarmonyConfig

if TYPE_CHECKING:
    from repro.perf.incremental import CheckpointStore
from repro.hardware.topology import Topology
from repro.models.graph import ModelGraph
from repro.schedulers import build_scheduler
from repro.schedulers.base import Scheduler
from repro.sim.executor import ExecOptions, Executor
from repro.sim.plan import Plan
from repro.sim.result import RunResult
from repro.sim.trace import render_timeline
from repro.util.gcpause import paused_gc
from repro.validate.audit import audit_run
from repro.validate.violations import AuditReport


class HarmonySession:
    """One training setup: build the plan once, simulate on demand.

    >>> from repro.models import zoo
    >>> from repro.hardware import presets
    >>> model = zoo.synthetic_uniform(num_layers=4)
    >>> server = presets.gtx1080ti_server(num_gpus=2)
    >>> session = HarmonySession(model, server, HarmonyConfig("harmony-pp"))
    >>> result = session.run()
    >>> result.samples
    1
    """

    def __init__(
        self,
        model: ModelGraph,
        topology: Topology,
        config: HarmonyConfig | None = None,
        checkpoints: "CheckpointStore | None" = None,
    ):
        self.model = model
        self.topology = topology
        self.config = config if config is not None else HarmonyConfig()
        #: Prefix-checkpoint store (:mod:`repro.perf.incremental`) —
        #: deliberately a constructor argument, not a config field: the
        #: config is fingerprinted, and where a run's snapshots live
        #: must not change what it computes.
        self.checkpoints = checkpoints
        self._plan: Plan | None = None
        self._result: RunResult | None = None

    # -- scheduling ----------------------------------------------------------

    def scheduler(self) -> Scheduler:
        cfg = self.config
        return build_scheduler(
            cfg.parallelism,
            self.model,
            self.topology,
            cfg.batch,
            options=cfg.options,
        )

    def plan(self) -> Plan:
        if self._plan is None:
            # Decomposing and placing a large fleet's graph is an
            # allocation storm over a growing live object graph — the
            # shape that makes generational GC quadratic-ish (see
            # :mod:`repro.util.gcpause`).
            with paused_gc():
                self._plan = self.scheduler().plan()
        return self._plan

    # -- simulation --------------------------------------------------------------

    def run(self, fresh: bool = False) -> RunResult:
        """Simulate a training run (cached unless ``fresh``).

        Healthy configs simulate ``config.iterations`` iterations
        (default one); multi-iteration runs are eligible for
        steady-state fast-forward per ``config.steady_state`` (see
        :mod:`repro.steady`), with the outcome on ``result.steady``.
        With ``config.faults`` set, the run goes through
        :func:`repro.faults.run_resilient`: ``config.iterations``
        iterations under the fault plan, with the aggregate
        :class:`~repro.faults.report.FaultReport` attached to
        ``result.faults`` (and each faulty segment audited when
        ``config.audit`` is on); fault plans veto fast-forward, and
        ``result.steady`` records the veto.
        """
        if self._result is None or fresh:
            if self.config.faults is not None:
                # Imported lazily: the runner re-invokes build_scheduler
                # mid-run, and keeping it out of the session's import
                # graph keeps healthy runs' startup unchanged.
                from repro.faults.runner import run_resilient

                result = run_resilient(
                    self.model,
                    self.topology,
                    self.config,
                    self.config.faults,
                    policy=self.config.resilience,
                    iterations=self.config.iterations,
                )
                if self.config.audit:
                    from repro.validate.audit import audit_resilient

                    result.audit = audit_resilient(result.faults)
                    result.audit.raise_if_failed()
                self._result = result
            else:
                checkpoints = self.checkpoints
                checkpoint_key = None
                if checkpoints is not None and self.config.iterations > 1:
                    from repro.perf.fingerprint import base_fingerprint

                    checkpoint_key = base_fingerprint(
                        self.model, self.topology, self.config
                    )
                # One guard spans construction and the run: executor
                # init builds the fleet-sized dependency/device tables,
                # the same allocation shape the plan phase pauses the
                # collector for.
                with paused_gc():
                    executor = Executor(
                        self.topology,
                        self.plan(),
                        cost_model=self.config.cost_model,
                        options=ExecOptions(
                            prefetch=self.config.prefetch,
                            audit=self.config.audit,
                            iterations=self.config.iterations,
                            steady_state=self.config.steady_state,
                            checkpoints=checkpoints,
                            checkpoint_key=checkpoint_key,
                        ),
                    )
                    self._result = executor.run()
        return self._result

    def audit_report(self, fresh: bool = False) -> AuditReport:
        """Audit the simulated iteration against the physical invariants
        (see :mod:`repro.validate`) and return the structured report —
        violations are returned, not raised."""
        result = self.run(fresh=fresh)
        if result.audit is not None:
            return result.audit
        result.audit = audit_run(
            result, self.topology, self.plan(),
            iterations=self.config.iterations,
        )
        return result.audit

    def timeline(self, width: int = 100) -> str:
        """ASCII Gantt chart of the simulated iteration (Fig. 4 style)."""
        return render_timeline(self.run().trace, width=width)

    def summary(self) -> str:
        return self.run().summary()

    def explain(self) -> str:
        """Narrate the Fig. 3 pipeline for this setup — what the
        decomposer produced, how the scheduler bound it to devices, and
        how the model's footprint compares to the hardware — without
        running the simulation."""
        from repro.units import GB

        model, topo = self.model, self.topology
        plan = self.plan()
        state = model.param_bytes + model.grad_bytes + model.optimizer_bytes
        gpus = topo.gpus()
        aggregate = sum(g.memory_bytes for g in gpus)
        stash = model.stash_bytes(self.config.batch.microbatch_size)
        lines = [
            f"model: {model.describe()}",
            (
                f"training state {state / GB:.1f} GB + "
                f"{stash / GB:.2f} GB stash/microbatch vs "
                f"{len(gpus)} GPUs x {gpus[0].memory_bytes / GB:.1f} GB "
                f"(aggregate {aggregate / GB:.1f} GB)"
                + (" -- must swap" if state > aggregate else "")
            ),
            f"hardware: {topo}",
            plan.describe(),
        ]
        collective = plan.total_collective_bytes()
        if collective:
            lines.append(
                f"  collectives: {collective / GB:.2f} GB per-participant wire volume"
            )
        return "\n".join(lines)
