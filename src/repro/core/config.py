"""Session configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.faults.model import FaultPlan
from repro.faults.resilience import ResiliencePolicy
from repro.models.costmodel import CostModel
from repro.schedulers import check_scheme
from repro.schedulers.base import BatchConfig
from repro.schedulers.options import HarmonyOptions


@dataclass(frozen=True)
class HarmonyConfig:
    """Everything a :class:`HarmonySession` needs besides model+server.

    Attributes
    ----------
    parallelism:
        Scheme name, one of :func:`~repro.schedulers.scheme_names`.
    batch:
        Microbatch shape (``m`` microbatches of ``microbatch_size``).
    options:
        Harmony optimization toggles (``single`` and ``dp-baseline``
        read only ``pack_size``; the pipeline schedules read none).
    prefetch:
        Double-buffer next-task swap-ins behind current compute.
    cost_model:
        FLOPs -> time conversion knobs.
    audit:
        Run the :mod:`repro.validate` physical-consistency audit after
        every simulation; violations raise
        :class:`~repro.errors.AuditError`.
    faults:
        Seed-driven fault plan (see :mod:`repro.faults`).  When set,
        :meth:`HarmonySession.run` executes through the resilient
        runner: retries with backoff, checkpoint accounting, and mid-run
        re-planning onto the survivors.  ``None`` simulates a healthy
        machine.
    resilience:
        Retry/checkpoint/recovery knobs for faulty runs.  ``None``
        picks the per-scheme default
        (:meth:`~repro.faults.resilience.ResiliencePolicy.for_scheme`):
        Harmony schemes restart from the last checkpoint on survivors;
        rigid baselines restart from scratch.
    iterations:
        Training iterations the run simulates.  Faulty runs need a wall
        long enough for faults to strike; healthy multi-iteration runs
        replay the plan back-to-back and are eligible for steady-state
        fast-forward.
    steady_state:
        Steady-state fast-forward mode — ``"auto"`` (detect periodicity
        and skip proven-identical iterations analytically), ``"off"``
        (full-fidelity simulation of every iteration), or ``"force"``
        (error unless fast-forward engaged).  ``None`` means
        ``"auto"``.  Fault plans veto fast-forward wholesale (every
        fault segment simulates one iteration, and ``"force"`` with a
        fault plan is a :class:`~repro.errors.ConfigError`); see
        :mod:`repro.steady`.
    """

    parallelism: str = "harmony-pp"
    batch: BatchConfig = field(default_factory=BatchConfig)
    options: HarmonyOptions = field(default_factory=HarmonyOptions)
    prefetch: bool = False
    cost_model: CostModel = field(default_factory=CostModel)
    audit: bool = False
    faults: FaultPlan | None = None
    resilience: ResiliencePolicy | None = None
    iterations: int = 1
    steady_state: str | None = None

    def __post_init__(self) -> None:
        check_scheme(self.parallelism)
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.steady_state is not None:
            from repro.steady import SteadyMode

            # Normalize to the canonical string: the field enters the
            # run-cache fingerprint, so "auto" and SteadyMode.AUTO must
            # hash identically.
            object.__setattr__(
                self, "steady_state", SteadyMode.parse(self.steady_state).value
            )
