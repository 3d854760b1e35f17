"""Session configuration."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.faults.model import FaultPlan
from repro.faults.resilience import ResiliencePolicy
from repro.models.costmodel import CostModel
from repro.schedulers.base import BatchConfig
from repro.schedulers.options import HarmonyOptions


class Parallelism(enum.Enum):
    """Which schedule drives the iteration.

    ``HARMONY_DP`` / ``HARMONY_PP`` are the paper's proposal; the
    ``*_BASELINE`` values are today's frameworks with per-GPU memory
    virtualization bolted on, and ``SINGLE`` is one virtualized GPU.
    ``PIPEDREAM_1F1B`` and ``DAPPLE`` are the contemporary pipeline
    schedules the paper positions against, likewise virtualized.

    Values mirror the scheduler registry
    (:data:`repro.schedulers.SCHEDULER_REGISTRY`) one-for-one; a test
    keeps the two in sync.
    """

    SINGLE = "single"
    DP_BASELINE = "dp-baseline"
    PP_BASELINE = "pp-baseline"
    HARMONY_DP = "harmony-dp"
    HARMONY_PP = "harmony-pp"
    HARMONY_TP = "harmony-tp"
    PIPEDREAM_1F1B = "pipedream-1f1b"
    DAPPLE = "dapple"

    @staticmethod
    def parse(value: "Parallelism | str") -> "Parallelism":
        if isinstance(value, Parallelism):
            return value
        try:
            return Parallelism(value)
        except ValueError:
            raise ConfigError(
                f"unknown parallelism {value!r}; choose from "
                f"{[p.value for p in Parallelism]}"
            ) from None


@dataclass(frozen=True)
class HarmonyConfig:
    """Everything a :class:`HarmonySession` needs besides model+server.

    Attributes
    ----------
    parallelism:
        Scheme (see :class:`Parallelism`); accepts the string form.
    batch:
        Microbatch shape (``m`` microbatches of ``microbatch_size``).
    options:
        Harmony optimization toggles (ignored by baseline schemes).
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

    parallelism: Parallelism | str = Parallelism.HARMONY_PP
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

    def resolved_parallelism(self) -> Parallelism:
        return Parallelism.parse(self.parallelism)
