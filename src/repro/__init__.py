"""Harmony reproduction: virtualized parallel training of large DNNs
on commodity multi-GPU servers.

Reproduces "Doing more with less: Training large DNN models on
commodity servers for the masses" (Li, Phanishayee, Murray, Kim —
HotOS '21).  The physical testbed is replaced by a deterministic
discrete-event simulator (see DESIGN.md for the substitution argument);
everything else — task decomposition, late binding, the four Harmony
optimizations, the per-GPU-virtualization baselines, and the analytical
swap-volume model — is implemented in full.

Quickstart::

    from repro import HarmonySession, HarmonyConfig
    from repro.models import zoo
    from repro.hardware import presets

    model = zoo.build("bert-large")
    server = presets.gtx1080ti_server(num_gpus=4)
    session = HarmonySession(model, server, HarmonyConfig("harmony-pp"))
    print(session.summary())
"""

from repro.core.config import HarmonyConfig
from repro.core.session import HarmonySession
from repro.core.report import compare_runs
from repro.schedulers.base import BatchConfig
from repro.schedulers.options import HarmonyOptions
from repro.errors import (
    AuditError,
    CapacityError,
    ConfigError,
    DeviceLostError,
    DrainedError,
    FaultError,
    JobSpecError,
    JournalError,
    ModelError,
    PoisonedSpecError,
    QueueFullError,
    QuotaExceededError,
    ReproError,
    SchedulingError,
    ServeError,
    SimulationError,
    SteadyStateError,
    TopologyError,
    WorkerError,
)
from repro.faults import (
    FaultPlan,
    FaultReport,
    ResiliencePolicy,
    mttf_loss_plan,
    run_resilient,
)
from repro.steady import SteadyMode, SteadyReport
from repro.supervisor import RetryPolicy, Supervisor, SupervisorReport
from repro.validate import (
    AuditReport,
    AuditViolation,
    ViolationKind,
    audit_resilient,
    audit_run,
    differential_check,
)

__version__ = "1.0.0"

__all__ = [
    "HarmonySession",
    "HarmonyConfig",
    "BatchConfig",
    "HarmonyOptions",
    "compare_runs",
    "audit_run",
    "audit_resilient",
    "differential_check",
    "FaultPlan",
    "FaultReport",
    "ResiliencePolicy",
    "mttf_loss_plan",
    "run_resilient",
    "AuditReport",
    "AuditViolation",
    "ViolationKind",
    "ReproError",
    "ConfigError",
    "TopologyError",
    "ModelError",
    "CapacityError",
    "SchedulingError",
    "SimulationError",
    "SteadyStateError",
    "SteadyMode",
    "SteadyReport",
    "AuditError",
    "FaultError",
    "DeviceLostError",
    "WorkerError",
    "PoisonedSpecError",
    "JournalError",
    "DrainedError",
    "ServeError",
    "JobSpecError",
    "QuotaExceededError",
    "QueueFullError",
    "Supervisor",
    "RetryPolicy",
    "SupervisorReport",
    "__version__",
]
