"""Fault injection, failure detection & elastic recovery.

A seed-driven :class:`FaultPlan` describes what goes wrong (device
losses and returns, spare standbys, link degradation and flaps,
transient transfer errors, compute stragglers, host-memory pressure);
the :class:`FaultInjector` injects it into the discrete-event
simulation; :func:`run_resilient` executes a multi-iteration run under
the plan with retry/backoff, checkpoint accounting, simulated failure
detection (:data:`DETECTOR_REGISTRY`), and a pluggable recovery policy
(:data:`RECOVERY_REGISTRY`: restart-replan, wait-rejoin,
spare-substitute, degrade-continue), reporting lost work, retried
bytes, per-incident MTTR, and goodput in a :class:`FaultReport`.
Everything replays byte-identically from the plan's seed.
"""

from repro.faults.detection import (
    DETECTOR_REGISTRY,
    DetectorConfig,
    SuspicionEpisode,
    build_detector,
    detection_latency,
    detector_names,
    heartbeat_times,
    scan_device,
)
from repro.faults.injector import FaultInjector
from repro.faults.model import (
    ComputeStraggler,
    DeviceLoss,
    DeviceReturn,
    Fault,
    FaultPlan,
    LinkDegradation,
    LinkFlap,
    MemoryPressure,
    SpareDevice,
    TransientTransferError,
    mttf_loss_plan,
    random_fault_plan,
)
from repro.faults.recovery import (
    RECOVERY_REGISTRY,
    RecoveryPolicy,
    build_recovery,
    recovery_names,
)
from repro.faults.report import FaultReport, IncidentReport, SegmentReport
from repro.faults.resilience import ResiliencePolicy
from repro.faults.runner import run_resilient

__all__ = [
    "ComputeStraggler",
    "DETECTOR_REGISTRY",
    "DetectorConfig",
    "DeviceLoss",
    "DeviceReturn",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "FaultReport",
    "IncidentReport",
    "LinkDegradation",
    "LinkFlap",
    "MemoryPressure",
    "RECOVERY_REGISTRY",
    "RecoveryPolicy",
    "ResiliencePolicy",
    "SegmentReport",
    "SpareDevice",
    "SuspicionEpisode",
    "TransientTransferError",
    "build_detector",
    "build_recovery",
    "detection_latency",
    "detector_names",
    "heartbeat_times",
    "mttf_loss_plan",
    "random_fault_plan",
    "recovery_names",
    "run_resilient",
    "scan_device",
]
