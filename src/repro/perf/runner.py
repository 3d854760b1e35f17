"""Run specs: the work items of a simulation sweep.

A sweep is a list of :class:`RunSpec` — independent ``(model,
topology, config)`` points — run by
:meth:`repro.supervisor.Supervisor.run_specs`, which consults the run
cache first, fans the misses out over its workers (or runs them inline
at one job) and returns results **in spec order** regardless of
completion order.

:func:`_execute_spec` is the worker entry point.  It re-raises
nothing: it returns the result, the :class:`~repro.errors.ReproError`
the simulation raised (a deterministic outcome, never retried), or —
for an unexpected non-domain exception — a picklable
:class:`~repro.errors.WorkerError` wrapping it, which the supervisor
treats as a retryable failure.  One buggy spec can therefore never
tear down the pool or lose the rest of the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import HarmonyConfig
from repro.errors import ReproError, WorkerError
from repro.hardware.topology import Topology
from repro.models.graph import ModelGraph
from repro.perf.fingerprint import fingerprint
from repro.sim.result import RunResult


@dataclass
class RunSpec:
    """One point of a sweep."""

    model: ModelGraph
    topology: Topology
    config: HarmonyConfig = field(default_factory=HarmonyConfig)
    label: str = ""


def spec_key(spec: RunSpec) -> str:
    """The run-cache/journal key for ``spec``: its run fingerprint.

    A spec with no canonical form raises
    :class:`~repro.perf.fingerprint.FingerprintError` here, before any
    attempt runs, rather than running uncached under a made-up key."""
    return "result:" + fingerprint(spec.model, spec.topology, spec.config)


def _execute_spec(spec: RunSpec) -> RunResult | ReproError:
    """Worker entry point: simulate one spec, returning (never raising)
    domain errors so one infeasible point cannot poison the pool.

    Unexpected non-domain exceptions are wrapped in a picklable
    :class:`~repro.errors.WorkerError` rather than re-raised: a raw
    third-party exception may not survive the pickle trip back to the
    parent, and an unpicklable one aborts the entire pool.
    """
    # Imported here, not at module top: workers import this module by
    # name, and the session layer pulls in the full scheduler stack.
    from repro.core.session import HarmonySession

    try:
        return HarmonySession(spec.model, spec.topology, spec.config).run()
    except ReproError as exc:
        return exc
    except Exception as exc:  # noqa: BLE001 — the wrap is the point
        return WorkerError.from_exception(spec.label, exc)
