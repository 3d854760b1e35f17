"""The job model: what a tenant submits and what comes back.

A job is a JSON document naming one of four kinds of work — the same
four workloads the CLI exposes as one-shot commands:

* ``simulate`` — one scheme on one model/topology point;
* ``sweep`` — every scheme (or a requested subset) on that point, the
  serve-side analogue of ``repro compare``;
* ``tune`` — the granularity search behind ``repro tune``;
* ``faults`` — the MTTF degradation sweep behind ``repro faults``.

:func:`parse_job` validates the document eagerly — unknown kinds,
models, or schemes are a structured :class:`~repro.errors.JobSpecError`
(HTTP 400) *at admission*, never a quarantined worker later — and
:func:`execute_job` runs the parsed spec through a per-job
:class:`~repro.supervisor.Supervisor`, so every job inherits the
watchdog/retry/quarantine machinery and a write-ahead journal for
crash recovery.

Results are plain JSON dicts built only from deterministic simulation
fields, which is what makes the server's chaos contract testable: a
journal-replayed job must summarize byte-identically to an
uninterrupted one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.config import HarmonyConfig
from repro.errors import DrainedError, JobSpecError, ReproError
from repro.hardware import presets
from repro.models import zoo
from repro.perf.runner import RunSpec
from repro.schedulers import scheme_names
from repro.schedulers.base import BatchConfig

if TYPE_CHECKING:
    from repro.perf.cache import RunCache
    from repro.supervisor import Supervisor

#: Valid ``kind`` values, the serve-side workload roster.
JOB_KINDS = ("simulate", "sweep", "tune", "faults")

#: Job lifecycle states (see ``docs/INTERNALS.md``, Simulation as a
#: service).  ``queued -> running -> done | failed``; a queued job may
#: also be ``cancelled``.  An interrupted ``running`` job returns to
#: ``queued`` on restart.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


@dataclass(frozen=True)
class JobSpec:
    """A validated job submission."""

    kind: str
    model: str
    gpus: int = 4
    microbatch_size: int = 1
    microbatches: int = 4
    #: ``simulate`` only: the single scheme to run.
    scheme: str = "harmony-pp"
    #: ``sweep`` only: schemes to run (``None`` = the full registry).
    schemes: tuple[str, ...] | None = None
    #: Iterations per run (``tune``: per probe, the search's
    #: ``profile_iterations``).
    iterations: int = 1
    #: Not on ``faults`` jobs, whose segments run one iteration each.
    steady_state: str | None = None
    #: ``faults`` only.
    mttf: tuple[float, ...] = (float("inf"), 8.0, 4.0, 2.5)
    transient_probability: float = 0.02
    seed: int = 1
    #: Per-attempt watchdog override; the server clamps it to its own
    #: ``--spec-timeout`` ceiling.
    timeout_sec: float | None = None

    def describe(self) -> str:
        return f"{self.kind}:{self.model}"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobSpecError(message)


def _int_field(payload: dict, name: str, default: int, minimum: int = 1) -> int:
    value = payload.get(name, default)
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{name} must be an integer, got {value!r}",
    )
    _require(value >= minimum, f"{name} must be >= {minimum}, got {value}")
    return value


def parse_job(payload: Any) -> JobSpec:
    """Validate a submitted JSON document into a :class:`JobSpec`.

    Every failure is a :class:`~repro.errors.JobSpecError` whose
    message names the offending field — the server returns it verbatim
    as the HTTP 400 body, so a rejected submission is self-diagnosing.
    """
    _require(isinstance(payload, dict), "job body must be a JSON object")
    known = {
        "kind", "model", "gpus", "microbatch_size", "microbatches",
        "scheme", "schemes", "iterations", "steady_state", "mttf",
        "transient_probability", "seed", "timeout_sec", "tenant",
    }
    unknown = sorted(set(payload) - known)
    _require(not unknown, f"unknown job field(s): {', '.join(unknown)}")

    kind = payload.get("kind", "simulate")
    _require(
        kind in JOB_KINDS,
        f"unknown job kind {kind!r}; valid kinds: {', '.join(JOB_KINDS)}",
    )
    model = payload.get("model")
    _require(isinstance(model, str), "model is required and must be a string")
    _require(
        model in zoo.names(),
        f"unknown model {model!r}; valid models: {', '.join(zoo.names())}",
    )

    valid_schemes = list(scheme_names())
    scheme = payload.get("scheme", "harmony-pp")
    _require(
        scheme in valid_schemes,
        f"unknown scheme {scheme!r}; valid schemes: {', '.join(valid_schemes)}",
    )
    schemes = payload.get("schemes")
    if schemes is not None:
        _require(
            isinstance(schemes, list) and schemes
            and all(isinstance(s, str) for s in schemes),
            "schemes must be a non-empty list of scheme names",
        )
        bad = sorted(set(schemes) - set(valid_schemes))
        _require(not bad, f"unknown scheme(s): {', '.join(bad)}")

    steady_state = payload.get("steady_state")
    if steady_state is not None:
        _require(
            kind != "faults",
            "steady_state does not apply to faults jobs: every fault "
            "segment simulates one iteration",
        )
        _require(
            steady_state in ("auto", "off", "force"),
            f"steady_state must be auto/off/force, got {steady_state!r}",
        )

    mttf = payload.get("mttf")
    if mttf is None:
        mttf_tuple: tuple[float, ...] = JobSpec.__dataclass_fields__[
            "mttf"
        ].default
    else:
        _require(
            isinstance(mttf, list) and mttf,
            "mttf must be a non-empty list of numbers (or the string 'inf')",
        )
        values = []
        for item in mttf:
            if item == "inf":
                values.append(float("inf"))
                continue
            _require(
                isinstance(item, (int, float)) and not isinstance(item, bool)
                and item > 0,
                f"mttf entries must be positive numbers, got {item!r}",
            )
            values.append(float(item))
        mttf_tuple = tuple(values)

    transient = payload.get("transient_probability", 0.02)
    _require(
        isinstance(transient, (int, float)) and not isinstance(transient, bool)
        and 0.0 <= transient <= 1.0,
        f"transient_probability must be in [0, 1], got {transient!r}",
    )

    timeout_sec = payload.get("timeout_sec")
    if timeout_sec is not None:
        _require(
            isinstance(timeout_sec, (int, float))
            and not isinstance(timeout_sec, bool) and timeout_sec > 0,
            f"timeout_sec must be > 0, got {timeout_sec!r}",
        )
        timeout_sec = float(timeout_sec)

    return JobSpec(
        kind=kind,
        model=model,
        gpus=_int_field(payload, "gpus", 4),
        microbatch_size=_int_field(payload, "microbatch_size", 1),
        microbatches=_int_field(payload, "microbatches", 4),
        scheme=scheme,
        schemes=tuple(schemes) if schemes is not None else None,
        iterations=_int_field(payload, "iterations", 1),
        steady_state=steady_state,
        mttf=mttf_tuple,
        transient_probability=float(transient),
        seed=_int_field(payload, "seed", 1, minimum=0),
        timeout_sec=timeout_sec,
    )


def spec_to_json(spec: JobSpec) -> dict:
    """The ledger form of a spec — rebuildable by :func:`parse_job`."""
    doc: dict[str, Any] = {
        "kind": spec.kind,
        "model": spec.model,
        "gpus": spec.gpus,
        "microbatch_size": spec.microbatch_size,
        "microbatches": spec.microbatches,
        "scheme": spec.scheme,
        "iterations": spec.iterations,
        "seed": spec.seed,
        "transient_probability": spec.transient_probability,
        "mttf": ["inf" if math.isinf(m) else m for m in spec.mttf],
    }
    if spec.schemes is not None:
        doc["schemes"] = list(spec.schemes)
    if spec.steady_state is not None:
        doc["steady_state"] = spec.steady_state
    if spec.timeout_sec is not None:
        doc["timeout_sec"] = spec.timeout_sec
    return doc


def job_schemes(spec: JobSpec) -> list[str]:
    """The schemes a simulate/sweep job will run, in run order."""
    if spec.kind == "simulate":
        return [spec.scheme]
    if spec.schemes is not None:
        return list(spec.schemes)
    return list(scheme_names())


def job_total(spec: JobSpec) -> int | None:
    """Known supervised-task count, for progress reporting (``None``
    when the kind sizes its own work — tune's grid, faults' cells)."""
    if spec.kind in ("simulate", "sweep"):
        return len(job_schemes(spec))
    return None


def _run_specs(spec: JobSpec) -> list[RunSpec]:
    model = zoo.build(spec.model)
    topology = presets.gtx1080ti_server(num_gpus=spec.gpus)
    batch = BatchConfig(spec.microbatch_size, spec.microbatches)
    return [
        RunSpec(
            model,
            topology,
            HarmonyConfig(
                scheme,
                batch=batch,
                iterations=spec.iterations,
                steady_state=spec.steady_state,
            ),
            label=scheme,
        )
        for scheme in job_schemes(spec)
    ]


def _json_float(value: float) -> float | str:
    """JSON-safe number: ``inf``/``nan`` as their ``repr`` strings (the
    wire format is strict JSON, which has no non-finite literals)."""
    return value if math.isfinite(value) else repr(value)


def _result_row(label: str, outcome: Any) -> dict:
    if isinstance(outcome, ReproError):
        return {
            "label": label,
            "ok": False,
            "error": {
                "type": type(outcome).__name__,
                "message": str(outcome),
            },
        }
    return {
        "label": label,
        "ok": True,
        "makespan": outcome.makespan,
        "samples": outcome.samples,
        "throughput": outcome.throughput,
        "events": outcome.events_processed,
        "num_tasks": outcome.num_tasks,
    }


def execute_job(
    spec: JobSpec,
    supervisor: "Supervisor",
    cache: "RunCache | None" = None,
) -> dict:
    """Run one job to completion under its supervisor; returns the
    JSON-able result document stored in the ledger and served over
    HTTP.

    Raises :class:`~repro.errors.DrainedError` when the supervisor was
    drained before the job finished — the server then leaves the job
    un-terminal so a restart re-runs it (replaying the settled specs
    from the job's journal).
    """
    if spec.kind in ("simulate", "sweep"):
        outcomes = supervisor.run_specs(_run_specs(spec), return_exceptions=True)
        for outcome in outcomes:
            if isinstance(outcome, DrainedError):
                raise outcome
        rows = [
            _result_row(label, outcome)
            for label, outcome in zip(job_schemes(spec), outcomes)
        ]
        if spec.kind == "simulate":
            return {"kind": spec.kind, "run": rows[0]}
        return {"kind": spec.kind, "runs": rows}

    if spec.kind == "tune":
        from repro.tuner.search import tune

        model = zoo.build(spec.model)
        topology = presets.gtx1080ti_server(num_gpus=spec.gpus)
        batch = BatchConfig(spec.microbatch_size, spec.microbatches)
        outcome = tune(
            model,
            topology,
            batch.per_replica_batch,
            cache=cache,
            supervisor=supervisor,
            profile_iterations=spec.iterations,
            steady_state=spec.steady_state,
        )
        return {
            "kind": spec.kind,
            "best": {
                "label": outcome.best.label,
                "throughput": outcome.best.throughput,
            },
            "points": len(outcome.points),
            "feasible_points": len(outcome.feasible_points),
            "cache_hits": outcome.cache_hits,
            "cache_misses": outcome.cache_misses,
        }

    if spec.kind == "faults":
        from repro.experiments import faults_degradation

        rows = faults_degradation.run(
            model=zoo.build(spec.model),
            num_gpus=spec.gpus,
            iterations=spec.iterations,
            mttf_iters=spec.mttf,
            transient_probability=spec.transient_probability,
            seed=spec.seed,
            supervisor=supervisor,
        )
        return {
            "kind": spec.kind,
            "rows": [
                {
                    "scheme": row.scheme,
                    "mttf_iters": _json_float(row.mttf_iters),
                    "losses": row.losses,
                    "replans": row.replans,
                    "iterations_redone": row.iterations_redone,
                    "goodput": _json_float(row.goodput),
                    "goodput_ratio": _json_float(row.goodput_ratio),
                    "recovered": row.recovered,
                }
                for row in rows
            ],
        }

    raise JobSpecError(f"unknown job kind {spec.kind!r}")  # unreachable
