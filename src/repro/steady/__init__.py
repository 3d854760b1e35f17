"""Steady-state periodicity layer over the discrete-event simulator.

Everything the paper measures is periodic: each training iteration
replays the same task DAG, so after a short warm-up every iteration is
a pure time-translation of the previous one (the same regularity
PipeDream's 1F1B steady state and KARMA's out-of-core swap schedule
exploit).  This package detects that fixed point and fast-forwards the
remaining iterations analytically:

* :class:`SteadyMode` / :func:`resolve_mode` — the ``auto``/``off``/
  ``force`` knob wired through ``ExecOptions.steady_state``,
  ``HarmonyConfig.steady_state`` and the CLI's ``--steady-state``.
* :mod:`repro.steady.fold` — bitwise-exact repeated-fold arithmetic.
* :mod:`repro.steady.cycle` — entry-state fingerprints, per-iteration
  ledgers, and the fast-forward application used by the executor.
* :class:`SteadyReport` — what happened, attached to
  ``RunResult.steady``.

Every run takes the executor's one loop; detection needs an iteration
boundary, so a one-iteration run never fingerprints or fast-forwards.
Fault-injected runs (:mod:`repro.faults`) never fast-forward either:
each of their executors simulates one iteration, and
:func:`~repro.faults.run_resilient` records the veto on
``RunResult.steady`` and rejects ``force``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.steady.fold import fold_repeat

__all__ = [
    "SteadyMode",
    "SteadyReport",
    "fold_repeat",
    "resolve_mode",
]


class SteadyMode(enum.Enum):
    """How aggressively a run may fast-forward proven-periodic iterations.

    AUTO
        Detect periodicity and fast-forward when proven; results are
        guaranteed equal to ``OFF`` (the equivalence is asserted in the
        test suite and the benchmark harness, not assumed).
    OFF
        Full-fidelity simulation of every iteration.
    FORCE
        Like ``AUTO`` but raising
        :class:`~repro.errors.SteadyStateError` if the run finishes
        without ever fast-forwarding — for sweeps whose cost budget
        *depends* on the fast path engaging.
    """

    AUTO = "auto"
    OFF = "off"
    FORCE = "force"

    @staticmethod
    def parse(value: "SteadyMode | str") -> "SteadyMode":
        if isinstance(value, SteadyMode):
            return value
        try:
            return SteadyMode(value)
        except ValueError:
            raise ConfigError(
                f"unknown steady-state mode {value!r}; choose from "
                f"{[m.value for m in SteadyMode]}"
            ) from None


def resolve_mode(value: "SteadyMode | str | None") -> SteadyMode:
    """The effective mode for a config value (``None`` = ``auto``)."""
    return SteadyMode.AUTO if value is None else SteadyMode.parse(value)


@dataclass(frozen=True)
class SteadyReport:
    """What the steady-state layer did for one run (``RunResult.steady``).

    ``detected_at`` is the 1-based iteration proven to replay its
    predecessor bit-for-bit; ``skipped`` of the following iterations
    were fast-forwarded analytically (the final iteration always runs
    live so the end-of-run flush proceeds from a naturally-arising
    state).  ``vetoes`` names the conditions that disabled detection —
    ``fault-injection`` covers every :mod:`repro.faults` plan.
    """

    mode: str
    detected_at: int | None = None
    skipped: int = 0
    period: float | None = None
    live_iterations: int = 0
    vetoes: tuple[str, ...] = ()

    @property
    def fast_forwarded(self) -> bool:
        return self.skipped > 0

    def describe(self) -> str:
        if self.fast_forwarded:
            return (
                f"steady state at iteration {self.detected_at} "
                f"(period {self.period:.6g}s): {self.skipped} iterations "
                f"fast-forwarded, {self.live_iterations} simulated live"
            )
        if self.vetoes:
            return f"steady-state fast-forward vetoed ({', '.join(self.vetoes)})"
        return f"steady-state {self.mode}: no cycle detected"
