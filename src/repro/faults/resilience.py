"""Resilience policy: how a run absorbs injected faults.

Two families of knobs:

* **transfer retries** — transient transfer failures are retried with
  exponential backoff (the failed attempt still occupied the wire; its
  bytes are ledgered separately in
  :class:`~repro.memory.stats.SwapStats`);
* **checkpoint / restart** — state is checkpointed every
  ``checkpoint_every`` iterations (the write-back cost is charged to
  wall-clock), and on :class:`~repro.errors.DeviceLostError` the run
  restarts from the last *usable* checkpoint on a re-planned schedule
  over the surviving devices.

The Harmony/baseline asymmetry lives here, not in the fault model.
Harmony binds tasks to devices late (paper §4), so after a loss it
re-plans the remaining work onto the survivors, resumes from the last
checkpoint, and reloads only the lost device's shard of the training
state.  The rigid baselines pin work to devices up front: their
checkpoints assume a fixed world size, so a loss forces a full restart
of uncheckpointed *and* checkpointed iterations in the current segment
and a full-state reload — this is what "rigid schedules collapse,
late binding degrades" means operationally.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.faults.detection import DetectorConfig


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs for absorbing faults.

    Attributes
    ----------
    max_retries:
        Transfer attempts before a transient failure becomes permanent
        (a :class:`~repro.errors.FaultError`).
    backoff_base / backoff_factor:
        Exponential backoff: attempt ``k`` waits
        ``backoff_base * backoff_factor**k`` simulated seconds before
        re-occupying the link.
    checkpoint_every:
        Checkpoint the training state every this many completed
        iterations (0 disables checkpointing).
    checkpoint_usable_after_loss:
        Whether a checkpoint taken at world size N can seed a restart
        at world size N-1.  True for Harmony (late binding re-plans the
        work), False for the rigid baselines (their checkpoint layout
        bakes in the device assignment).
    partial_reload:
        On restart, reload only the lost device's share of the training
        state (True: Harmony — survivors keep their resident state)
        or the full state (False: baselines restart cold).
    detection:
        Failure detection (:class:`~repro.faults.detection.
        DetectorConfig`): when the run learns of a loss.  The default
        ``none`` detector confirms a loss the instant it strikes; the
        heartbeat detectors suspect and confirm silent devices after a
        simulated latency, and make straggler-induced false positives
        observable.
    recovery:
        Name in :data:`~repro.faults.recovery.RECOVERY_REGISTRY`
        choosing what world to recover onto (restart-replan,
        wait-rejoin, spare-substitute, degrade-continue).
    grace_window:
        ``wait-rejoin``'s hold: how long a stalled world waits for a
        :class:`~repro.faults.model.DeviceReturn` before shrinking.
    spare_attach_seconds:
        Fixed cost of powering up and attaching one spare (bus rescan,
        driver init) on top of the state reload.
    """

    max_retries: int = 8
    backoff_base: float = 1e-3
    backoff_factor: float = 2.0
    checkpoint_every: int = 1
    checkpoint_usable_after_loss: bool = True
    partial_reload: bool = True
    detection: DetectorConfig = DetectorConfig(kind="none")
    recovery: str = "restart-replan"
    grace_window: float = 0.0
    spare_attach_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise ConfigError("backoff_base must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")
        if not isinstance(self.detection, DetectorConfig):
            raise ConfigError(
                f"ResiliencePolicy.detection must be a DetectorConfig, got "
                f"{self.detection!r}; DetectorConfig(kind='none') confirms "
                f"a loss the instant it strikes"
            )
        if self.grace_window < 0:
            raise ConfigError("grace_window must be >= 0")
        if self.spare_attach_seconds < 0:
            raise ConfigError("spare_attach_seconds must be >= 0")
        # Imported lazily: the registry module depends on the fault
        # model, not on this one, so the late import only breaks a
        # would-be cycle, never correctness.
        from repro.faults.recovery import build_recovery

        build_recovery(self.recovery)  # raises ConfigError with valid names

    def backoff_delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        return self.backoff_base * self.backoff_factor**attempt

    @staticmethod
    def for_scheme(scheme: str) -> "ResiliencePolicy":
        """Default policy for a parallelism scheme.

        Harmony schemes re-plan and reload incrementally; the baseline
        schemes (including ``single``) restart their current segment
        cold with a full-state reload.
        """
        if scheme.startswith("harmony"):
            return ResiliencePolicy()
        return ResiliencePolicy(
            checkpoint_usable_after_loss=False, partial_reload=False
        )
