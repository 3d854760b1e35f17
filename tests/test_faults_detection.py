"""Failure detection: the heartbeat stream, every detector in
DETECTOR_REGISTRY (the ``none`` oracle and the two heartbeat
detectors), straggler-induced false positives (deterministic
suspicion -> exoneration under the plan's seed, adaptation under
phi-accrual), and death confirmation latency."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.faults import (
    DETECTOR_REGISTRY,
    ComputeStraggler,
    DetectorConfig,
    DeviceLoss,
    DeviceReturn,
    FaultPlan,
    ResiliencePolicy,
    build_detector,
    detection_latency,
    detector_names,
    heartbeat_times,
    scan_device,
)


def cfg(kind="fixed-timeout", **kw) -> DetectorConfig:
    """A resolved config with interval 1s (timeout 4s, confirm 2s)."""
    return DetectorConfig(kind=kind, **kw).resolve(4.0)


class TestDetectorConfig:
    def test_resolve_derives_timing_from_iteration_time(self):
        resolved = DetectorConfig().resolve(8.0)
        assert resolved.interval == pytest.approx(2.0)
        assert resolved.timeout == pytest.approx(8.0)
        assert resolved.confirm == pytest.approx(4.0)
        assert resolved.resolved

    def test_explicit_timing_survives_resolve(self):
        resolved = DetectorConfig(interval=0.5, timeout=3.0).resolve(100.0)
        assert resolved.interval == 0.5
        assert resolved.timeout == 3.0
        assert resolved.confirm == pytest.approx(1.0)  # derived: 2x interval

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError, match="interval"):
            DetectorConfig(interval=-1.0)
        with pytest.raises(ConfigError, match="phi_threshold"):
            DetectorConfig(phi_threshold=1.0)
        with pytest.raises(ConfigError, match="window"):
            DetectorConfig(window=0)
        with pytest.raises(ConfigError, match="iteration time"):
            DetectorConfig().resolve(0.0)

    def test_registry_mirrors_scheduler_discipline(self):
        assert detector_names() == ("none", "fixed-timeout", "phi-accrual")
        for name in detector_names():
            assert DETECTOR_REGISTRY[name].name == name
        with pytest.raises(ConfigError, match="valid detectors"):
            build_detector(cfg(kind="nope"))
        with pytest.raises(ConfigError, match="resolve"):
            build_detector(DetectorConfig())  # unresolved

    def test_policy_detection_is_always_a_detector_config(self):
        assert ResiliencePolicy().detection == DetectorConfig(kind="none")
        with pytest.raises(ConfigError, match="kind='none'"):
            ResiliencePolicy(detection=None)


class TestHeartbeatStream:
    def test_healthy_device_beats_on_the_interval(self):
        plan = FaultPlan(seed=0)
        times = heartbeat_times(plan, "gpu0", horizon=5.0, interval=1.0)
        assert times == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_straggler_stretches_gaps_by_slowdown(self):
        plan = FaultPlan(seed=0, faults=(
            ComputeStraggler("gpu0", slowdown=4.0, start=1.5, end=7.0),
        ))
        times = heartbeat_times(plan, "gpu0", horizon=10.0, interval=1.0)
        # 0, 1, 2 healthy (gap starting at 1 is pre-window), then the
        # gap starting at 2 is stretched x4, and so on until the window
        # closes.
        assert times[:3] == [0.0, 1.0, 2.0]
        assert times[3] == pytest.approx(6.0)
        assert times[4] == pytest.approx(10.0)

    def test_loss_silences_the_device_forever(self):
        plan = FaultPlan(seed=0, faults=(DeviceLoss("gpu0", at=2.5),))
        times = heartbeat_times(plan, "gpu0", horizon=10.0, interval=1.0)
        assert times == [0.0, 1.0, 2.0]

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ConfigError, match="interval"):
            heartbeat_times(FaultPlan(seed=0), "gpu0", 1.0, 0.0)


class TestFalsePositives:
    def straggler_plan(self, slowdown=8.0):
        return FaultPlan(seed=3, faults=(
            ComputeStraggler("gpu0", slowdown=slowdown, start=2.5, end=30.0),
        ))

    def test_fixed_timeout_suspects_every_stretched_gap(self):
        plan = self.straggler_plan()
        episodes = scan_device(plan, "gpu0", cfg("fixed-timeout"), 30.0)
        assert len(episodes) >= 2
        for ep in episodes:
            assert ep.false_positive
            assert ep.exonerated_at is not None
            assert ep.confirmed_at is None

    def test_phi_accrual_suspects_once_then_adapts(self):
        plan = self.straggler_plan()
        episodes = scan_device(plan, "gpu0", cfg("phi-accrual"), 30.0)
        # The first stretched gap trips it; the gap then enters the
        # window, the mean rises, and later stretched gaps pass.
        assert len(episodes) == 1
        ep = episodes[0]
        assert ep.false_positive
        # Suspected mid-silence (after 3x the mean gap of 1s), and the
        # late heartbeat exonerates it when it finally lands at 3+8=11.
        assert ep.suspected_at == pytest.approx(3.0 + 3.0)
        assert ep.exonerated_at == pytest.approx(3.0 + 8.0)

    def test_scan_is_deterministic(self):
        plan = self.straggler_plan()
        a = scan_device(plan, "gpu0", cfg("phi-accrual"), 30.0)
        b = scan_device(plan, "gpu0", cfg("phi-accrual"), 30.0)
        assert a == b

    def test_healthy_device_is_never_suspected(self):
        for kind in detector_names():
            assert scan_device(FaultPlan(seed=0), "gpu0", cfg(kind), 50.0) == []


class TestDeathConfirmation:
    def test_death_episode_confirms_after_silence_plus_confirm(self):
        plan = FaultPlan(seed=0, faults=(DeviceLoss("gpu0", at=2.5),))
        episodes = scan_device(plan, "gpu0", cfg("fixed-timeout"), 30.0)
        assert len(episodes) == 1
        ep = episodes[0]
        assert not ep.false_positive
        assert ep.suspected_at == pytest.approx(2.0 + 4.0)  # last beat + timeout
        assert ep.confirmed_at == pytest.approx(6.0 + 2.0)

    def test_detection_latency_matches_episode(self):
        plan = FaultPlan(seed=0, faults=(DeviceLoss("gpu0", at=2.5),))
        latency = detection_latency(plan, "gpu0", 2.5, cfg("fixed-timeout"))
        assert latency == pytest.approx(8.0 - 2.5)

    def test_latency_clamped_for_already_suspected_device(self):
        # Straggler silence began long before the death: suspicion +
        # confirm can land before the loss itself; latency floors at 0.
        plan = FaultPlan(seed=0, faults=(
            ComputeStraggler("gpu0", slowdown=50.0, start=1.5, end=60.0),
            DeviceLoss("gpu0", at=40.0),
        ))
        assert detection_latency(plan, "gpu0", 40.0, cfg("fixed-timeout")) == 0.0


class TestRejoinedDevice:
    """gpu0 is lost at 1.0 s, returns at 2.0 s and is lost again at
    6.0 s; fixed-timeout with interval 0.5, timeout 2.0, confirm 0.5."""

    plan = FaultPlan(seed=0, faults=(
        DeviceLoss("gpu0", at=1.0),
        DeviceReturn("gpu0", at=2.0),
        DeviceLoss("gpu0", at=6.0),
    ))
    config = DetectorConfig(
        kind="fixed-timeout", interval=0.5, timeout=2.0, confirm=0.5
    )

    def test_heartbeats_resume_on_return(self):
        times = heartbeat_times(self.plan, "gpu0", horizon=10.0, interval=0.5)
        assert times == [0.0, 0.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5]

    def test_both_losses_get_the_same_latency(self):
        first = detection_latency(self.plan, "gpu0", 1.0, self.config)
        second = detection_latency(self.plan, "gpu0", 6.0, self.config)
        assert first == second == pytest.approx(2.0)

    def test_scan_confirms_both_losses_and_counts_later_beats(self):
        beats, episodes = build_detector(self.config).scan(
            self.plan, "gpu0", 10.0
        )
        assert beats == 10  # eight of them after the return
        assert [ep.false_positive for ep in episodes] == [False, False]
        assert [(ep.suspected_at, ep.confirmed_at) for ep in episodes] == [
            (2.5, 3.0), (7.5, 8.0),
        ]


class TestNoneDetector:
    def test_confirms_a_loss_the_instant_it_strikes(self):
        plan = FaultPlan(seed=0, faults=(
            ComputeStraggler("gpu0", slowdown=50.0, start=1.5, end=60.0),
            DeviceLoss("gpu0", at=40.0),
        ))
        # No heartbeats, so no timing to derive: a zero iteration time
        # (which no heartbeat detector can resolve against) still builds.
        detector = build_detector(DetectorConfig(kind="none"), 0.0)
        assert detector.death(plan, "gpu0", 40.0) == (40.0, 40.0)
        assert detector.scan(plan, "gpu0", 100.0) == (0, [])
        none = DetectorConfig(kind="none")
        assert detection_latency(plan, "gpu0", 40.0, none) == 0.0
