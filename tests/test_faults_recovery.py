"""The recovery-policy zoo end to end: every registered policy across
multiple scheduler schemes (audited), the wait-rejoin goodput bet in
both directions, spare substitution, elastic rejoin, degrade-continue's
permanence, every detector inside a resilient run (straggler false
positives, the heartbeat count), determinism, and the prefix-checkpoint
salting that keeps faulty and fault-free runs apart."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import HarmonyConfig
from repro.core.session import HarmonySession
from repro.errors import ConfigError
from repro.faults import (
    RECOVERY_REGISTRY,
    ComputeStraggler,
    DetectorConfig,
    DeviceLoss,
    DeviceReturn,
    FaultPlan,
    ResiliencePolicy,
    SpareDevice,
    build_recovery,
    detection_latency,
    detector_names,
    heartbeat_times,
    recovery_names,
    run_resilient,
)
from repro.hardware import presets
from repro.models import zoo
from repro.perf.fingerprint import base_fingerprint
from repro.perf.incremental import CheckpointStore
from repro.units import MB
from repro.validate import audit_resilient

from tests.conftest import tight_server

#: Three schemes spanning both sides of the resilience asymmetry.
SCHEMES = ("harmony-dp", "dp-baseline", "harmony-pp")


@pytest.fixture(scope="module")
def model():
    return zoo.synthetic_uniform(num_layers=4)


@pytest.fixture(scope="module")
def server():
    return tight_server(2, capacity=900 * MB)


def _iter_time(model, server, scheme):
    return HarmonySession(model, server, HarmonyConfig(scheme)).run().makespan


def _policy(scheme, **kw):
    return dataclasses.replace(ResiliencePolicy.for_scheme(scheme), **kw)


def _ledger(report):
    """Everything a fault report records but its segments' simulation
    artifacts: incidents, losses, every scalar, and segment timing."""
    doc = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    doc["segments"] = [
        (s.index, s.iteration, s.started_at, s.duration, s.aborted,
         s.lost_device)
        for s in report.segments
    ]
    return doc


class TestRegistry:
    def test_four_policies_in_presentation_order(self):
        assert recovery_names() == (
            "restart-replan", "wait-rejoin", "spare-substitute",
            "degrade-continue",
        )
        for name in recovery_names():
            assert RECOVERY_REGISTRY[name].name == name
            assert build_recovery(name).name == name

    def test_unknown_policy_lists_valid_names(self):
        with pytest.raises(ConfigError, match="valid policies.*restart-replan"):
            build_recovery("reboot")

    def test_resilience_policy_validates_recovery_name(self):
        with pytest.raises(ConfigError, match="valid policies"):
            ResiliencePolicy(recovery="nope")
        with pytest.raises(ConfigError, match="grace_window"):
            ResiliencePolicy(grace_window=-1.0)
        with pytest.raises(ConfigError, match="spare_attach_seconds"):
            ResiliencePolicy(spare_attach_seconds=-0.1)


class TestPolicyZooAcrossSchemes:
    """Every policy x every scheme on the same scenario: one loss, a
    return inside the grace window, one cold spare."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("policy_name", recovery_names())
    def test_policy_recovers_and_audits_clean(
        self, model, server, scheme, policy_name
    ):
        t_iter = _iter_time(model, server, scheme)
        plan = FaultPlan(seed=5, faults=(
            DeviceLoss("gpu0", at=1.5 * t_iter),
            DeviceReturn("gpu0", at=2.25 * t_iter),
            SpareDevice("spare0"),
        ))
        policy = _policy(
            scheme, recovery=policy_name, grace_window=2.0 * t_iter,
            spare_attach_seconds=0.05 * t_iter,
        )
        result = run_resilient(
            model, server, HarmonyConfig(scheme), plan,
            policy=policy, iterations=4,
        )
        report = result.faults
        assert report.recovered
        assert len(report.device_losses) == 1
        # Iterations credited on a shrunken world produce fewer samples,
        # so the fault-free figure is an upper bound, not an equality.
        assert 0 < report.samples <= report.fault_free_samples
        audit = audit_resilient(report)
        assert audit.passed, audit.table().render()
        # Exactly one loss incident, attributed to the policy that
        # handled it.
        losses = [i for i in report.incidents if i.kind == "loss"]
        assert len(losses) == 1
        assert losses[0].action == policy_name
        assert losses[0].mttr is not None and losses[0].mttr > 0

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_restart_replan_rejoins_elastically(self, model, server, scheme):
        t_iter = _iter_time(model, server, scheme)
        plan = FaultPlan(seed=5, faults=(
            DeviceLoss("gpu0", at=1.5 * t_iter),
            DeviceReturn("gpu0", at=2.25 * t_iter),
        ))
        report = run_resilient(
            model, server, HarmonyConfig(scheme), plan,
            policy=_policy(scheme, recovery="restart-replan"), iterations=4,
        ).faults
        assert report.rejoins == 1
        assert report.replans == 2  # shrink + grow back
        # The final segment runs on the full world again.
        assert "gpu0" in report.segments[-1].topology.devices

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_degrade_continue_ignores_the_return(self, model, server, scheme):
        t_iter = _iter_time(model, server, scheme)
        plan = FaultPlan(seed=5, faults=(
            DeviceLoss("gpu0", at=1.5 * t_iter),
            DeviceReturn("gpu0", at=2.25 * t_iter),
            SpareDevice("spare0"),
        ))
        report = run_resilient(
            model, server, HarmonyConfig(scheme), plan,
            policy=_policy(scheme, recovery="degrade-continue"), iterations=4,
        ).faults
        assert report.rejoins == 0 and report.spares_used == 0
        assert "gpu0" not in report.segments[-1].topology.devices

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_spare_substitute_preserves_world_size(self, model, server, scheme):
        t_iter = _iter_time(model, server, scheme)
        plan = FaultPlan(seed=5, faults=(
            DeviceLoss("gpu0", at=1.5 * t_iter),
            SpareDevice("spare0"),
        ))
        report = run_resilient(
            model, server, HarmonyConfig(scheme), plan,
            policy=_policy(
                scheme, recovery="spare-substitute",
                spare_attach_seconds=0.05 * t_iter,
            ),
            iterations=4,
        ).faults
        assert report.spares_used == 1
        final = report.segments[-1].topology
        assert "spare0" in final.devices and "gpu0" not in final.devices
        assert len(final.gpus()) == len(server.gpus())
        # Same size, same shape: even a rigid baseline keeps its
        # checkpoint, so nothing beyond the segment in flight rolls back.
        assert report.iterations_redone == 0

    def test_spare_substitute_falls_back_to_shrink_without_spares(
        self, model, server
    ):
        t_iter = _iter_time(model, server, "harmony-dp")
        plan = FaultPlan(seed=5, faults=(
            DeviceLoss("gpu0", at=1.5 * t_iter),
        ))
        report = run_resilient(
            model, server, HarmonyConfig("harmony-dp"), plan,
            policy=_policy("harmony-dp", recovery="spare-substitute"),
            iterations=3,
        ).faults
        assert report.recovered and report.spares_used == 0
        assert "gpu0" not in report.segments[-1].topology.devices


class TestWaitRejoinGoodputBet:
    """The policy's defining trade: it wins when the device comes back
    inside the grace window and loses when nobody comes."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_beats_restart_replan_when_device_returns_in_grace(
        self, model, server, scheme
    ):
        t_iter = _iter_time(model, server, scheme)
        plan = FaultPlan(seed=5, faults=(
            DeviceLoss("gpu0", at=1.5 * t_iter),
            DeviceReturn("gpu0", at=2.0 * t_iter),
        ))
        config = HarmonyConfig(scheme)
        # Both policies pay the same adaptive-detection latency; the
        # return lands before confirmation, so wait-rejoin resumes the
        # preserved world with zero stall and no replans while
        # restart-replan shrinks, replans, and grows back.
        detection = DetectorConfig(kind="phi-accrual")
        wait = run_resilient(
            model, server, config, plan,
            policy=_policy(scheme, recovery="wait-rejoin",
                           grace_window=2.0 * t_iter, detection=detection),
            iterations=4,
        )
        restart = run_resilient(
            model, server, config, plan,
            policy=_policy(scheme, recovery="restart-replan",
                           detection=detection),
            iterations=4,
        )
        assert wait.faults.rejoins == 1
        assert wait.faults.replans == 0
        assert wait.goodput > restart.goodput

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_loses_to_restart_replan_when_nobody_returns(
        self, model, server, scheme
    ):
        t_iter = _iter_time(model, server, scheme)
        plan = FaultPlan(seed=5, faults=(
            DeviceLoss("gpu0", at=1.5 * t_iter),
        ))
        config = HarmonyConfig(scheme)
        wait = run_resilient(
            model, server, config, plan,
            policy=_policy(scheme, recovery="wait-rejoin",
                           grace_window=2.0 * t_iter),
            iterations=4,
        )
        restart = run_resilient(
            model, server, config, plan,
            policy=_policy(scheme, recovery="restart-replan"),
            iterations=4,
        )
        # The grace window was pure stall before the same shrink.
        assert wait.faults.stall_seconds == pytest.approx(2.0 * t_iter)
        assert wait.goodput < restart.goodput


class TestDetectionInsideResilientRuns:
    def test_straggler_false_positive_is_deterministic_and_exonerated(
        self, model, server
    ):
        t_iter = _iter_time(model, server, "harmony-dp")
        plan = FaultPlan(seed=7, faults=(
            # Throttled early: the stretched heartbeat gap trips the
            # adaptive detector, the late beat exonerates it, and the
            # device never actually dies.
            ComputeStraggler("gpu1", slowdown=8.0,
                             start=0.3 * t_iter, end=2.0 * t_iter),
            DeviceLoss("gpu0", at=2.5 * t_iter),
        ))
        policy = _policy(
            "harmony-dp",
            detection=DetectorConfig(kind="phi-accrual",
                                     interval=t_iter / 8.0),
        )
        reports = [
            run_resilient(
                model, server, HarmonyConfig("harmony-dp"), plan,
                policy=policy, iterations=4,
            ).faults
            for _ in range(2)
        ]
        for report in reports:
            fps = report.false_positives()
            assert fps, "straggler should trip the adaptive detector"
            assert all(i.device == "gpu1" for i in fps)
            assert all(i.kind == "suspicion" for i in fps)
            assert all(i.exonerated_at is not None for i in fps)
            assert all(i.detector == "phi-accrual" for i in fps)
            # gpu1 was exonerated, never recovered-from.
            assert all(i.recovered_at is None for i in fps)
            # The real loss was confirmed after a detection latency.
            loss = next(i for i in report.incidents if i.kind == "loss")
            assert loss.confirmed_at > loss.occurred_at
            assert not loss.false_positive
            assert report.heartbeats_observed > 0
            assert audit_resilient(report).passed
        # Identical replay, detection machinery included.
        assert _ledger(reports[0]) == _ledger(reports[1])

    def test_detection_latency_charged_to_recovery(self, model, server):
        t_iter = _iter_time(model, server, "harmony-dp")
        plan = FaultPlan(seed=5, faults=(
            DeviceLoss("gpu0", at=1.5 * t_iter),
        ))
        config = HarmonyConfig("harmony-dp")
        instant = run_resilient(
            model, server, config, plan,
            policy=_policy("harmony-dp"), iterations=3,
        ).faults
        detected = run_resilient(
            model, server, config, plan,
            policy=_policy(
                "harmony-dp",
                detection=DetectorConfig(kind="fixed-timeout"),
            ),
            iterations=3,
        ).faults
        assert detected.recovery_seconds > instant.recovery_seconds
        assert detected.total_makespan > instant.total_makespan
        # Both reload the same survivor, so the difference is exactly
        # the heartbeat detector's latency: the instant (``none``) run
        # charged no detection time at all.
        loss = next(i for i in detected.incidents if i.kind == "loss")
        assert detected.recovery_seconds == pytest.approx(
            instant.recovery_seconds + (loss.confirmed_at - loss.occurred_at)
        )

    @pytest.mark.parametrize("detector", detector_names())
    def test_every_detector_recovers_a_device_loss(
        self, model, server, detector
    ):
        t_iter = _iter_time(model, server, "harmony-dp")
        plan = FaultPlan(seed=5, faults=(
            DeviceLoss("gpu0", at=1.5 * t_iter),
        ))
        detection = DetectorConfig(kind=detector)
        report = run_resilient(
            model, server, HarmonyConfig("harmony-dp"), plan,
            policy=_policy("harmony-dp", detection=detection), iterations=3,
        ).faults
        assert report.recovered
        audit = audit_resilient(report)
        assert audit.passed, audit.table().render()
        [loss] = [i for i in report.incidents if i.kind == "loss"]
        assert loss.detector == detector
        if detector == "none":
            assert loss.suspected_at == loss.confirmed_at == loss.occurred_at
            assert detection_latency(
                plan, "gpu0", loss.occurred_at, detection
            ) == 0.0
            assert report.heartbeats_observed == 0
        else:
            assert loss.confirmed_at > loss.occurred_at
            assert report.heartbeats_observed > 0

    def test_heartbeats_observed_counts_the_scanned_streams(self):
        """``heartbeats_observed`` is what the detector scanned: every
        initial GPU's stream up to the run's end, on ``run_recovery``'s
        scenario (harmony-dp under wait-rejoin, phi-accrual)."""
        model = zoo.synthetic_uniform(num_layers=8)
        topology = presets.gtx1080ti_server(num_gpus=4)
        config = HarmonyConfig("harmony-dp")
        t_iter = _iter_time(model, topology, "harmony-dp")
        plan = FaultPlan(seed=1, faults=(
            DeviceLoss("gpu0", at=1.5 * t_iter),
            DeviceReturn("gpu0", at=2.25 * t_iter),
            SpareDevice("spare0"),
        ))
        detection = DetectorConfig(kind="phi-accrual")
        report = run_resilient(
            model, topology, config, plan,
            policy=_policy(
                "harmony-dp", recovery="wait-rejoin",
                grace_window=1.5 * t_iter,
                spare_attach_seconds=0.05 * t_iter, detection=detection,
            ),
            iterations=6,
        ).faults
        # The detector resolved its interval against this iteration time.
        assert report.fault_free_makespan == t_iter * 6
        interval = detection.resolve(t_iter).interval
        assert report.heartbeats_observed == sum(
            len(heartbeat_times(plan, gpu.name, report.total_makespan, interval))
            for gpu in topology.gpus()
        )


class TestFaultPlanSaltsPrefixCheckpoints:
    """Faulty runs and fault-free runs must never share prefix
    snapshots (satellite: salt/veto fault runs)."""

    def test_fault_plan_salts_base_fingerprint(self, model, server):
        healthy = HarmonyConfig("harmony-dp", iterations=4)
        faulty = HarmonyConfig(
            "harmony-dp", iterations=4,
            faults=FaultPlan(seed=1, faults=(DeviceLoss("gpu0", at=1.0),)),
        )
        reseeded = HarmonyConfig(
            "harmony-dp", iterations=4,
            faults=FaultPlan(seed=2, faults=(DeviceLoss("gpu0", at=1.0),)),
        )
        keys = {
            base_fingerprint(model, server, cfg)
            for cfg in (healthy, faulty, reseeded)
        }
        assert len(keys) == 3

    def test_fault_runs_never_touch_the_checkpoint_store(
        self, model, server, tmp_path
    ):
        store = CheckpointStore(checkpoint_dir=tmp_path)
        healthy = HarmonyConfig("harmony-dp", iterations=3)
        HarmonySession(model, server, healthy, checkpoints=store).run()
        warmed = store.counters()
        t_iter = _iter_time(model, server, "harmony-dp")
        faulty = HarmonyConfig(
            "harmony-dp", iterations=3,
            faults=FaultPlan(
                seed=1, faults=(DeviceLoss("gpu0", at=1.5 * t_iter),)
            ),
        )
        result = HarmonySession(
            model, server, faulty, checkpoints=store
        ).run()
        # The faulty run recovered on its own path and the store saw
        # neither a probe nor a capture from it.
        assert result.faults is not None and result.faults.recovered
        assert store.counters() == warmed


class TestDeterminism:
    @pytest.mark.parametrize("policy_name", recovery_names())
    def test_same_plan_seed_policy_replays_byte_identically(
        self, model, server, policy_name
    ):
        t_iter = _iter_time(model, server, "harmony-dp")
        plan = FaultPlan(seed=11, faults=(
            DeviceLoss("gpu0", at=1.2 * t_iter),
            DeviceReturn("gpu0", at=2.0 * t_iter),
            SpareDevice("spare0"),
            ComputeStraggler("gpu1", slowdown=3.0,
                             start=0.5 * t_iter, end=1.0 * t_iter),
        ))
        policy = _policy(
            "harmony-dp", recovery=policy_name,
            grace_window=1.5 * t_iter, spare_attach_seconds=0.1,
            detection=DetectorConfig(kind="phi-accrual"),
        )

        def run_once():
            return run_resilient(
                model, server, HarmonyConfig("harmony-dp"), plan,
                policy=policy, iterations=3,
            )

        a, b = run_once(), run_once()
        assert _ledger(a.faults) == _ledger(b.faults)
        assert a.makespan == b.makespan
        for seg_a, seg_b in zip(a.faults.segments, b.faults.segments):
            events_a = [
                (e.device, e.category, e.label, e.start, e.end, e.nbytes)
                for e in seg_a.result.trace.events
            ]
            events_b = [
                (e.device, e.category, e.label, e.start, e.end, e.nbytes)
                for e in seg_b.result.trace.events
            ]
            assert events_a == events_b
