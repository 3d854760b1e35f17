"""Fault injection inside one execution segment: determinism, retry
accounting, stragglers, link faults, memory pressure, daemon events."""

from __future__ import annotations

import math

import pytest

from repro.errors import CapacityError, DeviceLostError
from repro.faults import (
    ComputeStraggler,
    DeviceLoss,
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    LinkFlap,
    MemoryPressure,
    TransientTransferError,
)
from repro.memory.allocator import DevicePool
from repro.models import zoo
from repro.schedulers import build_scheduler
from repro.schedulers.base import BatchConfig
from repro.sim.engine import Engine, ResourceTimeline
from repro.sim.executor import ExecOptions, Executor
from repro.units import MB
from repro.validate import audit_run

from tests.conftest import tight_server


def _run(topo, plan, fault_plan=None, **policy_kwargs):
    injector = None
    if fault_plan is not None:
        from repro.faults import ResiliencePolicy

        injector = FaultInjector(
            fault_plan, ResiliencePolicy(**policy_kwargs)
        )
    return Executor(
        topo, plan, options=ExecOptions(injector=injector)
    ).run()


@pytest.fixture
def workload(uniform_model):
    topo = tight_server(2)
    plan = build_scheduler(
        "harmony-dp", uniform_model, topo, BatchConfig(1, 2)
    ).plan()
    return topo, plan


class TestDeterminism:
    def test_same_seed_byte_identical_trace(self, workload):
        topo, plan = workload
        faults = FaultPlan(seed=11, faults=(
            TransientTransferError(probability=0.2),
            ComputeStraggler("gpu0", slowdown=1.5, start=0.0, end=2.0),
        ))
        a = _run(topo, plan, faults)
        b = _run(topo, plan, faults)
        assert a.trace.events == b.trace.events
        assert a.makespan == b.makespan
        assert a.stats.retried_volume() == b.stats.retried_volume()

    def test_different_seed_diverges(self, workload):
        topo, plan = workload
        runs = {
            _run(
                topo, plan,
                FaultPlan(seed=s, faults=(TransientTransferError(0.4),)),
            ).stats.retry_events()
            for s in range(6)
        }
        assert len(runs) > 1


class TestRetries:
    def test_failed_attempts_are_ledgered_and_audit_clean(self, workload):
        topo, plan = workload
        faults = FaultPlan(seed=1, faults=(TransientTransferError(0.3),))
        result = _run(topo, plan, faults)
        assert result.stats.retried_volume() > 0
        assert result.stats.retry_events() > 0
        # Retries are a subset of total volume, and every retried byte
        # is traced: the standard audit (incl. conservation) must pass.
        report = audit_run(result, topo, plan)
        assert report.passed, report.render()

    def test_retries_slow_the_run_down(self, workload):
        topo, plan = workload
        healthy = _run(topo, plan)
        faulty = _run(
            topo, plan, FaultPlan(seed=2, faults=(TransientTransferError(0.3),))
        )
        assert faulty.makespan > healthy.makespan
        assert faulty.samples == healthy.samples  # work still completes


class TestStragglers:
    def test_straggler_stretches_compute_and_makespan(self, workload):
        topo, plan = workload
        healthy = _run(topo, plan)
        slow = _run(topo, plan, FaultPlan(seed=0, faults=(
            ComputeStraggler("gpu0", slowdown=3.0),
        )))
        assert slow.makespan > healthy.makespan
        assert (
            slow.devices["gpu0"].compute_busy
            > healthy.devices["gpu0"].compute_busy
        )
        # gpu1 is untouched: its own compute time is unchanged.
        assert slow.devices["gpu1"].compute_busy == pytest.approx(
            healthy.devices["gpu1"].compute_busy
        )


class TestLinkFaults:
    def test_degraded_uplink_slows_swaps(self, workload):
        topo, plan = workload
        healthy = _run(topo, plan)
        degraded = _run(topo, plan, FaultPlan(seed=0, faults=(
            LinkDegradation("uplink0", factor=8.0, start=0.0),
        )))
        assert degraded.makespan > healthy.makespan

    def test_flap_defers_transfers_past_the_window(self, workload):
        topo, plan = workload
        healthy = _run(topo, plan)
        flapped = _run(topo, plan, FaultPlan(seed=0, faults=(
            LinkFlap("uplink0", start=0.0, end=healthy.makespan / 2),
        )))
        assert flapped.makespan > healthy.makespan
        # No swap may ride the uplink inside the flap window.
        for ev in flapped.trace.events:
            if ev.category in ("swap_in", "swap_out") and ev.nbytes:
                assert ev.start >= healthy.makespan / 2 - 1e-9


class TestMemoryPressure:
    def test_pool_pressure_shrinks_effective_capacity(self):
        pool = DevicePool("gpu0", capacity=100 * MB)
        pool.add_pressure(40 * MB)
        assert pool.effective_capacity == pytest.approx(60 * MB)
        pool.reserve(1, 50 * MB)
        with pytest.raises(CapacityError, match="pressure"):
            pool.reserve(2, 20 * MB)
        pool.add_pressure(-40 * MB)
        pool.reserve(2, 20 * MB)  # fits again once pressure lifts

    def test_pressure_window_forces_failure_on_tight_device(self, uniform_model):
        # The tight server holds exactly one working set; stealing half
        # the pool mid-run must surface as CapacityError, not silent
        # over-subscription.
        topo = tight_server(1)
        plan = build_scheduler(
            "single", uniform_model, topo, BatchConfig(1, 1)
        ).plan()
        faults = FaultPlan(seed=0, faults=(
            MemoryPressure("gpu0", fraction=0.5, start=0.0),
        ))
        with pytest.raises(CapacityError):
            _run(topo, plan, faults)


class TestDaemonEvents:
    def test_loss_beyond_run_end_never_strikes(self, workload):
        topo, plan = workload
        healthy = _run(topo, plan)
        late = _run(topo, plan, FaultPlan(seed=0, faults=(
            DeviceLoss("gpu0", at=healthy.makespan * 100),
        )))
        assert late.makespan == pytest.approx(healthy.makespan)
        assert late.samples == healthy.samples

    def test_loss_mid_run_raises_device_lost(self, workload):
        topo, plan = workload
        healthy = _run(topo, plan)
        with pytest.raises(DeviceLostError) as exc:
            _run(topo, plan, FaultPlan(seed=0, faults=(
                DeviceLoss("gpu1", at=healthy.makespan / 2),
            )))
        assert exc.value.device == "gpu1"
        assert exc.value.at == pytest.approx(healthy.makespan / 2)

    def test_partial_result_counts_only_finished_compute(self, workload):
        """A loss struck mid-compute: the partial result reports each
        GPU's finished compute from the trace, while the lost GPU's
        compute stream also holds the task the loss cut short."""
        topo, plan = workload
        healthy = _run(topo, plan)
        cut = [
            e for e in healthy.trace.events
            if e.device == "gpu1" and e.category == "compute"
        ][1]
        at = (cut.start + cut.end) / 2
        executor = Executor(topo, plan, options=ExecOptions(
            injector=FaultInjector(FaultPlan(seed=0, faults=(
                DeviceLoss("gpu1", at=at),
            ))),
        ))
        with pytest.raises(DeviceLostError):
            executor.run()
        partial = executor.partial_result()
        for gpu in topo.gpus():
            finished = math.fsum(
                e.duration for e in partial.trace.events
                if e.device == gpu.name and e.category == "compute"
            )
            assert partial.devices[gpu.name].compute_busy == pytest.approx(
                finished, rel=1e-12
            )
        stream = executor.compute_streams["gpu1"].busy_seconds
        lost = partial.devices["gpu1"].compute_busy
        assert lost < stream
        assert stream - lost == pytest.approx(cut.duration, rel=1e-9)


class TestUtilizationUnclamped:
    def test_utilization_reports_raw_ratio(self):
        tl = ResourceTimeline("uplink0")
        tl.acquire(0.0, 2.0)
        # Busy 2s over a 1s horizon: the raw ratio must survive so the
        # audit layer can flag it, not be clamped to 1.0.
        assert tl.utilization(1.0) == pytest.approx(2.0)
        assert ResourceTimeline("idle").utilization(1.0) == 0.0
