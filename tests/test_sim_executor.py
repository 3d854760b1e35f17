"""Executor: end-to-end plan execution on the event engine."""

import dataclasses

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.memory.policy import MemoryPolicy
from repro.models import zoo
from repro.schedulers.base import BatchConfig
from repro.schedulers.dp_baseline import DataParallelBaseline
from repro.schedulers.harmony_pp import HarmonyPP
from repro.sim.executor import ExecOptions, Executor
from repro.tensors.state import TensorState
from repro.tensors.tensor import TensorKind
from repro.units import MB

from tests.conftest import roomy_server, tight_server


@pytest.fixture
def model():
    return zoo.synthetic_uniform(
        num_layers=4, param_bytes_per_layer=100 * MB, activation_bytes=25 * MB
    )


def single_plan(model, topo, m=2, **kw):
    return DataParallelBaseline(
        model, topo, BatchConfig(1, m), num_replicas=1, **kw
    ).plan()


class TestBasicExecution:
    def test_all_tasks_complete(self, model):
        topo = tight_server(1)
        result = Executor(topo, single_plan(model, topo)).run()
        plan_size = 4 * 2 * 2 + 4
        assert result.num_tasks == plan_size

    def test_samples_counted(self, model):
        topo = tight_server(1)
        result = Executor(topo, single_plan(model, topo, m=3)).run()
        assert result.samples == 3

    def test_throughput_positive(self, model):
        topo = tight_server(1)
        result = Executor(topo, single_plan(model, topo)).run()
        assert result.throughput > 0

    def test_deterministic(self, model):
        topo = tight_server(1)
        r1 = Executor(topo, single_plan(model, topo)).run()
        topo2 = tight_server(1)
        r2 = Executor(topo2, single_plan(model, topo2)).run()
        assert r1.makespan == r2.makespan
        assert r1.swap_out_volume == r2.swap_out_volume

    def test_compute_sequence_follows_plan_order(self, model):
        topo = tight_server(1)
        plan = single_plan(model, topo, m=1)
        result = Executor(topo, plan).run()
        labels = result.trace.compute_sequence("gpu0")
        expected = [plan.graph.task(t).label for t in plan.device_order["gpu0"]]
        assert labels == expected

    def test_roomy_memory_no_swap_out_except_flush(self, model):
        topo = roomy_server(1)
        result = Executor(
            topo, single_plan(model, topo),
            options=ExecOptions(flush_at_end=False),
        ).run()
        assert result.swap_out_volume == 0.0


class TestFlush:
    def test_flush_writes_back_dirty_weights(self, model):
        topo = roomy_server(1)
        with_flush = Executor(topo, single_plan(model, topo)).run()
        # after update, W/dW/K are dirty: flush writes them all back
        expected = model.param_bytes + model.grad_bytes + model.optimizer_bytes
        assert with_flush.swap_out_volume == pytest.approx(expected)

    def test_flush_leaves_all_tensors_off_device(self, model):
        topo = roomy_server(1)
        executor = Executor(topo, single_plan(model, topo))
        executor.run()
        for pool in executor.manager.pools.values():
            assert pool.used == 0


class TestMemoryInteraction:
    def test_tight_memory_forces_weight_reswap(self, model):
        topo = tight_server(1)
        result = Executor(topo, single_plan(model, topo)).run()
        w_traffic = result.stats.kind_swap_volume(TensorKind.WEIGHT)
        assert w_traffic > model.param_bytes  # more than one pass over W

    def test_peak_used_never_exceeds_capacity(self, model):
        topo = tight_server(1)
        result = Executor(topo, single_plan(model, topo)).run()
        for report in result.devices.values():
            assert report.peak_used <= report.capacity * (1 + 1e-9)

    def test_demand_exceeds_capacity_under_pressure(self, model):
        topo = tight_server(1)
        result = Executor(topo, single_plan(model, topo)).run()
        assert result.devices["gpu0"].peak_demand > result.devices["gpu0"].capacity


class TestDataParallel:
    def test_replicas_run_on_distinct_gpus(self, model):
        topo = tight_server(2)
        plan = DataParallelBaseline(model, topo, BatchConfig(1, 1)).plan()
        result = Executor(topo, plan).run()
        assert result.trace.compute_sequence("gpu0")
        assert result.trace.compute_sequence("gpu1")

    def test_allreduce_events_recorded(self, model):
        topo = tight_server(2)
        plan = DataParallelBaseline(model, topo, BatchConfig(1, 1)).plan()
        result = Executor(topo, plan).run()
        assert len(result.trace.by_category("allreduce")) == 2 * 4  # per gpu x layer

    def test_allreduce_synchronizes(self, model):
        topo = tight_server(2)
        plan = DataParallelBaseline(model, topo, BatchConfig(1, 1)).plan()
        result = Executor(topo, plan).run()
        ar0 = [e for e in result.trace.by_category("allreduce")]
        starts = {e.label: [] for e in ar0}
        for e in ar0:
            starts[e.label].append((e.start, e.end))
        for intervals in starts.values():
            assert len(set(intervals)) == 1  # same window on both devices


class TestPipelineP2P:
    def test_boundary_tensors_travel_p2p(self, model):
        topo = tight_server(2, capacity=550 * MB)
        plan = HarmonyPP(model, topo, BatchConfig(1, 2)).plan()
        result = Executor(topo, plan).run()
        assert result.stats.p2p_volume() > 0

    def test_p2p_disabled_routes_via_host(self, model):
        from repro.schedulers.options import HarmonyOptions

        topo = tight_server(2, capacity=550 * MB)
        plan = HarmonyPP(
            model, topo, BatchConfig(1, 2), options=HarmonyOptions(p2p=False)
        ).plan()
        result = Executor(topo, plan).run()
        assert result.stats.p2p_volume() == 0


class TestPrefetch:
    def test_prefetch_never_slower(self, model):
        topo = roomy_server(1)
        base = Executor(topo, single_plan(model, topo)).run()
        topo2 = roomy_server(1)
        pf = Executor(
            topo2, single_plan(model, topo2), options=ExecOptions(prefetch=True)
        ).run()
        assert pf.makespan <= base.makespan + 1e-9

    def test_prefetch_tight_memory_still_completes(self, model):
        topo = tight_server(1)
        result = Executor(
            topo, single_plan(model, topo), options=ExecOptions(prefetch=True)
        ).run()
        assert result.num_tasks > 0


class TestFailureModes:
    def test_inconsistent_plan_rejected(self, model):
        # An inconsistent plan cannot be built, so no executor sees one.
        topo = tight_server(1)
        plan = single_plan(model, topo)
        with pytest.raises(SchedulingError):
            dataclasses.replace(
                plan, device_order={"gpu0": plan.device_order["gpu0"][:-1]}
            )  # drop a task

    def test_deadlock_reported(self, model):
        topo = tight_server(1)
        plan = single_plan(model, topo, m=1)
        # Swap the first two: fwd L2 before fwd L1 deadlocks a strict
        # in-order device.
        first, second, *rest = plan.device_order["gpu0"]
        plan = dataclasses.replace(
            plan, device_order={"gpu0": (second, first, *rest)}
        )
        with pytest.raises(SimulationError, match="deadlock"):
            Executor(topo, plan).run()


class TestReports:
    def test_summary_renders(self, model):
        topo = tight_server(1)
        result = Executor(topo, single_plan(model, topo)).run()
        text = result.summary()
        assert "gpu0" in text and "swap-out" in text

    def test_bottleneck_link_identified(self, model):
        topo = tight_server(1)
        result = Executor(topo, single_plan(model, topo)).run()
        name, util = result.bottleneck_link()
        assert name in ("uplink0", "pcie-gpu0")
        assert 0 < util <= 1
