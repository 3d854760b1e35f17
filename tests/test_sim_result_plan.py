"""RunResult / DeviceReport reporting and Plan validation."""

import dataclasses

import pytest

from repro.errors import SchedulingError
from repro.memory.policy import MemoryPolicy
from repro.memory.stats import Direction, SwapStats
from repro.models import zoo
from repro.models.phases import Phase
from repro.schedulers.base import BatchConfig
from repro.schedulers import DataParallelBaseline
from repro.sim.plan import Plan
from repro.sim.result import DeviceReport, RunResult
from repro.sim.trace import Trace
from repro.tasks.graph import TaskGraph
from repro.tasks.task import Task, TaskKind
from repro.tensors.registry import TensorRegistry
from repro.tensors.tensor import TensorKind
from repro.units import GB, MB

from tests.conftest import tight_server


class TestDeviceReport:
    def _report(self, demand, capacity=10 * GB):
        return DeviceReport(
            name="gpu0", capacity=capacity, peak_used=capacity,
            peak_demand=demand, compute_busy=1.0,
            swap_in_bytes=0, swap_out_bytes=0,
        )

    def test_no_swap(self):
        assert self._report(demand=8 * GB).swap_pressure == "no swap"
        assert self._report(demand=8 * GB).overflow_bytes == 0

    def test_light_swap(self):
        report = self._report(demand=11 * GB)
        assert report.swap_pressure == "light swap"
        assert report.overflow_bytes == pytest.approx(1 * GB)

    def test_heavy_swap(self):
        assert self._report(demand=15 * GB).swap_pressure == "heavy swap"

    def test_boundary_quarter_capacity(self):
        light = self._report(demand=12.4 * GB)
        heavy = self._report(demand=12.6 * GB)
        assert light.swap_pressure == "light swap"
        assert heavy.swap_pressure == "heavy swap"


class TestRunResult:
    def _result(self, makespan=2.0, samples=4):
        stats = SwapStats()
        stats.record("gpu0", TensorKind.WEIGHT, Direction.SWAP_OUT, 1 * GB)
        return RunResult(
            label="x", makespan=makespan, samples=samples, stats=stats,
            trace=Trace(), devices={}, link_busy={"uplink0": 1.5, "pcie": 0.5},
        )

    def test_throughput(self):
        assert self._result().throughput == 2.0

    def test_throughput_zero_makespan(self):
        assert self._result(makespan=0).throughput == 0.0

    def test_swap_out_volume(self):
        assert self._result().swap_out_volume == 1 * GB

    def test_bottleneck_link(self):
        name, util = self._result().bottleneck_link()
        assert name == "uplink0"
        assert util == 0.75

    def test_bottleneck_capped_at_one(self):
        result = self._result(makespan=1.0)
        assert result.bottleneck_link()[1] == 1.0

    def test_no_links(self):
        result = RunResult(
            label="x", makespan=1, samples=1, stats=SwapStats(),
            trace=Trace(), devices={},
        )
        assert result.bottleneck_link() == ("none", 0.0)


class TestPlanValidation:
    @pytest.fixture
    def plan(self):
        model = zoo.synthetic_uniform(num_layers=2, param_bytes_per_layer=10 * MB)
        topo = tight_server(1, 4000 * MB)
        return DataParallelBaseline(
            model, topo, BatchConfig(1, 1), num_replicas=1
        ).plan()

    def test_valid_plan_passes(self, plan):
        plan.validate()

    def test_missing_task_detected(self, plan):
        with pytest.raises(SchedulingError, match="appears 0 times"):
            dataclasses.replace(
                plan, device_order={"gpu0": plan.device_order["gpu0"][:-1]}
            )

    def test_duplicated_task_detected(self, plan):
        order = plan.device_order["gpu0"]
        with pytest.raises(SchedulingError, match="appears 2 times"):
            dataclasses.replace(
                plan, device_order={"gpu0": order + order[:1]}
            )

    def test_wrong_device_detected(self, plan):
        tid = plan.device_order["gpu0"][0]
        plan.graph.task(tid).device = "gpu9"
        with pytest.raises(SchedulingError, match="ordered on gpu0 but placed"):
            dataclasses.replace(plan)

    def test_allreduce_on_non_participant_detected(self):
        # The collective's one tensor belongs to gpu1 (its only
        # toucher), so ordering the collective on gpu0 is refused.
        model = zoo.synthetic_uniform(num_layers=1)
        registry = TensorRegistry(model, 1)
        w = registry.weight(0, 0).tid
        graph = TaskGraph()
        graph.add(Task(tid=0, kind=TaskKind.COMPUTE, label="upd",
                       phase=Phase.UPDATE, reads=(w,), writes=(w,),
                       device="gpu1"))
        graph.add(Task(tid=1, kind=TaskKind.ALLREDUCE, label="ar",
                       reads=(w,), writes=(w,)))
        with pytest.raises(SchedulingError, match="ar ordered on non-participant gpu0"):
            Plan(
                label="bad", graph=graph, registry=registry,
                device_order={"gpu0": [1], "gpu1": [0]},
                policy=MemoryPolicy.harmony(),
                samples_per_iteration=1,
            )


class TestMemoryProfile:
    def _run(self):
        from repro import BatchConfig, HarmonyConfig, HarmonySession

        model = zoo.synthetic_uniform(
            num_layers=4, param_bytes_per_layer=100 * MB,
            activation_bytes=25 * MB,
        )
        topo = tight_server(2, 550 * MB)
        session = HarmonySession(
            model, topo, HarmonyConfig("harmony-pp", batch=BatchConfig(1, 2))
        )
        return session.run()

    def test_profile_recorded_per_device(self):
        result = self._run()
        assert set(result.memory_profile) == {"gpu0", "gpu1"}
        assert all(result.memory_profile[d] for d in result.memory_profile)

    def test_samples_time_ordered_and_bounded(self):
        result = self._run()
        for device, samples in result.memory_profile.items():
            capacity = result.devices[device].capacity
            times = [t for t, _ in samples]
            assert times == sorted(times)
            assert all(0 <= used <= capacity * (1 + 1e-9) for _, used in samples)

    def test_profile_peak_matches_report(self):
        result = self._run()
        for device, samples in result.memory_profile.items():
            peak = max(used for _, used in samples)
            assert peak == pytest.approx(result.devices[device].peak_used)

    def test_sparkline_renders(self):
        result = self._run()
        line = result.memory_sparkline("gpu0", width=40)
        assert line.startswith("gpu0 mem |")
        assert len(line.split("|")[1]) == 40

    def test_sparkline_unknown_device(self):
        result = self._run()
        assert result.memory_sparkline("gpu9") == "(no memory samples)"

    def _synthetic_result(self, *, capacity, makespan, samples):
        report = DeviceReport(
            name="cpu", capacity=capacity, peak_used=max(
                (u for _, u in samples), default=0.0
            ),
            peak_demand=0.0, compute_busy=0.0,
            swap_in_bytes=0, swap_out_bytes=0,
        )
        return RunResult(
            label="x", makespan=makespan, samples=1, stats=SwapStats(),
            trace=Trace(), devices={"cpu": report},
            memory_profile={"cpu": samples},
        )

    def test_sparkline_zero_capacity_device(self):
        # Host/CPU pseudo-devices report capacity 0; the sparkline must
        # scale to the observed peak instead of dividing by zero.
        result = self._synthetic_result(
            capacity=0.0, makespan=2.0,
            samples=[(0.0, 10 * MB), (1.0, 40 * MB)],
        )
        line = result.memory_sparkline("cpu", width=20)
        assert line.startswith("cpu mem |")
        assert len(line.split("|")[1]) == 20

    def test_sparkline_zero_capacity_all_zero_usage(self):
        result = self._synthetic_result(
            capacity=0.0, makespan=1.0, samples=[(0.0, 0.0), (0.5, 0.0)],
        )
        line = result.memory_sparkline("cpu", width=10)
        assert line.split("|")[1] == " " * 10

    def test_sparkline_zero_makespan(self):
        # A zero-length run with samples renders a flat line rather
        # than dividing the time axis by zero.
        result = self._synthetic_result(
            capacity=100 * MB, makespan=0.0, samples=[(0.0, 50 * MB)],
        )
        line = result.memory_sparkline("cpu", width=15)
        inner = line.split("|")[1]
        assert len(inner) == 15
        assert len(set(inner)) == 1  # flat

    def test_sparkline_profile_device_missing_from_devices(self):
        result = self._synthetic_result(
            capacity=0.0, makespan=1.0, samples=[(0.0, 5 * MB)],
        )
        result.memory_profile["ghost"] = [(0.0, 5 * MB)]
        line = result.memory_sparkline("ghost", width=10)
        assert line.startswith("ghost mem |")
