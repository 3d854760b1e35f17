"""Error paths produce actionable exceptions on minimal crafted inputs.

Each test builds the smallest input that trips one failure mode and
asserts both the exception type and that the message carries enough
context to act on (device names, task labels, capacities, pending
work) — regression cover for the "fail loudly and specifically"
contract the fault-injection subsystem leans on.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import CapacityError, SchedulingError, SimulationError
from repro.memory.policy import MemoryPolicy
from repro.models import zoo
from repro.schedulers import build_scheduler
from repro.schedulers.base import BatchConfig
from repro.sim.engine import Engine
from repro.sim.executor import Executor
from repro.sim.plan import Plan
from repro.tasks.graph import TaskGraph
from repro.models.phases import Phase
from repro.tasks.task import Task, TaskKind
from repro.tensors.registry import TensorRegistry
from repro.units import MB

from tests.conftest import tight_server


class TestCapacityError:
    def test_model_larger_than_gpu_and_message_names_the_device(self):
        # 100 MB layers on a 60 MB GPU: even one weight tensor cannot
        # fit, so preparation must fail before any compute runs.
        model = zoo.synthetic_uniform(num_layers=2)
        topo = tight_server(1, capacity=60 * MB)
        plan = build_scheduler("single", model, topo, BatchConfig(1, 1)).plan()
        with pytest.raises(CapacityError) as exc:
            Executor(topo, plan).run()
        message = str(exc.value)
        assert "gpu0" in message
        assert "capacity" in message


class TestSchedulingError:
    def test_cycle_is_reported_with_involved_tasks(self):
        graph = TaskGraph()
        graph.add(Task(0, TaskKind.COMPUTE, "fwd-a", phase=Phase.FORWARD,
                       device="gpu0", deps=frozenset({1})))
        graph.add(Task(1, TaskKind.COMPUTE, "fwd-b", phase=Phase.FORWARD,
                       device="gpu0", deps=frozenset({0})))
        with pytest.raises(SchedulingError, match="cycle.*fwd-a.*fwd-b"):
            graph.validate()

    def test_unplaced_task_is_named(self):
        graph = TaskGraph()
        graph.add(Task(0, TaskKind.COMPUTE, "fwd-orphan", phase=Phase.FORWARD))
        with pytest.raises(SchedulingError, match="fwd-orphan.*unplaced"):
            Plan(
                label="orphan", graph=graph,
                registry=TensorRegistry(zoo.synthetic_uniform(num_layers=1), 1),
                device_order={"gpu0": [0]}, policy=MemoryPolicy.harmony(),
                samples_per_iteration=1,
            )

    def test_plan_rejects_task_ordered_on_wrong_device(self):
        model = zoo.synthetic_uniform(num_layers=2)
        topo = tight_server(2)
        plan = build_scheduler(
            "dp-baseline", model, topo, BatchConfig(1, 2)
        ).plan()
        orders = plan.device_order
        with pytest.raises(SchedulingError, match="ordered on .* but placed"):
            dataclasses.replace(
                plan, device_order={"gpu0": orders["gpu1"], "gpu1": orders["gpu0"]}
            )


class TestDeadlockDetection:
    def test_reversed_order_deadlocks_with_diagnostics(self):
        # Reversing one device's order puts the update first, which
        # depends on backward, which depends on forward: nothing can
        # start, and the executor must say who is stuck on what.
        model = zoo.synthetic_uniform(num_layers=2)
        topo = tight_server(1)
        plan = build_scheduler("single", model, topo, BatchConfig(1, 1)).plan()
        plan = dataclasses.replace(
            plan, device_order={"gpu0": plan.device_order["gpu0"][::-1]}
        )
        with pytest.raises(SimulationError) as exc:
            Executor(topo, plan).run()
        message = str(exc.value)
        assert "deadlock" in message
        assert "gpu0" in message           # the stuck device
        assert "missing deps" in message   # what it is waiting for


class TestLivelockGuard:
    def test_message_reports_time_and_pending_events(self):
        # A self-rescheduling callback never drains the heap; the guard
        # must trip *before* executing event max_events+1 and report the
        # simulated time plus how much work was still pending.
        engine = Engine()

        def respawn():
            engine.after(0.0, respawn)

        engine.after(0.0, respawn)
        with pytest.raises(SimulationError) as exc:
            engine.run(max_events=10)
        message = str(exc.value)
        assert "exceeded 10 events" in message
        assert "t=" in message
        assert "pending" in message


class TestResourceTimelineValidation:
    def test_acquire_rejects_negative_duration_and_names_the_resource(self):
        from repro.sim.engine import ResourceTimeline

        link = ResourceTimeline("link:gpu0->cpu")
        with pytest.raises(SimulationError, match="link:gpu0->cpu.*negative"):
            link.acquire(now=1.0, duration=-0.5)
        # The failed acquire must not corrupt the timeline's accounting.
        assert link.free_at == 0.0
        assert link.busy_seconds == 0.0

    def test_acquire_all_rejects_negative_duration_and_names_every_resource(self):
        from repro.sim.engine import ResourceTimeline

        route = [ResourceTimeline("link:a"), ResourceTimeline("link:b")]
        with pytest.raises(SimulationError, match="link:a, link:b.*negative"):
            ResourceTimeline.acquire_all(route, now=0.0, duration=-1e-9)
        for link in route:
            assert link.free_at == 0.0
            assert link.busy_seconds == 0.0

    def test_acquire_all_rejects_negative_duration_on_empty_route(self):
        from repro.sim.engine import ResourceTimeline

        with pytest.raises(SimulationError, match="no resources.*negative"):
            ResourceTimeline.acquire_all([], now=0.0, duration=-1.0)


class TestFaultsCliValidation:
    """`repro faults` rejects out-of-range arguments with a structured
    error naming the offending value and the valid range, before any
    simulation starts."""

    def _run(self, capsys, *extra):
        from repro.__main__ import main

        code = main(["faults", *extra])
        err = capsys.readouterr().err
        return code, err

    def test_rejects_nonpositive_mttf_and_names_the_value(self, capsys):
        code, err = self._run(capsys, "--mttf", "-2")
        assert code == 1
        assert "error:" in err
        assert "--mttf values must be > 0" in err
        assert "-2" in err
        assert "'inf'" in err  # points at the healthy-column escape hatch

    def test_rejects_zero_iterations_with_range(self, capsys):
        code, err = self._run(capsys, "--iterations", "0")
        assert code == 1
        assert "--iterations must be >= 1, got 0" in err

    def test_rejects_zero_gpus_with_range(self, capsys):
        code, err = self._run(capsys, "--gpus", "0")
        assert code == 1
        assert "--gpus must be >= 1, got 0" in err

    def test_rejects_transient_probability_of_one(self, capsys):
        code, err = self._run(capsys, "--transient-probability", "1.0")
        assert code == 1
        assert "--transient-probability must be in [0, 1), got 1" in err

    def test_rejects_negative_grace_window(self, capsys):
        code, err = self._run(capsys, "--grace", "-0.5")
        assert code == 1
        assert "--grace must be >= 0 seconds" in err
        assert "wait-rejoin" in err  # explains what the knob holds for

    def test_rejects_negative_spares(self, capsys):
        code, err = self._run(capsys, "--spares", "-1")
        assert code == 1
        assert "--spares must be >= 0 standby devices, got -1" in err

    def test_rejects_fractional_straggler_slowdown(self, capsys):
        code, err = self._run(capsys, "--straggler", "0.5")
        assert code == 1
        assert "--straggler must be 0 (off) or a slowdown >= 1" in err

    def test_unknown_recovery_policy_rejected_by_argparse(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["faults", "--recovery-policy", "reboot"])
        err = capsys.readouterr().err
        assert "invalid choice: 'reboot'" in err

    def test_config_error_lists_valid_recovery_policies(self):
        from repro.errors import ConfigError
        from repro.faults import build_recovery

        with pytest.raises(ConfigError, match="valid policies"):
            build_recovery("reboot")
