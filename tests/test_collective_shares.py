"""Collective shares come from placement alone.

``Plan`` splits every collective into per-device shares when it is
assembled: a tensor belongs to the device of the first compute task (in
graph order) that touches it, and the collective's participants are the
share owners, sorted.  These tests hold that rule to the mapping the
schedulers used to spell out by hand: the replica's device for
one-device replicas, the shard's device under harmony-tp, and
``stage_device(r, stage)`` under DAPPLE's hybrid layout.
"""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.memory.policy import MemoryPolicy
from repro.models import zoo
from repro.schedulers import SCHEDULER_REGISTRY, BatchConfig, build_scheduler
from repro.schedulers.dapple import DappleScheduler
from repro.schedulers.options import HarmonyOptions
from repro.sim.plan import Plan
from repro.tasks.graph import TaskGraph
from repro.tasks.task import Task, TaskKind
from repro.tensors.registry import TensorRegistry
from repro.units import GB, MB

from tests.conftest import tight_server

#: Schemes whose default plan on four GPUs synchronizes anything.
_WITH_COLLECTIVES = {"dp-baseline", "harmony-dp", "harmony-tp"}


def _model():
    return zoo.synthetic_uniform(
        num_layers=4, param_bytes_per_layer=100 * MB, activation_bytes=25 * MB
    )


def _registry_scheduler(scheme, options=None):
    return build_scheduler(
        scheme, _model(), tight_server(4, 4 * GB), BatchConfig(1, 2), options
    )


CASES = {
    **{
        scheme: (lambda scheme=scheme: _registry_scheduler(scheme))
        for scheme in SCHEDULER_REGISTRY
    },
    "dapple-2-pipelines": lambda: DappleScheduler(
        _model(), tight_server(4, 4 * GB), BatchConfig(1, 2), num_pipelines=2
    ),
    "harmony-dp-zero": lambda: _registry_scheduler(
        "harmony-dp", HarmonyOptions(zero_optimizer=True)
    ),
    "harmony-dp-cpu-optimizer": lambda: _registry_scheduler(
        "harmony-dp", HarmonyOptions(cpu_optimizer=True)
    ),
}


def _device_by_layout(sched, plan, meta):
    """Where the scheduler's layout puts a tensor's replica (or shard,
    or pipeline stage)."""
    if isinstance(sched, DappleScheduler):
        stage = next(
            s for s, layers in enumerate(plan.notes["stages"])
            if meta.layer in layers
        )
        return sched.stage_device(meta.replica, stage)
    return sched.gpus[meta.replica]


@pytest.mark.parametrize("case", sorted(CASES))
def test_shares_follow_the_layout(case):
    sched = CASES[case]()
    plan = sched.plan()  # checked as it is built
    collectives = [t for t in plan.graph if t.kind is TaskKind.ALLREDUCE]
    # Every variant beyond the registry's defaults synchronizes.
    assert bool(collectives) == (
        case in _WITH_COLLECTIVES or case not in SCHEDULER_REGISTRY
    )
    assert set(plan.shares) == {t.tid for t in collectives}
    for task in collectives:
        shares = plan.shares[task.tid]
        # The participants are the share owners, sorted.
        assert list(shares) == sorted(shares)
        assert len(shares) >= 2
        for field in ("touched", "writes", "frees"):
            split = [tid for s in shares.values() for tid in getattr(s, field)]
            assert sorted(split) == sorted(getattr(task, field)), field
            assert len(set(split)) == len(split), field
        for device, share in shares.items():
            want = tuple(
                tid for tid in task.touched
                if _device_by_layout(sched, plan, plan.registry.by_id(tid))
                == device
            )
            assert share.touched == want, (task.label, device)
            assert share.writes == tuple(
                tid for tid in task.writes if tid in want
            )
            assert share.frees == tuple(
                tid for tid in task.frees if tid in want
            )
            assert share.label == task.label


def test_tensor_no_compute_task_touches_is_rejected():
    model = zoo.synthetic_uniform(num_layers=1)
    registry = TensorRegistry(model, 1)
    tid = registry.weight(0, 0).tid
    graph = TaskGraph()
    graph.add(Task(tid=0, kind=TaskKind.ALLREDUCE, label="ar",
                   reads=(tid,), writes=(tid,)))
    with pytest.raises(SchedulingError, match="no compute task"):
        Plan(
            label="orphan", graph=graph, registry=registry,
            device_order={"gpu0": [0]}, policy=MemoryPolicy.harmony(),
            samples_per_iteration=1,
        )
