"""Schedulers: placement, ordering, and scheme-specific structure."""

import pytest

from repro.errors import ConfigError
from repro.memory.policy import MemoryPolicy
from repro.models import zoo
from repro.schedulers import (
    BatchConfig,
    DataParallelBaseline,
    HarmonyDP,
    HarmonyOptions,
    HarmonyPP,
    PipelineBaseline,
    build_scheduler,
)
from repro.tasks.task import TaskKind
from repro.units import MB

from tests.conftest import tight_server


@pytest.fixture
def model():
    return zoo.synthetic_uniform(
        num_layers=4, param_bytes_per_layer=100 * MB, activation_bytes=25 * MB
    )


@pytest.fixture
def topo2():
    return tight_server(2, capacity=550 * MB)


def labels(plan, device):
    return [plan.graph.task(t).label for t in plan.device_order[device]]


def single_plan(model, topo, batch):
    return build_scheduler("single", model, topo, batch).plan()


class TestSingleGpu:
    def test_order_is_per_microbatch_fwd_then_bwd(self, model):
        topo = tight_server(1)
        plan = single_plan(model, topo, BatchConfig(1, 2))
        seq = labels(plan, "gpu0")
        assert seq[0].startswith("fwd[p0") and "mb0" in seq[0]
        assert seq[4].startswith("bwd[p3") and "mb0" in seq[4]
        # updates all trail
        assert all(s.startswith("upd") for s in seq[-4:])

    def test_default_policy_is_baseline(self, model):
        topo = tight_server(1)
        plan = single_plan(model, topo, BatchConfig(1, 1))
        assert plan.policy == MemoryPolicy.baseline()

    def test_all_on_one_device(self, model):
        topo = tight_server(2)
        plan = single_plan(model, topo, BatchConfig(1, 1))
        assert set(plan.device_order) == {"gpu0"}


class TestDpBaseline:
    def test_replica_per_gpu(self, model, topo2):
        plan = DataParallelBaseline(model, topo2, BatchConfig(1, 1)).plan()
        placed = {
            (t.replica, t.device)
            for t in plan.graph
            if t.kind is TaskKind.COMPUTE
        }
        assert placed == {(0, "gpu0"), (1, "gpu1")}

    def test_allreduce_in_both_orders(self, model, topo2):
        plan = DataParallelBaseline(model, topo2, BatchConfig(1, 1)).plan()
        for device in ("gpu0", "gpu1"):
            assert any(s.startswith("allreduce") for s in labels(plan, device))

    def test_updates_after_all_allreduces(self, model, topo2):
        plan = DataParallelBaseline(model, topo2, BatchConfig(1, 1)).plan()
        seq = labels(plan, "gpu0")
        last_ar = max(i for i, s in enumerate(seq) if s.startswith("allreduce"))
        first_upd = min(i for i, s in enumerate(seq) if s.startswith("upd"))
        assert last_ar < first_upd

    def test_too_many_replicas_rejected(self, model, topo2):
        with pytest.raises(ConfigError):
            DataParallelBaseline(model, topo2, BatchConfig(1, 1), num_replicas=3)

    def test_single_replica_has_no_allreduce(self, model, topo2):
        plan = DataParallelBaseline(
            model, topo2, BatchConfig(1, 1), num_replicas=1
        ).plan()
        assert not any(
            t.kind is TaskKind.ALLREDUCE for t in plan.graph
        )


class TestPpBaseline:
    def test_stage_per_gpu(self, model, topo2):
        plan = PipelineBaseline(model, topo2, BatchConfig(1, 2)).plan()
        assert plan.notes["stages"] == [(0, 1), (2, 3)]

    def test_1f1b_warmup_depth(self, model, topo2):
        plan = PipelineBaseline(model, topo2, BatchConfig(1, 4)).plan()
        seq = labels(plan, "gpu0")  # head stage: warmup = num_stages = 2
        assert seq[0].startswith("fwd") and seq[1].startswith("fwd")
        assert seq[2].startswith("bwd")

    def test_tail_stage_alternates_immediately(self, model, topo2):
        plan = PipelineBaseline(model, topo2, BatchConfig(1, 4)).plan()
        seq = labels(plan, "gpu1")  # tail: warmup = 1
        assert seq[0].startswith("fwd")
        assert seq[1].startswith("bwd")

    def test_gpipe_all_fwd_then_all_bwd(self, model, topo2):
        plan = PipelineBaseline(
            model, topo2, BatchConfig(1, 3), schedule="gpipe"
        ).plan()
        seq = labels(plan, "gpu0")
        kinds = [s.split("[")[0] for s in seq]
        assert kinds[:3] == ["fwd"] * 3
        assert kinds[3:6] == ["bwd"] * 3

    def test_unknown_schedule_rejected(self, model, topo2):
        with pytest.raises(ConfigError):
            PipelineBaseline(model, topo2, BatchConfig(1, 1), schedule="zigzag")

    def test_runs_to_completion(self, model, topo2):
        from tests.conftest import run_plan

        plan = PipelineBaseline(model, topo2, BatchConfig(1, 4)).plan()
        result = run_plan(topo2, plan)
        assert result.samples == 4


class TestHarmonyDp:
    def test_grouped_forward_order(self, model, topo2):
        plan = HarmonyDP(model, topo2, BatchConfig(1, 3)).plan()
        seq = labels(plan, "gpu0")
        # first three tasks are the same pack across microbatches
        assert [s.split("/")[1] for s in seq[:3]] == ["mb0", "mb1", "mb2"]
        assert len({s.split("/")[0] for s in seq[:3]}) == 1

    def test_jit_update_follows_bwd_group(self, model, topo2):
        plan = HarmonyDP(model, topo2, BatchConfig(1, 2)).plan()
        seq = labels(plan, "gpu0")
        i = seq.index("bwd[p3:3-3]/mb1/r0")
        assert seq[i + 1] == "allreduce[p3]"
        assert seq[i + 2] == "upd[p3]/r0"

    def test_ungrouped_order_matches_baseline_shape(self, model, topo2):
        plan = HarmonyDP(
            model, topo2, BatchConfig(1, 2),
            options=HarmonyOptions(grouping=False, jit_update=False),
        ).plan()
        seq = labels(plan, "gpu0")
        assert [s.split("/")[1] for s in seq[:4]] == ["mb0"] * 4

    def test_policy_respects_toggles(self, model, topo2):
        plan = HarmonyDP(
            model, topo2, BatchConfig(1, 1),
            options=HarmonyOptions(p2p=False, track_clean=False),
        ).plan()
        assert plan.policy.p2p_enabled is False
        assert plan.policy.track_clean is False


class TestHarmonyPp:
    def test_round_robin_placement(self, model, topo2):
        plan = HarmonyPP(model, topo2, BatchConfig(1, 2)).plan()
        assert plan.notes["pack_device"] == {
            0: "gpu0", 1: "gpu1", 2: "gpu0", 3: "gpu1"
        }

    def test_fig4_sequence_gpu0(self, model, topo2):
        plan = HarmonyPP(model, topo2, BatchConfig(1, 2)).plan()
        assert labels(plan, "gpu0") == [
            "fwd[p0:0-0]/mb0/r0", "fwd[p0:0-0]/mb1/r0",
            "fwd[p2:2-2]/mb0/r0", "fwd[p2:2-2]/mb1/r0",
            "bwd[p2:2-2]/mb0/r0", "bwd[p2:2-2]/mb1/r0", "upd[p2]/r0",
            "bwd[p0:0-0]/mb0/r0", "bwd[p0:0-0]/mb1/r0", "upd[p0]/r0",
        ]

    def test_no_jit_puts_updates_last(self, model, topo2):
        plan = HarmonyPP(
            model, topo2, BatchConfig(1, 2),
            options=HarmonyOptions(jit_update=False),
        ).plan()
        seq = labels(plan, "gpu0")
        assert seq[-2].startswith("upd") and seq[-1].startswith("upd")

    def test_pack_size_reduces_task_count(self, model, topo2):
        fine = HarmonyPP(model, topo2, BatchConfig(1, 2)).plan()
        coarse = HarmonyPP(
            model, topo2, BatchConfig(1, 2), options=HarmonyOptions(pack_size=2)
        ).plan()
        assert len(coarse.graph) < len(fine.graph)

    def test_more_packs_than_gpus_wraps(self, model):
        topo = tight_server(3, capacity=550 * MB)
        plan = HarmonyPP(model, topo, BatchConfig(1, 1)).plan()
        assert plan.notes["pack_device"][3] == "gpu0"

    def test_single_gpu_degenerates_gracefully(self, model):
        topo = tight_server(1, capacity=550 * MB)
        plan = HarmonyPP(model, topo, BatchConfig(1, 2)).plan()
        assert set(plan.device_order) == {"gpu0"}


class TestHarmonyOptions:
    def test_defaults_full(self):
        opts = HarmonyOptions()
        assert opts.grouping and opts.jit_update and opts.p2p

    def test_bwd_pack_size_defaults_to_fwd(self):
        assert HarmonyOptions(pack_size=3).bwd_pack_size == 3

    def test_distinct_bwd_pack(self):
        assert HarmonyOptions(pack_size=4, pack_size_bwd=2).bwd_pack_size == 2

    def test_invalid_pack_rejected(self):
        with pytest.raises(ConfigError):
            HarmonyOptions(pack_size=0)

    def test_memory_policy_mapping(self):
        policy = HarmonyOptions(p2p=False).memory_policy()
        assert policy.p2p_enabled is False and policy.track_clean is True


class TestMemoryBalancedStages:
    """Stage partitioning with memory context — the remediation the
    paper says per-GPU virtualization cannot do by itself ("lacking
    this context ... can result in swap imbalance across stages")."""

    def _demands(self, model, balance):
        from tests.conftest import run_plan

        topo = tight_server(4, 2000 * MB)
        plan = PipelineBaseline(
            model, topo, BatchConfig(1, 8), balance=balance
        ).plan()
        result = run_plan(topo, plan)
        return [result.devices[d].peak_demand for d in sorted(result.devices)]

    def test_memory_balance_flattens_footprints(self):
        model = zoo.synthetic_uniform(
            num_layers=12, param_bytes_per_layer=50 * MB,
            activation_bytes=25 * MB, stash_multiplier=4.0,
        )
        compute = self._demands(model, "compute")
        memory = self._demands(model, "memory")
        spread = lambda d: max(d) / min(d)  # noqa: E731
        assert spread(memory) < spread(compute)

    def test_memory_balance_shifts_layers_tailward(self, model, topo2):
        compute = PipelineBaseline(
            model, topo2, BatchConfig(1, 2), balance="compute"
        ).plan()
        memory = PipelineBaseline(
            model, topo2, BatchConfig(1, 2), balance="memory"
        ).plan()
        # The memory-balanced head stage never carries more layers.
        assert len(memory.notes["stages"][0]) <= len(compute.notes["stages"][0])

    def test_unknown_balance_rejected(self, model, topo2):
        with pytest.raises(ConfigError):
            PipelineBaseline(model, topo2, BatchConfig(1, 1), balance="vibes")
