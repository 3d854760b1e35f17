"""Operation decomposition (harmony-tp): sharded subtasks + collectives."""

import pytest

from repro import BatchConfig, HarmonyConfig, HarmonyOptions, HarmonySession
from repro.errors import ConfigError
from repro.models import zoo
from repro.schedulers.harmony_tp import HarmonyTP
from repro.tasks.sharded import ShardedDecomposer
from repro.tasks.task import TaskKind
from repro.tensors.tensor import TensorKind
from repro.units import MB

from tests.conftest import run_plan, tight_server


@pytest.fixture
def model():
    return zoo.synthetic_uniform(
        num_layers=4, param_bytes_per_layer=100 * MB, activation_bytes=25 * MB
    )


def decompose(model, shards=2, m=2):
    return ShardedDecomposer(
        model, microbatch_size=1, num_microbatches=m, num_shards=shards
    ).decompose()


class TestShardedDecomposer:
    def test_task_counts(self, model):
        it = decompose(model, shards=2, m=2)
        layers, s, m = 4, 2, 2
        compute = layers * m * s * 2 + layers * s  # fwd+bwd subtasks + upds
        gathers = (layers - 1) * m                 # no gather for logits
        grad_colls = (layers - 1) * m              # no collective below L0
        assert len(it.graph) == compute + gathers + grad_colls

    def test_weight_shard_size(self, model):
        it = decompose(model, shards=4)
        assert it.registry.weight(0, 0).size_bytes == 25 * MB

    def test_partial_output_size(self, model):
        it = decompose(model, shards=2)
        assert it.registry.act_part(0, 0, 0).size_bytes == 12.5 * MB

    def test_full_activation_replicated_per_shard(self, model):
        it = decompose(model, shards=2)
        a0 = it.registry.activation(0, 0, 0)
        a1 = it.registry.activation(0, 0, 1)
        assert a0 is not a1
        assert a0.size_bytes == a1.size_bytes == 25 * MB

    def test_gather_comm_bytes(self, model):
        it = decompose(model, shards=4)
        gather = it.gather[(0, 0)]
        assert gather.comm_bytes == pytest.approx(3 / 4 * 25 * MB)

    def test_grad_collective_comm_bytes(self, model):
        it = decompose(model, shards=4)
        coll = it.grad_coll[(0, 0)]
        assert coll.comm_bytes == pytest.approx(2 * 3 / 4 * 25 * MB)

    def test_no_collectives_single_shard(self, model):
        it = decompose(model, shards=1)
        assert not it.gather and not it.grad_coll

    def test_no_gather_for_logits(self, model):
        it = decompose(model, shards=2)
        assert (3, 0) not in it.gather

    def test_updates_are_local(self, model):
        it = decompose(model, shards=2)
        # No update depends on any collective: shards own their slices.
        coll_ids = {t.tid for t in it.graph if t.kind is TaskKind.ALLREDUCE}
        for task in it.upd.values():
            assert not (task.deps & coll_ids)

    def test_subtask_flops_divided(self, model):
        one = decompose(model, shards=1)
        four = decompose(model, shards=4)
        f1 = one.fwd[(0, 0, 0)].flops
        f4 = four.fwd[(0, 0, 0)].flops
        assert f4 == pytest.approx(f1 / 4)

    def test_acyclic(self, model):
        decompose(model, shards=3, m=3).graph.topo_order()

    def test_accumulation_ordering(self, model):
        it = decompose(model, shards=2, m=3)
        assert it.bwd[(1, 2, 0)].tid in it.bwd[(1, 2, 1)].deps

    def test_samples_counted_once(self, model):
        it = decompose(model, shards=4, m=3)
        assert sum(t.samples for t in it.graph) == 3


class TestHarmonyTpExecution:
    def test_runs_to_completion(self, model):
        topo = tight_server(2, 550 * MB)
        plan = HarmonyTP(model, topo, BatchConfig(1, 2)).plan()
        result = run_plan(topo, plan)
        assert result.samples == 2

    def test_per_gpu_demand_halves_with_two_shards(self, model):
        topo2 = tight_server(2, 2000 * MB)
        plan = HarmonyTP(model, topo2, BatchConfig(1, 2)).plan()
        sharded = run_plan(topo2, plan)
        from repro.schedulers import DataParallelBaseline

        topo1 = tight_server(1, 2000 * MB)
        plan1 = DataParallelBaseline(
            model, topo1, BatchConfig(1, 2), num_replicas=1
        ).plan()
        single = run_plan(topo1, plan1)
        # Persistent state per GPU is halved; activation replicas are
        # small here, so the total demand must drop well below single-GPU.
        assert (
            sharded.devices["gpu0"].peak_demand
            < 0.7 * single.devices["gpu0"].peak_demand
        )

    def test_collective_traffic_accounted(self, model):
        topo = tight_server(2, 550 * MB)
        plan = HarmonyTP(model, topo, BatchConfig(1, 2)).plan()
        result = run_plan(topo, plan)
        assert result.stats.p2p_volume() > 0

    def test_weight_swap_volume_independent_of_shards(self, model):
        """Sharding splits W across GPUs: total weight traffic stays
        ~|W|-scaled (each shard swaps its slice), not N x |W|."""
        topo = tight_server(2, 420 * MB)
        plan = HarmonyTP(model, topo, BatchConfig(1, 2)).plan()
        result = run_plan(topo, plan)
        w_traffic = result.stats.kind_swap_volume(TensorKind.WEIGHT)
        assert w_traffic <= 3 * model.param_bytes + 1e-6

    def test_session_integration(self, model):
        topo = tight_server(2, 550 * MB)
        session = HarmonySession(
            model, topo, HarmonyConfig("harmony-tp", batch=BatchConfig(1, 2))
        )
        result = session.run()
        assert result.label == "harmony-tp"

    def test_ungrouped_variant_runs(self, model):
        topo = tight_server(2, 550 * MB)
        plan = HarmonyTP(
            model, topo, BatchConfig(1, 2),
            options=HarmonyOptions(grouping=False, jit_update=False),
        ).plan()
        result = run_plan(topo, plan)
        assert result.samples == 2

    def test_packing_rejected(self, model):
        topo = tight_server(2, 550 * MB)
        with pytest.raises(ConfigError):
            HarmonyTP(
                model, topo, BatchConfig(1, 1),
                options=HarmonyOptions(pack_size=2),
            )

    def test_too_many_shards_rejected(self, model):
        topo = tight_server(2, 550 * MB)
        with pytest.raises(ConfigError):
            HarmonyTP(model, topo, BatchConfig(1, 1), num_shards=3)

    def test_deterministic(self, model):
        def once():
            topo = tight_server(2, 550 * MB)
            plan = HarmonyTP(model, topo, BatchConfig(1, 2)).plan()
            return run_plan(topo, plan)

        a, b = once(), once()
        assert a.makespan == b.makespan
        assert a.swap_out_volume == b.swap_out_volume
