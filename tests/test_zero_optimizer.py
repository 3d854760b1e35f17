"""ZeRO stage-1 optimizer-state sharding (paper-cited [Rajbhandari])."""

import pytest

from repro import BatchConfig, HarmonyConfig, HarmonyOptions, HarmonySession
from repro.errors import ConfigError
from repro.models import zoo
from repro.tasks.decomposer import Decomposer
from repro.tensors.tensor import TensorKind
from repro.units import MB

from tests.conftest import tight_server


@pytest.fixture
def model():
    return zoo.synthetic_uniform(
        num_layers=4, param_bytes_per_layer=100 * MB, activation_bytes=25 * MB
    )


def decompose(model, replicas=2, zero=True):
    return Decomposer(
        model, 1, 2, num_replicas=replicas, zero_optimizer=zero
    ).decompose()


class TestDecomposition:
    def test_optimizer_state_sharded(self, model):
        it = decompose(model, replicas=4)
        assert it.registry.opt_state(0, 0).size_bytes == 200 * MB / 4

    def test_weights_stay_full(self, model):
        it = decompose(model, replicas=4)
        assert it.registry.weight(0, 0).size_bytes == 100 * MB

    def test_weight_gather_emitted_per_upd_pack(self, model):
        it = decompose(model)
        assert sorted(it.weight_gather) == [0, 1, 2, 3]

    def test_gather_comm_bytes(self, model):
        it = decompose(model, replicas=4)
        assert it.weight_gather[0].comm_bytes == pytest.approx(
            3 / 4 * 100 * MB
        )

    def test_gather_depends_on_all_updates(self, model):
        it = decompose(model, replicas=2)
        deps = it.weight_gather[1].deps
        assert it.upd[(0, 1)].tid in deps
        assert it.upd[(1, 1)].tid in deps

    def test_update_flops_divided(self, model):
        plain = Decomposer(model, 1, 2, num_replicas=2).decompose()
        zero = decompose(model, replicas=2)
        assert zero.upd[(0, 0)].flops == pytest.approx(
            plain.upd[(0, 0)].flops / 2
        )

    def test_single_replica_no_gathers(self, model):
        it = Decomposer(model, 1, 2, zero_optimizer=True).decompose()
        assert it.weight_gather == {}

    def test_acyclic(self, model):
        decompose(model, replicas=3).graph.topo_order()


class TestExecution:
    def _run(self, model, zero, jit=True):
        topo = tight_server(2, 550 * MB)
        session = HarmonySession(
            model,
            topo,
            HarmonyConfig(
                "harmony-dp",
                batch=BatchConfig(1, 2),
                options=HarmonyOptions(zero_optimizer=zero, jit_update=jit),
            ),
        )
        return session.run()

    def test_runs_to_completion(self, model):
        assert self._run(model, zero=True).samples == 4

    def test_k_traffic_reduced(self, model):
        plain = self._run(model, zero=False)
        zero = self._run(model, zero=True)
        assert zero.stats.kind_swap_volume(
            TensorKind.OPT_STATE
        ) < plain.stats.kind_swap_volume(TensorKind.OPT_STATE)

    def test_weight_gathers_traced(self, model):
        result = self._run(model, zero=True)
        labels = [e.label for e in result.trace.by_category("allreduce")]
        assert any(l.startswith("wgather") for l in labels)

    def test_works_without_jit(self, model):
        assert self._run(model, zero=True, jit=False).samples == 4

    def test_conflicts_with_cpu_optimizer(self):
        with pytest.raises(ConfigError):
            HarmonyOptions(zero_optimizer=True, cpu_optimizer=True)
