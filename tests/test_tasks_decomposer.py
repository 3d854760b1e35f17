"""Task decomposition: structure and dependencies."""

import pytest

from repro.errors import SchedulingError
from repro.models import zoo
from repro.models.phases import Phase
from repro.tasks.decomposer import Decomposer
from repro.tasks.packing import pack_layers
from repro.tensors.tensor import TensorKind


def decompose(num_layers=4, m=2, replicas=1, **kw):
    model = zoo.synthetic_uniform(num_layers=num_layers)
    return Decomposer(
        model, microbatch_size=1, num_microbatches=m, num_replicas=replicas, **kw
    ).decompose()


class TestTaskCounts:
    def test_single_replica_counts(self):
        it = decompose(num_layers=4, m=2)
        # 4 layers x 2 mb x (fwd + bwd) + 4 upd
        assert len(it.graph) == 4 * 2 * 2 + 4

    def test_dp_counts_include_allreduce(self):
        it = decompose(num_layers=3, m=2, replicas=2)
        # per replica: 3*2*2 + 3 upd; + 3 allreduce
        assert len(it.graph) == 2 * (3 * 2 * 2 + 3) + 3

    def test_no_allreduce_single_replica(self):
        it = decompose(replicas=1)
        assert it.allreduce == {}

    def test_sync_disabled(self):
        model = zoo.synthetic_uniform(num_layers=2)
        it = Decomposer(
            model, 1, 1, num_replicas=2, sync_gradients=False
        ).decompose()
        assert it.allreduce == {}

    def test_samples_per_iteration(self):
        model = zoo.synthetic_uniform(num_layers=2)
        it = Decomposer(model, 5, 3, num_replicas=2).decompose()
        assert it.samples_per_iteration == 30

    def test_samples_attributed_to_first_pack_only(self):
        it = decompose(num_layers=3, m=2)
        total = sum(t.samples for t in it.graph)
        assert total == it.samples_per_iteration


class TestForwardStructure:
    def test_fwd_chain_dependency(self):
        it = decompose()
        assert it.fwd[(0, 0, 0)].tid in it.fwd[(0, 1, 0)].deps

    def test_first_fwd_has_no_deps(self):
        it = decompose()
        assert it.fwd[(0, 0, 0)].deps == frozenset()

    def test_fwd_reads_weight_and_input(self):
        it = decompose()
        reg = it.registry
        task = it.fwd[(0, 0, 0)]
        assert reg.weight(0).tid in task.reads
        assert reg.activation(-1, 0).tid in task.reads

    def test_fwd_writes_stash_and_output(self):
        it = decompose()
        reg = it.registry
        task = it.fwd[(0, 1, 0)]
        assert reg.stash(1, 0).tid in task.writes
        assert reg.activation(1, 0).tid in task.writes

    def test_fwd_frees_consumed_input(self):
        it = decompose()
        reg = it.registry
        assert reg.activation(0, 0).tid in it.fwd[(0, 1, 0)].frees

    def test_last_layer_output_freed_immediately(self):
        it = decompose(num_layers=3)
        reg = it.registry
        last = it.fwd[(0, 2, 0)]
        out = reg.activation(2, 0).tid
        assert out in last.writes and out in last.frees


class TestBackwardStructure:
    def test_bwd_depends_on_next_layer_bwd(self):
        it = decompose()
        assert it.bwd[(0, 3, 0)].tid in it.bwd[(0, 2, 0)].deps

    def test_top_bwd_depends_on_own_fwd(self):
        it = decompose()
        assert it.fwd[(0, 3, 0)].tid in it.bwd[(0, 3, 0)].deps

    def test_bwd_reads_stash_weight_grad(self):
        it = decompose()
        reg = it.registry
        task = it.bwd[(0, 2, 0)]
        for tid in (
            reg.stash(2, 0).tid,
            reg.weight(2).tid,
            reg.weight_grad(2).tid,
        ):
            assert tid in task.reads

    def test_top_bwd_does_not_read_act_grad(self):
        it = decompose(num_layers=3)
        reg = it.registry
        task = it.bwd[(0, 2, 0)]
        # no act_grad at the top boundary: loss gradient is internal
        assert reg.act_grad(1, 0).tid in task.writes

    def test_bwd_frees_stash(self):
        it = decompose()
        reg = it.registry
        assert reg.stash(1, 0).tid in it.bwd[(0, 1, 0)].frees

    def test_accumulation_ordering(self):
        it = decompose(m=3)
        assert it.bwd[(0, 2, 0)].tid in it.bwd[(0, 2, 1)].deps
        assert it.bwd[(0, 2, 1)].tid in it.bwd[(0, 2, 2)].deps

    def test_first_layer_writes_no_input_grad(self):
        it = decompose()
        reg = it.registry
        kinds = [
            reg.by_id(t).kind for t in it.bwd[(0, 0, 0)].writes
        ]
        assert TensorKind.ACT_GRAD not in kinds


class TestUpdateAndAllreduce:
    def test_update_depends_on_last_bwd(self):
        it = decompose(m=3)
        assert it.bwd[(0, 1, 2)].tid in it.upd[(0, 1)].deps

    def test_update_touches_w_dw_k(self):
        it = decompose()
        reg = it.registry
        task = it.upd[(0, 0)]
        assert set(task.reads) == {
            reg.weight_grad(0).tid, reg.weight(0).tid, reg.opt_state(0).tid
        }

    def test_update_after_allreduce_in_dp(self):
        it = decompose(replicas=2)
        assert it.allreduce[0].tid in it.upd[(0, 0)].deps
        assert it.allreduce[0].tid in it.upd[(1, 0)].deps

    def test_allreduce_volume(self):
        it = decompose(replicas=4)
        grad = it.model.layer(0).grad_bytes
        assert it.allreduce[0].comm_bytes == pytest.approx(2 * 3 / 4 * grad)

    def test_allreduce_waits_for_all_replicas(self):
        it = decompose(replicas=2, m=2)
        deps = it.allreduce[1].deps
        assert it.bwd[(0, 1, 1)].tid in deps
        assert it.bwd[(1, 1, 1)].tid in deps


class TestPacking:
    def test_packed_forward_counts(self):
        it = decompose(num_layers=4, m=2, packs_fwd=pack_layers(4, 2))
        assert len([k for k in it.fwd]) == 2 * 2  # 2 packs x 2 mbs

    def test_packed_fwd_skips_internal_boundaries(self):
        it = decompose(num_layers=4, packs_fwd=pack_layers(4, 2))
        reg = it.registry
        task = it.fwd[(0, 0, 0)]
        # writes stash for both layers and only the pack-edge activation
        assert reg.stash(0, 0).tid in task.writes
        assert reg.stash(1, 0).tid in task.writes
        act_writes = [
            t for t in task.writes if reg.by_id(t).kind is TensorKind.ACTIVATION
        ]
        assert act_writes == [reg.activation(1, 0).tid]

    def test_mismatched_fwd_bwd_packs_allowed(self):
        it = decompose(
            num_layers=4, packs_fwd=pack_layers(4, 2), packs_bwd=pack_layers(4, 1)
        )
        # bwd pack covering layer 1 depends on the fwd pack covering it
        assert it.fwd[(0, 0, 0)].tid in it.bwd[(0, 1, 0)].deps

    def test_upd_packs_default_per_layer(self):
        it = decompose(num_layers=4, packs_bwd=pack_layers(4, 2))
        assert len(it.packs_upd) == 4

    def test_upd_packs_within(self):
        it = decompose(num_layers=4, packs_bwd=pack_layers(4, 2))
        assert it.upd_packs_within(0) == [0, 1]
        assert it.upd_packs_within(1) == [2, 3]

    def test_graph_is_acyclic(self):
        it = decompose(num_layers=5, m=3, replicas=2)
        it.graph.topo_order()


class TestValidation:
    def test_zero_microbatches_rejected(self):
        model = zoo.synthetic_uniform(num_layers=2)
        with pytest.raises(SchedulingError):
            Decomposer(model, 1, 0)

    def test_zero_replicas_rejected(self):
        model = zoo.synthetic_uniform(num_layers=2)
        with pytest.raises(SchedulingError):
            Decomposer(model, 1, 1, num_replicas=0)

    def test_bad_packs_rejected(self):
        model = zoo.synthetic_uniform(num_layers=3)
        with pytest.raises(SchedulingError):
            Decomposer(model, 1, 1, packs_fwd=[(0,), (2,)])
