"""Tuner: profiling, search, and the memory-performance tango."""

import pytest

from repro.errors import ConfigError
from repro.models import zoo
from repro.supervisor import Supervisor
from repro.tuner.profiler import profile_configuration
from repro.tuner.search import _pack_candidates, _splits, tune
from repro.tuner.tango import prefetch_tradeoff, tango_surface, tango_table
from repro.units import MB

from tests.conftest import tight_server


@pytest.fixture
def model():
    return zoo.synthetic_uniform(
        num_layers=4, param_bytes_per_layer=50 * MB, activation_bytes=10 * MB
    )


@pytest.fixture
def topo():
    return tight_server(2, capacity=300 * MB)


class TestProfiler:
    def test_feasible_point(self, model, topo):
        point = profile_configuration(model, topo, 1, 1, 2)
        assert point.feasible
        assert point.throughput > 0
        assert point.peak_used_bytes > 0

    def test_infeasible_point_reported_not_raised(self, model, topo):
        # Packing the whole model's update... pack 4 fwd needs 4 weights
        # + stash: still fits; use a huge microbatch instead.
        point = profile_configuration(model, topo, 4, 64, 1)
        assert not point.feasible
        assert point.failure

    def test_label(self, model, topo):
        point = profile_configuration(model, topo, 2, 1, 2, prefetch=True)
        assert point.label == "pack=2 mb=1x2+pf"


class TestSearchHelpers:
    def test_splits_factorize(self):
        assert _splits(6) == [(1, 6), (2, 3), (3, 2), (6, 1)]

    def test_pack_candidates_ladder(self):
        assert _pack_candidates(8) == [1, 2, 4, 8]
        assert _pack_candidates(6) == [1, 2, 4, 6]

    def test_pack_candidates_single_layer(self):
        assert _pack_candidates(1) == [1]


class TestTune:
    def test_finds_feasible_best(self, model, topo):
        result = tune(model, topo, minibatch_per_replica=2, refine=False)
        assert result.best.feasible
        assert result.best.throughput == max(
            p.throughput for p in result.feasible_points
        )

    def test_refinement_never_worse(self, model, topo):
        coarse = tune(model, topo, 2, refine=False)
        refined = tune(model, topo, 2, refine=True)
        assert refined.best.throughput >= coarse.best.throughput

    def test_table_renders(self, model, topo):
        result = tune(model, topo, 2, refine=False)
        assert "pack=" in result.table().render()

    def test_invalid_minibatch(self, model, topo):
        with pytest.raises(ConfigError):
            tune(model, topo, 0)

    def test_no_feasible_config_raises(self, model):
        tiny = tight_server(2, capacity=10 * MB)
        with pytest.raises(ConfigError):
            tune(model, tiny, 1, refine=False)

    def test_shared_journal_replays_only_the_same_search(self, model, topo, tmp_path):
        # Two searches over the same grid on different models share one
        # journal and no run cache: the second replays none of the
        # first one's probes, so it picks what a fresh search picks.
        journal = tmp_path / "tune.jsonl"
        other = zoo.synthetic_uniform(
            num_layers=4, param_bytes_per_layer=20 * MB, activation_bytes=40 * MB
        )
        tune(model, topo, 2, supervisor=Supervisor(journal=journal, inline=True))
        shared = tune(
            other, topo, 2, supervisor=Supervisor(journal=journal, inline=True)
        )
        assert shared.best == tune(other, topo, 2).best


class TestTango:
    def test_surface_covers_grid(self, model, topo):
        points = tango_surface(model, topo, minibatch_per_replica=2,
                               pack_sizes=[1, 2])
        # 2 pack sizes x 2 splits (1x2, 2x1)
        assert len(points) == 4

    def test_surface_includes_infeasible_cells(self, model):
        tiny = tight_server(2, capacity=210 * MB)
        points = tango_surface(model, tiny, 4, pack_sizes=[1, 4])
        assert any(not p.feasible for p in points)
        assert any(p.feasible for p in points)

    def test_table_marks_infeasible(self, model):
        tiny = tight_server(2, capacity=210 * MB)
        text = tango_table(tango_surface(model, tiny, 4, pack_sizes=[1, 4])).render()
        assert "NO" in text

    def test_prefetch_tradeoff_returns_both(self, model, topo):
        base, pf = prefetch_tradeoff(model, topo, 1, 2)
        assert base.prefetch is False and pf.prefetch is True
        assert base.feasible and pf.feasible

    def test_prefetch_helps_or_ties_with_headroom(self, model):
        roomy = tight_server(2, capacity=1000 * MB)
        base, pf = prefetch_tradeoff(model, roomy, 1, 4)
        assert pf.makespan <= base.makespan + 1e-9


class TestAnnealing:
    def test_finds_feasible(self, model, topo):
        from repro.tuner.online import anneal

        result = anneal(model, topo, 4, steps=16, seed=1)
        assert result.best.feasible
        assert result.probes <= 16

    def test_deterministic_per_seed(self, model, topo):
        from repro.tuner.online import anneal

        a = anneal(model, topo, 4, steps=12, seed=7)
        b = anneal(model, topo, 4, steps=12, seed=7)
        assert a.best.label == b.best.label
        assert a.probes == b.probes

    def test_close_to_grid_optimum(self, model, topo):
        from repro.tuner.online import anneal
        from repro.tuner.search import tune

        grid = tune(model, topo, 4, refine=False)
        online = anneal(model, topo, 4, steps=24, seed=3)
        # The online tuner reaches at least 80% of the grid optimum
        # within its probe budget (it also explores prefetch, which the
        # default grid does not, so it may even win outright).
        assert online.best.throughput >= 0.8 * grid.best.throughput
        assert online.probes <= 24

    def test_budget_respected(self, model, topo):
        from repro.tuner.online import anneal

        result = anneal(model, topo, 2, steps=5, seed=0)
        assert result.probes <= 5

    def test_invalid_args(self, model, topo):
        from repro.errors import ConfigError
        from repro.tuner.online import anneal

        with pytest.raises(ConfigError):
            anneal(model, topo, 0)
        with pytest.raises(ConfigError):
            anneal(model, topo, 2, steps=0)

    def test_infeasible_everywhere_raises(self, model):
        from repro.errors import ConfigError
        from repro.tuner.online import anneal

        tiny = tight_server(2, capacity=10 * MB)
        with pytest.raises(ConfigError):
            anneal(model, tiny, 1, steps=4)


class TestBwdPackSearch:
    def test_probes_smaller_backward_packs(self, model, topo):
        from repro.tuner.profiler import profile_configuration
        from repro.tuner.search import _Profiler, _refine_bwd_pack

        start = profile_configuration(model, topo, 4, 1, 4)
        profiler = _Profiler(model, topo, "harmony-pp")
        best, probed = _refine_bwd_pack(start, profiler)
        assert probed
        assert all(p.pack_size_bwd < start.pack_size for p in probed)
        assert best.throughput >= start.throughput

    def test_no_probes_when_pack_is_one(self, model, topo):
        from repro.tuner.search import tune

        result = tune(model, topo, 4, refine=False, search_bwd_pack=True)
        probed = [p for p in result.points if p.pack_size_bwd is not None]
        if result.best.pack_size == 1 and result.best.pack_size_bwd is None:
            assert probed == []  # nothing smaller than a single layer
        else:
            assert all(p.pack_size_bwd <= p.pack_size for p in probed)

    def test_never_worse_than_symmetric(self, model, topo):
        from repro.tuner.search import tune

        symmetric = tune(model, topo, 4, refine=False)
        asymmetric = tune(model, topo, 4, refine=False, search_bwd_pack=True)
        assert asymmetric.best.throughput >= symmetric.best.throughput

    def test_label_shows_distinct_bwd_pack(self):
        from repro.tuner.profiler import ProfilePoint

        point = ProfilePoint(
            pack_size=4, microbatch_size=1, num_microbatches=2,
            prefetch=False, feasible=True, pack_size_bwd=2,
        )
        assert point.label == "pack=4/bwd=2 mb=1x2"
