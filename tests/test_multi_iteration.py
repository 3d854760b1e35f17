"""Multi-iteration (steady-state) simulation.

These tests validate the methodology choice documented in
``ExecOptions.flush_at_end``: a single iteration plus an end-of-run
flush reports the same per-iteration swap volume as a true multi-
iteration steady state.
"""

import pytest

from repro.memory.policy import MemoryPolicy
from repro.models import zoo
from repro.schedulers.base import BatchConfig
from repro.schedulers.harmony_pp import HarmonyPP
from repro.schedulers import DataParallelBaseline
from repro.sim.executor import ExecOptions, Executor
from repro.errors import SimulationError
from repro.tensors.tensor import TensorKind
from repro.units import MB

from tests.conftest import tight_server


@pytest.fixture
def model():
    return zoo.synthetic_uniform(
        num_layers=4, param_bytes_per_layer=100 * MB, activation_bytes=25 * MB
    )


def run(model, iterations, flush=True, scheduler=None, topo=None):
    topo = topo if topo is not None else tight_server(1, 420 * MB)
    if scheduler is None:
        plan = DataParallelBaseline(
            model, topo, BatchConfig(1, 2), num_replicas=1,
            policy=MemoryPolicy.paper_baseline(),
        ).plan()
    else:
        plan = scheduler(model, topo).plan()
    return Executor(
        topo, plan, options=ExecOptions(iterations=iterations, flush_at_end=flush)
    ).run()


class TestReplay:
    def test_samples_accumulate(self, model):
        one = run(model, 1)
        three = run(model, 3)
        assert three.samples == 3 * one.samples

    def test_makespan_grows_linearly(self, model):
        one = run(model, 1, flush=False)
        three = run(model, 3, flush=False)
        assert three.makespan == pytest.approx(3 * one.makespan, rel=0.05)

    def test_invalid_iterations(self):
        with pytest.raises(SimulationError):
            ExecOptions(iterations=0)


class TestSteadyStateEquivalence:
    def test_flush_model_matches_true_steady_state(self, model):
        """Volume(K iters, no flush) - Volume(1 iter, no flush) over
        (K-1) = true steady-state per-iteration volume; the 1-iteration
        + flush number must match it for weights."""
        k = 4
        no_flush_1 = run(model, 1, flush=False)
        no_flush_k = run(model, k, flush=False)
        steady = (
            no_flush_k.stats.kind_swap_volume(TensorKind.WEIGHT)
            - no_flush_1.stats.kind_swap_volume(TensorKind.WEIGHT)
        ) / (k - 1)
        flushed = run(model, 1, flush=True)
        assert flushed.stats.kind_swap_volume(TensorKind.WEIGHT) == pytest.approx(
            steady
        )

    def test_total_volume_linear_in_iterations(self, model):
        two = run(model, 2, flush=False)
        four = run(model, 4, flush=False)
        # Later iterations all cost the same (steady state).
        assert (
            four.stats.host_traffic() - two.stats.host_traffic()
        ) == pytest.approx(2 * (two.stats.host_traffic() / 2), rel=0.2)

    def test_harmony_pp_replays(self, model):
        topo = tight_server(2, 550 * MB)
        result = run(
            model, 2,
            scheduler=lambda m, t: HarmonyPP(m, t, BatchConfig(1, 2)),
            topo=topo,
        )
        assert result.samples == 4

    def test_persistent_state_survives_iterations(self, model):
        """Weights that fit stay resident across iterations: the second
        iteration's weight swap-ins are cheaper than the first's."""
        roomy = tight_server(1, 4000 * MB)
        one = run(
            model, 1, flush=False,
            scheduler=lambda m, t: DataParallelBaseline(
                m, t, BatchConfig(1, 2), num_replicas=1
            ),
            topo=roomy,
        )
        roomy2 = tight_server(1, 4000 * MB)
        two = run(
            model, 2, flush=False,
            scheduler=lambda m, t: DataParallelBaseline(
                m, t, BatchConfig(1, 2), num_replicas=1
            ),
            topo=roomy2,
        )
        w_first = one.stats.volume(kind=TensorKind.WEIGHT)
        w_both = two.stats.volume(kind=TensorKind.WEIGHT)
        assert w_both == pytest.approx(w_first)  # second iteration: zero W traffic
