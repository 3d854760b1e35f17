"""Coverage for the remaining corners: errors, eviction policies,
collective timing, batch config, DGX routing under the executor."""

import pytest

from repro import BatchConfig, HarmonyConfig, HarmonySession
from repro.errors import (
    CapacityError,
    ConfigError,
    ModelError,
    ReproError,
    SchedulingError,
    SimulationError,
    TensorStateError,
    TopologyError,
)
from repro.hardware.presets import dgx1_like_server, gtx1080ti_server
from repro.memory.policy import MemoryPolicy
from repro.models import zoo
from repro.units import MB

from tests.conftest import run_plan, tight_server


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [ConfigError, TopologyError, ModelError, CapacityError,
         SchedulingError, SimulationError, TensorStateError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_topology_error_is_config_error(self):
        assert issubclass(TopologyError, ConfigError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise CapacityError("boom")


class TestBatchConfig:
    def test_per_replica_batch(self):
        assert BatchConfig(4, 3).per_replica_batch == 12

    def test_zero_microbatch_size_rejected(self):
        with pytest.raises(ConfigError):
            BatchConfig(0, 1)

    def test_zero_microbatches_rejected(self):
        with pytest.raises(ConfigError):
            BatchConfig(1, 0)


class TestEvictionPolicies:
    @pytest.fixture
    def model(self):
        return zoo.synthetic_uniform(
            num_layers=4, param_bytes_per_layer=100 * MB,
            activation_bytes=25 * MB,
        )

    def _run(self, model, eviction):
        from repro.schedulers import DataParallelBaseline

        topo = tight_server(1, 450 * MB)
        policy = MemoryPolicy(
            track_clean=True, p2p_enabled=False, eviction=eviction
        )
        plan = DataParallelBaseline(
            model, topo, BatchConfig(1, 2), num_replicas=1,
            policy=policy,
        ).plan()
        return run_plan(topo, plan)

    @pytest.mark.parametrize(
        "eviction", ["lru", "largest_first", "activations_first"]
    )
    def test_every_policy_completes(self, model, eviction):
        assert self._run(model, eviction).samples == 2

    def test_activations_first_keeps_weights_hotter(self, model):
        from repro.tensors.tensor import TensorKind

        lru = self._run(model, "lru")
        vdnn = self._run(model, "activations_first")
        assert vdnn.stats.kind_swap_volume(
            TensorKind.WEIGHT
        ) <= lru.stats.kind_swap_volume(TensorKind.WEIGHT)

    def test_policies_trade_traffic_not_correctness(self, model):
        results = {
            e: self._run(model, e)
            for e in ("lru", "largest_first", "activations_first")
        }
        samples = {r.samples for r in results.values()}
        assert samples == {2}


class TestDgxExecution:
    def test_nvlink_p2p_faster_than_pcie(self):
        """The same harmony-pp plan moves boundary tensors faster over
        the DGX's NVLink mesh than over the commodity PCIe switch."""
        model = zoo.synthetic_uniform(
            num_layers=8, param_bytes_per_layer=50 * MB,
            activation_bytes=200 * MB,  # big boundaries: p2p-bound
        )

        def run_on(topo):
            session = HarmonySession(
                model, topo, HarmonyConfig("harmony-pp", batch=BatchConfig(1, 2))
            )
            return session.run()

        commodity = run_on(gtx1080ti_server(4))
        dgx = run_on(dgx1_like_server(4))
        assert dgx.makespan < commodity.makespan

    def test_dgx_p2p_rides_nvlink(self):
        model = zoo.synthetic_uniform(
            num_layers=4, param_bytes_per_layer=50 * MB,
            activation_bytes=100 * MB,
        )
        topo = dgx1_like_server(2)
        session = HarmonySession(
            model, topo, HarmonyConfig("harmony-pp", batch=BatchConfig(1, 2))
        )
        result = session.run()
        nvlink_busy = sum(
            busy for name, busy in result.link_busy.items()
            if name.startswith("nvlink")
        )
        assert nvlink_busy > 0


class TestCollectiveTiming:
    def test_single_participant_is_instant(self):
        from repro.hardware.presets import commodity_server
        from repro.memory.policy import MemoryPolicy as MP
        from repro.sim.engine import Engine, ResourceTimeline
        from repro.sim.trace import Trace
        from repro.sim.transfer import TransferEngine
        from repro.memory.manager import MemoryManager
        from repro.tensors.registry import TensorRegistry

        topo = commodity_server(2)
        engine = Engine()
        registry = TensorRegistry(zoo.synthetic_uniform(num_layers=1), 1)
        manager = MemoryManager(topo, registry, MP.harmony())
        links = {name: ResourceTimeline(name) for name in topo.links}
        transfers = TransferEngine(engine, topo, manager, Trace(), links)
        windows = []
        transfers.execute_allreduce(["gpu0"], 1e9, lambda s, e: windows.append((s, e)))
        engine.run()
        assert windows == [(0.0, 0.0)]

    def test_two_participants_take_time(self):
        from repro.hardware.presets import commodity_server
        from repro.memory.policy import MemoryPolicy as MP
        from repro.sim.engine import Engine, ResourceTimeline
        from repro.sim.trace import Trace
        from repro.sim.transfer import TransferEngine
        from repro.memory.manager import MemoryManager
        from repro.tensors.registry import TensorRegistry

        topo = commodity_server(2)
        engine = Engine()
        registry = TensorRegistry(zoo.synthetic_uniform(num_layers=1), 1)
        manager = MemoryManager(topo, registry, MP.harmony())
        links = {name: ResourceTimeline(name) for name in topo.links}
        transfers = TransferEngine(engine, topo, manager, Trace(), links)
        windows = []
        transfers.execute_allreduce(
            ["gpu0", "gpu1"], 1e9, lambda s, e: windows.append((s, e))
        )
        engine.run()
        (start, end), = windows
        assert end > start
        # Ring hops occupy the switch-local links, not the host uplink.
        assert links["pcie-gpu0"].busy_seconds > 0
        assert links["uplink0"].busy_seconds == 0
