"""Property-based tests (hypothesis) on core invariants.

These cover the data structures and closed forms whose correctness the
reproduction's claims rest on: partitioning, routing, the tensor state
machine, the event engine's resources, the decomposer's graph
invariants, and the analytical volume model.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic.volumes import (
    baseline_dp_volumes,
    harmony_dp_volumes,
    harmony_pp_volumes,
    weight_volume_baseline_dp,
    weight_volume_harmony_dp,
    weight_volume_harmony_pp,
)
from repro.hardware.presets import commodity_server
from repro.models import zoo
from repro.sim.engine import ResourceTimeline
from repro.tasks.decomposer import Decomposer
from repro.tasks.packing import (
    pack_layers,
    partition_layers_balanced,
    validate_packs,
)
from repro.tensors.state import TensorRuntime, TensorState
from repro.tensors.tensor import TensorKind, TensorMeta
from repro.units import MB


# -- packing / partitioning ----------------------------------------------------


@given(
    num_layers=st.integers(min_value=1, max_value=200),
    pack_size=st.integers(min_value=1, max_value=50),
)
def test_pack_layers_is_valid_partition(num_layers, pack_size):
    packs = pack_layers(num_layers, pack_size)
    validate_packs(packs, num_layers)
    assert all(len(p) <= pack_size for p in packs)


@given(
    num_layers=st.integers(min_value=1, max_value=64),
    data=st.data(),
)
@settings(max_examples=50)
def test_balanced_partition_is_valid_and_bounded(num_layers, data):
    num_parts = data.draw(st.integers(min_value=1, max_value=num_layers))
    model = zoo.synthetic_uniform(num_layers=num_layers)
    parts = partition_layers_balanced(model, num_parts)
    validate_packs(parts, num_layers)
    assert len(parts) == num_parts
    # Uniform layers: no part may exceed ceil(n/k) + 1 layers.
    ceiling = -(-num_layers // num_parts)
    assert max(len(p) for p in parts) <= ceiling + 1


@given(
    loads=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=3, max_size=40),
    data=st.data(),
)
@settings(max_examples=50)
def test_balanced_partition_arbitrary_loads(loads, data):
    num_parts = data.draw(st.integers(min_value=1, max_value=len(loads)))
    model = zoo.synthetic_uniform(num_layers=len(loads))
    parts = partition_layers_balanced(model, num_parts, load=lambda i: loads[i])
    validate_packs(parts, len(loads))


# -- routing -------------------------------------------------------------------


@given(
    num_gpus=st.integers(min_value=1, max_value=12),
    per_switch=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=40)
def test_every_gpu_routes_to_host_and_peers(num_gpus, per_switch):
    topo = commodity_server(num_gpus=num_gpus, gpus_per_switch=per_switch)
    host = topo.host().name
    for gpu in topo.gpus():
        route = topo.route(gpu.name, host)
        assert route.crosses_host_uplink
        for peer in topo.gpus():
            peer_route = topo.route(gpu.name, peer.name)
            if gpu.name == peer.name:
                assert peer_route.links == ()
            else:
                assert peer_route.bottleneck_bandwidth > 0


@given(
    num_gpus=st.integers(min_value=2, max_value=8),
    nbytes=st.floats(min_value=1, max_value=1e12),
)
@settings(max_examples=40)
def test_route_transfer_time_monotone_in_bytes(num_gpus, nbytes):
    topo = commodity_server(num_gpus=num_gpus)
    route = topo.route("gpu0", topo.host().name)
    assert route.transfer_time(nbytes) <= route.transfer_time(nbytes * 2)


# -- tensor state machine --------------------------------------------------------


_OPS = (
    "materialize_on_host",
    "materialize_on_device",
    "begin_swap_in",
    "finish_swap_in",
    "begin_swap_out",
    "finish_swap_out",
    "begin_move",
    "drop",
    "free",
    "mark_written",
)


@given(ops=st.lists(st.sampled_from(_OPS), min_size=1, max_size=30))
@settings(max_examples=200)
def test_state_machine_never_corrupts(ops):
    """Any op sequence either raises TensorStateError or leaves the
    runtime in a consistent (state, device) combination."""
    from repro.errors import TensorStateError

    rt = TensorRuntime(TensorMeta(0, TensorKind.WEIGHT, 0, None, 0, 10))
    for op in ops:
        try:
            if op in ("materialize_on_device", "begin_swap_in", "begin_move"):
                getattr(rt, op)("gpu0")
            else:
                getattr(rt, op)()
        except TensorStateError:
            continue
        # Invariants after every successful transition:
        if rt.state in (TensorState.ON_DEVICE, TensorState.SWAPPING_IN,
                        TensorState.SWAPPING_OUT):
            assert rt.device is not None
        if rt.state in (TensorState.ON_HOST, TensorState.FREED):
            assert rt.device is None
        if rt.state is TensorState.FREED:
            assert not rt.dirty


# -- engine resources ---------------------------------------------------------------


@given(
    durations=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30
    )
)
def test_resource_fifo_no_overlap_no_gap_shrink(durations):
    r = ResourceTimeline("r")
    prev_end = 0.0
    for d in durations:
        start, end = r.acquire(0.0, d)
        assert start >= prev_end  # FIFO: never overlaps predecessor
        assert end == start + d
        prev_end = end
    assert r.busy_seconds == pytest.approx(sum(durations))


@given(
    submissions=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=50),   # arrival time
            st.floats(min_value=0, max_value=10),   # duration
        ),
        min_size=1,
        max_size=30,
    )
)
def test_resource_respects_arrival_times(submissions):
    r = ResourceTimeline("r")
    # Submissions must arrive in nondecreasing time order (as in a DES).
    submissions = sorted(submissions)
    for arrival, duration in submissions:
        start, end = r.acquire(arrival, duration)
        assert start >= arrival


# -- decomposer graph invariants -------------------------------------------------------


@given(
    num_layers=st.integers(min_value=1, max_value=10),
    m=st.integers(min_value=1, max_value=5),
    replicas=st.integers(min_value=1, max_value=3),
    pack=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=40, deadline=None)
def test_decomposer_graph_always_acyclic_and_complete(num_layers, m, replicas, pack):
    model = zoo.synthetic_uniform(num_layers=num_layers)
    itasks = Decomposer(
        model, 1, m, num_replicas=replicas,
        packs_fwd=pack_layers(num_layers, pack),
        packs_bwd=pack_layers(num_layers, pack),
    ).decompose()
    order = itasks.graph.topo_order()  # raises on cycles
    assert len(order) == len(itasks.graph)
    # Every per-microbatch tensor that is written is eventually freed,
    # except persistent state.
    written = set()
    freed = set()
    for task in itasks.graph:
        written.update(task.writes)
        freed.update(task.frees)
    reg = itasks.registry
    for tid in written:
        meta = reg.by_id(tid)
        if not meta.persistent:
            assert tid in freed, f"leaked tensor {meta.label}"


@given(
    num_layers=st.integers(min_value=2, max_value=8),
    m=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_no_task_reads_tensor_freed_earlier_in_topo_order(num_layers, m):
    model = zoo.synthetic_uniform(num_layers=num_layers)
    itasks = Decomposer(model, 1, m).decompose()
    freed: set[int] = set()
    for task in itasks.graph.topo_order():
        for tid in task.reads:
            assert tid not in freed, task.label
        freed.update(task.frees)


# -- analytical volumes ------------------------------------------------------------------


@given(
    m=st.integers(min_value=1, max_value=64),
    n=st.integers(min_value=1, max_value=16),
    layers=st.integers(min_value=1, max_value=32),
)
@settings(max_examples=60)
def test_harmony_always_dominates_baseline(m, n, layers):
    model = zoo.synthetic_uniform(
        num_layers=layers, param_bytes_per_layer=100 * MB
    )
    base = weight_volume_baseline_dp(model, m, n)
    hdp = weight_volume_harmony_dp(model, m, n)
    hpp = weight_volume_harmony_pp(model, m, n)
    assert base >= hdp >= hpp
    assert base == pytest.approx((4 * m + 2) / 3 * hdp)
    assert hdp == pytest.approx(n * hpp)


@given(
    m=st.integers(min_value=1, max_value=16),
    n=st.integers(min_value=1, max_value=8),
    mb=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=40)
def test_full_volume_ordering_holds_everywhere(m, n, mb):
    model = zoo.synthetic_uniform(num_layers=4)
    base = baseline_dp_volumes(model, m, n, mb)
    hdp = harmony_dp_volumes(model, m, n, mb)
    hpp = harmony_pp_volumes(model, m, n, mb)
    assert base.host_total >= hdp.host_total >= hpp.host_total
    for volumes in (base, hdp, hpp):
        assert volumes.host_total >= 0
        assert volumes.p2p >= 0


# -- sharded decomposition ---------------------------------------------------------


@given(
    num_layers=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=1, max_value=4),
    shards=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_sharded_graph_acyclic_and_conserves_tensors(num_layers, m, shards):
    from repro.tasks.sharded import ShardedDecomposer

    model = zoo.synthetic_uniform(num_layers=num_layers)
    itasks = ShardedDecomposer(model, 1, m, num_shards=shards).decompose()
    order = itasks.graph.topo_order()
    assert len(order) == len(itasks.graph)
    written, freed = set(), set()
    for task in itasks.graph:
        written.update(task.writes)
        freed.update(task.frees)
    reg = itasks.registry
    for tid in written:
        meta = reg.by_id(tid)
        if not meta.persistent:
            assert tid in freed, f"leaked tensor {meta.label}"


@given(
    num_layers=st.integers(min_value=1, max_value=6),
    shards=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_sharded_state_conservation(num_layers, shards):
    """Sharding never changes the *total* bytes of persistent state —
    it only spreads them."""
    from repro.tasks.sharded import ShardedDecomposer

    model = zoo.synthetic_uniform(num_layers=num_layers)
    itasks = ShardedDecomposer(model, 1, 1, num_shards=shards).decompose()
    reg = itasks.registry
    total_w = sum(
        reg.weight(l, s).size_bytes
        for l in range(num_layers)
        for s in range(shards)
    )
    assert total_w == pytest.approx(model.param_bytes)


@given(
    num_servers=st.integers(min_value=1, max_value=3),
    per_server=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30)
def test_multi_server_every_gpu_has_local_host(num_servers, per_server):
    from repro.hardware.presets import multi_server_cluster

    topo = multi_server_cluster(num_servers, per_server)
    for gpu in topo.gpus():
        host = topo.host_of(gpu.name)
        # Local host is two PCIe hops away, never across the network.
        route = topo.route(gpu.name, host.name)
        assert len(route.links) == 2
        assert not any(l.name.startswith("net") for l in route.links)


# -- executor robustness: arbitrary legal schedules ---------------------------------


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_executor_handles_any_legal_single_gpu_order(seed):
    """The executor must complete (and conserve physical invariants
    under) *any* dependency-respecting task order, not just the ones our
    schedulers emit — random topological orders act as schedule fuzzing."""
    import dataclasses
    import random

    from repro.memory.policy import MemoryPolicy
    from repro.schedulers.base import BatchConfig
    from repro.schedulers import DataParallelBaseline
    from repro.sim.executor import Executor
    from tests.conftest import tight_server

    model = zoo.synthetic_uniform(
        num_layers=3, param_bytes_per_layer=100 * MB, activation_bytes=25 * MB
    )
    topo = tight_server(1, 450 * MB)
    plan = DataParallelBaseline(
        model, topo, BatchConfig(1, 2), num_replicas=1,
        policy=MemoryPolicy.harmony(),
    ).plan()

    # Random topological order via Kahn's algorithm with a seeded pick.
    rng = random.Random(seed)
    graph = plan.graph
    indegree = {tid: len(t.deps) for tid, t in graph.tasks.items()}
    succ = graph.successors()
    ready = sorted(tid for tid, deg in indegree.items() if deg == 0)
    order = []
    while ready:
        tid = ready.pop(rng.randrange(len(ready)))
        order.append(tid)
        for nxt in succ[tid]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    plan = dataclasses.replace(plan, device_order={"gpu0": order})

    result = Executor(topo, plan).run()
    assert result.samples == 2
    assert result.devices["gpu0"].peak_used <= 450 * MB * (1 + 1e-9)
    # Compute work is schedule-invariant.
    expected_flops = sum(t.flops for t in graph.compute_tasks())
    assert expected_flops > 0
    assert result.trace.busy_seconds("gpu0", "compute") > 0
