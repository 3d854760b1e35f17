"""Memory manager: residency planning, eviction, policies."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.errors import CapacityError, SimulationError
from repro.memory.manager import MemOp, MemOpKind, MemoryManager
from repro.memory.policy import MemoryPolicy
from repro.memory.stats import Direction
from repro.models import zoo
from repro.tasks.task import Task, TaskKind
from repro.models.phases import Phase
from repro.tensors.registry import TensorRegistry
from repro.tensors.state import TensorState
from repro.units import MB

from tests.conftest import tight_server


def make_manager(policy=None, num_gpus=2, capacity=420 * MB, num_layers=3):
    model = zoo.synthetic_uniform(
        num_layers=num_layers, param_bytes_per_layer=100 * MB,
        activation_bytes=25 * MB,
    )
    topo = tight_server(num_gpus, capacity)
    registry = TensorRegistry(model, microbatch_size=1)
    manager = MemoryManager(
        topo, registry, policy if policy is not None else MemoryPolicy.harmony()
    )
    return manager, registry


def fwd_task(registry, layer, mb=0, tid=0):
    reads = (registry.activation(layer - 1, mb).tid, registry.weight(layer).tid)
    writes = (registry.stash(layer, mb).tid, registry.activation(layer, mb).tid)
    return Task(
        tid=tid,
        kind=TaskKind.COMPUTE,
        label=f"fwd-L{layer}",
        phase=Phase.FORWARD,
        layers=(layer,),
        microbatch=mb,
        reads=reads,
        writes=writes,
        frees=(registry.activation(layer - 1, mb).tid,),
        flops=1e9,
    )


def run_ops(manager, ops):
    """Apply a plan synchronously (transfers complete instantly)."""
    for op in ops:
        if op.kind is MemOpKind.WAIT:
            continue
        if op.kind in (MemOpKind.DROP, MemOpKind.ALLOC):
            manager.op_begin(op)
            if op.kind is not MemOpKind.DROP or op.kind is MemOpKind.SWAP_OUT:
                pass
            continue
        if manager.op_begin(op):
            manager.op_finish(op)


class TestInitialMaterialization:
    def test_persistent_state_on_host(self):
        manager, registry = make_manager()
        w = registry.weight(0)
        task = fwd_task(registry, 0)
        manager.materialize_initial()
        assert manager.runtime(w.tid).state is TensorState.ON_HOST

    def test_inputs_on_host(self):
        manager, registry = make_manager()
        inp = registry.activation(-1, 0)
        __ = fwd_task(registry, 0)
        manager.materialize_initial()
        assert manager.runtime(inp.tid).state is TensorState.ON_HOST

    def test_intermediate_activations_unmaterialized(self):
        manager, registry = make_manager()
        act = registry.activation(0, 0)
        manager.materialize_initial()
        assert manager.runtime(act.tid).state is TensorState.UNMATERIALIZED


class TestPrepare:
    def test_plans_swap_ins_and_allocs(self):
        manager, registry = make_manager()
        task = fwd_task(registry, 0)
        manager.materialize_initial()
        ops = manager.prepare(task, "gpu0")
        kinds = sorted(op.kind.value for op in ops)
        assert kinds == ["alloc", "alloc", "swap_in", "swap_in"]

    def test_prepare_pins(self):
        manager, registry = make_manager()
        task = fwd_task(registry, 0)
        manager.materialize_initial()
        manager.prepare(task, "gpu0")
        assert manager.runtime(registry.weight(0).tid).pinned == 1

    def test_resident_tensor_needs_no_op(self):
        manager, registry = make_manager()
        task = fwd_task(registry, 0)
        manager.materialize_initial()
        run_ops(manager, manager.prepare(task, "gpu0"))
        manager.task_finished(task)
        # A follow-up task touching the (still resident) weight plans
        # nothing for it.
        reader = Task(
            tid=1, kind=TaskKind.COMPUTE, label="reader", phase=Phase.FORWARD,
            reads=(registry.weight(0).tid,), flops=1,
        )
        ops = manager.prepare(reader, "gpu0")
        assert ops == []

    def test_read_of_unmaterialized_rejected(self):
        manager, registry = make_manager()
        manager.materialize_initial()
        bad = Task(
            tid=9, kind=TaskKind.COMPUTE, label="bad", phase=Phase.FORWARD,
            reads=(registry.activation(0, 0).tid,), flops=1,
        )
        with pytest.raises(SimulationError):
            manager.prepare(bad, "gpu0")

    def test_capacity_error_when_working_set_too_big(self):
        manager, registry = make_manager(capacity=90 * MB)
        task = fwd_task(registry, 0)
        manager.materialize_initial()
        with pytest.raises(CapacityError):
            manager.prepare(task, "gpu0")

    def test_capacity_error_unpins(self):
        manager, registry = make_manager(capacity=90 * MB)
        task = fwd_task(registry, 0)
        manager.materialize_initial()
        with pytest.raises(CapacityError):
            manager.prepare(task, "gpu0")
        assert manager.runtime(registry.weight(0).tid).pinned == 0


def fill_gpu0(manager, registry):
    """Run fwd L0 so gpu0 holds W0 + stash + act, then return the
    layer-1 forward whose preparation must evict."""
    t0 = fwd_task(registry, 0, tid=0)
    t1 = fwd_task(registry, 1, tid=1)
    manager.materialize_initial()
    run_ops(manager, manager.prepare(t0, "gpu0"))
    manager.task_finished(t0)
    return t1


class TestEviction:
    def test_lru_evicts_oldest(self):
        manager, registry = make_manager(capacity=260 * MB)
        t1 = fill_gpu0(manager, registry)
        # gpu0 now holds W0 (100), stash (25), act (25); next layer needs
        # W1 (100) + stash + act: W0 is LRU-oldest unpinned.
        ops = manager.prepare(t1, "gpu0")
        evicted = [op.tensor.tid for op in ops if op.kind in
                   (MemOpKind.SWAP_OUT, MemOpKind.DROP, MemOpKind.P2P)]
        assert registry.weight(0).tid in evicted

    def test_clean_weight_dropped_under_harmony(self):
        manager, registry = make_manager(capacity=260 * MB)
        t1 = fill_gpu0(manager, registry)
        ops = manager.prepare(t1, "gpu0")
        by_tid = {op.tensor.tid: op for op in ops}
        assert by_tid[registry.weight(0).tid].kind is MemOpKind.DROP

    def test_clean_weight_written_back_under_baseline(self):
        manager, registry = make_manager(
            policy=MemoryPolicy.baseline(), capacity=260 * MB
        )
        t1 = fill_gpu0(manager, registry)
        ops = manager.prepare(t1, "gpu0")
        by_tid = {op.tensor.tid: op for op in ops}
        assert by_tid[registry.weight(0).tid].kind is MemOpKind.SWAP_OUT

    def test_dirty_tensor_always_written_back(self):
        manager, registry = make_manager(capacity=260 * MB)
        t1 = fill_gpu0(manager, registry)
        manager.runtime(registry.weight(0).tid).mark_written()
        ops = manager.prepare(t1, "gpu0")
        by_tid = {op.tensor.tid: op for op in ops}
        assert by_tid[registry.weight(0).tid].kind is MemOpKind.SWAP_OUT

    def test_largest_first_policy(self):
        manager, registry = make_manager(
            policy=MemoryPolicy(eviction="largest_first"), capacity=260 * MB
        )
        fill_gpu0(manager, registry)
        order = manager._victim_order("gpu0")
        sizes = [rt.meta.size_bytes for rt in order]
        assert sizes == sorted(sizes, reverse=True)

    def test_unknown_eviction_policy_rejected(self):
        with pytest.raises(Exception):
            MemoryPolicy(eviction="belady")


class TestTaskFinished:
    def test_unpins_and_marks_dirty(self):
        manager, registry = make_manager()
        task = fwd_task(registry, 0)
        manager.materialize_initial()
        run_ops(manager, manager.prepare(task, "gpu0"))
        manager.task_finished(task)
        stash = manager.runtime(registry.stash(0, 0).tid)
        assert stash.pinned == 0
        assert stash.dirty

    def test_frees_dead_tensors(self):
        manager, registry = make_manager()
        task = fwd_task(registry, 0)
        manager.materialize_initial()
        run_ops(manager, manager.prepare(task, "gpu0"))
        manager.task_finished(task)
        inp = manager.runtime(registry.activation(-1, 0).tid)
        assert inp.state is TensorState.FREED

    def test_double_unpin_rejected(self):
        manager, registry = make_manager()
        task = fwd_task(registry, 0)
        manager.materialize_initial()
        run_ops(manager, manager.prepare(task, "gpu0"))
        manager.task_finished(task)
        with pytest.raises(SimulationError):
            manager.task_finished(task)


class TestFlush:
    def test_flush_writes_back_dirty_only(self):
        manager, registry = make_manager()
        task = fwd_task(registry, 0)
        manager.materialize_initial()
        run_ops(manager, manager.prepare(task, "gpu0"))
        manager.task_finished(task)
        ops = manager.plan_flush()
        kinds = {op.tensor.tid: op.kind for op in ops}
        # W0 is clean (just swapped in) -> drop; stash/act are dirty -> out.
        assert kinds[registry.weight(0).tid] is MemOpKind.DROP
        assert kinds[registry.stash(0, 0).tid] is MemOpKind.SWAP_OUT


class TestStatsIntegration:
    def test_swap_in_recorded(self):
        manager, registry = make_manager()
        task = fwd_task(registry, 0)
        manager.materialize_initial()
        run_ops(manager, manager.prepare(task, "gpu0"))
        assert manager.stats.volume(
            "gpu0", None, Direction.SWAP_IN
        ) == 125 * MB  # input act 25 + W 100

    def test_demand_assigned_on_alloc(self):
        manager, registry = make_manager()
        task = fwd_task(registry, 0)
        manager.materialize_initial()
        run_ops(manager, manager.prepare(task, "gpu0"))
        assert manager.pools["gpu0"].demand == 175 * MB  # 125 in + 50 alloc


class TestSubstituteVictims:
    @pytest.mark.parametrize(
        "needed_mb, taken", [(0, 1), (100, 1), (110, 2), (1000, None)]
    )
    def test_shortest_prefix_of_the_victim_order(self, needed_mb, taken):
        manager, registry = make_manager(capacity=260 * MB)
        fill_gpu0(manager, registry)
        order = [rt.meta for rt in manager._victim_order("gpu0")]
        # The victim that turned out pinned is out of the victim order;
        # a 0-byte one (gpt2's lm_head holds 0-byte state) still gets one.
        victim = dataclasses.replace(registry.stash(1, 0), size_bytes=needed_mb * MB)
        subs = manager.substitute_victims(
            MemOp(MemOpKind.SWAP_OUT, victim, "gpu0", None)
        )
        if taken is None:
            assert subs is None
        else:
            assert [op.tensor for op in subs] == order[:taken]


class TestReservationPath:
    def test_p2p_from_an_evicted_source_becomes_a_host_fetch(self):
        manager, registry = make_manager()
        w0 = registry.weight(0)
        manager.materialize_initial()
        op = MemOp(MemOpKind.P2P, w0, "gpu1", "gpu0")
        assert manager.op_begin(op)
        assert (op.kind, op.src) == (MemOpKind.SWAP_IN, None)
        rt = manager.runtime(w0.tid)
        assert (rt.state, rt.device) == (TensorState.SWAPPING_IN, "gpu0")
        assert manager.usage_log["gpu0"] == [(0.0, w0.size_bytes)]
        manager.op_finish(op)
        assert manager.stats.volume("gpu0", None, Direction.SWAP_IN) == w0.size_bytes

    def test_only_the_two_helpers_touch_pools_and_the_usage_log(self):
        # Pool reserve/release calls and usage-log appends anywhere in
        # the package, by enclosing class.function: each must sit in
        # MemoryManager._reserve or _release, so the usage log records
        # every reservation by construction.
        sites = []
        root = Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            module = path.relative_to(root.parent).as_posix()
            _CallSites(module, sites).visit(ast.parse(path.read_text()))
        manager = "repro/memory/manager.py"
        assert sorted(sites) == [
            (manager, "MemoryManager._release", "release"),
            (manager, "MemoryManager._release", "usage_log.append"),
            (manager, "MemoryManager._reserve", "reserve"),
            (manager, "MemoryManager._reserve", "usage_log.append"),
        ]


class _CallSites(ast.NodeVisitor):
    """Collects ``.reserve(``/``.release(`` calls and ``usage_log``
    appends with the class/function scope they sit in."""

    def __init__(self, module, sites):
        self.module = module
        self.sites = sites
        self.scope = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in ("reserve", "release"):
                name = func.attr
            elif func.attr == "append" and "usage_log" in ast.unparse(func.value):
                name = "usage_log.append"
            else:
                name = None
            if name is not None:
                self.sites.append((self.module, ".".join(self.scope), name))
        self.generic_visit(node)
