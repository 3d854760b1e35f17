"""Incremental re-simulation: prefix checkpoints (repro.perf.incremental).

The headline guarantee is the run cache's, extended to prefixes: a run
restored from a checkpoint boundary is *byte-identical* to its cold
twin — same makespan, same Chrome trace, same swap ledger, same link
occupancy, same steady-state report.  The suite asserts that across
every registered scheduler scheme, across mismatched iteration depths
(restore the longest shared prefix, simulate the suffix), through the
disk tier, and under ``auto`` steady-state detection replay.
"""

import dataclasses
import json

import pytest

from repro.core.config import HarmonyConfig
from repro.core.session import HarmonySession
from repro.models import zoo
from repro.perf.fingerprint import base_fingerprint, fingerprint
from repro.perf.incremental import (
    CheckpointStore,
    Snapshot,
    snapshot_boundary,
)
from repro.schedulers import scheme_names
from repro.schedulers.base import BatchConfig
from repro.sim.executor import ExecOptions, Executor
from repro.sim.trace import to_chrome_trace
from repro.units import MB

from tests.conftest import tight_server

SCHEMES = scheme_names()


def make_model(num_layers=4):
    return zoo.synthetic_uniform(
        num_layers=num_layers,
        param_bytes_per_layer=100 * MB,
        activation_bytes=25 * MB,
    )


def make_spec(scheme="harmony-pp", iterations=4, steady="off",
              num_microbatches=2, capacity=550 * MB):
    model = make_model()
    topo = tight_server(2, capacity)
    config = HarmonyConfig(
        scheme,
        batch=BatchConfig(1, num_microbatches),
        iterations=iterations,
        steady_state=steady,
    )
    return model, topo, config


def run_spec(spec, store=None):
    model, topo, config = spec
    return HarmonySession(model, topo, config, checkpoints=store).run()


def assert_identical(cold, warm):
    """The byte-identity contract: every externally-visible result
    field of the restored run equals the cold run's."""
    assert warm.makespan == cold.makespan
    assert warm.samples == cold.samples
    assert warm.events_processed == cold.events_processed
    assert warm.link_busy == cold.link_busy
    assert dict(warm.stats._volume) == dict(cold.stats._volume)
    assert dict(warm.stats._events) == dict(cold.stats._events)
    assert warm.activation_peaks() == cold.activation_peaks()
    assert warm.memory_profile == cold.memory_profile
    assert warm.devices == cold.devices
    assert json.dumps(to_chrome_trace(warm.trace), sort_keys=True) == (
        json.dumps(to_chrome_trace(cold.trace), sort_keys=True)
    )
    if cold.steady is not None or warm.steady is not None:
        assert dataclasses.asdict(warm.steady) == dataclasses.asdict(
            cold.steady
        )


class TestByteIdentityAcrossSchemes:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_restored_run_identical_to_cold(self, scheme):
        spec = make_spec(scheme)
        cold = run_spec(spec)
        store = CheckpointStore()
        run_spec(spec, store)  # donor: cold itself, writes boundaries
        warm = run_spec(spec, store)
        assert_identical(cold, warm)
        counters = store.counters()
        assert counters["hits"] == 1
        # The warm run restored the deepest boundary (n - 1 = 3) and
        # simulated only the final iteration plus the flush.
        assert counters["saved_iterations"] == 3

    def test_donor_and_cold_identical(self):
        # Writing snapshots must not perturb the donor's own results.
        spec = make_spec()
        assert_identical(run_spec(spec), run_spec(spec, CheckpointStore()))


class TestCrossDepthReuse:
    def test_shallower_run_reuses_deep_donor(self):
        # Donor at n=8 stores boundaries {1, 2, 4, 7}; a 5-iteration
        # run restores boundary 4 (deepest <= 4) and simulates one.
        store = CheckpointStore()
        run_spec(make_spec(iterations=8), store)
        before = store.counters()["saved_iterations"]
        shallow = make_spec(iterations=5)
        warm = run_spec(shallow, store)
        assert store.counters()["saved_iterations"] - before == 4
        assert_identical(run_spec(shallow), warm)

    def test_deeper_run_extends_shallow_donor(self):
        # Donor at n=3 stores boundaries {1, 2}; a 6-iteration run
        # restores boundary 2 and simulates iterations 3..6.
        store = CheckpointStore()
        run_spec(make_spec(iterations=3), store)
        before = store.counters()["saved_iterations"]
        deep = make_spec(iterations=6)
        warm = run_spec(deep, store)
        assert store.counters()["saved_iterations"] - before == 2
        assert_identical(run_spec(deep), warm)

    def test_single_iteration_runs_bypass_the_store(self):
        store = CheckpointStore()
        run_spec(make_spec(iterations=1), store)
        assert store.counters() == {
            "hits": 0, "misses": 0, "stores": 0, "invalidations": 0,
            "write_errors": 0, "saved_iterations": 0,
        }


class TestAutoModeDetectionReplay:
    def test_restored_auto_run_replays_detection(self):
        # The snapshot carries the detection inputs (prev_fp, fp,
        # ledger); a restored ``auto`` run must fast-forward exactly as
        # its cold twin did and report the same steady-state outcome.
        spec = make_spec(steady="auto", iterations=6)
        cold = run_spec(spec)
        assert cold.steady is not None and cold.steady.detected_at is not None
        store = CheckpointStore()
        run_spec(spec, store)
        warm = run_spec(spec, store)
        assert store.counters()["hits"] == 1
        assert_identical(cold, warm)

    def test_off_and_auto_runs_never_share_snapshots(self):
        # base_fingerprint mixes in the resolved steady mode, so an
        # ``off`` run probing after an ``auto`` donor misses cleanly.
        store = CheckpointStore()
        run_spec(make_spec(steady="auto", iterations=4), store)
        off = make_spec(steady="off", iterations=4)
        warm = run_spec(off, store)
        counters = store.counters()
        assert counters["hits"] == 0  # the off probe found nothing
        assert counters["misses"] == 2  # each mode's own cold start
        assert_identical(run_spec(off), warm)


class TestRestoredFrom:
    def test_executor_records_restore_depth(self):
        model, topo, config = make_spec()
        key = base_fingerprint(model, topo, config)
        store = CheckpointStore()

        def executor():
            plan = HarmonySession(model, topo, config).plan()
            return Executor(
                topo, plan,
                options=ExecOptions(
                    iterations=config.iterations,
                    steady_state=config.steady_state,
                    checkpoints=store,
                    checkpoint_key=key,
                ),
            )

        donor = executor()
        donor.run()
        assert donor.restored_from is None
        warm = executor()
        warm.run()
        assert warm.restored_from == config.iterations - 1


class TestDiskTier:
    def test_restore_across_store_instances(self, tmp_path):
        # A fresh store over the same directory (a new tuner process)
        # restores from disk, byte-identically.
        spec = make_spec()
        cold = run_spec(spec)
        run_spec(spec, CheckpointStore(tmp_path))
        fresh = CheckpointStore(tmp_path)
        warm = run_spec(spec, fresh)
        assert fresh.counters()["hits"] == 1
        assert_identical(cold, warm)


class TestFingerprintSensitivity:
    def test_iteration_count_stripped_from_base_key(self):
        model, topo, _ = make_spec()
        keys = {
            base_fingerprint(
                model, topo, make_spec(iterations=n)[2]
            )
            for n in (2, 5, 100)
        }
        assert len(keys) == 1

    def test_full_fingerprint_keeps_iteration_count(self):
        model, topo, _ = make_spec()
        assert fingerprint(
            model, topo, make_spec(iterations=2)[2]
        ) != fingerprint(model, topo, make_spec(iterations=3)[2])

    def test_model_change_changes_key(self):
        _, topo, config = make_spec()
        assert base_fingerprint(make_model(4), topo, config) != (
            base_fingerprint(make_model(6), topo, config)
        )

    def test_topology_change_changes_key(self):
        model, _, config = make_spec()
        assert base_fingerprint(model, tight_server(2, 550 * MB), config) != (
            base_fingerprint(model, tight_server(2, 600 * MB), config)
        )

    def test_batch_change_changes_key(self):
        model, topo, _ = make_spec()
        assert base_fingerprint(
            model, topo, make_spec(num_microbatches=2)[2]
        ) != base_fingerprint(model, topo, make_spec(num_microbatches=4)[2])

    def test_steady_mode_changes_key(self):
        model, topo, _ = make_spec()
        assert base_fingerprint(
            model, topo, make_spec(steady="off")[2]
        ) != base_fingerprint(model, topo, make_spec(steady="auto")[2])


def _snap(iteration: int) -> Snapshot:
    return Snapshot(
        iteration=iteration, state=(), prev_fp=None, fp=None, ledger=None,
        detecting=False,
    )


class TestCheckpointStore:
    def test_best_picks_deepest_at_most_max(self):
        store = CheckpointStore()
        for i in (1, 2, 4, 7):
            store.put("k", _snap(i))
        assert store.best("k", 5).iteration == 4
        assert store.best("k", 7).iteration == 7
        assert store.best("k", 0) is None
        counters = store.counters()
        assert counters["hits"] == 2
        assert counters["misses"] == 1
        assert counters["saved_iterations"] == 11
        assert store.hit_rate == pytest.approx(2 / 3)

    def test_unknown_key_misses(self):
        store = CheckpointStore()
        assert store.best("missing", 10) is None
        assert store.counters()["misses"] == 1

    def test_has_does_not_touch_counters(self):
        store = CheckpointStore()
        store.put("k", _snap(2))
        assert store.has("k", 2)
        assert not store.has("k", 3)
        counters = store.counters()
        assert counters["hits"] == 0 and counters["misses"] == 0

    def test_hit_returns_a_fresh_copy(self):
        store = CheckpointStore()
        store.put("k", _snap(3))
        assert store.best("k", 3) is not store.best("k", 3)

    def test_disk_round_trip(self, tmp_path):
        CheckpointStore(tmp_path).put("ab12", _snap(4))
        fresh = CheckpointStore(tmp_path)
        assert fresh.has("ab12", 4)
        assert fresh.best("ab12", 9).iteration == 4

    def test_clear_drops_memory_keeps_disk(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put("ab12", _snap(2))
        store.clear()
        assert len(store) == 0
        assert store.best("ab12", 5).iteration == 2  # re-read from disk

    def test_torn_disk_entry_invalidated_and_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put("ab12", _snap(1))
        store.put("ab12", _snap(4))
        (tmp_path / "ab" / "ab12" / "4.pkl").write_bytes(b"torn")
        store.clear()  # force the disk tier
        best = store.best("ab12", 7)
        assert best.iteration == 1
        counters = store.counters()
        assert counters["invalidations"] == 1
        assert counters["hits"] == 1
        assert not (tmp_path / "ab" / "ab12" / "4.pkl").exists()

    def test_snapshot_boundary_schedule(self):
        total = 10
        kept = [i for i in range(1, total) if snapshot_boundary(i, total)]
        assert kept == [1, 2, 4, 8, 9]  # powers of two plus total - 1


class TestSlots:
    """The hot per-event objects must stay ``__slots__``-only: a stray
    instance ``__dict__`` costs ~100 B per object and an extra dict
    lookup on every attribute access in the event loop."""

    def test_hot_classes_have_no_instance_dict(self):
        from repro.memory.allocator import DevicePool
        from repro.memory.manager import MemOp
        from repro.sim.engine import Engine, ResourceTimeline
        from repro.sim.executor import _DeviceState
        from repro.tensors.state import TensorRuntime

        for cls in (DevicePool, MemOp, Engine, ResourceTimeline,
                    TensorRuntime, _DeviceState):
            for klass in cls.__mro__[:-1]:  # everything below object
                assert "__slots__" in vars(klass), (
                    f"{cls.__name__}: {klass.__name__} lacks __slots__"
                )

    def test_device_pool_rejects_new_attributes(self):
        from repro.memory.allocator import DevicePool

        pool = DevicePool("gpu0", 1024.0)
        with pytest.raises(AttributeError):
            pool.bogus = 1
