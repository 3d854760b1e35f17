"""A finished run leaves no cyclic garbage.

Every simulated run builds an executor, a memory manager, an event
calendar and thousands of callbacks around a fleet-sized plan.  Once
the caller drops the session and the result, reference counting alone
must free all of it: a single reference cycle anywhere in that graph
(a closure that is its own continuation, a clock that points back at
the executor, a daemon event left queued on a dead engine) keeps the
whole run alive until a full cyclic collection, which every run then
pays for.  Each test runs a scenario once to warm lazy imports and
caches, then again with the collector off, drops everything, and
requires ``gc.collect()`` to find nothing.
"""

from __future__ import annotations

import gc

import pytest

from repro import BatchConfig, HarmonyConfig, HarmonySession
from repro.faults import (
    DeviceLoss,
    FaultPlan,
    ResiliencePolicy,
    TransientTransferError,
)
from repro.faults.detection import DetectorConfig
from repro.hardware import presets
from repro.models import zoo
from repro.perf.incremental import CheckpointStore
from repro.schedulers import SCHEDULER_REGISTRY

from tests.conftest import tight_server


def cyclic_garbage(scenario) -> int:
    """Objects only the cyclic collector can free once ``scenario()``
    has returned and dropped everything it made."""
    scenario()  # warm-up: first-use imports and shared caches
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        scenario()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(scope="module")
def model():
    return zoo.synthetic_uniform(num_layers=4)


@pytest.mark.parametrize("iterations", [1, 4])
@pytest.mark.parametrize("scheme", sorted(SCHEDULER_REGISTRY))
def test_healthy_run_leaves_no_cycles(model, scheme, iterations):
    topology = presets.gtx1080ti_server(num_gpus=4)
    config = HarmonyConfig(
        scheme, batch=BatchConfig(1, 2), iterations=iterations, audit=True
    )

    def scenario():
        session = HarmonySession(model, topology, config)
        assert session.run().samples > 0

    assert cyclic_garbage(scenario) == 0


def test_prefix_restore_leaves_no_cycles(model):
    topology = presets.gtx1080ti_server(num_gpus=2)
    config = HarmonyConfig(
        "harmony-pp", batch=BatchConfig(1, 2), iterations=6,
        steady_state="off",
    )
    store = CheckpointStore()
    HarmonySession(model, topology, config, checkpoints=store).run()

    def scenario():
        hits = store.hits
        HarmonySession(model, topology, config, checkpoints=store).run()
        assert store.hits == hits + 1  # resumed from a stored boundary

    assert cyclic_garbage(scenario) == 0


def test_resilient_run_with_device_loss_leaves_no_cycles(model):
    server = tight_server(2, capacity=900 * 1024 * 1024)
    iter_time = HarmonySession(
        model, server, HarmonyConfig("harmony-dp")
    ).run().makespan
    plan = FaultPlan(seed=5, faults=(
        DeviceLoss("gpu1", at=1.5 * iter_time),
        TransientTransferError(probability=0.2),
    ))
    config = HarmonyConfig(
        "harmony-dp", iterations=3, audit=True, faults=plan,
        resilience=ResiliencePolicy(detection=DetectorConfig()),
    )

    def scenario():
        report = HarmonySession(model, server, config).run().faults
        # The loss aborted a segment mid-flight and was detected from
        # missed heartbeats.
        assert report.recovered and report.replans == 1
        assert any(s.aborted for s in report.segments)
        assert report.retry_events > 0

    assert cyclic_garbage(scenario) == 0
