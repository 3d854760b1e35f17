"""Shared fixtures: small models and tight-memory topologies.

Most behavioural tests use the paper's idealized setting (uniform
100 MB layers, GPUs that hold roughly one layer-level operation) so
swap behaviour is forced and assertions are exact.
"""

from __future__ import annotations

import pytest

from repro.hardware.device import DeviceKind, DeviceSpec, gtx1080ti, host_cpu
from repro.hardware.links import ethernet, pcie_gen3
from repro.hardware.presets import commodity_server
from repro.hardware.topology import Topology
from repro.models import zoo
from repro.schedulers.base import BatchConfig
from repro.sim.executor import ExecOptions, Executor
from repro.units import GB, MB, TFLOP


def tight_gpu(name: str, capacity=420 * MB) -> DeviceSpec:
    """A GPU sized to hold exactly one uniform layer's largest working
    set (the update phase: 100 MB W + 100 MB dW + 200 MB K)."""
    return DeviceSpec(name, DeviceKind.GPU, capacity, 4.5 * TFLOP)


def tight_server(num_gpus: int, capacity=420 * MB):
    return commodity_server(
        num_gpus=num_gpus,
        gpu_factory=lambda n: tight_gpu(n, capacity),
        name=f"tight-{num_gpus}",
    )


def roomy_server(num_gpus: int):
    """A server whose GPUs hold the whole uniform model comfortably."""
    return commodity_server(
        num_gpus=num_gpus,
        gpu_factory=lambda n: DeviceSpec(n, DeviceKind.GPU, 4_000 * MB, 4.5 * TFLOP),
        name=f"roomy-{num_gpus}",
    )


def tiny_host_cluster(cpu0_bytes=0.05 * GB):
    """Two servers of two 1080Ti GPUs over Ethernet whose first host
    has only ``cpu0_bytes`` of DRAM: write-backs outgrow it, and with
    remote swap they spill to the neighbour's host."""
    topo = Topology(name="tiny-host")
    net = topo.add_switch("netswitch")
    for s, hostmem in ((0, cpu0_bytes), (1, 512 * GB)):
        topo.add_device(host_cpu(f"cpu{s}", memory_bytes=hostmem))
        sw = topo.add_switch(f"s{s}switch")
        topo.add_link(pcie_gen3(f"uplink{s}"), sw, f"cpu{s}")
        topo.add_link(ethernet(f"net{s}"), f"cpu{s}", net)
        for g in range(2):
            gpu = topo.add_device(gtx1080ti(f"s{s}g{g}"))
            topo.add_link(pcie_gen3(f"pcie-s{s}g{g}"), gpu.name, sw)
    topo.validate()
    return topo


@pytest.fixture
def uniform_model():
    return zoo.synthetic_uniform(
        num_layers=4, param_bytes_per_layer=100 * MB, activation_bytes=25 * MB
    )


@pytest.fixture
def tight_topo2():
    return tight_server(2)


@pytest.fixture
def tight_topo1():
    return tight_server(1)


@pytest.fixture
def roomy_topo2():
    return roomy_server(2)


@pytest.fixture
def batch_1x3():
    return BatchConfig(microbatch_size=1, num_microbatches=3)


def run_plan(topology, plan, prefetch: bool = False, flush: bool = True):
    """Execute a plan and return its RunResult."""
    return Executor(
        topology, plan, options=ExecOptions(prefetch=prefetch, flush_at_end=flush)
    ).run()
