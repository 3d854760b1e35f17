"""Steady-state methodology validation + CPU-offloaded optimizer bench.

* Multi-iteration replay vs the 1-iteration + flush accounting the rest
  of the suite uses: the two must agree on per-iteration weight volume.
* ZeRO-Offload-style CPU optimizer (paper-cited): Adam moments never
  cross the swap link; measures the throughput and traffic effect on
  the weight-dominated GPT-2 XL workload.
"""

import pytest

from repro import BatchConfig, HarmonyConfig, HarmonyOptions, HarmonySession
from repro.hardware import presets
from repro.memory.policy import MemoryPolicy
from repro.models import zoo
from repro.models.transformer import gpt2_xl
from repro.schedulers.base import BatchConfig as BC
from repro.schedulers import DataParallelBaseline
from repro.sim.executor import ExecOptions, Executor
from repro.tensors.tensor import TensorKind
from repro.units import GB, MB

from conftest import print_table
from repro.util.tables import Table
from repro.hardware.device import DeviceKind, DeviceSpec
from repro.hardware.presets import commodity_server


def _tight(num_gpus, capacity):
    return commodity_server(
        num_gpus=num_gpus,
        gpu_factory=lambda n: DeviceSpec(n, DeviceKind.GPU, capacity, 4.5e12),
        name="tight",
    )


def test_steady_state_validation(once):
    model = zoo.synthetic_uniform(
        num_layers=4, param_bytes_per_layer=100 * MB, activation_bytes=25 * MB
    )

    def measure():
        rows = []
        for iters in (1, 2, 4, 8):
            topo = _tight(1, 420 * MB)
            plan = DataParallelBaseline(
                model, topo, BC(1, 2), num_replicas=1,
                policy=MemoryPolicy.paper_baseline(),
            ).plan()
            result = Executor(
                topo, plan,
                options=ExecOptions(iterations=iters, flush_at_end=False),
            ).run()
            rows.append((iters, result.stats.kind_swap_volume(TensorKind.WEIGHT)))
        topo = _tight(1, 420 * MB)
        plan = DataParallelBaseline(
            model, topo, BC(1, 2), num_replicas=1,
            policy=MemoryPolicy.paper_baseline(),
        ).plan()
        flushed = Executor(topo, plan).run()
        return rows, flushed.stats.kind_swap_volume(TensorKind.WEIGHT)

    rows, flush_volume = once(measure)
    table = Table(
        ["iterations", "weight volume (GB)", "per-iter marginal (GB)"],
        title="steady state: replay vs 1-iteration + flush accounting",
    )
    marginals = []
    prev_iters, prev_volume = 0, 0.0
    for iters, volume in rows:
        marginal = (volume - prev_volume) / (iters - prev_iters)
        marginals.append(marginal)
        table.add_row([iters, f"{volume / GB:.2f}", f"{marginal / GB:.2f}"])
        prev_iters, prev_volume = iters, volume
    table.add_row(["1 + flush", f"{flush_volume / GB:.2f}", "-"])
    print_table(table)
    # Marginal (steady-state) volume equals the flush-model number.
    assert marginals[-1] == pytest.approx(flush_volume, rel=1e-6)


def test_optimizer_placement(once):
    """Three placements of the Adam state for GPT-2 XL, all paper-cited:
    on-GPU (swapped like everything else), CPU-offloaded (ZeRO-Offload:
    zero K traffic), and sharded across replicas (ZeRO stage-1: K
    traffic divided N ways at the cost of weight all-gathers)."""
    model = gpt2_xl(seq_len=1024)
    topology = presets.gtx1080ti_server(4)

    def run_all():
        out = {}
        cases = [
            ("pp / gpu optimizer", "harmony-pp", HarmonyOptions()),
            ("pp / cpu optimizer", "harmony-pp",
             HarmonyOptions(cpu_optimizer=True)),
            ("dp / gpu optimizer", "harmony-dp", HarmonyOptions()),
            ("dp / zero-1 sharded", "harmony-dp",
             HarmonyOptions(zero_optimizer=True)),
        ]
        for label, mode, opts in cases:
            session = HarmonySession(
                model, topology,
                HarmonyConfig(mode, batch=BatchConfig(1, 2), options=opts),
            )
            out[label] = session.run()
        return out

    results = once(run_all)
    table = Table(
        ["variant", "samples/s", "host traffic (GB)", "K traffic (GB)"],
        title="optimizer placement (GPT-2 XL, 4x 1080Ti)",
    )
    for label, result in results.items():
        table.add_row(
            [
                label,
                f"{result.throughput:.3f}",
                f"{result.host_traffic / GB:.1f}",
                f"{result.stats.kind_swap_volume(TensorKind.OPT_STATE) / GB:.1f}",
            ]
        )
    print_table(table)
    assert results["pp / cpu optimizer"].stats.kind_swap_volume(
        TensorKind.OPT_STATE
    ) == 0
    assert results["pp / cpu optimizer"].throughput > results[
        "pp / gpu optimizer"
    ].throughput
    k_plain = results["dp / gpu optimizer"].stats.kind_swap_volume(
        TensorKind.OPT_STATE
    )
    k_zero = results["dp / zero-1 sharded"].stats.kind_swap_volume(
        TensorKind.OPT_STATE
    )
    assert k_zero < 0.5 * k_plain
    assert results["dp / zero-1 sharded"].throughput > results[
        "dp / gpu optimizer"
    ].throughput
