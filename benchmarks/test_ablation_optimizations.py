"""Ablations — attribute Harmony's win to each optimization (section 3).

Runs the weight-dominated workload (GPT-2 XL, whose 25 GB of training
state dwarfs each GPU's 11 GB) under Harmony-PP and Harmony-DP with one
mechanism disabled at a time.  Input-batch grouping is the dominant
lever (it is what turns per-microbatch weight swaps into per-pass
swaps); the others must never *help* when disabled.
"""

from repro.experiments import ablations

from conftest import print_table


def _by_variant(rows):
    return {r.variant: r for r in rows}


def test_ablation_harmony_pp(once):
    rows = once(ablations.run, "harmony-pp")
    print_table(ablations.table(rows, title="ablations: harmony-pp, GPT-2 XL"))
    by = _by_variant(rows)
    full = by["full harmony"]
    assert by["no grouping"].throughput < full.throughput
    assert by["no grouping"].host_traffic_bytes > full.host_traffic_bytes
    assert by["no p2p"].p2p_bytes == 0
    assert by["no p2p"].host_traffic_bytes >= full.host_traffic_bytes
    assert by["no dirty-bit tracking"].host_traffic_bytes >= full.host_traffic_bytes


def test_ablation_harmony_dp(once):
    rows = once(ablations.run, "harmony-dp")
    print_table(ablations.table(rows, title="ablations: harmony-dp, GPT-2 XL"))
    by = _by_variant(rows)
    full = by["full harmony"]
    assert by["no grouping"].host_traffic_bytes > full.host_traffic_bytes
    # JIT updates avoid re-fetching W/dW after the full backward pass.
    assert by["no jit update"].host_traffic_bytes >= full.host_traffic_bytes


def test_ablation_eviction_policies(once):
    """Victim-selection policy ablation: LRU (the reference swappers),
    largest-first, and vDNN-style activations-first.  Preferentially
    offloading feature maps keeps weights hot, cutting weight traffic."""
    from repro.memory.policy import MemoryPolicy
    from repro.models.transformer import bert_large
    from repro.hardware import presets
    from repro.schedulers.base import BatchConfig
    from repro.schedulers import DataParallelBaseline
    from repro.sim.executor import Executor
    from repro.tensors.tensor import TensorKind
    from repro.units import GB
    from repro.util.tables import Table

    model = bert_large(seq_len=512)

    def run_all():
        out = {}
        for eviction in ("lru", "largest_first", "activations_first"):
            topo = presets.gtx1080ti_server(1)
            policy = MemoryPolicy(
                track_clean=False, p2p_enabled=False, eviction=eviction
            )
            plan = DataParallelBaseline(
                model, topo, BatchConfig(8, 1), num_replicas=1,
                policy=policy,
            ).plan()
            out[eviction] = Executor(topo, plan).run()
        return out

    results = once(run_all)
    table = Table(
        ["eviction", "samples/s", "W traffic (GB)", "host traffic (GB)"],
        title="eviction-policy ablation (BERT, single virtualized GPU)",
    )
    for eviction, result in results.items():
        table.add_row(
            [
                eviction,
                f"{result.throughput:.2f}",
                f"{result.stats.kind_swap_volume(TensorKind.WEIGHT) / GB:.2f}",
                f"{result.host_traffic / GB:.1f}",
            ]
        )
    print_table(table)
    assert results["activations_first"].stats.kind_swap_volume(
        TensorKind.WEIGHT
    ) <= results["lru"].stats.kind_swap_volume(TensorKind.WEIGHT)
