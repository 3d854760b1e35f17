"""Ablations: attribute Harmony's win to its individual mechanisms.

The paper's §3 lists four optimizations (input-batch grouping,
just-in-time scheduling, p2p transfers, task packing) plus the memory
manager's dirty-bit tracking.  Each ablation disables exactly one
mechanism on a weight-dominated workload (model state >> per-GPU
memory, the regime the paper targets) and reports the throughput and
swap-volume cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import HarmonyConfig
from repro.errors import CapacityError
from repro.core.session import HarmonySession
from repro.hardware import presets
from repro.hardware.topology import Topology
from repro.models.graph import ModelGraph
from repro.models.transformer import gpt2_xl
from repro.schedulers.base import BatchConfig
from repro.schedulers.options import HarmonyOptions
from repro.units import GB
from repro.util.tables import Table


@dataclass(frozen=True)
class AblationRow:
    variant: str
    throughput: float
    swap_out_bytes: float
    host_traffic_bytes: float
    p2p_bytes: float
    feasible: bool = True


def default_workload() -> tuple[ModelGraph, Topology, BatchConfig]:
    """GPT-2 XL on the 4x 1080Ti server: 25 GB of training state vs
    11 GB per GPU — weights must swap, the regime of the paper's
    analytical comparison."""
    return (
        gpt2_xl(seq_len=1024),
        presets.gtx1080ti_server(num_gpus=4),
        BatchConfig(microbatch_size=1, num_microbatches=4),
    )


def _variants() -> list[tuple[str, HarmonyOptions]]:
    full = HarmonyOptions()
    rows = [
        ("full harmony", full),
        ("no grouping", HarmonyOptions(grouping=False)),
        ("no jit update", HarmonyOptions(jit_update=False)),
        ("no p2p", HarmonyOptions(p2p=False)),
        ("no dirty-bit tracking", HarmonyOptions(track_clean=False)),
        ("pack=2", HarmonyOptions(pack_size=2)),
        ("pack=4", HarmonyOptions(pack_size=4)),
    ]
    return rows


def run(
    parallelism: str = "harmony-pp",
    model: ModelGraph | None = None,
    topology: Topology | None = None,
    batch: BatchConfig | None = None,
) -> list[AblationRow]:
    if model is None or topology is None or batch is None:
        default_model, default_topo, default_batch = default_workload()
        model = model if model is not None else default_model
        topology = topology if topology is not None else default_topo
        batch = batch if batch is not None else default_batch
    rows = []
    for label, options in _variants():
        session = HarmonySession(
            model,
            topology,
            HarmonyConfig(parallelism=parallelism, batch=batch, options=options),
        )
        try:
            result = session.run()
        except CapacityError:
            # A coarser pack can exceed device memory on tight
            # configurations — that infeasibility is itself a data point
            # of the memory-performance tango.
            rows.append(
                AblationRow(
                    variant=label, throughput=0.0, swap_out_bytes=0.0,
                    host_traffic_bytes=0.0, p2p_bytes=0.0, feasible=False,
                )
            )
            continue
        rows.append(
            AblationRow(
                variant=label,
                throughput=result.throughput,
                swap_out_bytes=result.swap_out_volume,
                host_traffic_bytes=result.host_traffic,
                p2p_bytes=result.stats.p2p_volume(),
            )
        )
    return rows


def table(rows: list[AblationRow] | None = None, title: str | None = None) -> Table:
    rows = rows if rows is not None else run()
    out = Table(
        ["variant", "samples/s", "swap-out (GB)", "host traffic (GB)", "p2p (GB)"],
        title=title or "Harmony optimization ablations (GPT-2 XL, 4x 1080Ti)",
    )
    for row in rows:
        out.add_row(
            [
                row.variant if row.feasible else f"{row.variant} (infeasible)",
                f"{row.throughput:.3f}",
                f"{row.swap_out_bytes / GB:.1f}",
                f"{row.host_traffic_bytes / GB:.1f}",
                f"{row.p2p_bytes / GB:.1f}",
            ]
        )
    return out
