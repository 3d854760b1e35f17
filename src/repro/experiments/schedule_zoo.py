"""Schedule zoo: per-stage memory footprint vs throughput, all schemes.

The figure behind ``python -m repro compare --schedule-zoo``: every
registered scheduler runs the same workload, and each run reports both
its throughput and the peak *activation-class* bytes resident per
device (``DeviceReport.peak_activation``).  That second axis is what
separates the pipeline schedules: GPipe-style orders stash every
in-flight microbatch, 1F1B (which is DAPPLE's early backward; the two
rows differ only with more than one DAPPLE pipeline) bounds the stash
by pipeline depth, and Harmony's interleaved placement spreads it
evenly — differences that throughput alone hides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import HarmonyConfig
from repro.errors import PoisonedSpecError, ReproError
from repro.hardware import presets
from repro.hardware.device import DeviceKind, DeviceSpec
from repro.hardware.topology import Topology
from repro.models import zoo
from repro.models.graph import ModelGraph
from repro.perf import RunSpec
from repro.schedulers import scheme_names
from repro.schedulers.base import BatchConfig
from repro.supervisor import Supervisor
from repro.units import MB, TFLOP, fmt_bytes
from repro.util.tables import Table


@dataclass(frozen=True)
class ZooRow:
    """One scheme's point in the memory-vs-throughput plane."""

    scheme: str
    feasible: bool
    reason: str = ""
    throughput: float = 0.0
    makespan: float = 0.0
    swap_out: float = 0.0
    #: device -> peak activation-class bytes resident.
    activation_peaks: dict[str, float] = field(default_factory=dict)

    @property
    def max_stage_activation(self) -> float:
        """The bottleneck stage's activation footprint."""
        return max(self.activation_peaks.values(), default=0.0)


def default_workload() -> tuple[ModelGraph, Topology, BatchConfig]:
    """The Fig. 4 grid (4 uniform layers on two tight GPUs), scaled to
    four microbatches so the pipeline schedules' in-flight behavior is
    visible."""
    model = zoo.synthetic_uniform(
        num_layers=4, param_bytes_per_layer=100 * MB, activation_bytes=25 * MB
    )
    topology = presets.commodity_server(
        num_gpus=2,
        gpu_factory=lambda name: DeviceSpec(
            name, DeviceKind.GPU, 550 * MB, 4.5 * TFLOP
        ),
    )
    return model, topology, BatchConfig(1, 4)


def run(
    model: ModelGraph | None = None,
    topology: Topology | None = None,
    batch: BatchConfig | None = None,
    schemes: tuple[str, ...] | None = None,
    jobs: int = 1,
    cache=None,
    supervisor=None,
) -> list[ZooRow]:
    """Run every scheme (default: the full registry) on one workload,
    on ``supervisor`` (default: a plain one over ``jobs`` workers and
    ``cache``).

    Infeasible scheme/workload combinations become rows with
    ``feasible=False`` rather than aborting the sweep — the zoo figure
    is a survey, not a gate.
    """
    if model is None or topology is None or batch is None:
        d_model, d_topo, d_batch = default_workload()
        model = model if model is not None else d_model
        topology = topology if topology is not None else d_topo
        batch = batch if batch is not None else d_batch
    schemes = schemes if schemes is not None else scheme_names()
    specs = [
        RunSpec(model, topology, HarmonyConfig(s, batch=batch), label=s)
        for s in schemes
    ]
    if supervisor is None:
        supervisor = Supervisor.plain(jobs, cache=cache)
    outcomes = supervisor.run_specs(specs, return_exceptions=True)
    rows: list[ZooRow] = []
    for scheme, outcome in zip(schemes, outcomes):
        if isinstance(outcome, (ReproError, PoisonedSpecError)):
            rows.append(ZooRow(scheme=scheme, feasible=False, reason=str(outcome)))
            continue
        rows.append(
            ZooRow(
                scheme=scheme,
                feasible=True,
                throughput=outcome.throughput,
                makespan=outcome.makespan,
                swap_out=outcome.swap_out_volume,
                activation_peaks=outcome.activation_peaks(),
            )
        )
    return rows


def table(rows: list[ZooRow]) -> Table:
    t = Table(
        ["scheme", "samples/s", "makespan s", "swap-out",
         "peak act (bottleneck)", "peak act per device"],
        title="schedule zoo: throughput vs per-stage activation footprint",
    )
    for row in rows:
        if not row.feasible:
            t.add_row([row.scheme, "infeasible", "-", "-", "-", row.reason])
            continue
        per_device = " ".join(
            f"{dev}:{fmt_bytes(peak)}"
            for dev, peak in row.activation_peaks.items()
        )
        t.add_row(
            [
                row.scheme,
                f"{row.throughput:.3f}",
                f"{row.makespan:.3f}",
                fmt_bytes(row.swap_out),
                fmt_bytes(row.max_stage_activation),
                per_device,
            ]
        )
    return t


def stage_memory_figure(rows: list[ZooRow], width: int = 36) -> str:
    """ASCII bars: each scheme's per-device peak activation residency,
    scaled to the zoo-wide maximum (the memory half of the figure)."""
    scale = max(
        (row.max_stage_activation for row in rows if row.feasible), default=0.0
    )
    lines = ["per-stage peak activation (scale: " + fmt_bytes(scale) + ")"]
    if scale <= 0:
        return lines[0]
    name_w = max(len(row.scheme) for row in rows)
    for row in rows:
        if not row.feasible:
            lines.append(f"{row.scheme:<{name_w}}  (infeasible)")
            continue
        for i, (dev, peak) in enumerate(row.activation_peaks.items()):
            label = row.scheme if i == 0 else ""
            bar = "#" * round(peak / scale * width)
            lines.append(
                f"{label:<{name_w}}  {dev} |{bar:<{width}}| {fmt_bytes(peak)}"
            )
    return "\n".join(lines)
