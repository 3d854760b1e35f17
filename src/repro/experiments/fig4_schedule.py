"""Fig. 4: Harmony-PP on the paper's toy example.

"A simplified example of training a four-layer 'large' model on two
GPUs with virtualized pipeline parallelism in Harmony (assumes
layer-level granularity and layer runtimes are uniform)" — two
microbatches, layers placed L1/L3 on GPU 1 and L2/L4 on GPU 2, each
layer's forward and backward run on both microbatches back-to-back,
boundary tensors travel p2p, and each layer's update runs jit after
its backward group.

This driver builds exactly that configuration, runs it, and exposes
both the per-GPU compute sequences (for structural assertions) and an
ASCII timeline (the figure itself).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import HarmonyConfig
from repro.core.session import HarmonySession
from repro.hardware import presets
from repro.hardware.device import DeviceKind, DeviceSpec
from repro.models import zoo
from repro.schedulers.base import BatchConfig
from repro.schedulers.options import HarmonyOptions
from repro.sim.result import RunResult
from repro.sim.trace import render_timeline
from repro.units import MB, TFLOP


@dataclass
class ScheduleExample:
    result: RunResult
    sequences: dict[str, list[str]]
    timeline: str
    session: HarmonySession


def run(
    num_layers: int = 4,
    num_gpus: int = 2,
    num_microbatches: int = 2,
    param_bytes_per_layer: float = 100 * MB,
    capacity_bytes: float = 550 * MB,
) -> ScheduleExample:
    """The Fig. 4 setting: a 'large' model (4 layers x 100 MB weights +
    optimizer state ~= 1.6 GB of training state) on two small GPUs
    whose capacity holds roughly one layer's working set."""
    model = zoo.synthetic_uniform(
        num_layers=num_layers,
        param_bytes_per_layer=param_bytes_per_layer,
        activation_bytes=25 * MB,
    )
    topology = presets.commodity_server(
        num_gpus=num_gpus,
        gpu_factory=lambda name: DeviceSpec(
            name, DeviceKind.GPU, capacity_bytes, 4.5 * TFLOP
        ),
    )
    config = HarmonyConfig(
        parallelism="harmony-pp",
        batch=BatchConfig(microbatch_size=1, num_microbatches=num_microbatches),
        options=HarmonyOptions(),  # grouping + jit + p2p, layer granularity
    )
    session = HarmonySession(model, topology, config)
    result = session.run()
    sequences = {
        device: result.trace.compute_sequence(device)
        for device in sorted(result.devices)
    }
    return ScheduleExample(
        result=result,
        sequences=sequences,
        timeline=render_timeline(result.trace, width=100),
        session=session,
    )


def describe(example: ScheduleExample | None = None) -> str:
    example = example if example is not None else run()
    lines = ["Fig. 4: Harmony-PP schedule (4 layers, 2 GPUs, 2 microbatches)", ""]
    for device, sequence in example.sequences.items():
        lines.append(f"{device}: " + " -> ".join(sequence))
    lines.append("")
    lines.append(example.timeline)
    return "\n".join(lines)
