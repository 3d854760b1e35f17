"""Result pins: one digest per simulated case, tied to ``SCHEDULER_VERSION``.

A change that moves a simulated result must also bump
:data:`repro.perf.fingerprint.SCHEDULER_VERSION`, or the run cache and
the prefix checkpoints serve stale results.  ``tests/result_pins.json``
records, at one version, a sha256 per case over what the case's run
computed: makespan, samples, the expanded trace, the swap and retry
ledgers, ``link_busy``, the ``DeviceReport``s, ``memory_profile`` and,
for a fault-injected run, the ``FaultReport``'s scalars, losses,
incidents and segment timings.  The run's label and its ``Plan`` and
``Topology`` objects are inputs, not results, and are left out.
``tests/test_result_pins.py`` fails, naming the case, when a digest
moves while the version stays.

The cases, each audited, are the registry grid (every scheme x
lenet/bert-large/gpt2 x (m, iterations) in {(2, 1), (2, 3), (4, 1)})
and one case per knob that shapes a result.  After a deliberate
change of results, bump the version and re-record::

    PYTHONPATH=src python -m tests.result_pins

Re-recording under the recorded version only adds missing cases; it
refuses to overwrite a digest that moved.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable

from repro import BatchConfig, HarmonyConfig, HarmonySession
from repro.errors import CapacityError
from repro.faults import (
    DetectorConfig,
    DeviceLoss,
    DeviceReturn,
    FaultPlan,
    ResiliencePolicy,
    SpareDevice,
    TransientTransferError,
    detector_names,
    recovery_names,
)
from repro.hardware import presets
from repro.memory.policy import MemoryPolicy
from repro.models import zoo
from repro.perf.fingerprint import SCHEDULER_VERSION
from repro.schedulers import (
    DappleScheduler,
    DataParallelBaseline,
    HarmonyOptions,
    PipelineBaseline,
    scheme_names,
)
from repro.sim.executor import ExecOptions, Executor
from repro.units import GB, MB

from tests.conftest import tight_server, tiny_host_cluster

PINS_FILE = Path(__file__).with_name("result_pins.json")

GRID_MODELS = ("lenet", "bert-large", "gpt2")
HARMONY_SCHEMES = ("harmony-dp", "harmony-pp", "harmony-tp")


# -- what a run computed ------------------------------------------------------


def _ledger(ledger: dict) -> list:
    # Recording order is not a result; per-key values are.
    return sorted(ledger.items(), key=lambda item: repr(item[0]))


def outputs(result) -> tuple:
    """The simulated outputs of one run, in a repr-stable form."""
    stats = result.stats
    doc = (
        result.makespan,
        result.samples,
        [tuple(event) for event in result.trace.iter_events()],
        [_ledger(ledger) for ledger in stats._ledgers()],
        sorted(result.link_busy.items()),
        sorted(result.devices.items()),
        sorted(result.memory_profile.items()),
    )
    report = result.faults
    if report is None:
        return doc
    scalars = [
        (f.name, getattr(report, f.name))
        for f in dataclasses.fields(report)
        if f.name not in ("plan", "policy", "segments")
    ]
    segments = [
        (s.index, s.iteration, s.started_at, s.duration, s.aborted,
         s.lost_device)
        for s in report.segments
    ]
    return doc + (scalars, segments)


def digest(outcome) -> str:
    """sha256 of a run's outputs, or of the error an infeasible case
    raised (which is a result too)."""
    if isinstance(outcome, CapacityError):
        text = f"{type(outcome).__name__}: {outcome}"
    else:
        text = repr(outputs(outcome))
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(name: str):
    """Run one case; an infeasible one returns its ``CapacityError``."""
    try:
        return CASES[name]()
    except CapacityError as exc:
        return exc


# -- the cases ------------------------------------------------------------------


@functools.cache
def _model(name: str):
    return zoo.build(name)


def _fig4_model():
    """The paper's Fig. 4 workload: 4 uniform 100 MB layers."""
    return zoo.synthetic_uniform(
        num_layers=4, param_bytes_per_layer=100 * MB, activation_bytes=25 * MB
    )


def _session(model, topology, scheme: str, **config):
    config = HarmonyConfig(scheme, audit=True, **config)
    return HarmonySession(model, topology, config).run()


def _executor(topology, plan):
    return Executor(topology, plan, options=ExecOptions(audit=True)).run()


CASES: dict[str, Callable] = {}


def _case(name: str, run: Callable) -> None:
    assert name not in CASES, name
    CASES[name] = run


# The registry grid on the paper's four-GPU server.  Three iterations
# run at m=2 only: at m=4 they would double the grid's time.
for _name in GRID_MODELS:
    for _scheme in scheme_names():
        for _m, _iters in ((2, 1), (2, 3), (4, 1)):
            _case(
                f"grid/{_name}/{_scheme}/m={_m}/it={_iters}",
                lambda n=_name, s=_scheme, m=_m, i=_iters: _session(
                    _model(n), presets.gtx1080ti_server(4), s,
                    batch=BatchConfig(1, m), iterations=i,
                ),
            )

# Every scheme under memory pressure (the Fig. 4 setting, m=3).
for _scheme in scheme_names():
    _case(
        f"fig4/{_scheme}/m=3",
        lambda s=_scheme: _session(
            _fig4_model(), tight_server(2, 550 * MB), s, batch=BatchConfig(1, 3)
        ),
    )

# Input-batch grouping and just-in-time updates, each off and both off,
# for every Harmony scheme: under pressure and on a real model.
_ORDER_KNOBS = {
    "no-grouping": HarmonyOptions(grouping=False),
    "no-jit": HarmonyOptions(jit_update=False),
    "no-grouping-no-jit": HarmonyOptions(grouping=False, jit_update=False),
}
for _scheme in HARMONY_SCHEMES:
    for _knob, _options in _ORDER_KNOBS.items():
        _case(
            f"fig4/{_scheme}/{_knob}",
            lambda s=_scheme, o=_options: _session(
                _fig4_model(), tight_server(2, 550 * MB), s,
                batch=BatchConfig(1, 3), options=o,
            ),
        )
        _case(
            f"bert-large/{_scheme}/{_knob}",
            lambda s=_scheme, o=_options: _session(
                _model("bert-large"), presets.gtx1080ti_server(4), s,
                batch=BatchConfig(1, 3), options=o,
            ),
        )

# Optimizer placement, recompute and packing, alone and with the
# deferred (non-JIT) and ungrouped orders they change.
_HARMONY_KNOBS = {
    "harmony-dp": {
        "zero": HarmonyOptions(zero_optimizer=True),
        "zero-no-jit": HarmonyOptions(zero_optimizer=True, jit_update=False),
        "cpu-optimizer": HarmonyOptions(cpu_optimizer=True),
        "cpu-optimizer-no-jit": HarmonyOptions(
            cpu_optimizer=True, jit_update=False
        ),
        "cpu-optimizer-no-grouping": HarmonyOptions(
            cpu_optimizer=True, grouping=False
        ),
        "recompute": HarmonyOptions(recompute=True),
        "pack-2": HarmonyOptions(pack_size=2),
        "pack-bwd-2": HarmonyOptions(pack_size_bwd=2),
        "pack-3-bwd-2-no-grouping": HarmonyOptions(
            pack_size=3, pack_size_bwd=2, grouping=False
        ),
    },
    "harmony-pp": {
        "cpu-optimizer": HarmonyOptions(cpu_optimizer=True),
        "cpu-optimizer-no-jit": HarmonyOptions(
            cpu_optimizer=True, jit_update=False
        ),
        "cpu-optimizer-no-grouping": HarmonyOptions(
            cpu_optimizer=True, grouping=False
        ),
        "recompute": HarmonyOptions(recompute=True),
        "pack-2": HarmonyOptions(pack_size=2),
    },
}
for _scheme, _knobs in _HARMONY_KNOBS.items():
    for _knob, _options in _knobs.items():
        _case(
            f"fig4/{_scheme}/{_knob}",
            lambda s=_scheme, o=_options: _session(
                _fig4_model(), tight_server(2, 550 * MB), s,
                batch=BatchConfig(1, 3), options=o,
            ),
        )
        _case(
            f"bert-large/{_scheme}/{_knob}",
            lambda s=_scheme, o=_options: _session(
                _model("bert-large"), presets.gtx1080ti_server(4), s,
                batch=BatchConfig(1, 2), options=o,
            ),
        )

# Memory-policy fields.
for _knob, _options in {
    "no-track-clean": HarmonyOptions(track_clean=False),
    "no-p2p": HarmonyOptions(p2p=False),
    "swap-to-peer": HarmonyOptions(swap_to_peer=True),
}.items():
    _case(
        f"fig4/harmony-pp/{_knob}",
        lambda o=_options: _session(
            _fig4_model(), tight_server(2, 550 * MB), "harmony-pp",
            batch=BatchConfig(1, 3), options=o,
        ),
    )
for _eviction in ("largest_first", "activations_first"):
    _case(
        f"fig4/dp-baseline/eviction={_eviction}",
        lambda e=_eviction: _executor(
            tight_server(2, 550 * MB),
            DataParallelBaseline(
                _fig4_model(), tight_server(2, 550 * MB), BatchConfig(1, 3),
                policy=dataclasses.replace(MemoryPolicy.baseline(), eviction=e),
            ).plan(),
        ),
    )
_case(
    "fig4/dp-baseline/paper-baseline",
    lambda: _executor(
        tight_server(2, 550 * MB),
        DataParallelBaseline(
            _fig4_model(), tight_server(2, 550 * MB), BatchConfig(1, 3),
            policy=MemoryPolicy.paper_baseline(),
        ).plan(),
    ),
)
_case(
    "fig4/harmony-pp/prefetch",
    lambda: _session(
        _fig4_model(), tight_server(2, 550 * MB), "harmony-pp",
        batch=BatchConfig(1, 3), prefetch=True,
    ),
)

# The pipeline baseline's other schedule and balance objective.
for _knob, _kwargs in {
    "gpipe": {"schedule": "gpipe"},
    "balance-memory": {"balance": "memory"},
}.items():
    for _name in ("bert-large", "gpt2"):
        _case(
            f"{_name}/pp-baseline/{_knob}",
            lambda n=_name, kw=_kwargs: _executor(
                presets.gtx1080ti_server(4),
                PipelineBaseline(
                    _model(n), presets.gtx1080ti_server(4), BatchConfig(1, 6),
                    **kw,
                ).plan(),
            ),
        )

# DAPPLE's hybrid layout: one and two pipelines on eight GPUs.
for _pipelines in (1, 2):
    _case(
        f"bert-large/dapple/R={_pipelines}/gpus=8",
        lambda r=_pipelines: _executor(
            presets.gtx1080ti_server(8),
            DappleScheduler(
                _model("bert-large"), presets.gtx1080ti_server(8),
                BatchConfig(1, 4), num_pipelines=r,
            ).plan(),
        ),
    )


# Rack-scale topologies: remote swap, a rack cluster, the bench fleet.
_case(
    "remote-swap/harmony-dp/it=12",
    lambda: _session(
        zoo.synthetic_uniform(
            num_layers=8, param_bytes_per_layer=2e9, activation_bytes=500 * MB
        ),
        tiny_host_cluster(cpu0_bytes=8 * GB), "harmony-dp",
        batch=BatchConfig(1, 2),
        options=HarmonyOptions(remote_swap=True), iterations=12,
    ),
)
for _scheme in ("harmony-dp", "dp-baseline"):
    _case(
        f"rack-cluster/{_scheme}",
        lambda s=_scheme: _session(
            _model("bert-large"), presets.rack_cluster(2, 2), s,
            batch=BatchConfig(1, 2),
        ),
    )


def _bench_fleet():
    from repro.perf.bench import _fleet_workload

    model, topology, config = _fleet_workload(64)
    return HarmonySession(model, topology, config).run()


_case("bench-fleet/gpus=64", _bench_fleet)

# Steady-state fast-forward over twelve iterations.
for _mode in ("auto", "off"):
    _case(
        f"fig4/harmony-pp/it=12/steady={_mode}",
        lambda mode=_mode: _session(
            _fig4_model(), tight_server(2, 550 * MB), "harmony-pp",
            batch=BatchConfig(1, 2), iterations=12, steady_state=mode,
        ),
    )


def _resilient(scheme: str, recovery: str, detector: str):
    """Four iterations with one loss, a return inside the grace window,
    a cold spare and transient transfer errors."""
    model = zoo.synthetic_uniform(num_layers=4)
    server = tight_server(2, capacity=900 * MB)
    t_iter = _session(model, server, scheme).makespan
    plan = FaultPlan(seed=5, faults=(
        DeviceLoss("gpu0", at=1.5 * t_iter),
        DeviceReturn("gpu0", at=2.25 * t_iter),
        SpareDevice("spare0"),
        TransientTransferError(0.02),
    ))
    policy = dataclasses.replace(
        ResiliencePolicy.for_scheme(scheme), recovery=recovery,
        detection=DetectorConfig(kind=detector), grace_window=2.0 * t_iter,
        spare_attach_seconds=0.05 * t_iter,
    )
    return _session(
        model, server, scheme, faults=plan, resilience=policy, iterations=4
    )


for _recovery in recovery_names():
    _case(
        f"faults/harmony-dp/{_recovery}/none",
        lambda r=_recovery: _resilient("harmony-dp", r, "none"),
    )
for _detector in detector_names():
    if _detector != "none":
        _case(
            f"faults/harmony-pp/restart-replan/{_detector}",
            lambda d=_detector: _resilient("harmony-pp", "restart-replan", d),
        )
_case(
    "faults/dp-baseline/restart-replan/none",
    lambda: _resilient("dp-baseline", "restart-replan", "none"),
)


# -- recording --------------------------------------------------------------------


def load() -> dict:
    with open(PINS_FILE) as fh:
        return json.load(fh)


def record() -> int:
    """Write every case's digest at the current ``SCHEDULER_VERSION``.

    Under the version the file already records, only missing cases are
    added: a digest that moved means results moved, which needs a new
    version first."""
    old = load() if PINS_FILE.exists() else {"scheduler_version": None,
                                              "digests": {}}
    same_version = old["scheduler_version"] == SCHEDULER_VERSION
    digests = {name: digest(run_case(name)) for name in CASES}
    moved = [
        name for name, value in digests.items()
        if same_version and old["digests"].get(name, value) != value
    ]
    if moved:
        print(
            f"results moved under SCHEDULER_VERSION {SCHEDULER_VERSION!r}; "
            "bump it in src/repro/perf/fingerprint.py before re-recording:",
            *moved, sep="\n  ", file=sys.stderr,
        )
        return 1
    with open(PINS_FILE, "w") as fh:
        json.dump(
            {"scheduler_version": SCHEDULER_VERSION, "digests": digests},
            fh, indent=1, sort_keys=True,
        )
        fh.write("\n")
    print(f"recorded {len(digests)} cases at {SCHEDULER_VERSION!r}")
    return 0


if __name__ == "__main__":
    sys.exit(record())
