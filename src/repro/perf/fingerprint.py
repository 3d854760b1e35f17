"""Content addressing for simulation runs.

A run is fully determined by its inputs — the model graph, the server
topology, and the :class:`~repro.core.config.HarmonyConfig` — plus the
simulator's own semantics.  :func:`fingerprint` hashes a canonical form
of all four into a stable hex digest, so two specs collide exactly when
they would simulate identically:

* every dataclass field that shapes the run is included (enums by
  value, floats by ``repr`` so no precision is lost);
* derived caches and memoized attributes (leading-underscore fields,
  ``lazy_attr`` values) are excluded;
* :data:`SCHEDULER_VERSION` is mixed in as a salt — bump it whenever a
  change alters what any scheduler or the executor produces, and every
  previously cached run silently misses instead of serving stale
  results.

Anything unhashable (a user-supplied callable smuggled into a config)
raises :class:`FingerprintError`, and callers let it propagate: a
spec with no canonical form is refused before it runs, never run
uncached under a made-up key.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

from repro.core.config import HarmonyConfig
from repro.errors import ReproError
from repro.hardware.topology import Topology
from repro.models.graph import ModelGraph

#: Salt mixed into every fingerprint.  Bump on any change to scheduler,
#: decomposer, executor, memory-manager, or cost-model *semantics* (a
#: change that could alter a RunResult); pure refactors keep it.
#: 2026.08-pr5: steady-state cycle engine — multi-iteration healthy
#: runs use the rebased-clock executor path and may carry compressed
#: periodic traces, and ``HarmonyConfig.steady_state`` joined the
#: canonical form.
#: 2026.08-pr6: scheduler zoo — pipedream-1f1b and dapple joined the
#: registry, and every RunResult now carries per-device peak
#: activation-class residency (``DeviceReport.peak_activation``).
#: 2026.10-one-loop: every run takes the rebased-clock loop.  A
#: one-iteration run's ``compute_busy`` now reads the compute stream's
#: busy ledger instead of summing the trace (it moves in the last bits,
#: up to ~1e-13 relative), and every healthy RunResult carries a
#: ``SteadyReport``; results cached before this change must miss.
#: 2026.10-boundary-state: the host ledger counts live host copies only
#: (freed and reborn tensors leave it) and is part of the entry
#: fingerprint, so remote-swap runs pick other spill targets and no
#: longer fast-forward iterations the ledger tells apart; prefix
#: checkpoints hold ``Executor.boundary_state()``, a new layout.
#: Cached remote-swap results and stored checkpoints must miss.
#: 2026.10-swap-holder: a remote-swap write-back counts the tensor's
#: own copy as room on the host that keeps it, so copies stop moving
#: between hosts and remote-swap results move (the spilling run in
#: ``tests/test_fleet_scaling.py`` now reaches a steady state).
SCHEDULER_VERSION = "2026.10-swap-holder"


class FingerprintError(ReproError):
    """The spec contains something with no canonical form."""


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to JSON-serializable primitives, deterministically."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips doubles exactly; json's float formatting
        # also does, but being explicit keeps the canonical form
        # independent of the serializer.
        return ["f", repr(obj)]
    if isinstance(obj, enum.Enum):
        return ["enum", type(obj).__name__, _canonical(obj.value)]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not f.name.startswith("_")
        }
        return ["dc", type(obj).__name__, fields]
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_canonical(item) for item in obj)
    if isinstance(obj, dict):
        items = [(_canonical(k), _canonical(v)) for k, v in obj.items()]
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return ["map", items]
    raise FingerprintError(
        f"cannot canonicalize {type(obj).__name__!r} for fingerprinting"
    )


def _canonical_topology(topology: Topology) -> Any:
    """The topology's identity: nodes, link specs, and wiring.

    ``Topology`` is a dataclass, but its route/host caches and adjacency
    are derived or order-sensitive representations, so the canonical
    form is rebuilt from first principles: sorted devices, sorted
    switches, and sorted (link spec, endpoint pair) edges.
    """
    edges: dict[str, tuple[str, str]] = {}
    for node, neighbors in topology._adjacency.items():
        for neighbor, link_name in neighbors:
            edges[link_name] = tuple(sorted((node, neighbor)))
    return {
        "name": topology.name,
        "devices": [
            _canonical(topology.devices[name]) for name in sorted(topology.devices)
        ],
        "switches": sorted(topology.switches),
        "links": [
            [_canonical(topology.links[name]), list(edges.get(name, ()))]
            for name in sorted(topology.links)
        ],
    }


def canonical_spec(
    model: ModelGraph, topology: Topology, config: HarmonyConfig
) -> dict:
    """The full canonical form of one run spec (pre-hash, for tests)."""
    return {
        "version": SCHEDULER_VERSION,
        "model": _canonical(model),
        "topology": _canonical_topology(topology),
        "config": _canonical(config),
    }


def fingerprint(
    model: ModelGraph, topology: Topology, config: HarmonyConfig
) -> str:
    """Stable content address of one run spec (sha256 hex digest)."""
    blob = json.dumps(
        canonical_spec(model, topology, config),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def base_fingerprint(
    model: ModelGraph, topology: Topology, config: HarmonyConfig
) -> str:
    """The hierarchical prefix key: hash of the iteration *process*.

    Two runs share simulated-iteration prefixes exactly when they run
    the same model on the same topology under the same config *modulo
    iteration count* — iteration ``k`` of a 4-iteration run is bitwise
    identical to iteration ``k`` of a 100-iteration run, because the
    executor rebases its clock at every boundary.  So the
    prefix-checkpoint store (:mod:`repro.perf.incremental`) keys
    snapshots by this digest plus the iteration-boundary index, and
    ``iterations`` is stripped from the canonical form.

    The *resolved* steady-state mode is mixed in instead of the raw
    ``steady_state`` field: ``None`` and ``"auto"`` are the same mode
    (:func:`repro.steady.resolve_mode`) and share snapshots, and an
    ``off`` run must never restore a snapshot whose donor was detecting
    cycles (or vice versa) — the detection metadata carried by the
    snapshot differs.
    """
    from repro.steady import resolve_mode

    base_config = dataclasses.replace(config, iterations=1, steady_state=None)
    spec = canonical_spec(model, topology, base_config)
    spec["kind"] = "prefix-checkpoint"
    spec["steady_mode"] = resolve_mode(config.steady_state).value
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
