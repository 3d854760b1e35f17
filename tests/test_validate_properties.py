"""Property-based audit coverage (hypothesis).

Two directions:

* soundness of the simulator — any workload our schedulers accept
  produces a run that passes every physical-consistency invariant;
* sensitivity of the auditor — randomly corrupting a valid trace's
  compute timing is always detected (no silent acceptance).
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BatchConfig, HarmonyConfig, HarmonySession
from repro.errors import ReproError
from repro.models import zoo
from repro.schedulers import scheme_names
from repro.units import MB
from repro.validate import audit_run

from tests.conftest import tight_server

# The full scheduler registry: hypothesis samples every registered
# scheme, so new schedulers inherit the soundness property for free.
_SCHEMES = scheme_names()


def _run(num_layers, num_microbatches, num_gpus, scheme, capacity):
    model = zoo.synthetic_uniform(
        num_layers=num_layers, param_bytes_per_layer=100 * MB,
        activation_bytes=25 * MB,
    )
    topo = tight_server(num_gpus, capacity)
    session = HarmonySession(
        model, topo, HarmonyConfig(scheme, batch=BatchConfig(1, num_microbatches))
    )
    return session.run(), topo, session.plan()


@given(
    num_layers=st.integers(min_value=1, max_value=6),
    num_microbatches=st.integers(min_value=1, max_value=4),
    num_gpus=st.integers(min_value=1, max_value=3),
    scheme=st.sampled_from(_SCHEMES),
    capacity_mb=st.sampled_from([450, 550, 800, 4000]),
)
@settings(max_examples=40, deadline=None)
def test_any_accepted_workload_audits_clean(
    num_layers, num_microbatches, num_gpus, scheme, capacity_mb
):
    try:
        result, topo, plan = _run(
            num_layers, num_microbatches, num_gpus, scheme, capacity_mb * MB
        )
    except ReproError:
        return  # infeasible configuration (e.g. capacity too small)
    report = audit_run(result, topo, plan)
    assert report.passed, report.render()


@given(
    event_pick=st.integers(min_value=0, max_value=10_000),
    shift_frac=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=25, deadline=None)
def test_conflicting_compute_shift_never_goes_unnoticed(event_pick, shift_frac):
    """Dragging a compute event back past a conflict point — the end of
    the previous compute on its device, or of its latest dependency —
    always breaks at least one invariant.  (A shift into an *idle,
    dependency-free* gap is physically plausible and rightly passes, so
    the corruption here is constructed to genuinely conflict.)"""
    result, topo, plan = _run(4, 2, 2, "harmony-pp", 550 * MB)
    events = result.trace.events
    tasks = {task.label: task for task in plan.graph}

    def conflict_floor(idx):
        e = events[idx]
        prev_end = max(
            (o.end for o in events
             if o.category == "compute" and o.device == e.device
             and (o.start, o.end) < (e.start, e.end)),
            default=0.0,
        )
        dep_end = 0.0
        for dep_tid in tasks[e.label].deps:
            dep_label = plan.graph.task(dep_tid).label
            dep_end = max(
                dep_end,
                max((o.end for o in events if o.label == dep_label), default=0.0),
            )
        return max(prev_end, dep_end)

    compute = [
        i for i, e in enumerate(events)
        if e.category == "compute" and conflict_floor(i) > 1e-6
    ]
    idx = compute[event_pick % len(compute)]
    original = events[idx]
    events[idx] = original._replace(start=conflict_floor(idx) * (1 - shift_frac))
    report = audit_run(result, topo, plan)
    assert not report.passed


@given(scale=st.floats(min_value=1.5, max_value=100.0))
@settings(max_examples=10, deadline=None)
def test_inflated_ledger_never_goes_unnoticed(scale):
    """Multiplying one swap event's bytes breaks conservation against
    the (untouched) stats ledger."""
    result, topo, plan = _run(4, 2, 2, "harmony-pp", 550 * MB)
    events = result.trace.events
    idx = next(
        i for i, e in enumerate(events)
        if e.category in ("swap_in", "swap_out") and e.nbytes > 0
    )
    events[idx] = events[idx]._replace(nbytes=events[idx].nbytes * scale)
    report = audit_run(result, topo, plan)
    assert not report.passed
