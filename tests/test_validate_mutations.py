"""Mutation tests: corrupt one aspect of a *valid* run and assert the
auditor flags exactly that violation kind.

Each test clones the honest Fig. 4-style run (harmony-pp, 4 uniform
layers, 2 tight GPUs, 2 microbatches — heavy swap traffic, p2p
boundaries, jit updates), injects a single physically-impossible edit,
and checks the audit report contains the matching
:class:`ViolationKind` and nothing else.  That "nothing else" half is
what keeps the checks orthogonal: a corruption of one invariant must
not bleed into the others.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import BatchConfig, HarmonyConfig, HarmonySession
from repro.models import zoo
from repro.units import MB
from repro.validate import ViolationKind, audit_run

from tests.conftest import tight_server

_TOL = 1e-9


@pytest.fixture
def run():
    """A fresh honest run + its plan/topology (fresh per test: the
    mutations edit the result in place)."""
    model = zoo.synthetic_uniform(
        num_layers=4, param_bytes_per_layer=100 * MB, activation_bytes=25 * MB
    )
    topo = tight_server(2, 550 * MB)
    session = HarmonySession(
        model, topo, HarmonyConfig("harmony-pp", batch=BatchConfig(1, 2))
    )
    result = session.run()
    plan = session.plan()
    # Sanity: the uncorrupted run audits clean.
    assert audit_run(result, topo, plan).passed
    return result, topo, plan


def _audit(run):
    result, topo, plan = run
    return audit_run(result, topo, plan)


def _label_map(plan):
    return {task.label: task for task in plan.graph}


def _dep_end(result, plan, task):
    """Latest end among the first occurrences of a task's direct deps."""
    ends = []
    for dep_tid in task.deps:
        dep = plan.graph.task(dep_tid)
        events = [e for e in result.trace.events if e.label == dep.label]
        if events:
            ends.append(min(events, key=lambda e: (e.start, e.end)).end)
    return max(ends, default=0.0)


class TestMutations:
    def test_compute_overlap(self, run):
        result, topo, plan = run
        tasks = _label_map(plan)
        events = result.trace.events
        # Two consecutive compute events on one device where pulling the
        # second into the first's window breaks no dependency edge.
        by_device = {}
        for i, e in enumerate(events):
            if e.category == "compute":
                by_device.setdefault(e.device, []).append(i)
        for indices in by_device.values():
            ordered = sorted(indices, key=lambda i: (events[i].start, events[i].end))
            for ia, ib in zip(ordered, ordered[1:]):
                a, b = events[ia], events[ib]
                if a.end <= a.start:
                    continue
                new_start = (a.start + a.end) / 2
                if _dep_end(result, plan, tasks[b.label]) <= new_start + _TOL:
                    events[ib] = b._replace(start=new_start)
                    report = _audit(run)
                    assert report.kinds() == {ViolationKind.COMPUTE_OVERLAP}
                    flagged = report.by_kind(ViolationKind.COMPUTE_OVERLAP)
                    assert any(v.subject == b.label for v in flagged)
                    return
        pytest.fail("no independent compute pair found to corrupt")

    def test_dropped_swap_event(self, run):
        result, topo, plan = run
        events = result.trace.events
        idx = next(
            i for i, e in enumerate(events)
            if e.category == "swap_out" and e.nbytes > 0
        )
        victim = events.pop(idx)
        report = _audit(run)
        assert report.kinds() == {ViolationKind.SWAP_CONSERVATION}
        flagged = report.by_kind(ViolationKind.SWAP_CONSERVATION)
        assert any(v.device == victim.device for v in flagged)

    def test_memory_sample_over_capacity(self, run):
        result, topo, plan = run
        device = sorted(result.memory_profile)[0]
        capacity = result.devices[device].capacity
        samples = result.memory_profile[device]
        t, _ = samples[len(samples) // 2]
        samples[len(samples) // 2] = (t, capacity * 2)
        report = _audit(run)
        assert report.kinds() == {ViolationKind.MEMORY_OVER_CAPACITY}
        assert report.by_kind(ViolationKind.MEMORY_OVER_CAPACITY)[0].device == device

    @pytest.mark.parametrize("side", ["below-profile", "above-profile"])
    def test_peak_used_disagrees_with_profile(self, run, side):
        result, topo, plan = run
        device = sorted(result.devices)[0]
        if side == "below-profile":
            result.devices[device] = dataclasses.replace(
                result.devices[device], peak_used=1.0
            )
        else:
            # The samples at the peak go missing, as if the reservations
            # that reached it skipped the usage log.  (This run's peak is
            # the full capacity, so it cannot be raised instead.)
            samples = result.memory_profile[device]
            peak = result.devices[device].peak_used
            samples[:] = [(t, used) for t, used in samples if used < peak]
        report = _audit(run)
        assert report.kinds() == {ViolationKind.MEMORY_PEAK_MISMATCH}

    def test_peak_used_over_capacity(self, run):
        result, topo, plan = run
        device = sorted(result.devices)[0]
        report_dev = result.devices[device]
        result.devices[device] = dataclasses.replace(
            report_dev, peak_used=report_dev.capacity * 3
        )
        report = _audit(run)
        assert report.kinds() == {ViolationKind.MEMORY_OVER_CAPACITY}

    def test_dependency_order(self, run):
        result, topo, plan = run
        tasks = _label_map(plan)
        events = result.trace.events
        # A dependent compute task teleported to t=0 (zero duration, so
        # no compute overlap is introduced) now precedes its dependency.
        for i, e in enumerate(events):
            if e.category != "compute":
                continue
            task = tasks[e.label]
            if task.deps and _dep_end(result, plan, task) > 10 * _TOL:
                events[i] = e._replace(start=0.0, end=0.0)
                report = _audit(run)
                assert report.kinds() == {ViolationKind.DEPENDENCY_ORDER}
                flagged = report.by_kind(ViolationKind.DEPENDENCY_ORDER)
                assert any(v.subject == e.label for v in flagged)
                return
        pytest.fail("no dependent compute event found to corrupt")

    def test_device_report_swap_counter(self, run):
        result, topo, plan = run
        device = sorted(result.devices)[0]
        result.devices[device] = dataclasses.replace(
            result.devices[device],
            swap_out_bytes=result.devices[device].swap_out_bytes + 1e9,
        )
        report = _audit(run)
        assert report.kinds() == {ViolationKind.DEVICE_REPORT_MISMATCH}
        assert report.by_kind(ViolationKind.DEVICE_REPORT_MISMATCH)[0].subject == (
            "swap_out_bytes"
        )

    def test_link_busy_exceeds_makespan(self, run):
        result, topo, plan = run
        link = sorted(result.link_busy)[0]
        result.link_busy[link] = result.makespan * 2
        report = _audit(run)
        assert report.kinds() == {ViolationKind.LINK_BUSY_EXCEEDS_MAKESPAN}
        assert report.by_kind(
            ViolationKind.LINK_BUSY_EXCEEDS_MAKESPAN
        )[0].subject == link

    def test_link_faster_than_wire(self, run):
        result, topo, plan = run
        # Claim a loaded uplink was barely busy: the routed swap bytes
        # then imply impossible bandwidth.
        loaded = max(result.link_busy, key=lambda k: result.link_busy[k])
        assert result.link_busy[loaded] > 0
        result.link_busy[loaded] = 1e-12
        report = _audit(run)
        assert report.kinds() == {ViolationKind.LINK_BANDWIDTH_EXCEEDED}

    def test_event_on_unknown_device(self, run):
        result, topo, plan = run
        result.trace.add("gpu99", 0.0, 0.0, "swap_in", "ghost", nbytes=0.0)
        report = _audit(run)
        assert report.kinds() == {ViolationKind.EVENT_MALFORMED}
        assert "gpu99" in report.by_kind(ViolationKind.EVENT_MALFORMED)[0].message

    def test_event_past_makespan(self, run):
        result, topo, plan = run
        device = sorted(result.devices)[0]
        result.trace.add(
            device, result.makespan, result.makespan * 2, "swap_in",
            "straggler", nbytes=0.0,
        )
        report = _audit(run)
        assert report.kinds() == {ViolationKind.EVENT_MALFORMED}

    def test_missing_compute_event(self, run):
        result, topo, plan = run
        events = result.trace.events
        # Drop the last compute occurrence: nothing depends on a final
        # event's end beyond it, so only coverage notices.
        tasks = _label_map(plan)
        idx = max(
            (i for i, e in enumerate(events) if e.category == "compute"),
            key=lambda i: (events[i].start, events[i].end),
        )
        victim = events.pop(idx)
        report = _audit(run)
        assert ViolationKind.TASK_COUNT in report.kinds()
        flagged = report.by_kind(ViolationKind.TASK_COUNT)
        assert any(v.subject == victim.label for v in flagged)
        assert tasks[victim.label].device == victim.device

    def test_samples_mismatch(self, run):
        result, topo, plan = run
        result.samples += 1
        report = _audit(run)
        assert report.kinds() == {ViolationKind.SAMPLES_MISMATCH}
