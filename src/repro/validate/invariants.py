"""Physical-consistency invariants over a finished run.

Each checker takes the post-run artifacts (:class:`RunResult`,
:class:`Topology`, :class:`Plan`) and returns a list of
:class:`AuditViolation` records — empty when the invariant holds.  The
checks are deliberately *external*: they recompute each quantity from
an independent source (trace vs. stats ledger, trace vs. task graph,
routed bytes vs. link busy time) so an executor bug cannot hide by
corrupting both sides the same way.

Tolerances: simulated times are sums of float arithmetic, so every
comparison uses a relative-plus-absolute slack (``_TIME_TOL`` seconds,
``_BYTE_TOL`` bytes) rather than exact equality.
"""

from __future__ import annotations

from collections import defaultdict

from repro.hardware.topology import Topology
from repro.memory.stats import Direction
from repro.sim.plan import Plan
from repro.sim.result import RunResult
from repro.sim.trace import CATEGORIES, TraceEvent
from repro.tasks.task import TaskKind
from repro.validate.violations import AuditViolation, ViolationKind

_TIME_TOL = 1e-9       # seconds of float slack on event comparisons
_BYTE_TOL = 1.0        # bytes of slack on volume reconciliation
_REL_TOL = 1e-6        # relative slack for large quantities


def _close(a: float, b: float, abs_tol: float) -> bool:
    return abs(a - b) <= abs_tol + _REL_TOL * max(abs(a), abs(b))


def _leq(a: float, b: float, abs_tol: float) -> bool:
    return a <= b + abs_tol + _REL_TOL * max(abs(a), abs(b))


# -- (0) event sanity ---------------------------------------------------------


def check_event_sanity(result: RunResult, topology: Topology) -> list[AuditViolation]:
    """Every trace event is well-formed: a known category on a known
    device, non-negative duration and bytes, inside [0, makespan]."""
    violations: list[AuditViolation] = []
    known = set(topology.devices)
    for event in result.trace.events:
        problems = []
        if event.category not in CATEGORIES:
            problems.append(f"unknown category {event.category!r}")
        if event.device not in known:
            problems.append(f"unknown device {event.device!r}")
        if event.end < event.start - _TIME_TOL:
            problems.append(f"negative duration ({event.start} -> {event.end})")
        if event.start < -_TIME_TOL:
            problems.append(f"starts before t=0 ({event.start})")
        if not _leq(event.end, result.makespan, _TIME_TOL):
            problems.append(
                f"ends after the makespan ({event.end} > {result.makespan})"
            )
        if event.nbytes < 0:
            problems.append(f"negative bytes ({event.nbytes})")
        for problem in problems:
            violations.append(
                AuditViolation(
                    ViolationKind.EVENT_MALFORMED,
                    f"event {event.label!r} on {event.device}: {problem}",
                    device=event.device,
                    subject=event.label,
                )
            )
    return violations


# -- (a) compute exclusivity --------------------------------------------------


def check_compute_exclusivity(result: RunResult) -> list[AuditViolation]:
    """No two compute/allreduce events overlap on one device.

    Swap and p2p events legitimately overlap compute (prefetch, peer
    fetches), but a device has one compute stream: overlapping compute
    means the simulated schedule was physically impossible.
    """
    return check_compute_events(result.trace.events)


def check_compute_events(events: list[TraceEvent]) -> list[AuditViolation]:
    """Compute-exclusivity over a bare event list — also applied to the
    merged (globally-shifted) trace of a resilient run, where events
    from different segments must still never overlap on one device."""
    violations: list[AuditViolation] = []
    per_device: dict[str, list[TraceEvent]] = defaultdict(list)
    for event in events:
        if event.category in ("compute", "allreduce"):
            per_device[event.device].append(event)
    for device, events in sorted(per_device.items()):
        events.sort(key=lambda e: (e.start, e.end))
        for prev, cur in zip(events, events[1:]):
            if cur.start < prev.end - _TIME_TOL:
                violations.append(
                    AuditViolation(
                        ViolationKind.COMPUTE_OVERLAP,
                        f"{device}: {cur.label!r} starts at {cur.start:.6g} "
                        f"before {prev.label!r} ends at {prev.end:.6g}",
                        device=device,
                        subject=cur.label,
                        expected=prev.end,
                        actual=cur.start,
                    )
                )
    return violations


# -- (b) link occupancy -------------------------------------------------------


def check_link_feasibility(
    result: RunResult, topology: Topology
) -> list[AuditViolation]:
    """Link occupancy is physically possible.

    Two independent bounds per link:

    * busy time never exceeds the makespan (a serially-shared wire
      cannot be occupied longer than the run lasted);
    * the swap bytes routed over the link imply at least
      ``bytes / bandwidth`` of busy time — traffic cannot move faster
      than the wire.  Swap-out traffic always rides the device→host
      route; swap-in is charged the same route on single-host
      topologies (multi-host swap-ins may arrive from a remote server,
      so only the lower-bound direction is charged there).  This is how
      host-uplink oversubscription is audited: all GPUs behind one
      uplink charge the same link, and the summed bytes must fit in its
      busy time.
    """
    violations: list[AuditViolation] = []
    for link, busy in sorted(result.link_busy.items()):
        if not _leq(busy, result.makespan, _TIME_TOL):
            violations.append(
                AuditViolation(
                    ViolationKind.LINK_BUSY_EXCEEDS_MAKESPAN,
                    f"link {link}: busy {busy:.6g}s exceeds makespan "
                    f"{result.makespan:.6g}s",
                    subject=link,
                    expected=result.makespan,
                    actual=busy,
                )
            )

    single_host = len(topology.hosts()) == 1
    volumes = result.stats.volume_totals()
    routed_bytes: dict[str, float] = defaultdict(float)
    for gpu in topology.gpus():
        out_bytes = volumes.get((gpu.name, Direction.SWAP_OUT), 0)
        in_bytes = (
            volumes.get((gpu.name, Direction.SWAP_IN), 0) if single_host else 0.0
        )
        if out_bytes + in_bytes <= 0:
            continue
        for link in topology.host_route(gpu.name).links:
            routed_bytes[link.name] += out_bytes + in_bytes
    for link_name, nbytes in sorted(routed_bytes.items()):
        spec = topology.links[link_name]
        implied = nbytes / spec.bandwidth_bytes_per_sec
        busy = result.link_busy.get(link_name, 0.0)
        if not _leq(implied, busy, _TIME_TOL):
            violations.append(
                AuditViolation(
                    ViolationKind.LINK_BANDWIDTH_EXCEEDED,
                    f"link {link_name}: {nbytes:.6g} B routed implies "
                    f">= {implied:.6g}s of occupancy but the link was busy "
                    f"only {busy:.6g}s",
                    subject=link_name,
                    expected=implied,
                    actual=busy,
                )
            )
    return violations


# -- (c) memory profile -------------------------------------------------------


def check_memory_profile(result: RunResult) -> list[AuditViolation]:
    """Per-device memory usage stays within capacity and reconciles
    with the reported peak.

    The branches are mutually exclusive per device so mutation tests
    can assert one exact violation kind: an over-capacity sample
    reports ``MEMORY_OVER_CAPACITY``; a within-capacity profile whose
    maximum disagrees with ``DeviceReport.peak_used`` either way reports
    ``MEMORY_PEAK_MISMATCH``.  The manager samples the profile on every
    pool reservation and release, so its maximum is the pool's peak: a
    profile that stays below it missed a reservation (an empty profile
    matches a peak of 0).
    """
    violations: list[AuditViolation] = []
    for device, report in sorted(result.devices.items()):
        profile = result.memory_profile.get(device, [])
        profile_max = max((used for _, used in profile), default=0.0)
        over = [
            (t, used)
            for t, used in profile
            if not _leq(used, report.capacity, _BYTE_TOL)
        ]
        if not _leq(report.peak_used, report.capacity, _BYTE_TOL):
            violations.append(
                AuditViolation(
                    ViolationKind.MEMORY_OVER_CAPACITY,
                    f"{device}: peak_used {report.peak_used:.6g} B exceeds "
                    f"capacity {report.capacity:.6g} B",
                    device=device,
                    expected=report.capacity,
                    actual=report.peak_used,
                )
            )
        elif over:
            t, used = over[0]
            violations.append(
                AuditViolation(
                    ViolationKind.MEMORY_OVER_CAPACITY,
                    f"{device}: {used:.6g} B resident at t={t:.6g} exceeds "
                    f"capacity {report.capacity:.6g} B "
                    f"({len(over)} sample(s) over)",
                    device=device,
                    expected=report.capacity,
                    actual=used,
                )
            )
        elif not _close(profile_max, report.peak_used, _BYTE_TOL):
            violations.append(
                AuditViolation(
                    ViolationKind.MEMORY_PEAK_MISMATCH,
                    f"{device}: profile reaches {profile_max:.6g} B but "
                    f"peak_used reports {report.peak_used:.6g} B",
                    device=device,
                    expected=report.peak_used,
                    actual=profile_max,
                )
            )
    return violations


# -- (d) conservation ---------------------------------------------------------


def check_conservation(result: RunResult) -> list[AuditViolation]:
    """Every byte the stats ledger claims moved appears in the trace,
    and the per-device :class:`DeviceReport` counters reconcile with
    the ledger.

    * per device: swap-in/swap-out ledger volume == byte sum of the
      device's ``swap_in``/``swap_out`` trace events;
    * per device: p2p-in ledger volume == byte sum of ``p2p`` +
      ``allreduce`` trace events (collectives ride device links and are
      accounted receiver-side);
    * globally: p2p-out ledger volume == byte sum of ``p2p`` events
      (each p2p move traced once, on the receiver);
    * ``DeviceReport.swap_in_bytes`` / ``swap_out_bytes`` equal the
      ledger.
    """
    violations: list[AuditViolation] = []
    trace_bytes: dict[tuple[str, str], float] = defaultdict(float)
    for event in result.trace.events:
        trace_bytes[(event.device, event.category)] += event.nbytes

    volumes = result.stats.volume_totals()
    stats_devices = set(result.stats.devices())
    trace_devices = {d for d, _ in trace_bytes}
    for device in sorted(stats_devices | trace_devices):
        pairs = [
            (Direction.SWAP_IN, trace_bytes[(device, "swap_in")], "swap-in"),
            (Direction.SWAP_OUT, trace_bytes[(device, "swap_out")], "swap-out"),
            (
                Direction.P2P_IN,
                trace_bytes[(device, "p2p")] + trace_bytes[(device, "allreduce")],
                "p2p+allreduce",
            ),
        ]
        for direction, traced, label in pairs:
            ledger = volumes.get((device, direction), 0.0)
            if not _close(ledger, traced, _BYTE_TOL):
                violations.append(
                    AuditViolation(
                        ViolationKind.SWAP_CONSERVATION,
                        f"{device}: stats ledger records {ledger:.6g} B of "
                        f"{label} but trace events sum to {traced:.6g} B",
                        device=device,
                        subject=label,
                        expected=ledger,
                        actual=traced,
                    )
                )

    p2p_out = result.stats.volume(None, None, Direction.P2P_OUT)
    p2p_traced = sum(v for (_, cat), v in trace_bytes.items() if cat == "p2p")
    if not _close(p2p_out, p2p_traced, _BYTE_TOL):
        violations.append(
            AuditViolation(
                ViolationKind.SWAP_CONSERVATION,
                f"global p2p: ledger sent {p2p_out:.6g} B but trace records "
                f"{p2p_traced:.6g} B received",
                subject="p2p-out",
                expected=p2p_out,
                actual=p2p_traced,
            )
        )

    for device, report in sorted(result.devices.items()):
        for attr, direction in (
            ("swap_in_bytes", Direction.SWAP_IN),
            ("swap_out_bytes", Direction.SWAP_OUT),
        ):
            reported = getattr(report, attr)
            ledger = volumes.get((device, direction), 0)
            if not _close(reported, ledger, _BYTE_TOL):
                violations.append(
                    AuditViolation(
                        ViolationKind.DEVICE_REPORT_MISMATCH,
                        f"{device}: DeviceReport.{attr} = {reported:.6g} B but "
                        f"the stats ledger records {ledger:.6g} B",
                        device=device,
                        subject=attr,
                        expected=ledger,
                        actual=reported,
                    )
                )
    return violations


# -- (d') retry ledger --------------------------------------------------------


def check_retry_ledger(result: RunResult) -> list[AuditViolation]:
    """Retried bytes are a subset of the volume ledger.

    A failed transfer attempt occupies the wire, so its bytes land in
    *both* ledgers (see :meth:`SwapStats.record_retry`); per device and
    direction the retry ledger can therefore never exceed the volume
    ledger.  This is what keeps trace<->ledger conservation exact under
    fault injection."""
    violations: list[AuditViolation] = []
    volumes = result.stats.volume_totals()
    retries = result.stats.retried_totals()
    for device in result.stats.devices():
        for direction in Direction:
            retried = retries.get((device, direction), 0)
            if retried <= 0:
                continue
            total = volumes.get((device, direction), 0)
            if not _leq(retried, total, _BYTE_TOL):
                violations.append(
                    AuditViolation(
                        ViolationKind.RETRY_CONSERVATION,
                        f"{device}: {retried:.6g} B of {direction.value} "
                        f"retries exceed the {total:.6g} B volume ledger",
                        device=device,
                        subject=direction.value,
                        expected=total,
                        actual=retried,
                    )
                )
    return violations


# -- (e) dependency order -----------------------------------------------------


def _events_by_label(result: RunResult) -> dict[str, list[TraceEvent]]:
    grouped: dict[str, list[TraceEvent]] = defaultdict(list)
    for event in result.trace.events:
        if event.category in ("compute", "allreduce"):
            grouped[event.label].append(event)
    for events in grouped.values():
        events.sort(key=lambda e: (e.start, e.end))
    return grouped


def check_dependency_order(result: RunResult, plan: Plan) -> list[AuditViolation]:
    """The trace respects the task graph: occurrence ``i`` of a task
    starts no earlier than occurrence ``i`` of each dependency ends
    (iteration ``i`` of a replayed plan must re-satisfy every edge).

    Allreduce tasks are traced once per participant; their occurrence
    ``i`` is taken as the ``i``-th synchronized window (participants
    share start/end), so the per-participant copies collapse.
    """
    violations: list[AuditViolation] = []
    grouped = _events_by_label(result)

    def occurrences(task) -> list[TraceEvent]:
        events = grouped.get(task.label, [])
        # A collective has one traced copy per participant per iteration.
        step = len(plan.shares.get(task.tid, ()))
        return events[::step] if step else events

    for task in plan.graph:
        task_events = occurrences(task)
        for dep_tid in task.deps:
            dep = plan.graph.task(dep_tid)
            dep_events = occurrences(dep)
            for i, event in enumerate(task_events):
                if i >= len(dep_events):
                    break  # dependency untraced (zero-duration); skip
                if event.start < dep_events[i].end - _TIME_TOL:
                    violations.append(
                        AuditViolation(
                            ViolationKind.DEPENDENCY_ORDER,
                            f"{task.label!r} (iteration {i}) starts at "
                            f"{event.start:.6g} before its dependency "
                            f"{dep.label!r} ends at {dep_events[i].end:.6g}",
                            device=event.device,
                            subject=task.label,
                            expected=dep_events[i].end,
                            actual=event.start,
                        )
                    )
    return violations


# -- task coverage and samples ------------------------------------------------


def check_task_coverage(
    result: RunResult, plan: Plan, iterations: int = 1
) -> list[AuditViolation]:
    """Every task in the plan ran the expected number of times: compute
    tasks once per iteration, allreduce tasks once per participant per
    iteration (zero-duration compute is still traced; zero-duration
    collectives are tolerated as absent)."""
    violations: list[AuditViolation] = []
    grouped = _events_by_label(result)
    for task in plan.graph:
        count = len(grouped.get(task.label, []))
        if task.kind is TaskKind.COMPUTE:
            expected = iterations
            tolerate_zero = False
        else:
            expected = iterations * len(plan.shares[task.tid])
            tolerate_zero = True  # sub-latency collectives are untraced
        if count != expected and not (tolerate_zero and count == 0):
            violations.append(
                AuditViolation(
                    ViolationKind.TASK_COUNT,
                    f"{task.label!r} appears {count} time(s) in the trace, "
                    f"expected {expected}",
                    device=task.device,
                    subject=task.label,
                    expected=float(expected),
                    actual=float(count),
                )
            )
    return violations


def check_samples(
    result: RunResult, plan: Plan, iterations: int = 1
) -> list[AuditViolation]:
    """The reported sample count equals the plan's per-iteration sample
    total times the number of iterations."""
    per_iteration = sum(t.samples for t in plan.graph.compute_tasks())
    if per_iteration == 0:
        # Plans without per-task sample counts report the static
        # per-iteration figure once, regardless of replay count.
        expected = plan.samples_per_iteration
    else:
        expected = per_iteration * iterations
    if result.samples != expected:
        return [
            AuditViolation(
                ViolationKind.SAMPLES_MISMATCH,
                f"run reports {result.samples} samples, plan implies "
                f"{expected} ({per_iteration}/iteration x {iterations})",
                expected=float(expected),
                actual=float(result.samples),
            )
        ]
    return []
