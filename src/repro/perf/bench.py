"""The tracked benchmark harness behind ``python -m repro bench``.

Measures four things on the paper's Fig. 4 workload (4 layers x 100 MB
on two 550 MB GPUs, harmony-pp, 2 microbatches) and a scaled variant
(8 layers, 8 microbatches):

* **single-run wall time** — build + plan + simulate, min over
  repeats (min is the right statistic for a noisy shared host: every
  source of interference only adds time);
* **events/sec** — engine events executed per wall-clock second, the
  size-independent throughput figure the CI regression gate tracks;
* **cache behaviour** — fresh-run vs cache-hit latency and the hit
  rate counters of a :class:`~repro.perf.cache.RunCache`;
* **incremental re-simulation** — the tuner's re-probe shape against a
  warm :class:`~repro.perf.incremental.CheckpointStore`: cold vs
  prefix-restored per-probe wall time, with byte-identity *asserted*
  (makespan, Chrome trace, swap ledger) and the per-probe speedup
  gated (3x full mode);
* **fleet scale** — events/sec at 64/256/1024 simulated devices
  (harmony-dp, small fixed per-replica workload), the scaling figure
  behind the live loop's targeted wake-up, plus the wall time of
  auditing each point's run (gated against the run it audits);
* **parallel-sweep scaling** — a small scheme x microbatch grid run
  through :meth:`repro.supervisor.Supervisor.run_specs` inline and
  with ``--jobs N`` workers;
* **steady-state fast-forward** — the Fig. 4 workload at many
  iterations, ``--steady-state off`` vs ``auto`` (see
  :mod:`repro.steady`).  The section *asserts* the two runs produce
  identical makespan, swap ledgers, per-link busy seconds, and event
  counts, and that the measured ``steady_speedup`` clears a floor
  (100x at the full 10,000-iteration point) — equivalence and speedup
  are checked, not eyeballed;
* **recovery-policy zoo** — simulated MTTR p50/p95 and goodput per
  recovery policy on a fixed fault scenario (deterministic on every
  host); the gate watches each policy's goodput ratio one-sided.

``write_json`` emits ``BENCH_sim.json`` (committed at the repo root)
so the repo carries a perf trajectory; ``check_regression`` is the CI
gate — it fails only when measured events/sec falls more than 30%
below the committed *baseline* (pre-optimization) figure, a one-sided
test chosen because CI runners are typically faster than the machine
that recorded the baseline, and absolute cross-machine comparisons
only support a conservative lower bound.
"""

from __future__ import annotations

import gc
import json
import platform
import sys
import time

from repro.core.config import HarmonyConfig
from repro.core.session import HarmonySession
from repro.errors import ReproError
from repro.hardware import presets
from repro.hardware.device import DeviceKind, DeviceSpec
from repro.models import zoo
from repro.perf.cache import RunCache
from repro.perf.fingerprint import SCHEDULER_VERSION, fingerprint
from repro.perf.runner import RunSpec
from repro.schedulers.base import BatchConfig
from repro.supervisor import Supervisor, Task
from repro.units import MB, TFLOP
from repro.validate.audit import audit_run

SCHEMA = 1

#: Pre-optimization reference numbers, measured at the commit preceding
#: the performance layer with the same harness methodology (fresh
#: subprocess, interleaved A/B with the optimized tree, min over
#: repeats) on the machine that recorded the committed BENCH_sim.json.
#: Event counts are identical pre/post (golden traces unchanged), so
#: baseline events/sec is derived from the same event count.
PRE_PR_BASELINE = {
    "commit": "d53bb73",
    "note": (
        "pre-optimization simulator, same host and methodology as "
        "'current' in the committed BENCH_sim.json (min wall time over "
        "7 interleaved A/B rounds of 30/8 repeats)"
    ),
    "fig4": {"wall_sec": 2.410e-3},
    "fig4_scaled": {"wall_sec": 17.711e-3},
}


def _fig4_workload(num_layers: int = 4, num_microbatches: int = 2) -> RunSpec:
    """The Fig. 4 setting (see :mod:`repro.experiments.fig4_schedule`):
    a model whose training state dwarfs two small GPUs."""
    model = zoo.synthetic_uniform(
        num_layers=num_layers,
        param_bytes_per_layer=100 * MB,
        activation_bytes=25 * MB,
    )
    topology = presets.commodity_server(
        num_gpus=2,
        gpu_factory=lambda name: DeviceSpec(
            name, DeviceKind.GPU, 550 * MB, 4.5 * TFLOP
        ),
    )
    config = HarmonyConfig(
        parallelism="harmony-pp",
        batch=BatchConfig(microbatch_size=1, num_microbatches=num_microbatches),
    )
    return RunSpec(model, topology, config, label=f"fig4-{num_layers}L-{num_microbatches}mb")


def _sweep_grid(quick: bool) -> list[RunSpec]:
    counts = (2, 4) if quick else (2, 4, 6, 8)
    specs = []
    for num_microbatches in counts:
        for scheme in ("harmony-pp", "pp-baseline"):
            spec = _fig4_workload(num_microbatches=num_microbatches)
            spec.config = HarmonyConfig(
                parallelism=scheme, batch=spec.config.batch
            )
            spec.label = f"{scheme}-{num_microbatches}mb"
            specs.append(spec)
    return specs


def _time_single(spec: RunSpec, repeats: int) -> dict:
    """Min wall time of a full fresh experiment (build -> plan -> run)."""
    best = float("inf")
    events = 0
    trace_events = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        session = HarmonySession(spec.model, spec.topology, spec.config)
        result = session.run()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
        events = result.events_processed
        trace_events = len(result.trace.events)
    return {
        "wall_sec": best,
        "events": events,
        "trace_events": trace_events,
        "events_per_sec": events / best if best > 0 else 0.0,
        "repeats": repeats,
    }


def _time_cache(spec: RunSpec, lookups: int = 5) -> dict:
    cache = RunCache()
    key = "result:" + fingerprint(spec.model, spec.topology, spec.config)

    t0 = time.perf_counter()
    result = HarmonySession(spec.model, spec.topology, spec.config).run()
    fresh_sec = time.perf_counter() - t0
    cache.put(key, result)

    best_hit = float("inf")
    for _ in range(lookups):
        t0 = time.perf_counter()
        hit = cache.get(key)
        best_hit = min(best_hit, time.perf_counter() - t0)
    assert hit is not None
    return {
        "fresh_sec": fresh_sec,
        "hit_sec": best_hit,
        "hit_speedup": fresh_sec / best_hit if best_hit > 0 else 0.0,
        "hit_rate": cache.hit_rate,
        "counters": cache.counters(),
    }


def _time_sweep(jobs: int, quick: bool) -> dict:
    specs = _sweep_grid(quick)

    t0 = time.perf_counter()
    serial = Supervisor.plain(1).run_specs(specs)
    serial_sec = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = Supervisor.plain(jobs).run_specs(specs)
    parallel_sec = time.perf_counter() - t0

    if [r.makespan for r in serial] != [r.makespan for r in parallel]:
        raise ReproError("parallel sweep diverged from the serial sweep")
    return {
        "points": len(specs),
        "jobs": jobs,
        "serial_sec": serial_sec,
        "parallel_sec": parallel_sec,
        "scaling": serial_sec / parallel_sec if parallel_sec > 0 else 0.0,
    }


def _time_steady(quick: bool) -> dict:
    """Steady-state fast-forward: off vs auto at scale, equivalence
    asserted field by field before the speedup is reported."""
    from dataclasses import replace

    iterations = 2_000 if quick else 10_000
    gate_floor = 25.0 if quick else 100.0
    spec = _fig4_workload()

    def run(mode: str) -> tuple:
        config = replace(
            spec.config, iterations=iterations, steady_state=mode
        )
        t0 = time.perf_counter()
        result = HarmonySession(spec.model, spec.topology, config).run()
        return time.perf_counter() - t0, result

    off_sec, off = run("off")
    auto_sec = float("inf")
    for _ in range(3):
        elapsed, auto = run("auto")
        auto_sec = min(auto_sec, elapsed)

    mismatches = [
        name
        for name, got, want in (
            ("makespan", auto.makespan, off.makespan),
            ("swap_volume", dict(auto.stats._volume), dict(off.stats._volume)),
            ("swap_events", dict(auto.stats._events), dict(off.stats._events)),
            ("link_busy", auto.link_busy, off.link_busy),
            ("events_processed", auto.events_processed, off.events_processed),
        )
        if got != want
    ]
    if mismatches:
        raise ReproError(
            f"steady-state fast-forward diverged from full simulation at "
            f"iterations={iterations}: {', '.join(mismatches)}"
        )
    speedup = off_sec / auto_sec if auto_sec > 0 else 0.0
    if speedup < gate_floor:
        raise ReproError(
            f"steady-state speedup x{speedup:.1f} below the x{gate_floor:g} "
            f"floor at iterations={iterations} "
            f"(off {off_sec:.3f}s vs auto {auto_sec:.3f}s)"
        )
    steady = auto.steady
    return {
        "iterations": iterations,
        "off_sec": off_sec,
        "auto_sec": auto_sec,
        "steady_speedup": speedup,
        "gate_floor": gate_floor,
        "detected_at": steady.detected_at,
        "skipped": steady.skipped,
        "makespan": off.makespan,
    }


def _time_incremental(quick: bool) -> dict:
    """Prefix-checkpoint re-simulation (the tuner's re-probe shape):
    the same spec simulated repeatedly against a warm
    :class:`~repro.perf.incremental.CheckpointStore` restores the
    deepest iteration boundary and simulates only the final iteration
    plus the flush.  Byte-identity of the restored run against its cold
    twin is *asserted* — makespan, Chrome trace JSON, swap ledger —
    before the per-probe speedup is reported and gated.

    After the donor run, cold and warm probes are timed in interleaved
    pairs, alternating which of the two goes first, so both sides see
    the same host contention (another bench section may run beside this
    one); the speedup is ``min(cold) / min(warm)``."""
    from dataclasses import replace

    from repro.perf.incremental import CheckpointStore
    from repro.sim.trace import to_chrome_trace

    iterations = 6 if quick else 8
    gate_floor = 2.0 if quick else 3.0
    pairs = 5 if quick else 8
    spec = _fig4_workload()
    config = replace(spec.config, iterations=iterations, steady_state="off")

    def run(checkpoints) -> tuple:
        t0 = time.perf_counter()
        result = HarmonySession(
            spec.model, spec.topology, config, checkpoints=checkpoints
        ).run()
        return time.perf_counter() - t0, result

    store = CheckpointStore()
    run(store)  # donor: populates the store (one miss, boundary writes)
    cold_sec = warm_sec = float("inf")
    cold = warm = None
    for i in range(pairs):
        order = (None, store) if i % 2 == 0 else (store, None)
        for checkpoints in order:
            elapsed, result = run(checkpoints)
            if checkpoints is None:
                cold_sec, cold = min(cold_sec, elapsed), result
            elif elapsed < warm_sec:
                warm_sec, warm = elapsed, result

    mismatches = [
        name
        for name, got, want in (
            ("makespan", warm.makespan, cold.makespan),
            (
                "chrome_trace",
                json.dumps(to_chrome_trace(warm.trace), sort_keys=True),
                json.dumps(to_chrome_trace(cold.trace), sort_keys=True),
            ),
            ("swap_volume", dict(warm.stats._volume), dict(cold.stats._volume)),
            ("swap_events", dict(warm.stats._events), dict(cold.stats._events)),
            ("link_busy", warm.link_busy, cold.link_busy),
            ("events_processed", warm.events_processed, cold.events_processed),
        )
        if got != want
    ]
    if mismatches:
        raise ReproError(
            f"prefix-checkpoint restore diverged from the cold run at "
            f"iterations={iterations}: {', '.join(mismatches)}"
        )
    per_probe_speedup = cold_sec / warm_sec if warm_sec > 0 else 0.0
    if per_probe_speedup < gate_floor:
        raise ReproError(
            f"incremental per-probe speedup x{per_probe_speedup:.2f} below "
            f"the x{gate_floor:g} floor at iterations={iterations} "
            f"(cold {cold_sec * 1e3:.2f} ms vs warm {warm_sec * 1e3:.2f} ms)"
        )
    counters = store.counters()
    return {
        "iterations": iterations,
        "cold_sec": cold_sec,
        "warm_sec": warm_sec,
        "per_probe_speedup": per_probe_speedup,
        "gate_floor": gate_floor,
        "hit_rate": store.hit_rate,
        "saved_iterations": counters["saved_iterations"],
        "counters": counters,
    }


def _fleet_workload(num_gpus: int) -> tuple:
    """The fleet-scale setting shared by the timing and profile
    sections: harmony-dp over a commodity server, a small fixed
    per-replica workload so events grow linearly with devices."""
    model = zoo.synthetic_uniform(
        num_layers=4,
        param_bytes_per_layer=10 * MB,
        activation_bytes=2 * MB,
    )
    topology = presets.commodity_server(num_gpus=num_gpus)
    config = HarmonyConfig(
        parallelism="harmony-dp",
        batch=BatchConfig(microbatch_size=1, num_microbatches=2),
    )
    return model, topology, config


def _time_fleet(quick: bool) -> dict:
    """Events/sec as the simulated fleet grows: harmony-dp on a
    commodity server at 64-2048 GPUs, a small fixed per-replica
    workload.  The live loop's targeted wake-up keeps per-completion
    work O(dependents), so events/sec should degrade gently — a full
    device scan per completion collapses it quadratically.  The 2048
    point exists to catch costs that only turn over at rack scale
    (O(N) per-event scans, GC rescans of the live graph).  Each point
    also times :func:`~repro.validate.audit.audit_run` on its last run
    as ``audit_sec``, outside the timed window and best of three like
    the run: the audit is meant to stay cheap enough to run on every
    fleet run, which :func:`check_regression` holds it to."""
    sizes = (64, 256) if quick else (64, 256, 1024, 2048)
    points = []
    for num_gpus in sizes:
        model, topology, config = _fleet_workload(num_gpus)
        # A single 64-device run is ~80 ms of wall — short enough that
        # turbo bursts and allocator warmup swing the figure 2x run to
        # run, which poisons the self-relative scaling ratio.  Each
        # size gets one untimed warmup, then the small fleets are timed
        # as back-to-back blocks so every timed window covers at least
        # ~0.5 s; best-of-3 blocks is the least-interference estimate.
        # Planning produces no events, so it is timed separately: the
        # per-event figure covers the event-processing phase only, and
        # plan_sec keeps a planner blowup visible in its own column.
        # Every run, at every size, starts after the previous one is
        # dropped and an untimed collect(), so a block of small runs
        # and a lone large one see the same heap: no earlier run is
        # freed or collected inside a timed window, and the timed
        # allocation storm reuses warm arenas instead of growing the
        # heap across fragmented ones (at 2048 devices that alone is
        # worth ~20% of events/sec).
        block = max(1, 512 // num_gpus)
        HarmonySession(model, topology, config).run()
        best_run = float("inf")
        best_plan = 0.0
        for _ in range(3):
            plan_wall = 0.0
            run_wall = 0.0
            for _ in range(block):
                session = result = None
                gc.collect()
                session = HarmonySession(model, topology, config)
                t0 = time.perf_counter()
                session.plan()
                t1 = time.perf_counter()
                result = session.run()
                plan_wall += t1 - t0
                run_wall += time.perf_counter() - t1
            if run_wall < best_run:
                best_run = run_wall
                best_plan = plan_wall
        events = result.events_processed * block
        audit_sec = float("inf")
        for _ in range(3):
            gc.collect()
            t0 = time.perf_counter()
            audit_run(result, topology, session.plan()).raise_if_failed()
            audit_sec = min(audit_sec, time.perf_counter() - t0)
        points.append(
            {
                "devices": num_gpus,
                "wall_sec": best_run,
                "plan_sec": best_plan,
                "audit_sec": audit_sec,
                "runs_per_block": block,
                "events": events,
                "events_per_sec": events / best_run if best_run > 0 else 0.0,
            }
        )
    return {"points": points}


def profile_run(quick: bool, top: int = 25) -> dict:
    """The ``bench --profile`` hook: one large-fleet run under
    ``cProfile``, reported as the top-``top`` functions by cumulative
    time.  Call counts are fully deterministic (the simulation is), so
    two profiles of the same tree differ only in wall numbers — which
    makes an O(N)-per-event scan stand out as a call count growing
    faster than the event count between fleet sizes.  This is the
    instrument the scaling fixes in this layer were found with."""
    import cProfile
    import pstats

    num_gpus = 256 if quick else 1024
    model, topology, config = _fleet_workload(num_gpus)
    profiler = cProfile.Profile()
    profiler.enable()
    result = HarmonySession(model, topology, config).run()
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows = []
    for func in stats.fcn_list[:top]:
        filename, lineno, name = func
        _, ncalls, tottime, cumtime, _ = stats.stats[func]
        short = filename.rsplit("/", 1)[-1] if filename else filename
        rows.append(
            {
                "function": f"{short}:{lineno}({name})",
                "ncalls": ncalls,
                "tottime_sec": tottime,
                "cumtime_sec": cumtime,
            }
        )
    return {
        "devices": num_gpus,
        "events": result.events_processed,
        "sort": "cumulative",
        "top": rows,
    }


def _time_serve(quick: bool) -> dict:
    """Closed-loop load against an in-process job server: sustained
    jobs/sec through the full admission -> fair queue -> supervised
    execution -> settle path, plus job-latency percentiles.  Inline
    isolation and an ephemeral state dir keep the measurement about
    the serving machinery, not process-pool spawn or fsync costs."""
    from repro.serve import ServeConfig, start_in_background
    from repro.serve.load import run_load
    from repro.serve.tenants import TenantPolicy

    clients = 3
    jobs_per_client = 4 if quick else 10
    config = ServeConfig(
        port=0,
        workers=2,
        isolation="inline",
        max_queue=256,
        default_tenant=TenantPolicy(max_jobs=64),
        quiet=True,
    )
    handle = start_in_background(config)
    try:
        load = run_load(
            handle.base_url, clients=clients, jobs_per_client=jobs_per_client
        )
        stats = handle.server.stats()
    finally:
        handle.drain()
    if load.jobs_failed:
        raise ReproError(f"serve load run failed {load.jobs_failed} job(s)")
    doc = load.to_json()
    doc["clients"] = clients
    doc["cache_hit_rate"] = stats.get("cache", {}).get("hit_rate", 0.0)
    return doc


def _time_recovery(quick: bool) -> dict:
    """The recovery-policy zoo on a fixed fault scenario: MTTR p50/p95
    and goodput per policy (see ``repro faults --recovery``).  The
    quantities are *simulated* seconds — deterministic on every host —
    so the regression gate guards the policies' goodput, not harness
    wall time: a policy whose goodput ratio collapses means recovery
    got more expensive, not that the runner got slower."""
    from repro.experiments.faults_degradation import (
        RECOVERY_SCHEMES,
        _percentile,
        run_recovery,
    )

    schemes = ("harmony-dp",) if quick else RECOVERY_SCHEMES
    t0 = time.perf_counter()
    rows = run_recovery(iterations=4, schemes=schemes)
    wall = time.perf_counter() - t0
    unrecovered = [f"{r.scheme}/{r.policy}" for r in rows if not r.recovered]
    if unrecovered:
        raise ReproError(
            "recovery bench: unrecovered cells: " + ", ".join(unrecovered)
        )
    policies: dict[str, dict] = {}
    for row in rows:
        entry = policies.setdefault(
            row.policy,
            {"mttr_p50": [], "mttr_p95": [], "goodput_ratio": []},
        )
        entry["mttr_p50"].append(row.mttr_p50)
        entry["mttr_p95"].append(row.mttr_p95)
        entry["goodput_ratio"].append(row.goodput_ratio)
    return {
        "wall_sec": wall,
        "iterations": 4,
        "schemes": list(schemes),
        "policies": {
            name: {
                # Aggregated across schemes: median of the per-cell
                # medians, worst of the tails and ratios (the one-sided
                # gate watches the weakest scheme).
                "mttr_p50": _percentile(sorted(e["mttr_p50"]), 0.50),
                "mttr_p95": max(e["mttr_p95"]),
                "goodput_ratio": min(e["goodput_ratio"]),
            }
            for name, e in policies.items()
        },
    }


#: The harness sections, in report order.
_SECTIONS = (
    "fig4", "fig4_scaled", "cache", "incremental", "fleet_scale",
    "sweep", "steady", "serve", "recovery",
)


def _bench_section(payload: tuple[str, bool, int]) -> dict:
    """Measure one section (top-level so a supervisor worker can run
    it); ``payload`` is ``(section name, quick, jobs)``."""
    name, quick, jobs = payload
    if name == "fig4":
        return _time_single(_fig4_workload(), 5 if quick else 20)
    if name == "fig4_scaled":
        return _time_single(
            _fig4_workload(num_layers=8, num_microbatches=8),
            3 if quick else 8,
        )
    if name == "cache":
        return _time_cache(_fig4_workload())
    if name == "incremental":
        return _time_incremental(quick)
    if name == "fleet_scale":
        return _time_fleet(quick)
    if name == "sweep":
        return _time_sweep(jobs, quick)
    if name == "steady":
        return _time_steady(quick)
    if name == "serve":
        return _time_serve(quick)
    if name == "recovery":
        return _time_recovery(quick)
    raise ReproError(f"unknown bench section: {name!r}")


def run_bench(
    quick: bool = False, jobs: int = 4, supervisor=None, profile: bool = False
) -> dict:
    """The full harness; returns the ``BENCH_sim.json`` payload.

    The sections run one at a time as tasks on ``supervisor`` (default:
    a plain inline one).  Under a durable supervisor (the CLI's
    ``--journal``) a crashed benchmark resumes at section granularity;
    replayed sections report the wall times recorded before the
    interruption — a resumed benchmark is a completion of the original
    measurement, not a fresh one.
    """
    if supervisor is None:
        supervisor = Supervisor.plain(1)
    sections = supervisor.run_tasks(
        [
            Task(
                key=f"bench:{name}:quick={quick}:jobs={jobs}",
                fn=_bench_section,
                payload=(name, quick, jobs),
                label=f"bench:{name}",
            )
            for name in _SECTIONS
        ]
    )
    current = dict(zip(_SECTIONS, sections))
    baseline = json.loads(json.dumps(PRE_PR_BASELINE))  # deep copy
    # Golden traces are unchanged, so pre/post execute the same events:
    # baseline events/sec follows from its wall time and today's count.
    for name in ("fig4", "fig4_scaled"):
        wall = baseline[name]["wall_sec"]
        baseline[name]["events_per_sec"] = (
            current[name]["events"] / wall if wall > 0 else 0.0
        )
    report = {
        "schema": SCHEMA,
        "scheduler_version": SCHEDULER_VERSION,
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "baseline": baseline,
        "current": current,
        "speedup_vs_baseline": {
            name: baseline[name]["wall_sec"] / current[name]["wall_sec"]
            for name in ("fig4", "fig4_scaled")
            if current[name]["wall_sec"] > 0
        },
    }
    if profile:
        # After the timed sections so the profiler's ~2x interpreter
        # overhead never contaminates a gated measurement.  The gate
        # (:func:`check_regression`) ignores this key.
        report["profile"] = profile_run(quick)
    return report


def render(report: dict) -> str:
    cur = report["current"]
    speedup = report["speedup_vs_baseline"]
    lines = [
        f"benchmark harness (scheduler_version={report['scheduler_version']}, "
        f"{'quick' if report['quick'] else 'full'} mode)",
        "",
        "single run (build + plan + simulate, min wall time):",
    ]
    for name in ("fig4", "fig4_scaled"):
        c = cur[name]
        lines.append(
            f"  {name:<12} {c['wall_sec'] * 1e3:8.3f} ms   "
            f"{c['events_per_sec']:>12,.0f} events/s   "
            f"({c['events']} events, x{speedup.get(name, 0):.2f} vs "
            f"pre-optimization baseline)"
        )
    cache = cur["cache"]
    lines += [
        "",
        "run cache:",
        f"  fresh {cache['fresh_sec'] * 1e3:.3f} ms -> hit "
        f"{cache['hit_sec'] * 1e3:.3f} ms "
        f"(x{cache['hit_speedup']:.0f}), hit rate "
        f"{100 * cache['hit_rate']:.0f}%",
    ]
    incremental = cur.get("incremental")
    if incremental is not None:
        lines += [
            "",
            f"incremental re-simulation ({incremental['iterations']} "
            "iterations, byte-identity asserted):",
            f"  cold {incremental['cold_sec'] * 1e3:.3f} ms -> warm restore "
            f"{incremental['warm_sec'] * 1e3:.3f} ms "
            f"(per-probe x{incremental['per_probe_speedup']:.2f}, floor "
            f"x{incremental['gate_floor']:g}; prefix hit rate "
            f"{100 * incremental['hit_rate']:.0f}%, "
            f"{incremental['saved_iterations']} iteration(s) saved)",
        ]
    fleet = cur.get("fleet_scale")
    if fleet is not None:
        lines += ["", "fleet scale (harmony-dp, events/sec by device count):"]
        for point in fleet["points"]:
            plan_sec = point.get("plan_sec")
            plan = f"  plan {plan_sec * 1e3:8.1f} ms" if plan_sec else ""
            audit_sec = point.get("audit_sec")
            audit = f"  audit {audit_sec * 1e3:8.1f} ms" if audit_sec else ""
            lines.append(
                f"  {point['devices']:>5} devices "
                f"{point['wall_sec'] * 1e3:10.1f} ms   "
                f"{point['events_per_sec']:>12,.0f} events/s   "
                f"({point['events']:,} events){plan}{audit}"
            )
    sweep = cur["sweep"]
    lines += [
        "",
        f"sweep scaling ({sweep['points']} grid points):",
        f"  jobs=1 {sweep['serial_sec']:.3f} s -> jobs={sweep['jobs']} "
        f"{sweep['parallel_sec']:.3f} s (x{sweep['scaling']:.2f})",
    ]
    steady = cur["steady"]
    lines += [
        "",
        f"steady-state fast-forward ({steady['iterations']:,} iterations, "
        "identical results asserted):",
        f"  off {steady['off_sec']:.3f} s -> auto {steady['auto_sec']:.4f} s "
        f"(steady_speedup x{steady['steady_speedup']:.0f}, floor "
        f"x{steady['gate_floor']:g}; detected at iteration "
        f"{steady['detected_at']}, {steady['skipped']:,} skipped)",
    ]
    serve = cur.get("serve")
    if serve is not None:
        lines += [
            "",
            f"serve load ({serve['clients']} closed-loop clients, "
            f"{serve['jobs_done']} jobs):",
            f"  {serve['jobs_per_sec']:.1f} jobs/s sustained; latency "
            f"p50 {serve['p50_ms']:.1f} ms, p95 {serve['p95_ms']:.1f} ms, "
            f"p99 {serve['p99_ms']:.1f} ms "
            f"(cache hit rate {100 * serve['cache_hit_rate']:.0f}%, "
            f"{serve['rejections']} rejection(s))",
        ]
    recovery = cur.get("recovery")
    if recovery is not None:
        lines += [
            "",
            f"recovery-policy zoo ({', '.join(recovery['schemes'])}; "
            "simulated MTTR and goodput, worst scheme per policy):",
        ]
        for name, p in recovery["policies"].items():
            lines.append(
                f"  {name:<17} mttr p50 {p['mttr_p50']:7.3f} s  "
                f"p95 {p['mttr_p95']:7.3f} s   goodput ratio "
                f"{p['goodput_ratio']:.3f}"
            )
    profile = report.get("profile")
    if profile is not None:
        lines += [
            "",
            f"profile ({profile['devices']} devices, "
            f"{profile['events']:,} events, top {len(profile['top'])} "
            f"by {profile['sort']} time):",
            f"  {'ncalls':>10}  {'tottime':>9}  {'cumtime':>9}  function",
        ]
        for row in profile["top"]:
            lines.append(
                f"  {row['ncalls']:>10}  {row['tottime_sec']:9.3f}  "
                f"{row['cumtime_sec']:9.3f}  {row['function']}"
            )
    return "\n".join(lines)


def write_json(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def check_regression(
    report: dict, committed_path: str, threshold: float = 0.30
) -> int:
    """CI gate: measured fig4 events/sec must not fall more than
    ``threshold`` below the committed baseline figure.  Returns a
    process exit code (0 ok, 1 regression)."""
    try:
        with open(committed_path) as fh:
            committed = json.load(fh)
    except OSError as exc:
        print(f"bench check: cannot read {committed_path}: {exc}", file=sys.stderr)
        return 1
    reference = committed["baseline"]["fig4"].get("events_per_sec")
    if not reference:
        wall = committed["baseline"]["fig4"]["wall_sec"]
        reference = committed["current"]["fig4"]["events"] / wall
    measured = report["current"]["fig4"]["events_per_sec"]
    floor = (1.0 - threshold) * reference
    verdict = "ok" if measured >= floor else "REGRESSION"
    print(
        f"bench check: {measured:,.0f} events/s vs committed baseline "
        f"{reference:,.0f} (floor {floor:,.0f}): {verdict}"
    )
    failed = measured < floor

    steady = report["current"].get("steady")
    if steady is not None:
        # Same one-sided philosophy: the absolute gate_floor already
        # failed the run inside _time_steady if fast-forward broke, so
        # the committed comparison only guards against a *relative*
        # collapse — and only when the committed file measured the same
        # iteration count (quick and full points aren't comparable).
        committed_steady = committed.get("current", {}).get("steady")
        speedup = steady["steady_speedup"]
        if (
            committed_steady is not None
            and committed_steady.get("iterations") == steady["iterations"]
        ):
            steady_floor = (1.0 - threshold) * committed_steady["steady_speedup"]
        else:
            steady_floor = steady["gate_floor"]
        steady_verdict = "ok" if speedup >= steady_floor else "REGRESSION"
        print(
            f"bench check: steady_speedup x{speedup:.0f} at "
            f"{steady['iterations']:,} iterations "
            f"(floor x{steady_floor:.0f}): {steady_verdict}"
        )
        failed = failed or speedup < steady_floor

    incremental = report["current"].get("incremental")
    if incremental is not None:
        # One-sided, like the sections above: the absolute gate_floor
        # already failed the run inside _time_incremental; the committed
        # comparison guards a relative collapse at the same depth.
        committed_inc = committed.get("current", {}).get("incremental")
        speedup = incremental["per_probe_speedup"]
        if (
            committed_inc is not None
            and committed_inc.get("iterations") == incremental["iterations"]
        ):
            inc_floor = (1.0 - threshold) * committed_inc["per_probe_speedup"]
        else:
            inc_floor = incremental["gate_floor"]
        inc_verdict = "ok" if speedup >= inc_floor else "REGRESSION"
        print(
            f"bench check: incremental per-probe x{speedup:.2f} at "
            f"{incremental['iterations']} iterations "
            f"(floor x{inc_floor:.2f}): {inc_verdict}"
        )
        failed = failed or speedup < inc_floor

    fleet = report["current"].get("fleet_scale")
    if fleet is not None:
        committed_fleet = committed.get("current", {}).get("fleet_scale")
        committed_points = {
            p["devices"]: p for p in (committed_fleet or {}).get("points", ())
        }
        # Gate only the largest fleet present in both files: the small
        # fleets finish in ~100 ms, where scheduler jitter alone swings
        # events/sec by 2x and a 30% floor would fire on noise.  The
        # largest run is the one the gate exists for anyway — it is
        # where an event-loop regression costs the most.
        shared = [
            p for p in fleet["points"] if p["devices"] in committed_points
        ]
        if shared:
            point = max(shared, key=lambda p: p["devices"])
            reference = committed_points[point["devices"]]
            fleet_floor = (1.0 - threshold) * reference["events_per_sec"]
            measured_eps = point["events_per_sec"]
            fleet_verdict = "ok" if measured_eps >= fleet_floor else "REGRESSION"
            print(
                f"bench check: fleet {point['devices']} devices "
                f"{measured_eps:,.0f} events/s "
                f"(floor {fleet_floor:,.0f}): {fleet_verdict}"
            )
            failed = failed or measured_eps < fleet_floor
        # Scaling-shape gate, host-independent because it compares the
        # report against itself: the largest fleet's events/sec must
        # hold >= 45% of the 64-device figure.  This is the near-linear
        # scaling claim in absolute form — an O(N) per-event scan (or a
        # GC rescan regression) drags the big-fleet point to a fraction
        # of the small one long before the cross-host floor above fires.
        # On a shared 2-vCPU host, full mode (2048 vs 64) measured
        # 0.49-0.82 over healthy runs, 0.38-0.41 with the collector
        # left running through plan and run, and 0.18 at only 1024
        # devices with a device scan per completion; the floor sits
        # between.
        by_devices = {p["devices"]: p for p in fleet["points"]}
        small = by_devices.get(64)
        largest = max(fleet["points"], key=lambda p: p["devices"])
        if small is not None and largest["devices"] > 64:
            ratio = (
                largest["events_per_sec"] / small["events_per_sec"]
                if small["events_per_sec"] > 0
                else 0.0
            )
            ratio_floor = 0.45
            ratio_verdict = "ok" if ratio >= ratio_floor else "REGRESSION"
            print(
                f"bench check: fleet scaling {largest['devices']} vs 64 "
                f"devices holds {100 * ratio:.0f}% of events/s "
                f"(floor {100 * ratio_floor:.0f}%): {ratio_verdict}"
            )
            failed = failed or ratio < ratio_floor
        # Audit-cost gate, self-relative like the one above: auditing
        # the largest fleet's run must cost at most half of simulating
        # it.  A per-device rescan of the swap ledger (quadratic in
        # fleet size) put this ratio above 1 at 1024 devices.  Reports
        # written before the field existed carry no audit_sec and skip
        # the gate.
        audit_sec = largest.get("audit_sec")
        if audit_sec is not None:
            run_sec = largest["wall_sec"] / largest["runs_per_block"]
            audit_ratio = audit_sec / run_sec if run_sec > 0 else float("inf")
            audit_ceiling = 0.5
            audit_verdict = (
                "ok" if audit_ratio <= audit_ceiling else "REGRESSION"
            )
            print(
                f"bench check: fleet audit at {largest['devices']} devices "
                f"costs {audit_ratio:.2f}x the run it audits "
                f"(ceiling {audit_ceiling:g}x): {audit_verdict}"
            )
            failed = failed or audit_ratio > audit_ceiling

    recovery = report["current"].get("recovery")
    if recovery is not None:
        # Goodput ratios are simulated (host-independent), but the gate
        # stays one-sided at the usual threshold: recovery getting
        # *cheaper* is progress, only a collapse fails.  Comparable only
        # when the committed run covered the same schemes.
        committed_rec = committed.get("current", {}).get("recovery")
        comparable = (
            committed_rec is not None
            and committed_rec.get("schemes") == recovery["schemes"]
        )
        for name, p in recovery["policies"].items():
            ratio = p["goodput_ratio"]
            if comparable and name in committed_rec["policies"]:
                rec_floor = (1.0 - threshold) * (
                    committed_rec["policies"][name]["goodput_ratio"]
                )
            else:
                rec_floor = 0.0  # absolute sanity: recovered with progress
            rec_verdict = "ok" if ratio >= rec_floor and ratio > 0 else "REGRESSION"
            print(
                f"bench check: recovery {name} goodput ratio {ratio:.3f} "
                f"(floor {rec_floor:.3f}): {rec_verdict}"
            )
            failed = failed or ratio < rec_floor or ratio <= 0

    return 1 if failed else 0
