"""Command-line interface: ``python -m repro <command>``.

Commands
--------
figures
    Regenerate every paper figure/table as text (Fig. 1-5, §4).
zoo
    List the model zoo with published vs reconstructed parameter counts.
compare MODEL
    Run all training schemes for MODEL on the 4x 1080Ti server and
    print the comparison table.
tune MODEL
    Run the performance tuner for MODEL (harmony-pp granularity search).
timeline MODEL SCHEME
    Print the ASCII schedule timeline for one scheme.
audit MODEL
    Audit every scheme's run against the physical-consistency
    invariants and cross-check the schedulers differentially
    (``repro.validate``).  ``compare``/``timeline`` also accept
    ``--audit`` to self-check as they run.
faults
    MTTF sweep under seeded fault injection (``repro.faults``):
    harmony-dp/harmony-pp vs their rigid baselines at increasing
    device-loss rates, each faulty run audited.  Exits nonzero when any
    run fails to recover or fails its audit.  ``--trace-out`` dumps the
    deterministic merged trace of one seeded faulty run (running twice
    with the same seed must produce byte-identical files).
bench
    Tracked benchmark harness (``repro.perf``): single-run wall time
    and events/sec on the Fig. 4 workload, cache hit latency, and
    parallel-sweep scaling.  ``--out BENCH_sim.json`` records the
    numbers; ``--check BENCH_sim.json`` is the CI regression gate.
resume
    Re-run the command recorded in a ``--journal`` file, replaying
    every spec the interrupted run completed and executing only the
    remainder.  Output (minus ``supervisor:`` status lines) is
    byte-identical to an uninterrupted run.
serve
    Long-running multi-tenant job server (``repro.serve``): tenants
    POST simulate/sweep/tune/faults jobs as JSON, jobs run under
    per-job supervisors sharing one run cache, and admission is
    bounded by per-tenant quotas (429) and a global queue limit
    (503 + Retry-After).  SIGTERM drains gracefully; restarting with
    the same ``--state-dir`` recovers acknowledged jobs from the
    fsync'd ledger and replays journal-settled specs byte-identically.

Sweep-shaped commands (``figures``, ``compare``, ``tune``, ``faults``,
``bench``) accept ``--jobs N`` to fan independent simulations out over
the supervisor's worker pool; output is byte-identical to ``--jobs 1``
because results always come back in submission order.
``compare``/``tune`` also accept ``--cache-dir``/``--no-cache`` to
control the content-addressed run cache (see ``docs/INTERNALS.md``,
Performance).

``compare`` and ``tune`` accept ``--steady-state
{auto,off,force}``: ``auto`` (the default) detects when an iteration
replays its predecessor bit-for-bit and fast-forwards the remaining
iterations analytically (``repro.steady``), ``off`` simulates every
iteration in full fidelity, and ``force`` errors unless the fast path
engaged.  Results are identical either way, except that a
fast-forwarded run's ``memory_profile`` samples only its live
iterations.  ``compare`` also accepts ``--iterations N`` to size
multi-iteration runs.

The same sweep-shaped commands accept ``--journal PATH`` to run under
the crash-safe supervisor (``repro.supervisor``): every spec outcome
is journaled to an fsync'd JSONL write-ahead log, crashed workers are
respawned, hung specs are killed after ``--spec-timeout`` seconds, and
flaky specs retry with backoff until ``--max-attempts`` before being
quarantined.  The supervisor prints a ``supervisor:`` report after the
sweep; all of its status lines carry that prefix so determinism checks
can filter them out.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from repro import BatchConfig, HarmonyConfig, HarmonySession, compare_runs
from repro.core.report import audit_summary
from repro.errors import (
    AuditError,
    ConfigError,
    DrainedError,
    PoisonedSpecError,
    ReproError,
)
from repro.hardware import presets
from repro.models import zoo
from repro.perf import RunCache, RunSpec
from repro.schedulers import scheme_names
from repro.supervisor import RetryPolicy, Supervisor, Task, drain_on_signals
from repro.tuner.search import tune
from repro.units import GB
from repro.validate import differential_check

#: Every registered scheme, in registry order — the single list the
#: compare/timeline/audit/faults commands enumerate or offer as
#: ``--scheme`` choices.  Grows automatically with the registry.
SCHEMES = list(scheme_names())


def _jobs(args: argparse.Namespace, fallback: int = 1) -> int:
    """Resolve ``--jobs``: the flag when given, else the command's
    natural default."""
    jobs = getattr(args, "jobs", None)
    return jobs if jobs is not None else fallback


def _default_cache_dir() -> str:
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def _make_cache(args: argparse.Namespace) -> RunCache | None:
    """The run cache a command should use: disabled by ``--no-cache``,
    on-disk under ``--cache-dir`` (bare flag means ``~/.cache/repro``),
    otherwise in-memory for the life of the process."""
    if getattr(args, "no_cache", False):
        return None
    return RunCache(cache_dir=getattr(args, "cache_dir", None))


def _durable(args: argparse.Namespace) -> bool:
    """Whether ``--journal`` or ``--spec-timeout`` asked for the
    durable supervisor (journal, watchdog, retries, drain, report)."""
    return (
        getattr(args, "journal", None) is not None
        or getattr(args, "spec_timeout", None) is not None
    )


def _make_supervisor(
    args: argparse.Namespace,
    cache: RunCache | None = None,
    jobs: int | None = None,
) -> Supervisor:
    """The supervisor a sweep command runs on: durable when
    :func:`_durable`, otherwise :meth:`Supervisor.plain`."""
    jobs = jobs if jobs is not None else _jobs(args)
    if not _durable(args):
        return Supervisor.plain(jobs, cache=cache)
    return Supervisor(
        jobs=jobs,
        cache=cache,
        policy=RetryPolicy(
            max_attempts=getattr(args, "max_attempts", 3),
            timeout=getattr(args, "spec_timeout", None),
        ),
        journal=getattr(args, "journal", None),
        command=getattr(args, "_argv", None),
    )


def _drain_scope(args: argparse.Namespace, sup: Supervisor):
    """Signal scope for durable runs: the first SIGTERM/SIGINT
    requests a graceful drain (in-flight specs settle and are
    journaled, unstarted ones are left for a resume) instead of
    killing the sweep mid-write.  A second signal interrupts as
    usual.  Plain runs keep the default signal behaviour."""
    if not _durable(args):
        return contextlib.nullcontext()
    return drain_on_signals(sup)


def _print_report(args: argparse.Namespace, sup: Supervisor) -> None:
    """The ``supervisor:`` report, printed by durable runs only."""
    if _durable(args):
        print(sup.report.render())


# Figure sections as top-level functions so ``figures --jobs N`` can
# ship them to worker processes (closures don't pickle).
def _render_fig1() -> str:
    from repro.experiments import fig1_growth
    return fig1_growth.table().render()


def _render_fig2a() -> str:
    from repro.experiments import fig2a_dp_swap
    return fig2a_dp_swap.table().render()


def _render_fig2b() -> str:
    from repro.experiments import fig2b_interconnect
    return fig2b_interconnect.table().render()


def _render_fig2c() -> str:
    from repro.experiments import fig2c_pp_imbalance
    return fig2c_pp_imbalance.table().render()


def _render_fig4() -> str:
    from repro.experiments import fig4_schedule
    return fig4_schedule.describe()


def _render_fig5() -> str:
    from repro.experiments import fig5_swap_volumes
    return fig5_swap_volumes.table().render()


def _render_sec4() -> str:
    from repro.experiments import sec4_feasibility
    return sec4_feasibility.run().table.render()


_FIGURE_SECTIONS = [
    ("Fig. 1", _render_fig1),
    ("Fig. 2(a)", _render_fig2a),
    ("Fig. 2(b)", _render_fig2b),
    ("Fig. 2(c)", _render_fig2c),
    ("Fig. 4", _render_fig4),
    ("Fig. 5", _render_fig5),
    ("Section 4", _render_sec4),
]


def _render_section(index: int) -> str:
    """Worker: render one figure section to a string."""
    return _FIGURE_SECTIONS[index][1]()


def cmd_figures(args: argparse.Namespace) -> int:
    sup = _make_supervisor(args)
    tasks = [
        Task(key=f"figure:{title}", fn=_render_section, payload=i, label=title)
        for i, (title, _) in enumerate(_FIGURE_SECTIONS)
    ]
    with _drain_scope(args, sup):
        rendered = sup.run_tasks(tasks, return_exceptions=True)
    drained = [
        title
        for (title, _), text in zip(_FIGURE_SECTIONS, rendered)
        if isinstance(text, DrainedError)
    ]
    if drained:
        print(
            f"supervisor: drained before rendering {', '.join(drained)}; "
            "resume with the same journal to finish"
        )
        print(sup.report.render())
        return 1
    for text in rendered:
        if isinstance(text, ReproError):
            raise text
    for (title, _), text in zip(_FIGURE_SECTIONS, rendered):
        print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))
        print(text)
    _print_report(args, sup)
    return 0


def cmd_zoo(_: argparse.Namespace) -> int:
    from repro.experiments import fig1_growth

    print(fig1_growth.table().render())
    return 0


def _build(args: argparse.Namespace):
    model = zoo.build(args.model)
    server = presets.gtx1080ti_server(num_gpus=args.gpus)
    batch = BatchConfig(args.microbatch_size, args.microbatches)
    return model, server, batch


def cmd_compare(args: argparse.Namespace) -> int:
    model, server, batch = _build(args)
    if args.schedule_zoo:
        from repro.experiments import schedule_zoo

        sup = _make_supervisor(args, cache=_make_cache(args))
        rows = schedule_zoo.run(model, server, batch, supervisor=sup)
        print(schedule_zoo.table(rows).render())
        print()
        print(schedule_zoo.stage_memory_figure(rows))
        _print_report(args, sup)
        return 0
    print(model.describe())
    state = model.param_bytes + model.grad_bytes + model.optimizer_bytes
    print(f"training state: {state / GB:.1f} GB; {args.gpus} GPUs x 11 GB\n")
    specs = [
        RunSpec(
            model, server,
            HarmonyConfig(
                scheme, batch=batch, audit=args.audit,
                iterations=args.iterations,
                steady_state=args.steady_state,
            ),
            label=scheme,
        )
        for scheme in SCHEMES
    ]
    cache = _make_cache(args)
    sup = _make_supervisor(args, cache=cache)
    with _drain_scope(args, sup):
        outcomes = sup.run_specs(specs, return_exceptions=True)
    results = []
    for scheme, outcome in zip(SCHEMES, outcomes):
        if isinstance(outcome, AuditError):
            print(f"{scheme}: FAILED AUDIT ({outcome})")
            return 1
        if isinstance(outcome, PoisonedSpecError):
            print(f"{scheme}: QUARANTINED ({outcome})")
        elif isinstance(outcome, DrainedError):
            print(f"{scheme}: DRAINED (not started; resume with the same journal)")
        elif isinstance(outcome, ReproError):
            print(f"{scheme}: infeasible ({outcome})")
        else:
            results.append(outcome)
    print(compare_runs(results).render())
    if args.audit:
        print()
        print(audit_summary([r.audit for r in results if r.audit]).render())
    if cache is not None and args.cache_dir:
        print(f"\n{cache.describe()}")
    _print_report(args, sup)
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    model, server, batch = _build(args)
    cache = _make_cache(args)
    # Without a durable supervisor the tuner probes in this process (or
    # on a plain pool of --jobs workers), handing each probe the live
    # checkpoint store.
    sup = _make_supervisor(args) if _durable(args) else None
    checkpoints = None
    if args.profile_iterations > 1 or args.checkpoint_dir:
        from repro.perf.incremental import CheckpointStore

        checkpoints = CheckpointStore(args.checkpoint_dir)
    with _drain_scope(args, sup):
        outcome = tune(
            model, server, batch.per_replica_batch, cache=cache,
            jobs=_jobs(args), supervisor=sup,
            profile_iterations=args.profile_iterations,
            steady_state=args.steady_state,
            checkpoints=checkpoints,
        )
    print(outcome.table().render())
    print(f"\nbest: {outcome.best.label} at {outcome.best.throughput:.3f} samples/s")
    if cache is not None:
        print(
            f"cache: {outcome.cache_hits} hits / "
            f"{outcome.cache_misses} misses "
            f"(hill-climb hit rate {100 * outcome.hill_climb_hit_rate:.0f}%)"
        )
    if checkpoints is not None:
        print(checkpoints.describe())
        if outcome.prefix_hits or outcome.prefix_misses:
            print(
                f"prefix reuse: {outcome.prefix_hits} restores / "
                f"{outcome.prefix_misses} cold probes "
                f"({100 * outcome.prefix_hit_rate:.0f}% hit rate), "
                f"{outcome.saved_iterations} iteration(s) skipped"
            )
    _print_report(args, sup)
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    model, server, batch = _build(args)
    session = HarmonySession(
        model, server, HarmonyConfig(args.scheme, batch=batch, audit=args.audit)
    )
    print(session.summary())
    print()
    print(session.timeline(width=110))
    if args.audit:
        print()
        print(session.audit_report().render())
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    model, server, batch = _build(args)
    schemes = [args.scheme] if args.scheme else SCHEMES
    reports = []
    failed = False
    for scheme in schemes:
        session = HarmonySession(model, server, HarmonyConfig(scheme, batch=batch))
        try:
            report = session.audit_report()
        except ReproError as exc:
            print(f"{scheme}: infeasible ({exc})")
            continue
        reports.append(report)
        failed = failed or not report.passed
    print(audit_summary(reports).render())
    for report in reports:
        if not report.passed:
            print()
            print(report.table().render())
    if args.differential and not args.scheme:
        # The cross-scheduler check needs a global batch divisible by
        # the GPU count; scale the per-replica figure up.
        print()
        diff = differential_check(
            model, server, args.microbatches * args.gpus,
            microbatch_size=args.microbatch_size,
        )
        print(diff.render())
        failed = failed or not diff.passed
    return 1 if failed else 0


def _dump_resilient_trace(result, path: str) -> None:
    """Serialize a resilient run deterministically (``repr`` floats keep
    full precision): the CI determinism job runs the same seeded sweep
    twice and byte-diffs these files."""
    fr = result.faults
    lines = [f"label={result.label}"]
    for seg in fr.segments:
        lines.append(
            f"segment {seg.index} iteration={seg.iteration} "
            f"start={seg.started_at!r} duration={seg.duration!r} "
            f"aborted={seg.aborted} lost={seg.lost_device}"
        )
        for ev in seg.result.trace.events:
            lines.append(
                f"  {ev.device} {ev.category} {ev.label} "
                f"{ev.start!r} {ev.end!r} {ev.nbytes!r}"
            )
    for inc in fr.incidents:
        lines.append(
            f"incident {inc.device} {inc.kind} occurred={inc.occurred_at!r} "
            f"suspected={inc.suspected_at!r} confirmed={inc.confirmed_at!r} "
            f"exonerated={inc.exonerated_at!r} recovered={inc.recovered_at!r} "
            f"action={inc.action} false_positive={inc.false_positive} "
            f"detector={inc.detector}"
        )
    lines.append(
        f"makespan={fr.total_makespan!r} samples={fr.samples} "
        f"retried_bytes={fr.retried_bytes!r} retry_events={fr.retry_events} "
        f"losses={fr.device_losses!r} replans={fr.replans} "
        f"rejoins={fr.rejoins} spares={fr.spares_used} "
        f"stall={fr.stall_seconds!r} heartbeats={fr.heartbeats_observed} "
        f"recovered={fr.recovered}"
    )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _validate_faults_args(args: argparse.Namespace) -> None:
    """Structured validation for ``repro faults`` — every rejection
    names the offending value and the valid range."""
    if args.iterations < 1:
        raise ConfigError(
            f"--iterations must be >= 1, got {args.iterations}"
        )
    if args.gpus < 1:
        raise ConfigError(f"--gpus must be >= 1, got {args.gpus}")
    for mttf in args.mttf or ():
        if not mttf > 0:
            raise ConfigError(
                f"--mttf values must be > 0 iteration times, got {mttf:g} "
                f"(use 'inf' for a healthy column)"
            )
    if not 0.0 <= args.transient_probability < 1.0:
        raise ConfigError(
            f"--transient-probability must be in [0, 1), got "
            f"{args.transient_probability:g}"
        )
    if args.grace < 0:
        raise ConfigError(
            f"--grace must be >= 0 seconds (the wait-rejoin hold), got "
            f"{args.grace:g}"
        )
    if args.spares < 0:
        raise ConfigError(
            f"--spares must be >= 0 standby devices, got {args.spares}"
        )
    if args.straggler != 0 and args.straggler < 1:
        raise ConfigError(
            f"--straggler must be 0 (off) or a slowdown >= 1, got "
            f"{args.straggler:g}"
        )


def cmd_faults(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from repro.experiments import faults_degradation
    from repro.faults import (
        ComputeStraggler,
        DetectorConfig,
        ResiliencePolicy,
        SpareDevice,
        run_resilient,
    )
    from repro.validate import audit_resilient

    _validate_faults_args(args)
    model = (
        zoo.build(args.model)
        if args.model
        else zoo.synthetic_uniform(num_layers=8)
    )
    mttfs = tuple(args.mttf) if args.mttf else (float("inf"), 8.0, 4.0, 2.5)

    failed: list = []
    if args.recovery:
        # MTTR x policy x scheme sweep on a fixed fault scenario.
        sup = _make_supervisor(args)
        with _drain_scope(args, sup):
            rows = faults_degradation.run_recovery(
                model=model,
                num_gpus=args.gpus,
                iterations=args.iterations,
                seed=args.seed,
                supervisor=sup,
            )
        print(faults_degradation.recovery_table(rows).render())
        _print_report(args, sup)
        failed = [r for r in rows if not r.recovered]
        for row in failed:
            print(f"RECOVERY FAILED: {row.scheme} under {row.policy}")
    else:
        sup = _make_supervisor(args)
        with _drain_scope(args, sup):
            rows = faults_degradation.run(
                model=model,
                num_gpus=args.gpus,
                iterations=args.iterations,
                mttf_iters=mttfs,
                transient_probability=args.transient_probability,
                seed=args.seed,
                supervisor=sup,
            )
        print(faults_degradation.table(rows).render())
        _print_report(args, sup)

        comparisons = faults_degradation.gracefulness(rows)
        if comparisons:
            print()
            for harmony, baseline, mttf, h_ratio, b_ratio in comparisons:
                verdict = "more graceful" if h_ratio > b_ratio else "NOT more graceful"
                print(
                    f"mttf={mttf:g}: {harmony} retains {h_ratio:.3f} vs "
                    f"{baseline} {b_ratio:.3f} -> {verdict}"
                )

        failed = [r for r in rows if not r.recovered]
        for row in failed:
            print(f"RECOVERY FAILED: {row.scheme} at mttf={row.mttf_iters:g}")

    if args.trace_out:
        # One seeded faulty run, dumped deterministically for the CI
        # determinism diff, on a degradation cell's fault plan (MTTF
        # and horizon in the scheme's fault-free iteration times).
        # --recovery-policy/--detector/--straggler/--spares/--grace
        # shape this run only, so CI can byte-diff a false-positive
        # suspicion case too.
        server = presets.gtx1080ti_server(num_gpus=args.gpus)
        config = HarmonyConfig(args.scheme)
        iter_time = faults_degradation.iteration_time(
            args.scheme, model, server, config.batch
        )
        finite = [m for m in mttfs if m != float("inf")]
        mttf_iters = min(finite) if finite else 2.5
        mttf = mttf_iters * iter_time  # seconds to the first loss
        extra: list = [SpareDevice(f"spare{i}") for i in range(args.spares)]
        if args.straggler:
            # Throttle the last GPU from the start.  With the heartbeat
            # interval pinned to mttf/8 below, its first stretched gap
            # (slowdown x mttf/8) both trips the adaptive detector and
            # completes before the earliest loss (at mttf) — one
            # deterministic false positive, exonerated on resumption.
            extra.append(ComputeStraggler(
                server.gpus()[-1].name, slowdown=args.straggler,
                start=0.0, end=0.5 * mttf,
            ))
        plan = faults_degradation.mttf_plan(
            server, mttf_iters, iter_time, args.iterations, args.seed,
            tuple(extra),
        )
        policy = dc_replace(
            ResiliencePolicy.for_scheme(args.scheme),
            recovery=args.recovery_policy,
            grace_window=args.grace,
            # Interval pinned to an eighth of the time to the first
            # loss, so the straggler's false-positive window is the same
            # share of it on every workload.
            detection=DetectorConfig(kind=args.detector, interval=mttf / 8.0),
        )
        result = run_resilient(
            model, server, config, plan,
            policy=policy, iterations=args.iterations,
        )
        audit = audit_resilient(result.faults)
        if not audit.passed:
            print(audit.table().render())
            return 1
        _dump_resilient_trace(result, args.trace_out)
        print(f"\nwrote deterministic trace to {args.trace_out}")
        if not result.faults.recovered:
            print("RECOVERY FAILED: the --trace-out run")
            return 1

    return 1 if failed else 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf import bench

    # Sections run one at a time under the supervisor (jobs=1) so the
    # wall-clock measurements aren't perturbed by sibling sections.
    sup = _make_supervisor(args, jobs=1)
    report = bench.run_bench(
        quick=args.quick,
        jobs=_jobs(args, fallback=4),
        supervisor=sup,
        profile=args.profile,
    )
    print(bench.render(report))
    _print_report(args, sup)
    if args.out:
        bench.write_json(report, args.out)
        print(f"\nwrote {args.out}")
    if args.check:
        print()
        return bench.check_regression(report, args.check)
    return 0


def _rewrite_journal_path(argv: list[str], path: str) -> list[str]:
    """Point the recorded command's ``--journal`` at the file we are
    resuming from — the journal may have been renamed or moved since
    the interrupted run wrote its header."""
    out = list(argv)
    for i, token in enumerate(out):
        if token == "--journal" and i + 1 < len(out):
            out[i + 1] = path
            return out
        if token.startswith("--journal="):
            out[i] = f"--journal={path}"
            return out
    return out + ["--journal", path]


def cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.serve import JobServer, ServeConfig
    from repro.serve.tenants import TenantPolicy, parse_tenant_policies

    tenants = {}
    if args.tenant_config:
        with open(args.tenant_config) as fh:
            tenants = parse_tenant_policies(json.load(fh))
    config = ServeConfig(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        workers=args.workers,
        sup_jobs=_jobs(args),
        isolation=args.isolation,
        max_queue=args.max_queue,
        default_tenant=TenantPolicy(max_jobs=args.tenant_max_jobs),
        tenants=tenants,
        max_attempts=args.max_attempts,
        spec_timeout=args.spec_timeout,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        drain_grace=args.drain_grace,
    )
    return JobServer(config).run()


def cmd_resume(args: argparse.Namespace) -> int:
    from repro.supervisor import load_journal

    state = load_journal(args.journal)
    if not state.command:
        print(
            f"error: {args.journal} records no command to resume "
            "(missing or torn journal header)",
            file=sys.stderr,
        )
        return 1
    if state.command[0] == "resume":
        print(
            f"error: {args.journal} was written by a resume command; "
            "refusing to recurse",
            file=sys.stderr,
        )
        return 1
    argv = _rewrite_journal_path(list(state.command), args.journal)
    print(f"supervisor: resuming `repro {' '.join(argv)}` ({state.describe()})")
    return main(argv)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Harmony (HotOS '21) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    jobs_parent = argparse.ArgumentParser(add_help=False)
    jobs_parent.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan independent simulations out over N worker processes "
             "(results stay in deterministic order; default 1)",
    )

    cache_parent = argparse.ArgumentParser(add_help=False)
    cache_parent.add_argument(
        "--cache-dir", nargs="?", const=_default_cache_dir(), default=None,
        metavar="DIR",
        help="persist the run cache on disk (bare flag: ~/.cache/repro)",
    )
    cache_parent.add_argument(
        "--no-cache", action="store_true",
        help="disable the content-addressed run cache entirely",
    )

    steady_parent = argparse.ArgumentParser(add_help=False)
    steady_parent.add_argument(
        "--steady-state", choices=["auto", "off", "force"], default=None,
        dest="steady_state", metavar="MODE",
        help="periodicity fast-forward (repro.steady): auto detects "
             "steady state and skips proven-identical iterations "
             "analytically (default), off simulates every iteration, "
             "force errors unless the fast path engaged",
    )

    journal_parent = argparse.ArgumentParser(add_help=False)
    journal_parent.add_argument(
        "--journal", default=None, metavar="PATH",
        help="run under the crash-safe supervisor, journaling every spec "
             "outcome to PATH (fsync'd JSONL); re-running with the same "
             "journal — or `repro resume --journal PATH` — replays "
             "completed specs and executes only the remainder",
    )
    journal_parent.add_argument(
        "--spec-timeout", type=float, default=None, metavar="SECONDS",
        help="watchdog: kill the worker pool and retry any spec that runs "
             "longer than this (implies the supervisor; default: no limit)",
    )
    journal_parent.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="quarantine a spec after N failed attempts (crash, hang, or "
             "retryable error; default 3)",
    )

    sub.add_parser(
        "figures", parents=[jobs_parent, journal_parent],
        help="regenerate every paper figure",
    )
    sub.add_parser("zoo", help="list the model zoo (Fig. 1 data)")

    def add_workload(p: argparse.ArgumentParser) -> None:
        p.add_argument("model", choices=zoo.names(), help="model zoo entry")
        p.add_argument("--gpus", type=int, default=4)
        p.add_argument("--microbatch-size", type=int, default=1)
        p.add_argument("--microbatches", type=int, default=4)

    compare_p = sub.add_parser(
        "compare",
        parents=[jobs_parent, cache_parent, journal_parent, steady_parent],
        help="run all schemes head-to-head",
    )
    add_workload(compare_p)
    compare_p.add_argument(
        "--audit", action="store_true",
        help="audit every run's physical consistency as it executes",
    )
    compare_p.add_argument(
        "--iterations", type=int, default=1, metavar="N",
        help="training iterations per scheme (multi-iteration runs are "
             "eligible for --steady-state fast-forward; default 1)",
    )
    compare_p.add_argument(
        "--schedule-zoo", action="store_true", dest="schedule_zoo",
        help="print the schedule-zoo figure instead of the comparison "
             "table: per-stage peak activation memory vs throughput "
             "across every registered scheduler",
    )

    tune_p = sub.add_parser(
        "tune",
        parents=[jobs_parent, cache_parent, journal_parent, steady_parent],
        help="search task granularity",
    )
    add_workload(tune_p)
    tune_p.add_argument(
        "--profile-iterations", type=int, default=1, metavar="N",
        help="simulated iterations per probe (settled throughput rather "
             "than a first-iteration estimate; default 1)",
    )
    tune_p.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="prefix-checkpoint store for multi-iteration probes: "
             "re-probes restore the deepest shared iteration boundary "
             "instead of cold-starting (byte-identical); persists "
             "across runs when DIR is given",
    )

    timeline_p = sub.add_parser("timeline", help="print a schedule timeline")
    add_workload(timeline_p)
    timeline_p.add_argument("--scheme", choices=SCHEMES, default="harmony-pp")
    timeline_p.add_argument(
        "--audit", action="store_true",
        help="audit the run's physical consistency",
    )

    audit_p = sub.add_parser(
        "audit", help="audit runs against the physical-consistency invariants"
    )
    add_workload(audit_p)
    audit_p.add_argument(
        "--scheme", choices=SCHEMES, default=None,
        help="audit one scheme only (default: all)",
    )
    audit_p.add_argument(
        "--no-differential", dest="differential", action="store_false",
        help="skip the cross-scheduler differential check",
    )

    faults_p = sub.add_parser(
        "faults", parents=[jobs_parent, journal_parent],
        help="MTTF sweep: goodput degradation under fault injection",
    )
    faults_p.add_argument(
        "--model", choices=zoo.names(), default=None,
        help="model zoo entry (default: a fast synthetic model)",
    )
    faults_p.add_argument("--gpus", type=int, default=4)
    faults_p.add_argument("--iterations", type=int, default=6)
    faults_p.add_argument(
        "--mttf", type=float, nargs="*", default=None,
        help="MTTF values in fault-free iteration times "
             "(default: inf 8 4 2.5; 'inf' allowed)",
    )
    faults_p.add_argument("--seed", type=int, default=1)
    faults_p.add_argument(
        "--transient-probability", type=float, default=0.02,
        help="per-transfer transient failure probability",
    )
    faults_p.add_argument(
        "--scheme", choices=SCHEMES, default="harmony-dp",
        help="scheme for the --trace-out determinism run",
    )
    faults_p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="dump the deterministic trace of one seeded faulty run",
    )
    faults_p.add_argument(
        "--recovery", action="store_true",
        help="sweep the recovery-policy zoo instead: MTTR and goodput "
             "per (scheme, policy) on a fixed fault scenario",
    )
    from repro.faults.detection import detector_names
    from repro.faults.recovery import recovery_names

    faults_p.add_argument(
        "--recovery-policy", choices=recovery_names(),
        default="restart-replan",
        help="recovery policy for the --trace-out determinism run",
    )
    faults_p.add_argument(
        "--detector", choices=detector_names(), default="none",
        help="failure detector for the --trace-out run (none confirms a "
             "loss the instant it strikes; the others detect it from "
             "missed heartbeats)",
    )
    faults_p.add_argument(
        "--grace", type=float, default=0.0,
        help="wait-rejoin grace window in simulated seconds (>= 0)",
    )
    faults_p.add_argument(
        "--spares", type=int, default=0,
        help="cold standby devices added to the --trace-out plan (>= 0)",
    )
    faults_p.add_argument(
        "--straggler", type=float, default=0.0,
        help="throttle one device by this slowdown (0 = off, else >= 1) "
             "to reproduce a detector false positive",
    )

    bench_p = sub.add_parser(
        "bench", parents=[jobs_parent, journal_parent],
        help="benchmark the simulator (events/sec, cache, sweep scaling)",
    )
    bench_p.add_argument(
        "--quick", action="store_true",
        help="fewer repeats and a smaller sweep grid (CI smoke mode)",
    )
    bench_p.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSON report (the tracked file is BENCH_sim.json)",
    )
    bench_p.add_argument(
        "--check", default=None, metavar="PATH",
        help="regression gate: exit nonzero if measured events/sec falls "
             ">30%% below the committed baseline in PATH",
    )
    bench_p.add_argument(
        "--profile", action="store_true",
        help="run one large-fleet simulation under cProfile and append "
             "the top functions by cumulative time to the report "
             "(deterministic call counts; ignored by --check)",
    )

    serve_p = sub.add_parser(
        "serve", parents=[jobs_parent, cache_parent],
        help="run the multi-tenant simulation job server (repro.serve)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=8080,
        help="listen port (0 picks a free port; default 8080)",
    )
    serve_p.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="durability root: jobs ledger, per-job journals, endpoint "
             "file; restarting with the same DIR recovers acknowledged "
             "jobs (default: ephemeral, no crash recovery)",
    )
    serve_p.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent jobs (--jobs sets worker processes per job; "
             "default 2)",
    )
    serve_p.add_argument(
        "--isolation", choices=["process", "inline"], default="process",
        help="run each spec in a supervised worker process (crash "
             "isolation + watchdog) or inline in the job thread "
             "(lower overhead; default process)",
    )
    serve_p.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="global admission bound: queued jobs beyond N are refused "
             "with 503 + Retry-After (default 64)",
    )
    serve_p.add_argument(
        "--tenant-max-jobs", type=int, default=8, metavar="N",
        help="default per-tenant quota: jobs queued+running at once "
             "before 429 (default 8)",
    )
    serve_p.add_argument(
        "--tenant-config", default=None, metavar="PATH",
        help='JSON file of per-tenant policies: '
             '{"alice": {"weight": 2.0, "max_jobs": 16}}',
    )
    serve_p.add_argument(
        "--spec-timeout", type=float, default=None, metavar="SECONDS",
        help="watchdog ceiling per spec attempt (also clamps per-job "
             "timeout_sec requests; process isolation only)",
    )
    serve_p.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="quarantine a spec after N failed attempts (default 3)",
    )
    serve_p.add_argument(
        "--drain-grace", type=float, default=None, metavar="SECONDS",
        help="on SIGTERM, wait this long for running jobs before "
             "draining their supervisors (default: wait indefinitely)",
    )

    resume_p = sub.add_parser(
        "resume",
        help="re-run the command recorded in a journal, replaying every "
             "spec it completed before being interrupted",
    )
    resume_p.add_argument(
        "--journal", required=True, metavar="PATH",
        help="journal written by an interrupted --journal run",
    )

    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    args = parser.parse_args(raw_argv)
    # The exact argv, recorded in the journal header so `repro resume`
    # can re-invoke the interrupted command.
    args._argv = raw_argv
    handlers = {
        "figures": cmd_figures,
        "zoo": cmd_zoo,
        "compare": cmd_compare,
        "tune": cmd_tune,
        "timeline": cmd_timeline,
        "audit": cmd_audit,
        "faults": cmd_faults,
        "bench": cmd_bench,
        "serve": cmd_serve,
        "resume": cmd_resume,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
