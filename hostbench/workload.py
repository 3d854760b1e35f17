"""The workload process: set up one workload, run its ops, check each
op against its reference digest and print one JSON line for
``run.py``.

An op's latency covers the call and then one full garbage collection:
the program pauses the cyclic collector around planning and the event
loop and leaves the cycles it defers to a later collection, which an op
therefore pays for.  Untimed between ops: the digest check and removal
of the op's scratch files.  Once set-up ends, its objects are collected
and frozen (``gc.freeze``), so collections scan what the ops allocate,
not the inputs they share.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time

import layout
import spans
from digests import load_reference, mismatches, normalise


class Checker:
    """Runs ops, times them and checks their outcomes."""

    def __init__(self, workload, reference: dict):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, keys: list[str], recorder=None) -> list[float]:
        from ops import Expected  # imports repro

        latencies = []
        for key in keys:
            if recorder is not None:
                recorder.op = self.attempted
            self.attempted += 1
            error = None
            start = time.perf_counter()
            try:
                outcome = self.workload.run(key)
            except Expected as exc:
                outcome = exc
            except Exception as exc:  # noqa: BLE001 -- an op failure, reported
                outcome = None
                error = f"{type(exc).__name__}: {exc}"
            gc.collect()
            latencies.append(time.perf_counter() - start)
            if error is None and not isinstance(outcome, Expected):
                error = self.workload.failure(key, outcome)
            if error is None:
                diff = mismatches(
                    self.reference.get(key),
                    normalise(self.workload.digest(key, outcome)),
                )
                if diff:
                    error = "digest mismatch: " + "; ".join(diff[:3])
            if error is not None:
                self.failures.append(f"{key}: {error}")
            self.workload.cleanup(key, outcome)
            del outcome
        return latencies


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest worker (KB on
    Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def set_up(workload, recorder=None) -> None:
    """Build the workload's inputs, traced when a recorder is given, then
    collect and freeze everything alive."""
    if recorder is not None:
        recorder.install()
    try:
        workload.setup()
    finally:
        if recorder is not None:
            recorder.uninstall()
    gc.collect()
    gc.freeze()


def timed(args, workload, checker) -> dict:
    keys = workload.round(args.seed)
    latencies: list[float] = []
    started = time.perf_counter()
    while True:
        latencies += checker.run(keys)
        if time.perf_counter() - started >= args.seconds:
            break
    return {
        "latencies": latencies,
        "round_ops": len(keys),
        "peak_rss_mb": peak_rss_mb(),
    }


def _run_traced(checker, key: str, recorder) -> float:
    recorder.install()
    try:
        return sum(checker.run([key], recorder))
    finally:
        recorder.uninstall()


def traced(args, workload, checker, recorder, import_s: float) -> dict:
    """Each op of one round runs untraced, then traced: pairing op by op
    keeps drift in the host's speed out of the overhead figure.  One
    untimed op runs first, because the first call pays one-off costs
    (lazy imports, caches on the shared inputs) that would otherwise
    land in the untraced pass.

    ``faults`` runs those passes in-process, which gives every layer but
    the supervisor, then runs each op pooled under a recorder of the
    supervisor layer alone: its forked workers inherit no other wrapper,
    so the time the client waits on them is untraced work."""
    pooled = None
    if workload.name == "faults":
        pooled = spans.Recorder(spans.SUPERVISOR_TARGETS)
        workload.inline = True
    keys = workload.round(args.seed)
    checker.run(keys[:1])
    untraced_s = traced_s = 0.0
    for key in keys:
        untraced_s += sum(checker.run([key]))
        traced_s += _run_traced(checker, key, recorder)
        if pooled is not None:
            workload.inline = False
            _run_traced(checker, key, pooled)
            workload.inline = True
    metrics = spans.layer_metrics(
        recorder.spans, pooled.spans if pooled is not None else None
    )
    metrics["repro.import_s"] = import_s
    metrics["bench.trace_overhead_s"] = traced_s - untraced_s
    os.makedirs(layout.OUT_DIR, exist_ok=True)
    files = []
    for suffix, rec in (("", recorder), ("-pooled", pooled)):
        if rec is not None:
            path = os.path.join(
                layout.OUT_DIR, f"spans-{workload.name}{suffix}.tsv.gz"
            )
            rec.spans.dump(path)
            files.append(os.path.relpath(path, layout.ROOT))
    return {
        "metrics": metrics,
        "ranking": spans.layer_ranking(recorder.spans),
        "spans": len(recorder.spans) + (len(pooled.spans) if pooled else 0),
        "spans_files": files,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    layout.use_source()
    start = time.perf_counter()
    import repro  # noqa: F401 -- timed: the package import a user pays

    import_s = time.perf_counter() - start
    if not repro.__file__.startswith(layout.SRC):
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    import ops

    scratch = layout.scratch_dir()
    try:
        workload = ops.WORKLOADS[args.workload](scratch)
        checker = Checker(workload, load_reference(args.workload))
        recorder = spans.Recorder() if args.trace else None
        set_up(workload, recorder)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        if recorder is not None:
            out = traced(args, workload, checker, recorder, import_s)
        else:
            out = timed(args, workload, checker)
        out.update(
            ready=ready,
            import_s=import_s,
            attempted=checker.attempted,
            failures=checker.failures,
        )
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
