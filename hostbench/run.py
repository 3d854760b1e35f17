"""Host-time benchmark for the Harmony simulator.

Usage (from the root of a checkout)::

    python3 hostbench/run.py --workload compare --seed 1 --seconds 15 --trace 0

Spawns the workload process, which sets up, runs whole rounds of the
workload's ops for at least ``--seconds`` and checks every op against
its reference digest.  Prints every metric by name with its unit, then
one JSON line: end-to-end metrics with ``--trace 0``, per-layer metrics
from a separate traced run with ``--trace 1``.  Exits 1 when any op
failed, 2 when the program's source is missing.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import layout

#: Workload processes spawned per untraced run to time set-up (odd: the
#: timed one plus equal numbers before and after it); the reported
#: ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: Wall budget for everything this command runs.
DEADLINE_S = 170.0

WORKLOADS = ("compare", "fleet", "tune", "faults")
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name's suffix."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_gb"):
        return "GB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class BenchError(Exception):
    pass


def spawn(args: argparse.Namespace, deadline: float, *extra: str) -> tuple[float, dict]:
    """Run the workload process; (monotonic spawn time, its JSON)."""
    cmd = [
        sys.executable, os.path.join(layout.HERE, "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    # Anything the program puts in a temporary directory stays in the
    # checkout.
    tmp = os.path.join(layout.OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    spawned = time.monotonic()
    # A session of its own, so a timeout can stop its workers too.
    proc = subprocess.Popen(cmd, cwd=layout.ROOT, stdout=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process ran past the deadline") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed nothing")
    return spawned, json.loads(lines[-1])


def end_to_end(args: argparse.Namespace, deadline: float) -> tuple[dict, dict]:
    def set_up_only() -> float:
        spawned, probe = spawn(args, deadline, "--setup-only")
        return probe["ready"] - spawned

    # Half the set-up-only processes run before the timed one and half
    # after, so the samples span the run rather than one moment of it.
    setups = [set_up_only() for _ in range(SETUP_SAMPLES // 2)]
    spawned, out = spawn(args, deadline)
    setups.append(out["ready"] - spawned)
    setups += [set_up_only() for _ in range(SETUP_SAMPLES // 2)]
    lat = out["latencies"]
    p90 = (
        statistics.quantiles(lat, n=10, method="inclusive")[-1]
        if len(lat) > 1 else lat[0]
    )
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    print(
        f"workload {args.workload}: latency samples n={len(lat)} "
        f"({len(lat) // out['round_ops']} round(s) of {out['round_ops']} ops), "
        f"set-up sampled {len(setups)} times"
    )
    for name, value in metrics.items():
        print(f"  {name:<14} {value:12.4f} {END_TO_END_UNITS[name]}")
    fail_frac = len(out["failures"]) / out["attempted"]
    print(f"  {'fail_frac':<14} {fail_frac:12.4f} ratio")
    return metrics, out


def per_layer(args: argparse.Namespace, deadline: float) -> tuple[dict, dict]:
    _, out = spawn(args, deadline)
    metrics = out["metrics"]
    print(
        f"workload {args.workload} traced: {out['attempted']} ops, "
        f"{out['spans']} spans -> {', '.join(out['spans_files'])}; one round "
        f"{out['untraced_s']:.3f} s untraced, {out['traced_s']:.3f} s traced"
    )
    for name in sorted(metrics):
        print(f"  {name:<34} {metrics[name]:14.6g} {layer_unit(name)}")
    print("  layers by self time:")
    for layer, seconds in out["ranking"]:
        print(f"    {layer:<18} {seconds:10.4f} s")
    return metrics, out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark for the Harmony simulator"
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not layout.have_source():
        print(f"error: no program source under {layout.SRC}", file=sys.stderr)
        return 2
    # Turn SIGTERM into an exit that still stops the workload process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            metrics, out = per_layer(args, deadline)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics, out = end_to_end(args, deadline)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = out["failures"]
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": out["attempted"],
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
