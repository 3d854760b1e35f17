"""Reference digests: what every op of every workload simulated at the
commit the benchmark was written against, and the check that a run
still computes the same.

Floats match within a relative tolerance of 1e-9; everything else must
be equal.  A speed-up that changes what is simulated therefore shows up
as failed ops, not as a gain.

Regenerate (only when a change is meant to alter simulated results)::

    python3 hostbench/digests.py [workload ...]
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
from typing import Any

import layout

REFERENCE_DIR = os.path.join(layout.HERE, "reference")
REL_TOL = 1e-9


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> dict[str, Any]:
    with open(reference_path(workload)) as fh:
        return json.load(fh)


def mismatches(expected: Any, actual: Any, where: str = "") -> list[str]:
    """Every place ``actual`` differs from ``expected``."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        same = expected is actual
    elif isinstance(expected, float) or isinstance(actual, float):
        same = (
            isinstance(expected, (int, float))
            and isinstance(actual, (int, float))
            and math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0.0)
        )
    elif isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where or '.'}: keys differ"]
        return [
            m
            for key in expected
            for m in mismatches(expected[key], actual[key], f"{where}.{key}")
        ]
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where or '.'}: length {len(actual)} != {len(expected)}"]
        return [
            m
            for i, (e, a) in enumerate(zip(expected, actual))
            for m in mismatches(e, a, f"{where}[{i}]")
        ]
    else:
        same = expected == actual
    return [] if same else [f"{where or '.'}: {actual!r} != {expected!r}"]


def normalise(digest: Any) -> Any:
    """The digest as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(digest))


def compute(workload) -> dict[str, Any]:
    """Run every op of the workload's grid once and digest it."""
    from ops import Expected

    workload.setup()
    entries = {}
    for key in workload.grid():
        try:
            outcome = workload.run(key)
        except Expected as exc:
            outcome = exc
        entries[key] = normalise(workload.digest(key, outcome))
        workload.cleanup(key, outcome)
    return entries


def main(argv: list[str]) -> int:
    layout.use_source()
    import ops

    names = argv or list(ops.WORKLOADS)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    scratch = layout.scratch_dir()
    try:
        for name in names:
            entries = compute(ops.WORKLOADS[name](scratch))
            with open(reference_path(name), "w") as fh:
                json.dump(entries, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"{name}: {len(entries)} digests -> {reference_path(name)}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
