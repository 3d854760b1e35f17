"""Picklable worker functions for the supervisor and chaos tests.

Pool workers import these by reference (closures and lambdas do not
pickle), so they live in a real module.  The misbehaving ones
coordinate through marker files on disk because a respawned worker
shares no state with its predecessor — exactly the situation the
supervisor exists to handle.
"""

from __future__ import annotations

import os
import signal
import time

from repro.errors import ReproError


def ok(payload):
    """Well-behaved worker: doubles its payload (so a test can tell an
    executed value from an accidentally echoed input)."""
    return payload * 2


def kill_self_once(payload):
    """Die by SIGKILL — the crash the supervisor cannot intercept — the
    first time ``marker`` is seen; succeed on the retry.

    ``payload`` is ``(marker_path, value)``.
    """
    marker, value = payload
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("died\n")
        os.kill(os.getpid(), signal.SIGKILL)
    return value


def kill_self_always(payload):
    """Die by SIGKILL on every attempt — a genuinely poisoned spec."""
    os.kill(os.getpid(), signal.SIGKILL)


def fail_until(payload):
    """Raise ``RuntimeError`` until ``threshold`` prior calls have been
    tallied in ``marker``, then succeed — a transient fault that retry
    with backoff should absorb.

    ``payload`` is ``(marker_path, threshold, value)``.
    """
    marker, threshold, value = payload
    calls = 0
    if os.path.exists(marker):
        with open(marker) as fh:
            calls = len(fh.readlines())
    if calls < threshold:
        with open(marker, "a") as fh:
            fh.write("x\n")
        raise RuntimeError(f"flaky (call {calls + 1})")
    return value


def always_raise(payload):
    """Unconditionally retryable failure: ends in quarantine."""
    raise RuntimeError("always broken")


def return_domain_error(payload):
    """Deterministic domain failure returned, not raised (the way the
    spec worker hands back an infeasible run): ``payload`` is the
    message."""
    return ReproError(payload)


def domain_error_counting(payload):
    """Deterministic domain failure (a ``ReproError``), tallying each
    invocation in ``marker`` so a test can assert it was never retried.

    ``payload`` is ``(marker_path, message)``.
    """
    marker, message = payload
    with open(marker, "a") as fh:
        fh.write("x\n")
    raise ReproError(message)


def hang(payload):
    """Sleep far past any test watchdog, then return (it never gets
    to — the watchdog kills the pool first)."""
    time.sleep(300)
    return payload


def call_count(marker: str) -> int:
    """How many invocations a marker file has tallied."""
    if not os.path.exists(marker):
        return 0
    with open(marker) as fh:
        return len(fh.readlines())
