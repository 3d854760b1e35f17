"""Results are pinned to ``SCHEDULER_VERSION`` (see ``tests/result_pins.py``).

A digest that moves while the version stays fails here and names its
case.  After a deliberate change of results, bump the version in
``src/repro/perf/fingerprint.py`` and re-record::

    PYTHONPATH=src python -m tests.result_pins
"""

from __future__ import annotations

import pytest

from repro.perf.fingerprint import SCHEDULER_VERSION

from tests.result_pins import CASES, digest, load, run_case

PINS = load()

_RERECORD = "re-record with `PYTHONPATH=src python -m tests.result_pins`"


def test_pins_recorded_at_current_version():
    assert PINS["scheduler_version"] == SCHEDULER_VERSION, (
        f"pins were recorded at {PINS['scheduler_version']!r} but "
        f"SCHEDULER_VERSION is {SCHEDULER_VERSION!r}; {_RERECORD}"
    )


def test_every_case_is_recorded():
    assert sorted(PINS["digests"]) == sorted(CASES), _RERECORD


@pytest.mark.parametrize("case", list(CASES))
def test_result_matches_pin(case):
    recorded = PINS["digests"].get(case)
    assert recorded is not None, f"{case}: no recorded digest; {_RERECORD}"
    assert digest(run_case(case)) == recorded, (
        f"{case}: results moved under SCHEDULER_VERSION "
        f"{SCHEDULER_VERSION!r}; bump it and {_RERECORD}"
    )
