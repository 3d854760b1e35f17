"""Doctest execution for the modules that carry runnable examples."""

import doctest

import pytest

from repro import units
from repro.util import tables


@pytest.mark.parametrize("module", [units, tables])
def test_module_doctests(module):
    results = doctest.testmod(module)
    assert results.failed == 0
    assert results.attempted > 0
