"""Tier-1 slice of the chaos golden comparison: one seed per scenario.

The full 192-cell comparison runs with the ``bench``-marked sweep
(``benchmarks/test_chaos.py``); this file keeps one cell of each of the
16 scenarios under the everyday test run, so a change that moves a
campaign is caught without waiting for the sweep.
"""

from __future__ import annotations

import pytest

from tests.chaos_golden import SUITE_PATHS, mismatches, run_cells, suite_spec

SCENARIOS = [
    (suite, spec.name)
    for suite in sorted(SUITE_PATHS)
    for spec in suite_spec(suite).scenarios
]


@pytest.mark.parametrize("suite, scenario", SCENARIOS)
def test_first_seed_matches_golden(suite, scenario):
    assert mismatches(suite, run_cells(suite, scenario, seeds=[1])) == []
