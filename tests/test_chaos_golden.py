"""Tier-1 slice of the chaos golden comparison: one seed per scenario.

The full comparison of every cell with ``benchmarks/BENCH_chaos.json``
runs with the ``bench``-marked sweep (``benchmarks/test_chaos.py``);
this file keeps one cell of each scenario under the everyday test run,
so a change that moves a campaign is caught without waiting for the
sweep.  A moved field is named by its path
(``chaos/chaos/spider/1/events``) and lands in
``benchmarks/BENCH_mismatch.json``.  It also pins the chaos suite's
declaration (the golden record's cells).
"""

from __future__ import annotations

import pytest

from benchmarks import records
from repro.chaos import CASES, SEEDS, SUITES

SCENARIOS = [(suite, scenario) for suite in sorted(SUITES) for scenario in sorted(SUITES[suite])]


@pytest.mark.parametrize("suite, scenario", SCENARIOS)
def test_first_seed_matches_golden(suite, scenario):
    cell = records.chaos_record(records.chaos_cells(suite, [scenario], seeds=[1]))["1"]
    assert records.mismatches(f"chaos/{suite}/{scenario}/1", cell) == []


def test_chaos_suite_declares_the_full_sweep():
    """Every row of the table, as it stands, at seeds 1-12."""
    assert SUITES["chaos"] == {name: (name, {}) for name in CASES}
    assert sorted(SUITES["chaos"]) == sorted(
        [
            "pbft", "pbft-vc-crash", "pbft-skew", "pbft-wipe",
            "spider", "spider-cp-crash", "spider-disk", "spider-shard",
            "spider-reshard", "irmc-rc", "irmc-sc", "irmc-sc-wipe",
            "irmc-equivocate",
        ]
    )
    assert SEEDS == tuple(range(1, 13))
