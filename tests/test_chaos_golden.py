"""Tier-1 slice of the chaos golden comparison: one seed per scenario.

The full 180-cell comparison runs with the ``bench``-marked sweep
(``benchmarks/test_chaos.py``); this file keeps one cell of each of the
15 scenarios under the everyday test run, so a change that moves a
campaign is caught without waiting for the sweep.  It also pins the
chaos suite's declaration (the golden record's cells), and holds
``tools/golden_diff.py``, which reads the mismatch file a moved cell
leaves, to its output.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

from repro.chaos import CASES, SEEDS, SUITES

from tests.chaos_golden import golden_cells, mismatches

SCENARIOS = [(suite, scenario) for suite in sorted(SUITES) for scenario in sorted(SUITES[suite])]


@pytest.mark.parametrize("suite, scenario", SCENARIOS)
def test_first_seed_matches_golden(suite, scenario):
    assert mismatches(suite, golden_cells(suite, [scenario], seeds=[1])) == []


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


def test_golden_diff_names_the_fields_that_moved(tmp_path):
    recorded = {
        "campaign_fingerprint": 11,
        "events": 900,
        "n_actions": 2,
        "schedule": [["crash", "ag1"], ["crash", "ag2"]],
        "violations": [],
    }
    pairs = {
        "chaos/spider/4": {
            "expected": recorded,
            "actual": {**recorded, "campaign_fingerprint": 12, "events": 950,
                       "violations": ["liveness/completion: ..."]},
        },
        "chaos/pbft/2": {"expected": recorded, "actual": {"error": "KeyError: 'view'"}},
    }
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(pairs))
    tool = pathlib.Path(__file__).resolve().parent.parent / "tools" / "golden_diff.py"
    done = subprocess.run(
        [sys.executable, str(tool), str(path)], capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines() == [
        "chaos/pbft/2: error absent -> KeyError: 'view', events 900 -> absent, "
        "n_actions 2 -> absent, schedule 2 item(s) -> absent, "
        "violations 0 item(s) -> absent, campaign_fingerprint 11 -> absent",
        "chaos/spider/4: events 900 -> 950, violations 0 item(s) -> 1 item(s), "
        "campaign_fingerprint 11 -> 12",
        "2 moved cell(s)",
    ]
