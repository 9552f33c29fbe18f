"""The suite cell loop: matrix order, filters, failure isolation.

:func:`repro.chaos.run_cells` runs over a probe suite whose cells return
a stub result instead of simulating, so these tests exercise the loop
itself (expansion order, seed collapse, filters, error records); the
last one holds the overload scenario's :func:`repro.scenarios.run` to
validating before it builds anything.
"""

from __future__ import annotations

import pytest

import repro.chaos.cases
from repro.chaos import SUITES, CampaignResult, run_cells
from repro.errors import ConfigurationError
from repro.scenarios import ScenarioSpec, run


@pytest.fixture(autouse=True)
def _probe_suite(monkeypatch):
    """Two scenarios over real rows; a cell returns at once, except
    ``pbft-skew`` at seed 2, which raises."""

    def stub(case, seed):
        if (case.name, seed) == ("pbft-skew", 2):
            raise RuntimeError("stub blew up")
        return CampaignResult(case.name, seed, [], [], {"events": seed})

    monkeypatch.setitem(SUITES, "probe", {"beta": ("pbft-skew", {}), "alpha": ("pbft", {"ops": 4})})
    monkeypatch.setattr(repro.chaos.cases.ChaosCase, "run", stub)


def _matrix(cells):
    return [(cell["scenario"], cell["seed"]) for cell in cells]


def test_matrix_is_deterministic_and_order_independent():
    forward = run_cells("probe", ["beta", "alpha"], [3, 1])
    backward = run_cells("probe", ["alpha", "beta"], [1, 3])
    assert forward == backward
    assert _matrix(forward) == [("alpha", 1), ("alpha", 3), ("beta", 1), ("beta", 3)]


def test_duplicate_seeds_collapse():
    assert _matrix(run_cells("probe", ["alpha"], [3, 3, 1])) == [("alpha", 1), ("alpha", 3)]


def test_failed_cell_does_not_stop_other_scenarios():
    """A raising cell is recorded by name and seed; every other cell runs."""
    cells = {(cell["scenario"], cell["seed"]): cell for cell in run_cells("probe", seeds=[1, 2, 3])}
    failed = cells.pop(("beta", 2))
    assert failed["ok"] is False and failed["config"] == "pbft-skew"
    assert failed["error"] == "scenario 'beta' seed 2: RuntimeError: stub blew up"
    assert len(cells) == 5
    assert all(cell["ok"] and "error" not in cell for cell in cells.values())


def test_failing_cell_reports_name_seed_fingerprint():
    """A failed record names its scenario, seed and case; the seeds
    around it still finish with a campaign fingerprint, and it has none."""
    by_seed = {cell["seed"]: cell for cell in run_cells("probe", ["beta"], [1, 2, 3])}
    assert by_seed[1]["ok"] and by_seed[3]["ok"]
    failed = by_seed[2]
    assert not failed["ok"]
    assert "'beta'" in failed["error"]
    assert "seed 2" in failed["error"]
    assert "stub blew up" in failed["error"]
    assert (failed["config"], failed["overrides"]) == ("pbft-skew", {})
    assert "campaign_fingerprint" in by_seed[1] and "campaign_fingerprint" in by_seed[3]
    assert "campaign_fingerprint" not in failed


def test_run_suite_seed_and_scenario_filters():
    [cell] = run_cells("probe", ["alpha"], [7])
    assert (cell["scenario"], cell["seed"], cell["config"], cell["overrides"]) == (
        "alpha", 7, "pbft", {"ops": 4},
    )
    with pytest.raises(ConfigurationError, match="no scenario 'gamma'") as err:
        run_cells("probe", ["gamma"])
    assert "['alpha', 'beta']" in str(err.value)
    with pytest.raises(ConfigurationError, match="unknown suite 'prob'"):
        run_cells("prob")


def test_run_validates_before_executing():
    spec = ScenarioSpec.of(name="bad", stack="chaos")
    with pytest.raises(ConfigurationError, match="unknown stack 'chaos'"):
        run(spec, 1)
