"""Golden record of the chaos and reshard suites, cell by cell.

``tests/chaos_golden.json`` holds, for every ``(suite, scenario, seed)``
cell of ``suites/chaos.yaml`` (14 x 12) and ``suites/reshard.yaml``
(2 x 12), the five fields that pin a campaign run: the evidence
fingerprint, the simulator event count, the derived schedule (length and
content) and the violations.  It was recorded once, under the default
crypto cost model, and is compared exactly — a refactor of the chaos
layer is done when all 192 cells still match.

Re-record (only for a change that moves simulated results by design)::

    PYTHONPATH=src python tests/chaos_golden.py
"""

from __future__ import annotations

import functools
import json
import pathlib
from typing import Any, Dict, Iterable, List

from repro.crypto.costs import CostModel, use_cost_model
from repro.scenarios import load_suite, run_matrix

_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_PATH = _ROOT / "tests" / "chaos_golden.json"
#: expected/actual pairs of the cells that moved (CI uploads it)
MISMATCH_PATH = _ROOT / "benchmarks" / "CHAOS_golden_mismatch.json"
SUITE_PATHS = {
    name: _ROOT / "suites" / f"{name}.yaml" for name in ("chaos", "reshard")
}
FIELDS = ("campaign_fingerprint", "events", "n_actions", "schedule", "violations")


def record(cell) -> Dict[str, Any]:
    """The golden fields of one executed cell (its error, if it died)."""
    if cell.error is not None:
        return {"error": cell.error}
    return {name: cell.stats[name] for name in FIELDS}


def mismatches(suite: str, cells: Iterable) -> List[str]:
    """Compare executed cells of ``suite`` against the golden file.

    Returns one line per moved cell and leaves the expected/actual pairs
    in :data:`MISMATCH_PATH` (merged with what earlier calls found).
    """
    golden = _golden()[suite]
    moved = {}
    for cell in cells:
        expected = golden[cell.scenario][str(cell.seed)]
        actual = record(cell)
        if actual != expected:
            moved[f"{suite}/{cell.scenario}/{cell.seed}"] = {
                "expected": expected,
                "actual": actual,
            }
    if moved:
        earlier = json.loads(MISMATCH_PATH.read_text()) if MISMATCH_PATH.exists() else {}
        MISMATCH_PATH.write_text(
            json.dumps({**earlier, **moved}, indent=1, sort_keys=True)
        )
    return sorted(moved)


@functools.lru_cache(maxsize=None)
def _golden() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


@functools.lru_cache(maxsize=None)
def suite_spec(suite: str):
    """The loaded (and validated) suite file behind ``suite``."""
    return load_suite(SUITE_PATHS[suite])


def run_cells(suite: str, scenario: str, seeds=None, cache=None) -> List:
    """Execute ``scenario`` of ``suite`` under the default cost model."""
    spec = suite_spec(suite)
    with use_cost_model(CostModel()):
        return run_matrix(
            [spec.scenario(scenario)], spec.seeds if seeds is None else seeds, cache
        )


def _record_all() -> None:  # pragma: no cover - manual entry point
    golden: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for suite in SUITE_PATHS:
        for spec in suite_spec(suite).scenarios:
            golden.setdefault(suite, {})[spec.name] = {
                str(cell.seed): record(cell)
                for cell in run_cells(suite, spec.name)
            }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(len(s) for g in golden.values() for s in g.values())} cells")


if __name__ == "__main__":  # pragma: no cover
    _record_all()
