"""Golden record of the chaos and reshard suites, cell by cell.

``tests/chaos_golden.json`` holds, for every ``(suite, scenario, seed)``
cell of :data:`repro.chaos.SUITES` (``chaos`` 13 x 12, ``reshard``
2 x 12), the five fields that pin a campaign run: the evidence
fingerprint, the simulator event count, the derived schedule (length and
content) and the violations.  It was recorded once, under the default
crypto cost model, and is compared exactly — a refactor of the chaos
layer is done when all 180 cells still match.

Re-record (only for a change that moves simulated results by design)::

    PYTHONPATH=src python tests/chaos_golden.py
"""

from __future__ import annotations

import functools
import json
import pathlib
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.chaos import SEEDS, SUITES, run_cells
from repro.crypto.costs import CostModel, use_cost_model

_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_PATH = _ROOT / "tests" / "chaos_golden.json"
#: expected/actual pairs of the cells that moved (CI uploads it)
MISMATCH_PATH = _ROOT / "benchmarks" / "CHAOS_golden_mismatch.json"
FIELDS = ("campaign_fingerprint", "events", "n_actions", "schedule", "violations")


def record(cell: Dict[str, Any]) -> Dict[str, Any]:
    """The golden fields of one :func:`run_cells` record (its error, if it died)."""
    if "error" in cell:
        return {"error": cell["error"]}
    return {name: cell[name] for name in FIELDS}


def mismatches(suite: str, cells: Iterable[Dict[str, Any]]) -> List[str]:
    """Compare executed cells of ``suite`` against the golden file.

    Returns one line per moved cell and leaves the expected/actual pairs
    in :data:`MISMATCH_PATH` (merged with what earlier calls found).
    """
    golden = _golden()[suite]
    moved = {}
    for cell in cells:
        expected = golden[cell["scenario"]][str(cell["seed"])]
        actual = record(cell)
        if actual != expected:
            moved[f"{suite}/{cell['scenario']}/{cell['seed']}"] = {
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


def golden_cells(
    suite: str, scenarios: Optional[Sequence[str]] = None, seeds: Sequence[int] = SEEDS
) -> List[Dict[str, Any]]:
    """:func:`run_cells` under the default cost model the record was taken in."""
    with use_cost_model(CostModel()):
        return run_cells(suite, scenarios, seeds)


def _record_all() -> None:  # pragma: no cover - manual entry point
    golden: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for suite in SUITES:
        for cell in golden_cells(suite):
            golden.setdefault(suite, {}).setdefault(cell["scenario"], {})[
                str(cell["seed"])
            ] = record(cell)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(len(s) for g in golden.values() for s in g.values())} cells")


if __name__ == "__main__":  # pragma: no cover
    _record_all()
