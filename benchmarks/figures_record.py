"""The paper-fidelity record: every row of Figs. 7-11, quick scale, seed 1.

``benchmarks/BENCH_figures.json`` holds the six tables exactly as
``python -m repro.experiments <fig> --quick --seed 1`` computes them
(unrounded floats, default crypto cost model).  The six
``benchmarks/test_fig*.py`` tests compare their run with it row by row
before asserting the shape the paper reports, so a change that moves a
figure cell fails in CI whether or not the cell still has the right
shape.  Floats compare within :data:`TOLERANCE`: Python >= 3.12 sums
floats differently in the last bit (Fig. 10's bucket means), and rounding
here instead would double-round the printed tables.

Re-record (only for a change that moves simulated results by design)::

    PYTHONPATH=src python benchmarks/figures_record.py
"""

from __future__ import annotations

import functools
import itertools
import json
import pathlib
from typing import Any, Dict, List

from repro.crypto.costs import CostModel, use_cost_model
from repro.experiments.figures import FIGURES

_HERE = pathlib.Path(__file__).resolve().parent
RECORD_PATH = _HERE / "BENCH_figures.json"
#: expected/actual pairs of the rows that moved (CI uploads it)
MISMATCH_PATH = _HERE / "BENCH_figures_mismatch.json"
SEED = 1
#: absolute, in the cell's unit (ms for every latency cell)
TOLERANCE = 1e-6
RERECORD = "PYTHONPATH=src python benchmarks/figures_record.py"


def run_figure(name: str):
    """The quick table of ``name`` as recorded: seed 1, default costs."""
    with use_cost_model(CostModel()):
        return FIGURES[name](quick=True, seed=SEED)


@functools.lru_cache(maxsize=None)
def _load() -> Dict[str, Any]:
    return json.loads(RECORD_PATH.read_text())


def recorded_rows(name: str) -> List[Dict[str, Any]]:
    return _load()["figures"][name]


def _same(expected: Dict[str, Any], actual: Dict[str, Any]) -> bool:
    if expected.keys() != actual.keys():
        return False
    return all(
        abs(value - actual[column]) <= TOLERANCE
        if isinstance(value, float)
        else value == actual[column]
        for column, value in expected.items()
    )


def mismatches(name: str, rows: List[Dict[str, Any]]) -> List[str]:
    """Compare the rows of figure ``name`` against the record.

    Returns one ``fig/row`` key per moved row and leaves the
    expected/actual pairs in :data:`MISMATCH_PATH` (merged with what
    earlier calls found).
    """
    pairs = itertools.zip_longest(recorded_rows(name), rows)  # None: a row too few
    moved = {
        f"{name}/{index}": {"expected": expected, "actual": actual}
        for index, (expected, actual) in enumerate(pairs)
        if expected is None or actual is None or not _same(expected, actual)
    }
    if moved:
        earlier = json.loads(MISMATCH_PATH.read_text()) if MISMATCH_PATH.exists() else {}
        MISMATCH_PATH.write_text(
            json.dumps({**earlier, **moved}, indent=1, sort_keys=True)
        )
    return sorted(moved)


def assert_p50s_positive(rows: List[Dict[str, Any]]) -> None:
    """A cell nobody answered summarises to 0.0, which every "Spider is
    below BFT" comparison would pass."""
    for row in rows:
        for column, value in row.items():
            assert not column.endswith("p50") or value > 0.0, (column, row)


def _record_all() -> None:  # pragma: no cover - manual entry point
    figures = {name: run_figure(name).rows for name in FIGURES}
    record = {"scale": "quick", "seed": SEED, "figures": figures}
    RECORD_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(len(rows) for rows in figures.values())} rows")


if __name__ == "__main__":  # pragma: no cover
    _record_all()
