"""The committed benchmark records and the one comparison against them.

Each record is ``BENCH_<name>.json`` for a name of :data:`PATHS`: the
rows of Figs. 7-11 (``figures``), the overload, reshard and sharding
runs, the five pinned fields of every chaos and reshard suite cell
(``chaos``, keyed ``<suite>/<scenario>/<seed>``) and spiderbench's five
fingerprint/event pairs (``parity``).  Each benchmark test, the tier-1
chaos slice and ``tools/spiderbench_parity.py`` compare their run with
its record through :func:`mismatches` before they assert anything else,
so a change that moves a recorded number fails whether or not the shape
still holds, and every moved entry is named by its leaf path.  Key sets,
ints, strings and floats all compare exactly: the means behind the
records are summed with ``math.fsum`` (``repro.metrics.latency``), which
is correctly rounded on every CPython.

Re-record only for a change that moves simulated results by design, in
its own commit: ``PYTHONPATH=src python benchmarks/records.py`` for the
figures (every row of Figs. 7-11 at ``--quick --seed 1``, default crypto
costs), ``python tools/spiderbench_parity.py --record`` for the pairs,
``PYTHONPATH=src python benchmarks/test_<name>.py`` for the others.
"""

from __future__ import annotations

import functools
import itertools
import json
import pathlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.chaos import SEEDS as CHAOS_SEEDS
from repro.chaos import run_cells
from repro.crypto.costs import CostModel, use_cost_model
from repro.experiments.figures import FIGURES

_HERE = pathlib.Path(__file__).resolve().parent
PATHS = {
    name: _HERE / f"BENCH_{name}.json"
    for name in ("chaos", "figures", "overload", "parity", "reshard", "sharding")
}
#: expected/actual pairs of every entry that moved (CI uploads it)
MISMATCH_PATH = _HERE / "BENCH_mismatch.json"
SEED = 1
RERECORD = "PYTHONPATH=src python benchmarks/records.py"
#: the fields of a suite cell that ``BENCH_chaos.json`` pins
CHAOS_FIELDS = ("campaign_fingerprint", "events", "n_actions", "schedule", "violations")
_ABSENT = object()  #: a key or list item one side does not have


def run_figure(name: str):
    """The quick table of ``name`` as recorded: seed 1, default costs."""
    with use_cost_model(CostModel()):
        return FIGURES[name](quick=True, seed=SEED)


def chaos_cells(
    suite: str, scenarios: Optional[Sequence[str]] = None, seeds: Sequence[int] = CHAOS_SEEDS
) -> List[Dict[str, Any]]:
    """:func:`repro.chaos.run_cells` as recorded: default costs."""
    with use_cost_model(CostModel()):
        return run_cells(suite, scenarios, seeds)


def chaos_record(cells: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Seed -> the pinned fields of each cell (its error, if it died), as
    ``BENCH_chaos.json`` keeps one scenario's cells."""
    return {
        str(cell["seed"]): (
            {"error": cell["error"]}
            if "error" in cell
            else {name: cell[name] for name in CHAOS_FIELDS}
        )
        for cell in cells
    }


@functools.lru_cache(maxsize=None)
def _load(record: str) -> Any:
    return json.loads(PATHS[record].read_text())


def recorded(path: str) -> Any:
    """The committed value at ``path``: a record's name, then the keys
    into it (``"overload"``, ``"figures/figures/fig7"``)."""
    record, *keys = path.split("/")
    value = _load(record)
    for key in keys:
        value = value[key]
    return value


def _moved(expected: Any, actual: Any, path: str) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """``(path, pair)`` for each entry in which ``actual`` departs from
    ``expected``; a pair leaves out the side the entry is absent from."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(expected.keys() | actual.keys()):
            yield from _moved(
                expected.get(key, _ABSENT), actual.get(key, _ABSENT), f"{path}/{key}"
            )
        return
    if isinstance(expected, list) and isinstance(actual, list):
        pairs = itertools.zip_longest(expected, actual, fillvalue=_ABSENT)
        for index, (item, got) in enumerate(pairs):
            yield from _moved(item, got, f"{path}/{index}")
        return
    if type(expected) is not type(actual) or expected != actual:
        yield path, {
            side: value
            for side, value in (("expected", expected), ("actual", actual))
            if value is not _ABSENT
        }


def mismatches(path: str, actual: Any) -> List[str]:
    """Compare a run with the committed value at ``path`` (see
    :func:`recorded`).

    ``actual`` is compared as JSON reads it back.  Returns the path of
    each moved entry and merges their expected/actual pairs into
    :data:`MISMATCH_PATH`.
    """
    moved = dict(_moved(recorded(path), json.loads(json.dumps(actual)), path))
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


def _record_figures() -> None:  # pragma: no cover - manual entry point
    figures = {name: run_figure(name).rows for name in FIGURES}
    record = {"scale": "quick", "seed": SEED, "figures": figures}
    PATHS["figures"].write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(len(rows) for rows in figures.values())} rows")


if __name__ == "__main__":  # pragma: no cover
    _record_figures()
