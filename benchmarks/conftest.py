"""Benchmark harness configuration.

Each figure benchmark regenerates one of the paper's tables/figures at
reduced scale (``quick=True``), prints the table, compares it cell by
cell with the committed record (``BENCH_figures.json``, see
``records.py``) and then asserts the *shape* the paper reports
(who wins, roughly by how much, where crossovers fall).  Run with::

    PYTHONPATH=src python -m pytest benchmarks/
"""

import pathlib

import pytest

from records import (
    MISMATCH_PATH,
    RERECORD,
    assert_p50s_positive,
    mismatches,
    run_figure,
)

BENCH_DIR = pathlib.Path(__file__).parent.resolve()


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ so CI can deselect it with
    ``-m "not bench"`` (the tier-1 suite) while a dedicated job runs a
    fast smoke of the benchmarks.  The hook sees the whole session's
    items, so filter to this directory explicitly."""
    for item in items:
        if BENCH_DIR in pathlib.Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session", autouse=True)
def _fresh_mismatch_artifact():
    """A present mismatch file always refers to the latest run."""
    if MISMATCH_PATH.exists():
        MISMATCH_PATH.unlink()
    yield


@pytest.fixture
def experiment():
    """Run figure ``name`` once and hold it to the record; the caller
    asserts the paper's shape on the rows."""

    def _run(name):
        result = run_figure(name)
        print()
        print(result.format())
        moved = mismatches(f"figures/figures/{name}", result.rows)  # leaves its artifact
        assert moved == [], (
            f"{moved} moved off the record, see {MISMATCH_PATH}; if the move is "
            f"by design, re-record with `{RERECORD}`"
        )
        assert_p50s_positive(result.rows)
        return result

    return _run
