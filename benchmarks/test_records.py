"""The gate itself: what the record comparison and the shape assertions
of the benchmark tests catch, checked on the committed records alone
(nothing is simulated here)."""

import copy
import json
import math

import pytest

import records
import test_fig7_writes
import test_fig8_reads
import test_fig9_modularity
import test_fig10_adaptability
import test_fig11_f2

#: where BENCH_figures.json keeps the rows of each figure
FIGURE_ROWS = "figures/figures"
#: figure -> its shape assertions (fig9_irmc has no Spider cell)
SPIDER_SHAPES = {
    "fig7": test_fig7_writes.shape,
    "fig8": test_fig8_reads.shape,
    "fig9_modularity": test_fig9_modularity.shape,
    "fig10": test_fig10_adaptability.shape,
    "fig11": test_fig11_f2.shape,
}


def _spider_scaled(name, factor):
    """The recorded rows of ``name`` with full Spider's cells scaled."""
    rows = copy.deepcopy(records.recorded(f"{FIGURE_ROWS}/{name}"))
    for row in rows:
        spider_row = "SPIDER" in (row.get("system"), row.get("variant"))
        for column, value in row.items():
            if isinstance(value, float) and (
                column.startswith("SPIDER ") or (spider_row and column != "t [s]")
            ):
                row[column] = value * factor
    return rows


def _one_ulp_up(value):
    """``value`` with every non-zero float one ulp larger (a zero stays
    zero in any summation order, so a zero that moves is a real change)."""
    if isinstance(value, dict):
        return {key: _one_ulp_up(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_one_ulp_up(item) for item in value]
    if isinstance(value, float) and value:
        return math.nextafter(value, math.inf)
    return value


def test_record_holds_every_figure():
    for name in records.FIGURES:
        rows = records.recorded(f"{FIGURE_ROWS}/{name}")
        assert rows, name
        records.assert_p50s_positive(rows)
        assert records.mismatches(f"{FIGURE_ROWS}/{name}", rows) == []


def _nonzero_floats(value):
    if isinstance(value, dict):
        return sum(_nonzero_floats(item) for item in value.values())
    if isinstance(value, list):
        return sum(_nonzero_floats(item) for item in value)
    return int(isinstance(value, float) and value != 0.0)


def test_a_one_ulp_move_of_any_float_fails(tmp_path, monkeypatch):
    """Floats compare exactly, like ints and strings: one ulp on any
    non-zero float of any record is a moved entry."""
    monkeypatch.setattr(records, "MISMATCH_PATH", tmp_path / "mismatch.json")
    for name in records.PATHS:
        record = records.recorded(name)
        moved = records.mismatches(name, _one_ulp_up(record))
        assert len(moved) == _nonzero_floats(record) > 0, name


@pytest.mark.parametrize("factor", [0.0, 6.0], ids=["wedged", "six-times-slower"])
@pytest.mark.parametrize("name", sorted(SPIDER_SHAPES))
def test_a_broken_spider_fails_the_figure(name, factor):
    """Zeroed cells are what an unanswered population used to summarise
    to; x6 is a Spider that lost its locality.  Either must fail."""
    rows = _spider_scaled(name, factor)
    with pytest.raises(AssertionError):
        records.assert_p50s_positive(rows)
        SPIDER_SHAPES[name](rows)


def test_a_moved_cell_fails_and_lands_in_the_artifact(tmp_path, monkeypatch):
    artifact = tmp_path / "mismatch.json"
    monkeypatch.setattr(records, "MISMATCH_PATH", artifact)
    fig7, fig9, cpu = f"{FIGURE_ROWS}/fig7", f"{FIGURE_ROWS}/fig9_irmc", "sender CPU [%]"

    def add(delta, *keys):
        def edit(value):
            for key in keys[:-1]:
                value = value[key]
            value[keys[-1]] += delta

        return edit

    cases = [
        (fig7, add(0.002, 4, "V p50"), f"{fig7}/4/V p50"),
        # Pacing the CPU probe one interval early moves these cells by ~1e-7.
        (fig9, add(1e-7, 0, cpu), f"{fig9}/0/{cpu}"),
        ("overload", add(1, "baseline", "peak_backlog"), "overload/baseline/peak_backlog"),
        ("reshard", add(0.1, "writes_per_s", "after"), "reshard/writes_per_s/after"),
        ("sharding", add(-1, "results", "4", "events"), "sharding/results/4/events"),
        # A missing or extra key, or row, moves too.
        ("reshard", lambda r: r["audit"].pop("lost"), "reshard/audit/lost"),
        ("overload", lambda r: r["armed"]["slo"].update(dropped=0), "overload/armed/slo/dropped"),
        (fig7, lambda rows: rows.pop(), f"{fig7}/5"),
        (fig7, lambda rows: rows.append({}), f"{fig7}/6"),
    ]
    for path, edit, entry in cases:
        actual = copy.deepcopy(records.recorded(path))
        edit(actual)
        assert records.mismatches(path, actual) == [entry]

    pairs = json.loads(artifact.read_text())
    assert sorted(pairs) == sorted(entry for _path, _edit, entry in cases)
    events = records.recorded("sharding")["results"]["4"]["events"]
    assert pairs["sharding/results/4/events"] == {"expected": events, "actual": events - 1}
    assert pairs["reshard/audit/lost"] == {"expected": 0}
    assert pairs[f"{fig7}/6"] == {"actual": {}}
