"""The gate itself: what the record comparison and the shape assertions
of the six figure tests catch, checked on the committed record alone
(nothing is simulated here)."""

import copy
import json

import pytest

import figures_record
import test_fig7_writes
import test_fig8_reads
import test_fig9_modularity
import test_fig10_adaptability
import test_fig11_f2

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
    rows = copy.deepcopy(figures_record.recorded_rows(name))
    for row in rows:
        spider_row = "SPIDER" in (row.get("system"), row.get("variant"))
        for column, value in row.items():
            if isinstance(value, float) and (
                column.startswith("SPIDER ") or (spider_row and column != "t [s]")
            ):
                row[column] = value * factor
    return rows


def test_record_holds_every_figure():
    for name in figures_record.FIGURES:
        rows = figures_record.recorded_rows(name)
        assert rows, name
        figures_record.assert_p50s_positive(rows)
        assert figures_record.mismatches(name, rows) == []


@pytest.mark.parametrize("factor", [0.0, 6.0], ids=["wedged", "six-times-slower"])
@pytest.mark.parametrize("name", sorted(SPIDER_SHAPES))
def test_a_broken_spider_fails_the_figure(name, factor):
    """Zeroed cells are what an unanswered population used to summarise
    to; x6 is a Spider that lost its locality.  Either must fail."""
    rows = _spider_scaled(name, factor)
    with pytest.raises(AssertionError):
        figures_record.assert_p50s_positive(rows)
        SPIDER_SHAPES[name](rows)


def test_a_moved_cell_fails_and_lands_in_the_artifact(tmp_path, monkeypatch):
    artifact = tmp_path / "mismatch.json"
    monkeypatch.setattr(figures_record, "MISMATCH_PATH", artifact)
    rows = copy.deepcopy(figures_record.recorded_rows("fig7"))
    rows[4]["V p50"] += 0.002
    assert figures_record.mismatches("fig7", rows) == ["fig7/4"]
    pair = json.loads(artifact.read_text())["fig7/4"]
    assert pair["actual"]["V p50"] == pytest.approx(pair["expected"]["V p50"] + 0.002)
    # A missing or extra row moves too.
    assert figures_record.mismatches("fig7", rows[:-1]) == ["fig7/4", "fig7/5"]
