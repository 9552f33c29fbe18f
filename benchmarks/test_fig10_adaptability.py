"""Benchmark regenerating Fig. 10 (a new client site joins at runtime)."""


def shape(rows):
    """The paper's claims about this table, as assertions on its rows."""
    join_s = rows[-1]["t [s]"] * 0.72  # join happens at ~72% of the run
    before = [row for row in rows if row["t [s]"] + 5.0 <= join_s]
    after = [row for row in rows if row["t [s]"] >= join_s]
    assert before and after

    def average(selection, column):
        values = [row[column] for row in selection if row[column] > 0]
        return sum(values) / max(1, len(values))

    # Write latency jumps for every system once Sao Paulo joins.
    for system in ("BFT", "BFT-WV", "HFT", "SPIDER"):
        assert average(after, f"{system} w") > average(before, f"{system} w") + 3.0

    # BFT-WV tracks BFT: weighted voting does not help at this topology.
    assert abs(average(after, "BFT-WV w") - average(after, "BFT w")) < 60.0

    # Only Spider keeps weakly consistent reads low after the join.
    assert average(after, "SPIDER r") < 5.0
    assert average(after, "HFT r") > average(before, "HFT r") + 2.0
    assert average(after, "BFT r") > 30.0


def test_fig10_adaptability(experiment):
    shape(experiment("fig10").rows)
