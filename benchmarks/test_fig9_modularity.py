"""Benchmark regenerating Fig. 9a (modularity impact)."""


def shape(rows):
    """The paper's claims about this table, as assertions on its rows."""
    rows = {row["variant"]: row for row in rows}

    # The paper: modularization overhead below ~14 ms per client region.
    for column in ("V p50", "O p50", "I p50", "T p50"):
        base = rows["SPIDER-0E"][column]
        assert rows["SPIDER-1E"][column] - base < 14.0
        assert rows["SPIDER"][column] - base < 14.0

    # Response times stay dominated by client-to-Virginia WAN latency.
    assert rows["SPIDER"]["T p50"] > 10 * rows["SPIDER"]["V p50"]


def test_fig9_modularity(experiment):
    shape(experiment("fig9_modularity").rows)
