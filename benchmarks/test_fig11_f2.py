"""Benchmark regenerating Fig. 11 (write latency tolerating f=2)."""


def shape(rows):
    """The paper's claims about this table, as assertions on its rows."""
    rows = {row["system"]: row for row in rows}

    # Spider remains clearly below BFT and HFT for every client region.
    for column in ("V p50", "O p50", "I p50", "T p50"):
        assert rows["SPIDER"][column] < rows["HFT"][column]
        assert rows["SPIDER"][column] < rows["BFT"][column]

    # The rise versus f=1 is moderate (paper: up to ~46 ms): Virginia
    # clients now pay for the Ohio members on the agreement quorum path,
    # but stay well under one WAN round trip.
    assert 8.0 < rows["SPIDER"]["V p50"] < 60.0


def test_fig11_f2(experiment):
    shape(experiment("fig11").rows)
