"""Benchmark regenerating Fig. 8 (read latency by consistency level)."""


def shape(rows):
    """The paper's claims about this table, as assertions on its rows."""
    rows = {(row["system"], row["consistency"]): row for row in rows}

    # Weak reads: HFT and Spider are local (paper: <= 2 ms); BFT needs at
    # least one WAN reply for its f+1 quorum.
    for system in ("HFT", "SPIDER"):
        for column in ("V p50", "O p50", "I p50", "T p50"):
            assert rows[(system, "weak")][column] < 5.0
    assert rows[("BFT", "weak")]["V p50"] > 30.0

    # Strong reads follow the write pattern: Spider wins everywhere except
    # (possibly) Tokyo, where BFT/HFT query replicas directly.
    spider = rows[("SPIDER", "strong")]
    bft = rows[("BFT", "strong")]
    hft = rows[("HFT", "strong")]
    for column in ("V p50", "O p50", "I p50"):
        assert spider[column] < bft[column]
        assert spider[column] < hft[column]
    # The Tokyo crossover from the paper: Spider is not better there.
    assert spider["T p50"] > bft["T p50"] - 20.0


def test_fig8_reads(experiment):
    shape(experiment("fig8").rows)
