"""Benchmark regenerating Fig. 7 (write latency by client/leader location)."""


def shape(rows):
    """The paper's claims about this table, as assertions on its rows."""
    rows = {(row["system"], row["leader"]): row for row in rows}

    spider_v1 = rows[("SPIDER", "V-1")]
    bft_v = rows[("BFT", "V")]
    hft_v = rows[("HFT", "V")]

    # Spider beats BFT and HFT at every client location (paper: up to 95%).
    for column in ("V p50", "O p50", "I p50", "T p50"):
        assert spider_v1[column] < bft_v[column]
        assert spider_v1[column] < hft_v[column]

    # Virginia clients see local-only latency in Spider (paper: ~13 ms).
    assert spider_v1["V p50"] < 25.0
    # ... and a >80% reduction vs BFT with the same leader region.
    assert spider_v1["V p50"] < 0.2 * bft_v["V p50"]

    # Spider is insensitive to the agreement leader's availability zone.
    spider_v2 = rows[("SPIDER", "V-2")]
    for column in ("V p50", "O p50", "I p50", "T p50"):
        assert abs(spider_v1[column] - spider_v2[column]) < 10.0

    # BFT/HFT latency depends strongly on the leader location.
    bft_t = rows[("BFT", "T")]
    assert bft_t["V p50"] > bft_v["V p50"] + 50.0


def test_fig7_writes(experiment):
    shape(experiment("fig7").rows)
