"""Benchmark regenerating Figs. 9b-9d (IRMC implementations)."""


def shape(rows):
    """The paper's claims about this table, as assertions on its rows."""
    rows = {(row["irmc"], row["size [B]"]): row for row in rows}
    small, large = 256, 4096

    # 9b: RC reaches higher maximum throughput than SC (paper: roughly 2x).
    assert (
        rows[("RC", small)]["throughput [msg/s]"]
        > 1.5 * rows[("SC", small)]["throughput [msg/s]"]
    )

    # 9c: at a fixed offered load, SC senders burn more CPU per message.
    assert (
        rows[("SC", small)]["sender CPU [%]"]
        > 1.5 * rows[("RC", small)]["sender CPU [%]"]
    )

    # 9d: SC moves far less WAN data per delivered payload, at the price of
    # LAN share traffic which RC does not have at all.
    rc_wan_per_msg = rows[("RC", large)]["WAN [MB/s]"] / rows[("RC", large)][
        "throughput [msg/s]"
    ]
    sc_wan_per_msg = rows[("SC", large)]["WAN [MB/s]"] / rows[("SC", large)][
        "throughput [msg/s]"
    ]
    assert sc_wan_per_msg < 0.6 * rc_wan_per_msg
    assert rows[("SC", small)]["LAN [MB/s]"] > 0.0
    assert rows[("RC", small)]["LAN [MB/s]"] == 0.0


def test_fig9_irmc(experiment):
    shape(experiment("fig9_irmc").rows)
