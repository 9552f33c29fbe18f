"""Trace one write request's complete journey through Spider.

Attaches a :class:`repro.metrics.MessageTrace` to the network and prints
the timeline of every message a single Tokyo write triggers: the client
request, the request-channel Sends into Virginia, the PBFT phases inside
the agreement region, the commit-channel fan-out to all execution groups,
and the replies.  A compact way to *see* the paper's core claim — the only
WAN hops are channel forwards, never protocol phases.

Run with::

    python examples/trace_a_request.py
"""

from repro.deploy import ClusterSpec, GroupSpec, ShardSpec, build
from repro.metrics import MessageTrace
from repro.sim import Simulator


def main() -> None:
    sim = Simulator(seed=21)
    spec = ClusterSpec(shards=(ShardSpec(
        "s0",
        agreement_region="virginia",
        groups=(GroupSpec("us", "virginia"), GroupSpec("jp", "tokyo")),
    ),))
    cluster = build(sim, spec)
    client = cluster.make_client("alice", "tokyo", group_id="jp")

    trace = MessageTrace().attach(cluster.network)
    future = client.write(("put", "k", "v"))
    sim.run(until=2_000.0)
    trace.detach()
    assert future.done

    protocol_types = (
        "ClientRequest",
        "SendMsg",
        "PrePrepare",
        "Prepare",
        "Commit",
        "Reply",
    )
    events = [e for e in trace.events if e.message_type in protocol_types]

    print("the write's protocol messages, in order:")
    print(trace.render(events, limit=80))
    print()

    by_type = trace.count_by_type()
    print("message counts by type:", {
        t: n for t, n in sorted(by_type.items()) if t in protocol_types
    })
    wan = trace.filter(wan_only=True)
    wan_protocol = [e for e in wan if e.message_type in ("PrePrepare", "Prepare", "Commit")]
    print(f"\nWAN messages total: {len(wan)}")
    print(f"PBFT phase messages that crossed the WAN: {len(wan_protocol)}")
    print("(zero - consensus never leaves the agreement region; only the")
    print(" request/commit channels and client traffic cross regions)")


if __name__ == "__main__":
    main()
