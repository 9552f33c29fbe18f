"""Sharded deployments through the declarative API.

Describes a two-shard cluster (each shard a complete agreement domain
with its own execution groups), opens sessions, and shows writes to
keys owned by different shards completing in parallel — then closes the
sessions and verifies the per-client channel books drained.

Run with::

    PYTHONPATH=src python examples/sharded_sessions.py
"""

from repro.deploy import ClusterSpec, GroupSpec, ShardSpec, build
from repro.sim import Simulator


def main() -> None:
    sim = Simulator(seed=42)
    spec = ClusterSpec(
        shards=(
            ShardSpec("s0", groups=(GroupSpec("us-east", "virginia"),
                                    GroupSpec("asia", "tokyo"))),
            ShardSpec("s1", groups=(GroupSpec("us-east2", "virginia"),
                                    GroupSpec("asia2", "tokyo"))),
        )
    )
    cluster = build(sim, spec)
    print(f"built {len(cluster.shards)} shards, {len(cluster.all_nodes)} replicas")

    session = cluster.session("alice", "tokyo")
    # Pick one key per shard from the cluster's routing table, so the
    # writes pipeline across shards.
    key_a = cluster.range_map.keys_for("s0", 1, prefix="cart:")[0]
    key_b = cluster.range_map.keys_for("s1", 1, prefix="cart:")[0]
    print(f"{key_a!r} owned by {cluster.range_map.owner(key_a)}, "
          f"{key_b!r} by {cluster.range_map.owner(key_b)}")

    writes = [session.write(key_a, ["milk"]), session.write(key_b, ["tea"])]
    print(f"in flight across shards: {session.pending_ops}")
    sim.run(until=10_000.0)
    assert all(w.done for w in writes), "writes did not complete"

    reads = [session.read(key_a), session.strong_read(key_b)]
    sim.run(until=20_000.0)
    for key, read in zip((key_a, key_b), reads):
        print(f"read {key!r} -> {read.value}")

    session.close()  # retires the request subchannels on both shards
    sim.run(until=40_000.0)
    for shard_id in cluster.shards:
        shard = cluster.shard(shard_id)
        books = sum(
            len(channels.request_rx._known_subchannels)
            for replica in shard.agreement_replicas
            for channels in replica.groups.values()
        )
        print(f"shard {shard_id}: per-client channel books after close: {books}")


if __name__ == "__main__":
    main()
