"""Quickstart: a minimal Spider deployment in three regions.

Builds an agreement group in Virginia and execution groups in Virginia and
Tokyo, then issues a write, a strongly consistent read and a weakly
consistent read from a Tokyo client — printing what each one cost.

Run with::

    python examples/quickstart.py
"""

from repro.deploy import ClusterSpec, GroupSpec, ShardSpec, build
from repro.sim import Simulator


def main() -> None:
    sim = Simulator(seed=42)
    # The agreement group (3 fa + 1 = 4 replicas) runs in Virginia, plus
    # one execution group per client region (2 fe + 1 = 3 replicas each,
    # spread over availability zones).
    spec = ClusterSpec(shards=(ShardSpec(
        "s0",
        agreement_region="virginia",
        groups=(GroupSpec("us", "virginia"), GroupSpec("jp", "tokyo")),
    ),))
    cluster = build(sim, spec)

    client = cluster.make_client("alice", "tokyo", group_id="jp")

    future = client.write(("put", "greeting", "hello from tokyo"))
    sim.run(until=5_000.0)
    print(f"write           -> {future.value}")

    future = client.strong_read(("get", "greeting"))
    sim.run(until=10_000.0)
    print(f"strong read     -> {future.value}")

    future = client.weak_read(("get", "greeting"))
    sim.run(until=15_000.0)
    print(f"weak read       -> {future.value}")

    print()
    print("operation latencies as observed by the client:")
    for kind, start, latency in client.completed:
        print(f"  {kind:12s} started at {start / 1000.0:6.2f} s"
              f"   latency {latency:7.2f} ms")
    print()
    print("note the paper's headline effect: the weak read is served by the")
    print("local Tokyo group in ~1-2 ms, while ordered operations pay one")
    print("round trip to the Virginia agreement group (~170 ms).")


if __name__ == "__main__":
    main()
