"""Fault-tolerance walkthrough: Spider under crashes and partitions.

Demonstrates, on one running deployment:

1. the agreement-group leader crashing — a view change confined to the
   Virginia region restores write progress (no wide-area fault handling);
2. an execution replica crashing — masked entirely by the 2f+1 group;
3. the agreement region becoming unreachable — weakly consistent reads
   keep being served by the client's local group (paper Section 3.1), and
   stalled writes complete after the partition heals.

Run with::

    python examples/fault_tolerance.py
"""

from repro.deploy import ClusterSpec, GroupSpec, ShardSpec, build
from repro.sim import Simulator


def headline(text: str) -> None:
    print()
    print(f"== {text} ==")


def main() -> None:
    sim = Simulator(seed=11)
    spec = ClusterSpec(shards=(ShardSpec(
        "s0",
        agreement_region="virginia",
        groups=(GroupSpec("us", "virginia"), GroupSpec("jp", "tokyo")),
    ),))
    system = build(sim, spec).system
    network = system.network
    client = system.make_client("alice", "tokyo", group_id="jp")

    headline("normal operation")
    future = client.write(("put", "k", 1))
    sim.run(until=5_000.0)
    print(f"write -> {future.value}   ({client.completed[-1][2]:.1f} ms)")

    headline("crash the consensus leader (agreement replica ag0)")
    system.agreement_replicas[0].crash()
    future = client.write(("put", "k", 2))
    sim.run(until=40_000.0)
    views = [r.ag.view for r in system.agreement_replicas[1:]]
    print(f"write -> {future.value}   ({client.completed[-1][2]:.1f} ms)")
    print(f"agreement group moved to view(s) {sorted(set(views))} - the view")
    print("change ran entirely over Virginia's intra-region links")

    headline("crash one Tokyo execution replica")
    system.groups["jp"].replicas[2].crash()
    future = client.write(("put", "k", 3))
    sim.run(until=60_000.0)
    print(f"write -> {future.value}   ({client.completed[-1][2]:.1f} ms)")
    print("masked: fe+1 = 2 of 3 replicas answer and forward requests")

    headline("partition the whole agreement region away")
    network.partition({"virginia"})
    read = client.weak_read(("get", "k"))
    sim.run(until=70_000.0)
    print(f"weak read during outage -> {read.value}"
          f"   ({client.completed[-1][2]:.1f} ms, served locally)")
    write = client.write(("put", "k", 4))
    sim.run(until=80_000.0)
    print(f"write during outage completed: {write.done} (expected False)")

    headline("heal the partition")
    network.heal()
    sim.run(until=160_000.0)
    print(f"stalled write now completed: {write.done} -> {write.value}")


if __name__ == "__main__":
    main()
