"""Runtime adaptability: adding and removing execution groups.

Reproduces the story of the paper's Section 3.6 / Figure 10: a service
starts with groups near its existing clients; when clients appear in Sao
Paulo, the operator spins up a local execution group through the admin
client (an agreed-on <AddGroup> command), the new group catches up via
checkpoint transfer, and the new clients get local weak reads.  Finally
the group is removed again and its clients switch away.

Run with::

    python examples/dynamic_reconfiguration.py
"""

from repro.deploy import ClusterSpec, GroupSpec, ShardSpec, build
from repro.sim import Simulator


def main() -> None:
    sim = Simulator(seed=5)
    spec = ClusterSpec(shards=(ShardSpec(
        "s0", agreement_region="virginia", groups=(GroupSpec("us", "virginia"),)
    ),))
    system = build(sim, spec).system

    # Seed some state through a Virginia client.
    writer = system.make_client("bob", "virginia", group_id="us")
    future = writer.write(("put", "motd", "welcome"))
    sim.run(until=5_000.0)
    print(f"initial write -> {future.value}")

    print()
    print("clients appear in Sao Paulo: deploy a group there at runtime")
    group = system.create_group_replicas("sp", "saopaulo")
    system.admin.add_group("sp", group.member_names)
    sim.run(until=15_000.0)

    registry = system.admin.query_registry()
    sim.run(until=20_000.0)
    print(f"registry now lists: {sorted(registry.value)}")

    sp_client = system.make_client("carol", "saopaulo", group_id="sp")
    read = sp_client.weak_read(("get", "motd"))
    sim.run(until=60_000.0)
    print(f"Sao Paulo weak read -> {read.value}"
          f"   ({sp_client.completed[-1][2]:.1f} ms - local!)")
    write = sp_client.write(("put", "motd", "ola"))
    sim.run(until=90_000.0)
    print(f"Sao Paulo write -> {write.value}"
          f"   ({sp_client.completed[-1][2]:.1f} ms - one WAN round trip)")

    print()
    print("demand moves away again: remove the group")
    system.remove_execution_group("sp")
    sim.run(until=100_000.0)
    registry = system.admin.query_registry()
    sim.run(until=105_000.0)
    print(f"registry now lists: {sorted(registry.value)}")

    sp_client.switch_group("us", system.groups["us"].replicas)
    read = sp_client.weak_read(("get", "motd"))
    sim.run(until=140_000.0)
    print(f"Sao Paulo reads via Virginia now -> {read.value}"
          f"   ({sp_client.completed[-1][2]:.1f} ms - WAN again)")


if __name__ == "__main__":
    main()
