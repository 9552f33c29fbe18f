"""End-to-end tests of the Spider core: writes, reads, checkpointing."""

import pytest

from repro.app import KVStore
from repro.core import SpiderConfig
from repro.deploy import ClusterSpec, GroupSpec, ShardSpec, build
from repro.net import Network, Topology
from repro.sim import Simulator


def build_system(
    regions=("virginia", "tokyo"),
    seed=1,
    *,
    jitter=0.0,
    app_factory=KVStore,
    agreement_factory=None,
    execute_locally=False,
    **config_kwargs,
):
    """One shard with a group ``g{i}`` per region; returns ``(sim, shard)``."""
    sim = Simulator(seed=seed)
    groups = tuple(GroupSpec(f"g{i}", region) for i, region in enumerate(regions))
    spec = ClusterSpec(
        shards=(ShardSpec("s0", groups=groups),),
        config=SpiderConfig(**config_kwargs),
        app_factory=app_factory,
        agreement_factory=agreement_factory,
        execute_locally=execute_locally,
    )
    return sim, build(sim, spec, network=Network(sim, Topology(), jitter=jitter)).system


class TestWrites:
    def test_single_write_completes(self):
        sim, system = build_system()
        client = system.make_client("c1", "virginia", group_id="g0")
        future = client.write(("put", "k", "v"))
        sim.run(until=2000.0)
        assert future.done
        assert future.value == ("ok", 1)

    def test_write_applied_to_all_groups(self):
        sim, system = build_system()
        client = system.make_client("c1", "virginia", group_id="g0")
        client.write(("put", "k", "v"))
        sim.run(until=2000.0)
        for group in system.groups.values():
            for replica in group.replicas:
                assert replica.app.apply(("get", "k")) == ("value", "v")

    def test_sequential_writes_are_ordered(self):
        sim, system = build_system()
        client = system.make_client("c1", "virginia", group_id="g0")
        results = []

        def issue(index=0):
            if index >= 5:
                return
            client.write(("put", "k", f"v{index}")).add_callback(
                lambda result: (results.append(result), issue(index + 1))
            )

        issue()
        sim.run(until=20000.0)
        assert results == [("ok", version) for version in range(1, 6)]
        for group in system.groups.values():
            for replica in group.replicas:
                assert replica.app.apply(("get", "k")) == ("value", "v4")

    def test_concurrent_clients_converge(self):
        sim, system = build_system()
        clients = [
            system.make_client(f"c{i}", "virginia", group_id="g0") for i in range(3)
        ] + [system.make_client(f"t{i}", "tokyo", group_id="g1") for i in range(3)]
        futures = [
            client.write(("put", f"key-{client.name}", client.name))
            for client in clients
        ]
        sim.run(until=5000.0)
        assert all(future.done for future in futures)
        states = set()
        for group in system.groups.values():
            for replica in group.replicas:
                states.add(repr(sorted(replica.app.snapshot()[0].items())))
        assert len(states) == 1  # E-Safety: identical state everywhere

    def test_remote_client_latency_dominated_by_wan(self):
        sim, system = build_system()
        client = system.make_client("c1", "tokyo", group_id="g1")
        future = client.write(("put", "k", "v"))
        sim.run(until=2000.0)
        assert future.done
        kind, start, latency = client.completed[0]
        # Tokyo -> Virginia agreement and back: at least one WAN round trip
        # (~160 ms), well under three.
        assert 150.0 < latency < 500.0

    def test_local_client_latency_is_low(self):
        sim, system = build_system()
        client = system.make_client("c1", "virginia", group_id="g0")
        client.write(("put", "k", "v"))
        sim.run(until=2000.0)
        _, _, latency = client.completed[0]
        # Everything stays inside the region: a handful of ms (paper: 13 ms).
        assert latency < 30.0

    def test_at_most_once_execution(self):
        sim, system = build_system()
        client = system.make_client("c1", "virginia", group_id="g0")
        client.retry_ms = 100.0  # aggressive retries to force duplicates
        future = client.write(("incr", "n", 1))
        sim.run(until=5000.0)
        assert future.done
        for group in system.groups.values():
            for replica in group.replicas:
                assert replica.app.apply(("get", "n")) == ("value", 1)


class TestReads:
    def test_weak_read_returns_value(self):
        sim, system = build_system()
        client = system.make_client("c1", "virginia", group_id="g0")
        client.write(("put", "k", "v"))
        sim.run(until=2000.0)
        future = client.weak_read(("get", "k"))
        sim.run(until=3000.0)
        assert future.value == ("value", "v")

    def test_weak_read_is_fast_everywhere(self):
        sim, system = build_system()
        client = system.make_client("c1", "tokyo", group_id="g1")
        future = client.weak_read(("get", "nothing"))
        sim.run(until=2000.0)
        assert future.done
        _, _, latency = client.completed[-1]
        assert latency < 5.0  # paper: <= 2 ms

    def test_weak_read_rejects_write_operations(self):
        sim, system = build_system()
        client = system.make_client("c1", "virginia", group_id="g0")
        future = client.weak_read(("put", "k", "sneaky"))
        sim.run(until=3000.0)
        # Execution replicas refuse to run mutating ops on the weak path.
        assert not future.done
        for replica in system.groups["g0"].replicas:
            assert replica.app.apply(("get", "k")) == ("missing",)

    def test_strong_read_full_path(self):
        sim, system = build_system()
        client = system.make_client("c1", "tokyo", group_id="g1")
        client.write(("put", "k", "v"))
        sim.run(until=2000.0)
        future = client.strong_read(("get", "k"))
        sim.run(until=4000.0)
        assert future.value == ("value", "v")
        _, _, latency = client.completed[-1]
        assert latency > 150.0  # strong reads pay the WAN round trip

    def test_strong_read_placeholder_at_other_groups(self):
        sim, system = build_system()
        client = system.make_client("c1", "tokyo", group_id="g1")
        client.write(("put", "k", "v"))
        sim.run(until=2000.0)
        client.strong_read(("get", "k"))
        sim.run(until=4000.0)
        # The other group received only a placeholder for the read.
        for replica in system.groups["g0"].replicas:
            cached = replica.u.get("c1")
            assert cached is not None
            assert cached[0] == 2  # counter advanced
            assert cached[1] == replica.PLACEHOLDER


class TestCheckpointing:
    def test_periodic_checkpoints_and_gc(self):
        sim, system = build_system(ka=4, ke=4, ag_window=8, commit_capacity=8)
        client = system.make_client("c1", "virginia", group_id="g0")
        done = []

        def issue(index=0):
            if index >= 20:
                return
            client.write(("put", f"k{index}", index)).add_callback(
                lambda result: (done.append(result), issue(index + 1))
            )

        issue()
        sim.run(until=60000.0)
        assert len(done) == 20
        agreement = system.agreement_replicas[0]
        assert agreement.cp.stable_count > 0
        assert agreement.ag.low_water > 1  # consensus log was truncated
        execution = system.groups["g0"].replicas[0]
        assert execution.cp.stable_count > 0

    def test_trailing_execution_group_catches_up_via_checkpoint(self):
        sim, system = build_system(ka=4, ke=4, ag_window=16, commit_capacity=8, z=1)
        client = system.make_client("c1", "virginia", group_id="g0")
        # Partition the Tokyo group away while traffic flows.
        sim.schedule(0.0, system.network.partition, {"tokyo"})

        def issue(index=0):
            if index >= 16:
                return
            client.write(("put", f"k{index}", index)).add_callback(
                lambda _: issue(index + 1)
            )

        issue()
        sim.run(until=30000.0)
        tokyo_before = max(r.sn for r in system.groups["g1"].replicas)
        assert tokyo_before < 16
        system.network.heal()
        sim.run(until=120000.0)
        # After healing, Tokyo catches up (checkpoint transfer + commits).
        tokyo_after = max(r.sn for r in system.groups["g1"].replicas)
        assert tokyo_after >= 16
        caught_up = [r for r in system.groups["g1"].replicas if r.sn >= 16]
        assert any(r.checkpoints_applied > 0 or r.sn >= 16 for r in caught_up)
        replica = caught_up[0]
        assert replica.app.apply(("get", "k15")) == ("value", 15)
