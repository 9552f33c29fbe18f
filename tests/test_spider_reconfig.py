"""Tests for Spider's runtime adaptability (Section 3.6) and modularity."""

from repro.consensus import SingleSequencer

from tests.test_spider_basic import build_system


class TestDynamicAddition:
    def test_add_group_through_consensus(self):
        sim, system = build_system(regions=("virginia",))
        client = system.make_client("c1", "virginia", group_id="g0")
        client.write(("put", "k", "v"))
        sim.run(until=2000.0)
        # Runtime addition: replicas start, then AddGroup is agreed on.
        system.add_execution_group_dynamically("jp", "tokyo")
        sim.run(until=8000.0)
        for replica in system.agreement_replicas:
            assert "jp" in replica.groups
        # The new group catches up on existing state via checkpoint/commits.
        sim.run(until=30000.0)
        caught_up = [
            r for r in system.groups["jp"].replicas
            if r.app.apply(("get", "k")) == ("value", "v")
        ]
        assert len(caught_up) >= 2  # fe+1 of the 3 replicas

    def test_new_group_serves_clients(self):
        sim, system = build_system(regions=("virginia",))
        system.add_execution_group_dynamically("jp", "tokyo")
        sim.run(until=8000.0)
        client = system.make_client("tk", "tokyo", group_id="jp")
        future = client.write(("put", "x", 1))
        sim.run(until=40000.0)
        assert future.done and future.value == ("ok", 1)

    def test_registry_reflects_addition(self):
        sim, system = build_system(regions=("virginia",))
        system.add_execution_group_dynamically("jp", "tokyo")
        sim.run(until=8000.0)
        future = system.admin.query_registry()
        sim.run(until=10000.0)
        registry = future.value
        assert set(registry) == {"g0", "jp"}
        assert len(registry["jp"]) == 3

    def test_unauthorized_add_group_is_ignored(self):
        sim, system = build_system(regions=("virginia",))
        from repro.core.client import AdminClient
        from repro.net import Site

        impostor = AdminClient(
            sim, "mallory", Site("virginia", 1), system.agreement_replicas
        )
        system.network.register(impostor)
        impostor.add_group("evil", ("x1", "x2", "x3"))
        sim.run(until=5000.0)
        for replica in system.agreement_replicas:
            assert "evil" not in replica.groups


class TestRemoval:
    def test_remove_group_closes_channels(self):
        sim, system = build_system()
        client = system.make_client("c1", "virginia", group_id="g0")
        client.write(("put", "k", "v"))
        sim.run(until=2000.0)
        system.remove_execution_group("g1")
        sim.run(until=8000.0)
        for replica in system.agreement_replicas:
            assert "g1" not in replica.groups
        # Remaining group still serves requests.
        future = client.write(("put", "k2", "v2"))
        sim.run(until=12000.0)
        assert future.done

    def test_client_switches_group_after_removal(self):
        sim, system = build_system()
        client = system.make_client("c1", "tokyo", group_id="g1")
        first = client.write(("put", "a", 1))
        sim.run(until=3000.0)
        assert first.done
        system.remove_execution_group("g1")
        sim.run(until=8000.0)
        # Affected clients switch to another execution group (Section 3.1).
        client.switch_group("g0", system.groups["g0"].replicas)
        second = client.write(("put", "b", 2))
        sim.run(until=20000.0)
        assert second.done and second.value == ("ok", 1)


class TestAgreementModularity:
    def test_spider_runs_over_single_sequencer(self):
        """Execution groups and IRMCs work unchanged over a trivial
        (non-BFT, fa=0) agreement implementation - the modularity claim."""
        sim, system = build_system(
            seed=3, agreement_factory=lambda node, peers: SingleSequencer(), fa=0
        )
        assert len(system.agreement_replicas) == 1
        client = system.make_client("c1", "virginia", group_id="g0")
        future = client.write(("put", "k", "v"))
        sim.run(until=5000.0)
        assert future.done and future.value == ("ok", 1)
        for replica in system.groups["g1"].replicas:
            assert replica.app.apply(("get", "k")) == ("value", "v")
