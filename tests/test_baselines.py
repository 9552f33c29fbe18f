"""Tests for the BFT, BFT-WV and HFT baseline architectures."""

import pytest

from repro.deploy import BftSpec, HftSpec, build
from repro.net import Network, Topology
from repro.sim import Simulator

REGIONS = ["virginia", "oregon", "ireland", "tokyo"]


def _build(spec, seed):
    sim = Simulator(seed=seed)
    return sim, build(sim, spec, network=Network(sim, Topology(), jitter=0.0))


def make_bft(regions=None, seed=1, **spec_kwargs):
    """BFT over ``regions`` (the first one leads)."""
    return _build(BftSpec(regions=tuple(regions or REGIONS), **spec_kwargs), seed)


def make_hft(regions=None, seed=1, **spec_kwargs):
    """HFT over ``regions`` (the first one is the leader site)."""
    return _build(HftSpec(regions=tuple(regions or REGIONS), **spec_kwargs), seed)


class TestBft:
    def test_write_completes_and_replicates(self):
        sim, system = make_bft()
        client = system.make_client("c1", "virginia")
        future = client.write(("put", "k", "v"))
        sim.run(until=3000.0)
        assert future.value == ("ok", 1)
        for replica in system.replicas:
            assert replica.app.apply(("get", "k")) == ("value", "v")

    def test_write_latency_is_wan_bound(self):
        sim, system = make_bft()
        client = system.make_client("c1", "virginia")
        client.write(("put", "k", "v"))
        sim.run(until=3000.0)
        _, _, latency = client.completed[0]
        # Full PBFT over WAN: around two wide-area message delays minimum.
        assert 60.0 < latency < 400.0

    def test_leader_placement_changes_latency(self):
        latencies = {}
        for leader in ("virginia", "tokyo"):
            regions = [leader] + [r for r in REGIONS if r != leader]
            sim, system = make_bft(regions=regions)
            client = system.make_client("c1", "ireland")
            client.write(("put", "k", "v"))
            sim.run(until=3000.0)
            latencies[leader] = client.completed[0][2]
        # An Ireland client is served faster with the leader in Virginia
        # than with the leader in Tokyo (paper Fig. 7, BFT row).
        assert latencies["virginia"] < latencies["tokyo"]

    def test_weak_read_needs_wan_quorum(self):
        sim, system = make_bft()
        client = system.make_client("c1", "virginia")
        future = client.weak_read(("get", "x"))
        sim.run(until=3000.0)
        assert future.done
        _, _, latency = client.completed[0]
        # f+1 = 2 matching replies: the second-closest replica is remote.
        assert latency > 30.0

    def test_duplicate_suppression(self):
        sim, system = make_bft()
        client = system.make_client("c1", "virginia")
        client.retry_ms = 50.0
        future = client.write(("incr", "n", 1))
        sim.run(until=5000.0)
        assert future.done
        for replica in system.replicas:
            assert replica.app.apply(("get", "n")) == ("value", 1)

    def test_weighted_voting_five_replicas(self):
        regions = ["virginia", "oregon", "ireland", "tokyo", "saopaulo"]
        sim, system = make_bft(
            regions=regions, weights=(("virginia", 2.0), ("oregon", 2.0))
        )
        client = system.make_client("c1", "virginia")
        future = client.write(("put", "k", "v"))
        sim.run(until=3000.0)
        assert future.value == ("ok", 1)
        # All five replicas eventually converge.
        sim.run(until=6000.0)
        applied = [r.app.apply(("get", "k")) for r in system.replicas]
        assert applied.count(("value", "v")) >= 4

    def test_client_of_every_region_served(self):
        sim, system = make_bft()
        clients = [system.make_client(f"c-{r}", r) for r in REGIONS]
        futures = [c.write(("put", f"k-{c.name}", 1)) for c in clients]
        sim.run(until=5000.0)
        assert all(f.done for f in futures)


class TestHft:
    def test_write_completes_and_replicates_everywhere(self):
        sim, system = make_hft()
        client = system.make_client("c1", "virginia")
        future = client.write(("put", "k", "v"))
        sim.run(until=5000.0)
        assert future.value == ("ok", 1)
        for cluster in system.sites.values():
            for replica in cluster:
                assert replica.app.apply(("get", "k")) == ("value", "v")

    def test_remote_site_client(self):
        sim, system = make_hft()
        client = system.make_client("c1", "tokyo")
        future = client.write(("put", "k", "v"))
        sim.run(until=5000.0)
        assert future.value == ("ok", 1)
        _, _, latency = client.completed[0]
        # Tokyo -> Virginia leader site and back, plus threshold crypto.
        assert latency > 150.0

    def test_weak_read_is_local_and_fast(self):
        sim, system = make_hft()
        client = system.make_client("c1", "tokyo")
        future = client.weak_read(("get", "x"))
        sim.run(until=2000.0)
        assert future.done
        _, _, latency = client.completed[0]
        assert latency < 10.0  # local site cluster answers

    def test_sequential_writes_keep_order(self):
        sim, system = make_hft()
        client = system.make_client("c1", "virginia")
        results = []

        def issue(index=0):
            if index >= 4:
                return
            client.write(("put", "k", f"v{index}")).add_callback(
                lambda result: (results.append(result), issue(index + 1))
            )

        issue()
        sim.run(until=20000.0)
        assert results == [("ok", v) for v in range(1, 5)]

    def test_concurrent_clients_converge(self):
        sim, system = make_hft()
        clients = [system.make_client(f"c-{r}", r) for r in REGIONS]
        futures = [c.write(("put", f"k-{c.name}", c.name)) for c in clients]
        sim.run(until=10000.0)
        assert all(f.done for f in futures)
        states = set()
        for cluster in system.sites.values():
            for replica in cluster:
                states.add(repr(sorted(replica.app.snapshot()[0].items())))
        assert len(states) == 1

    def test_representative_rotation_on_crash(self):
        sim, system = make_hft()
        # Crash the leader site's representative before any traffic.
        system.sites["virginia"][0].crash()
        client = system.make_client("c1", "oregon")
        future = client.write(("put", "k", "v"))
        sim.run(until=60000.0)
        assert future.done
        assert future.value == ("ok", 1)


class TestBatchedDelivery:
    """Both baselines order through a self-clocked batching leader, like
    Spider does: a delivered ``Batch`` is its items executed in order.
    (Before, neither unwrapped one, so every batched request was silently
    dropped and its client hung.)"""

    @staticmethod
    def _drive(sim, system, per_region=3, writes=3):
        clients = [
            system.make_client(f"c-{region}-{index}", region)
            for region in REGIONS
            for index in range(per_region)
        ]
        results = {client.name: [] for client in clients}

        def issue(client, index=0):
            if index < writes:
                client.write(("put", f"k-{client.name}", index)).add_callback(
                    lambda result: (results[client.name].append(result), issue(client, index + 1))
                )

        for client in clients:
            issue(client)
        sim.run(until=30_000.0)
        assert all(len(done) == writes for done in results.values())
        return len(clients) * writes

    def test_bft_executes_every_item_of_a_batch(self):
        sim, system = make_bft()
        total = self._drive(sim, system)
        assert system.replicas[0].ag.largest_batch > 1
        for replica in system.replicas:
            assert replica.executed_count == total
            assert replica.sn < total  # fewer instances than requests

    def test_hft_executes_every_item_of_a_batch(self):
        from repro.consensus import is_batch

        sim, system = make_hft()
        total = self._drive(sim, system)
        for cluster in system.sites.values():
            for replica in cluster:
                assert replica.executed_count == total
                assert replica.sn < total
                assert any(is_batch(p.request) for p in replica.proposals.values())
