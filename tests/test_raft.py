"""Tests for the Raft agreement black-box and Spider-over-Raft."""

from repro.consensus import Batch, batch_items
from repro.consensus.raft import RaftConfig, RaftReplica
from repro.sim import Process, charge

from tests.conftest import Cluster


class RaftHarness:
    def __init__(self, cluster, n=3, **cfg):
        self.cluster = cluster
        self.nodes = cluster.add_group("n", n)
        config = RaftConfig(**cfg)
        self.replicas = [
            RaftReplica(node, "raft", self.nodes, config) for node in self.nodes
        ]
        self.delivered = {node.name: [] for node in self.nodes}
        for node, replica in zip(self.nodes, self.replicas):
            Process(cluster.sim, self._drain(replica), node=node)

    def _drain(self, replica):
        while True:
            seq, payload = yield replica.next_delivery()
            self.delivered[replica.node.name].append((seq, payload))

    def flat_payloads(self, name):
        """Delivered messages of one replica with batches expanded."""
        return [
            item
            for _, payload in self.delivered[name]
            for item in batch_items(payload)
        ]

    def leader(self):
        for replica in self.replicas:
            if replica.role == "leader" and not replica.node.crashed:
                return replica
        return None


class TestElections:
    def test_exactly_one_leader_emerges(self):
        cluster = Cluster()
        harness = RaftHarness(cluster)
        cluster.run(until=3000.0)
        leaders = [r for r in harness.replicas if r.role == "leader"]
        assert len(leaders) == 1
        term = leaders[0].term
        assert all(r.term == term for r in harness.replicas)

    def test_leader_crash_triggers_reelection(self):
        cluster = Cluster()
        harness = RaftHarness(cluster)
        cluster.run(until=3000.0)
        old_leader = harness.leader()
        old_leader.node.crash()
        cluster.run(until=10000.0)
        new_leader = harness.leader()
        assert new_leader is not None and new_leader is not old_leader
        assert new_leader.term > old_leader.term

    def test_five_node_cluster(self):
        cluster = Cluster()
        harness = RaftHarness(cluster, n=5)
        cluster.run(until=3000.0)
        assert harness.leader() is not None

    def test_stale_fired_election_timeout_is_void_after_reset(self):
        """An election timeout that fired at the simulator but still queues
        behind other work on the CPU must not run once the timer was reset
        (a heartbeat got through first): the follower stays a follower."""
        cluster = Cluster()
        harness = RaftHarness(cluster)
        cluster.run(until=3000.0)
        leader = harness.leader()
        follower = next(r for r in harness.replicas if r is not leader)
        for replica in harness.replicas:
            if replica is not follower:
                replica.node.crash()  # no heartbeat and no vote from here on
        term = follower.term
        deadline = follower._election_timer.deadline
        node = follower.node
        cluster.sim.schedule_at(deadline - 5.0, node.run_task, charge, 20.0)
        cluster.sim.schedule_at(deadline - 1.0, node.run_task, follower._reset_election_timer)
        cluster.run(until=deadline + 30.0)
        assert follower.role == "follower" and follower.term == term == 1


class TestReplication:
    def test_ordered_delivery_on_all_replicas(self):
        cluster = Cluster()
        harness = RaftHarness(cluster, batch_size=1)  # five pipelined entries
        cluster.run(until=3000.0)
        for index in range(5):
            harness.leader().order(("op", index))
        cluster.run(until=8000.0)
        reference = harness.delivered[harness.leader().node.name]
        assert [payload for _, payload in reference] == [("op", i) for i in range(5)]
        assert [seq for seq, _ in reference] == [1, 2, 3, 4, 5]
        for delivered in harness.delivered.values():
            assert delivered == reference

    def test_order_via_follower_forwards(self):
        cluster = Cluster()
        harness = RaftHarness(cluster)
        cluster.run(until=3000.0)
        follower = next(r for r in harness.replicas if r.role == "follower")
        follower.order(("forwarded",))
        cluster.run(until=8000.0)
        assert ("forwarded",) in [p for _, p in harness.delivered[follower.node.name]]

    def test_order_before_any_leader_is_buffered(self):
        cluster = Cluster()
        harness = RaftHarness(cluster)
        harness.replicas[0].order(("early",))  # no leader exists yet
        cluster.run(until=8000.0)
        assert ("early",) in [p for _, p in harness.delivered["n0"]]

    def test_progress_with_one_crashed_follower(self):
        cluster = Cluster()
        harness = RaftHarness(cluster)
        cluster.run(until=3000.0)
        follower = next(r for r in harness.replicas if r.role == "follower")
        follower.node.crash()
        harness.leader().order(("survives",))
        cluster.run(until=8000.0)
        live = [r for r in harness.replicas if not r.node.crashed]
        for replica in live:
            assert ("survives",) in [
                p for _, p in harness.delivered[replica.node.name]
            ]

    def test_entries_survive_leader_change(self):
        cluster = Cluster()
        harness = RaftHarness(cluster)
        cluster.run(until=3000.0)
        harness.leader().order(("first",))
        cluster.run(until=5000.0)
        harness.leader().node.crash()
        cluster.run(until=12000.0)
        harness.leader().order(("second",))
        cluster.run(until=20000.0)
        survivor = harness.leader()
        payloads = [p for _, p in harness.delivered[survivor.node.name]]
        assert payloads.index(("first",)) < payloads.index(("second",))

    def test_gc_compacts_log(self):
        cluster = Cluster()
        harness = RaftHarness(cluster, batch_size=1)  # one entry per payload
        cluster.run(until=3000.0)
        for index in range(6):
            harness.leader().order(("op", index))
        cluster.run(until=8000.0)
        leader = harness.leader()
        leader.gc(5)
        assert leader.offset >= 4
        assert leader.low_water == 5
        leader.order(("after-gc",))
        cluster.run(until=12000.0)
        assert ("after-gc",) in [p for _, p in harness.delivered[leader.node.name]]


class TestBatching:
    """The same self-clocked cut rule as PBFT: append at once while no
    entry of the leader's own term is uncommitted, otherwise accumulate
    and cut when it commits, gc skips it, or the cap fills."""

    def _elected(self, **cfg):
        cluster = Cluster()
        harness = RaftHarness(cluster, **cfg)
        cluster.run(until=3000.0)
        return cluster, harness, harness.leader()

    def test_idle_leader_appends_inside_the_receiving_task(self):
        cluster, harness, leader = self._elected()
        leader.order(("only", 1))
        # Appended before order() returned: no clock ran, nothing buffered.
        assert leader.last_index == 1 and len(leader._accumulator) == 0
        cluster.run(until=8000.0)
        # A single message is not wrapped.
        assert harness.delivered["n0"] == [(1, ("only", 1))]
        assert leader.batches_cut == 1 and leader.largest_batch == 1

    def test_arrivals_during_an_entry_become_one_more_entry(self):
        cluster, harness, leader = self._elected()
        for index in range(6):
            leader.order(("op", index))
        assert leader.last_index == 1 and len(leader._accumulator) == 5
        cluster.run(until=8000.0)
        for delivered in harness.delivered.values():
            assert delivered == [
                (1, ("op", 0)),
                (2, Batch(items=tuple(("op", i) for i in range(1, 6)))),
            ]
        assert leader.batches_cut == 2 and leader.largest_batch == 5

    def test_cap_splits_a_longer_backlog(self):
        cluster, harness, leader = self._elected(batch_size=3)
        for index in range(8):
            leader.order(("op", index))
        assert leader.last_index == 3  # the cap cut twice behind entry 1
        cluster.run(until=8000.0)
        delivered = harness.delivered[leader.node.name]
        assert [len(batch_items(payload)) for _, payload in delivered] == [1, 3, 3, 1]
        assert harness.flat_payloads(leader.node.name) == [("op", i) for i in range(8)]

    def test_unbatchable_payload_goes_alone(self):
        class Reconfigure(tuple):
            BATCHABLE = False

        cluster, harness, leader = self._elected()
        for payload in (("a",), ("b",), ("c",), Reconfigure(("add-group",)), ("d",)):
            leader.order(payload)
        assert leader.last_index == 3  # a | (b, c) | the command, at once
        cluster.run(until=8000.0)
        assert [payload for _, payload in harness.delivered[leader.node.name]] == [
            ("a",),
            Batch(items=(("b",), ("c",))),
            ("add-group",),
            ("d",),
        ]

    def test_gc_skipping_the_outstanding_entry_releases_the_buffer(self):
        cluster, harness, leader = self._elected()
        for node in harness.nodes:  # entry 1 can never commit
            if node is not leader.node:
                cluster.network.block_link(leader.node, node)
        for payload in (("a",), ("b",), ("c",)):
            leader.order(payload)
        assert leader.commit_index == 0 and len(leader._accumulator) == 2
        leader.gc(2)  # a checkpoint covers index 1
        assert len(leader._accumulator) == 0
        assert leader.log[-1].payload == Batch(items=(("b",), ("c",)))

    def test_old_term_tail_does_not_hold_back_a_new_leader(self):
        """An uncommitted entry of an older term is not the new leader's
        own proposal, and only an entry of its term can commit it: waiting
        for it would strand the buffer forever."""
        cluster, harness, leader = self._elected()
        followers = [r for r in harness.replicas if r is not leader]
        for follower in followers:  # replicate entry 1, but never commit it
            cluster.network.block_link(follower.node, leader.node)
        leader.order(("old-term",))
        cluster.run(until=3200.0)
        leader.node.crash()
        for follower in followers:
            follower.order(("new-term",))
        cluster.run(until=12_000.0)
        for follower in followers:
            assert harness.flat_payloads(follower.node.name) == [
                ("old-term",),
                ("new-term",),
            ]

    def test_leader_crash_with_buffered_requests_loses_nothing(self):
        cluster, harness, leader = self._elected()
        payloads = [("op", index) for index in range(5)]
        for payload in payloads:
            for replica in harness.replicas:
                replica.order(payload)
        assert len(leader._accumulator) == 4  # buffered behind entry 1
        leader.node.crash()
        cluster.run(until=12_000.0)
        new_leader = harness.leader()
        assert new_leader is not None and new_leader is not leader
        # Every follower still held the requests in ``pending`` and
        # re-introduced them: one goes at once, the rest ride behind it.
        assert new_leader.batches_cut <= 2
        for replica in harness.replicas:
            if replica is not leader:
                assert sorted(harness.flat_payloads(replica.node.name)) == payloads

    def test_spider_over_raft_with_batching(self):
        """The Raft baseline exposes the same batching interface, so
        batching ablations compare PBFT and Raft on equal footing."""
        from repro.consensus.raft import RaftConfig, RaftReplica
        from tests.test_spider_basic import build_system

        sim, system = build_system(
            seed=9,
            agreement_factory=lambda node, peers: RaftReplica(
                node, "raft-ag", peers, RaftConfig(batch_size=4)
            ),
            batch_size=4,
        )
        clients = [
            system.make_client(f"c{i}", "virginia", group_id="g0") for i in range(4)
        ]
        futures = [
            client.write(("put", f"k-{client.name}", client.name))
            for client in clients
        ]
        sim.run(until=30_000.0)
        assert all(future.done for future in futures)
        states = set()
        for group in system.groups.values():
            for replica in group.replicas:
                states.add(repr(sorted(replica.app.snapshot()[0].items())))
        assert len(states) == 1


class TestSpiderOverRaft:
    def test_full_spider_system_on_raft_agreement(self):
        """The modularity payoff: Spider's execution groups and IRMCs run
        unchanged over a crash-tolerant agreement group."""
        from repro.consensus.raft import RaftConfig, RaftReplica
        from tests.test_spider_basic import build_system

        sim, system = build_system(
            seed=9,
            agreement_factory=lambda node, peers: RaftReplica(
                node, "raft-ag", peers, RaftConfig()
            ),
        )
        client = system.make_client("c1", "tokyo", group_id="g1")
        future = client.write(("put", "k", "v"))
        sim.run(until=20_000.0)
        assert future.done and future.value == ("ok", 1)
        for replica in system.groups["g0"].replicas:
            assert replica.app.apply(("get", "k")) == ("value", "v")
