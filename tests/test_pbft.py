"""Tests for the PBFT agreement component."""

from collections import deque

import pytest

from repro.consensus import Batch, batch_items, is_batch
from repro.consensus.pbft import NOOP, PbftConfig, PbftReplica, is_noop, quorum_weight
from repro.errors import ConfigurationError
from repro.faults import DelayBehaviour, DropBehaviour
from repro.sim import Process

from tests.conftest import Cluster


def lose_everywhere(cluster, fraction):
    """Every node loses ``fraction`` of its sends until the returned
    handles are uninstalled."""
    return [DropBehaviour(fraction).install(node) for node in cluster.network.nodes.values()]


class PbftHarness:
    """A PBFT group whose deliveries are drained into per-replica lists."""

    def __init__(self, cluster, n=4, f=1, weights=None, region="virginia", **cfg):
        self.cluster = cluster
        self.nodes = cluster.add_group("r", n, region=region)
        config_kwargs = dict(f=f, view_timeout_ms=cfg.pop("view_timeout_ms", 500.0))
        config_kwargs.update(cfg)
        self.replicas = [
            PbftReplica(node, "pbft", self.nodes, PbftConfig(weights=weights, **config_kwargs))
            for node in self.nodes
        ]
        self.delivered = {node.name: [] for node in self.nodes}
        for node, replica in zip(self.nodes, self.replicas):
            Process(cluster.sim, self._drain(replica), node=node, name=f"drain-{node.name}")

    def _drain(self, replica):
        while True:
            seq, payload = yield replica.next_delivery()
            self.delivered[replica.name].append((seq, payload))

    def order_everywhere(self, payload):
        for replica in self.replicas:
            replica.order(payload)

    def delivered_payloads(self, name):
        return [payload for _, payload in self.delivered[name]]

    def flat_payloads(self, name):
        """Delivered messages with batches expanded and no-ops dropped."""
        return [
            item
            for _, payload in self.delivered[name]
            for item in batch_items(payload)
            if not is_noop(item)
        ]


@pytest.fixture
def harness():
    return PbftHarness(Cluster())


class TestQuorumWeight:
    def test_classic_pbft(self):
        assert quorum_weight(4, 1, 1) == 3
        assert quorum_weight(7, 2, 1) == 5

    def test_wheat_five_replicas(self):
        # 5 replicas, two with weight 2: total 7, Vmax 2, f=1 -> quorum 5.
        assert quorum_weight(7, 1, 2) == 5

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            PbftConfig(f=1).validate(["a", "b", "c"])
        with pytest.raises(ConfigurationError):
            PbftConfig(f=1, weights={"zz": 2}).validate(["a", "b", "c", "d"])


class TestNormalCase:
    def test_single_message_delivered_everywhere(self, harness):
        harness.order_everywhere(("put", "k", "v"))
        harness.cluster.run(until=300.0)
        for node in harness.nodes:
            assert harness.delivered[node.name] == [(1, ("put", "k", "v"))]

    def test_messages_delivered_in_identical_order(self):
        # batch_size=1: ten pipelined instances, one message each.
        harness = PbftHarness(Cluster(), batch_size=1)
        for index in range(10):
            harness.order_everywhere(("op", index))
        harness.cluster.run(until=1000.0)
        reference = harness.delivered[harness.nodes[0].name]
        assert len(reference) == 10
        assert [seq for seq, _ in reference] == list(range(1, 11))
        for node in harness.nodes[1:]:
            assert harness.delivered[node.name] == reference

    def test_duplicate_order_is_ignored(self, harness):
        harness.order_everywhere(("op", 1))
        harness.order_everywhere(("op", 1))
        harness.cluster.run(until=400.0)
        assert harness.delivered_payloads("r0") == [("op", 1)]

    def test_follower_forwards_to_leader(self, harness):
        # Only a follower learns of the message; it must still be ordered.
        harness.replicas[2].order(("op", "forwarded"))
        harness.cluster.run(until=400.0)
        for node in harness.nodes:
            assert harness.delivered_payloads(node.name) == [("op", "forwarded")]

    def test_seven_replicas_f2(self):
        cluster = Cluster()
        harness = PbftHarness(cluster, n=7, f=2)
        harness.order_everywhere(("x",))
        cluster.run(until=400.0)
        for node in harness.nodes:
            assert harness.delivered_payloads(node.name) == [("x",)]

    def test_gc_prevents_old_delivery_and_advances_state(self, harness):
        harness.order_everywhere(("a",))
        harness.cluster.run(until=300.0)
        for replica in harness.replicas:
            replica.gc(2)
            assert replica.low_water == 2
            assert replica.delivered_seq >= 1
        harness.order_everywhere(("b",))
        harness.cluster.run(until=600.0)
        assert harness.delivered[harness.nodes[0].name][-1] == (2, ("b",))

    def test_window_backpressure_queues_proposals(self):
        cluster = Cluster()
        harness = PbftHarness(cluster, window=4, batch_size=1)
        for index in range(10):
            harness.order_everywhere(("op", index))
        cluster.run(until=2000.0)
        # Only the window's worth can be delivered until gc opens it up.
        assert len(harness.delivered["r0"]) == 4
        for replica in harness.replicas:
            replica.gc(5)
        cluster.run(until=4000.0)
        assert len(harness.delivered["r0"]) == 8

    def test_weighted_voting_quorum(self):
        cluster = Cluster()
        weights = {"r0": 2.0, "r1": 2.0, "r2": 1.0, "r3": 1.0, "r4": 1.0}
        harness = PbftHarness(cluster, n=5, f=1, weights=weights)
        assert harness.replicas[0].quorum == 5.0
        harness.order_everywhere(("weighted",))
        cluster.run(until=500.0)
        for node in harness.nodes:
            assert harness.delivered_payloads(node.name) == [("weighted",)]


class TestViewChange:
    def test_crashed_leader_is_replaced(self):
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=200.0)
        harness.nodes[0].crash()  # leader of view 0
        for replica in harness.replicas[1:]:
            replica.order(("survive",))
        cluster.run(until=5000.0)
        for node in harness.nodes[1:]:
            payloads = harness.delivered_payloads(node.name)
            assert ("survive",) in payloads
        assert harness.replicas[1].view >= 1

    def test_prepared_message_survives_view_change(self):
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=200.0)
        # Let one message commit fully first.
        harness.order_everywhere(("first",))
        cluster.run(until=300.0)
        harness.nodes[0].crash()
        for replica in harness.replicas[1:]:
            replica.order(("second",))
        cluster.run(until=5000.0)
        reference = harness.delivered[harness.nodes[1].name]
        non_noop = [(s, p) for s, p in reference if not is_noop(p)]
        assert [p for _, p in non_noop] == [("first",), ("second",)]
        for node in harness.nodes[2:]:
            assert harness.delivered[node.name] == reference

    def test_silent_leader_detected_without_crash(self):
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=200.0)
        # Byzantine-silent leader: drop all its outgoing traffic.
        for node in harness.nodes[1:]:
            cluster.network.block_link(harness.nodes[0], node)
        for replica in harness.replicas[1:]:
            replica.order(("progress",))
        cluster.run(until=5000.0)
        for node in harness.nodes[1:]:
            assert ("progress",) in harness.delivered_payloads(node.name)

    def test_view_changes_counted(self):
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=200.0)
        harness.nodes[0].crash()
        for replica in harness.replicas[1:]:
            replica.order(("x",))
        cluster.run(until=5000.0)
        assert any(r.view_changes_completed >= 1 for r in harness.replicas[1:])

    def test_one_fast_clock_never_moves_the_view(self):
        """A 2x fast clock fires r1's view timer at half the timeout, so
        a slow leader looks dead to r1 alone.  Its suspicion is one of
        the 2f+1 a view change needs: the group stays in view 0."""
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=100.0)
        DelayBehaviour(60.0).install(harness.nodes[0])  # the view-0 leader
        harness.nodes[1].clock_rate = 2.0
        for index in range(40):
            cluster.sim.schedule_at(
                100.0 * index, harness.order_everywhere, ("op", index)
            )
        cluster.run(until=10_000.0)
        for replica in harness.replicas:
            assert (replica.view, replica.in_view_change) == (0, False)
        assert "r1" in harness.replicas[1].suspects.get(1, ())  # it did suspect
        for node in harness.nodes:
            assert harness.flat_payloads(node.name) == [("op", i) for i in range(40)]


class TestBatching:
    """The self-clocked cut rule: propose at once while nothing of the
    leader's own is in flight, otherwise accumulate and cut when that
    instance settles or the cap fills.  No timer anywhere."""

    def test_idle_leader_proposes_inside_the_receiving_task(self):
        cluster = Cluster()
        harness = PbftHarness(cluster)
        leader = harness.replicas[0]
        leader.order(("lonely",))
        # Proposed before order() returned: no clock ran, nothing buffered.
        assert cluster.sim.now == 0.0
        assert leader.log.get(1).pre_prepare.payload == ("lonely",)
        assert len(leader._accumulator) == 0
        cluster.run(until=300.0)
        assert harness.delivered["r0"] == [(1, ("lonely",))]
        # The forwarded path too: the leader proposes in the handler that
        # received the Forward, so nothing is left buffered once it ran.
        harness.replicas[2].order(("forwarded",))
        cluster.run(until=600.0)
        assert harness.delivered["r0"][-1] == (2, ("forwarded",))
        assert leader.batches_cut == 2 and leader.largest_batch == 1

    def test_arrivals_during_an_instance_become_one_more_instance(self):
        cluster = Cluster()
        harness = PbftHarness(cluster)
        for index in range(6):
            harness.order_everywhere(("op", index))
        leader = harness.replicas[0]
        assert leader.next_propose_seq == 2 and len(leader._accumulator) == 5
        cluster.run(until=400.0)
        # Instance 1 went alone; the five that queued up behind it were cut
        # as exactly one batch, in intake order, the moment it delivered.
        for node in harness.nodes:
            assert harness.delivered[node.name] == [
                (1, ("op", 0)),
                (2, Batch(items=tuple(("op", i) for i in range(1, 6)))),
            ]
        assert leader.batches_cut == 2 and leader.largest_batch == 5

    def test_cap_splits_a_longer_backlog(self):
        cluster = Cluster()
        harness = PbftHarness(cluster, batch_size=3)
        for index in range(8):
            harness.order_everywhere(("op", index))
        # The cap cuts a full buffer even though instance 1 is in flight.
        assert harness.replicas[0].next_propose_seq == 4
        cluster.run(until=1000.0)
        sizes = [len(batch_items(payload)) for _, payload in harness.delivered["r0"]]
        assert sizes == [1, 3, 3, 1]
        assert harness.flat_payloads("r0") == [("op", i) for i in range(8)]
        assert harness.replicas[0].largest_batch == 3

    def test_gc_skipping_the_outstanding_instance_releases_the_buffer(self):
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=600_000.0)
        leader = harness.replicas[0]
        for node in harness.nodes[1:]:  # instance 1 can never complete
            cluster.network.block_link(harness.nodes[0], node)
        for payload in (("a",), ("b",), ("c",)):
            leader.order(payload)
        cluster.run(until=1000.0)
        assert leader.delivered_seq == 0 and len(leader._accumulator) == 2
        leader.gc(2)  # a checkpoint covers seq 1
        assert len(leader._accumulator) == 0
        assert leader.log.get(2).pre_prepare.payload == Batch(items=(("b",), ("c",)))

    def test_leader_crash_with_buffered_requests_loses_nothing(self):
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=200.0)
        payloads = [("op", index) for index in range(5)]
        for payload in payloads:
            harness.order_everywhere(payload)
        leader = harness.replicas[0]
        assert len(leader._accumulator) == 4  # buffered behind instance 1
        harness.nodes[0].crash()
        cluster.run(until=10_000.0)
        # The buffered requests sat in every follower's ``pending``, so the
        # view timers fired and the new leader re-introduced them.
        assert harness.replicas[1].view >= 1
        for node in harness.nodes[1:]:
            assert sorted(harness.flat_payloads(node.name)) == payloads
            assert harness.delivered[node.name] == harness.delivered["r1"]

    def test_new_leader_reintroduces_pending_in_two_instances(self):
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=200.0)
        harness.nodes[0].crash()
        payloads = [("op", index) for index in range(6)]
        for replica in harness.replicas[1:]:
            for payload in payloads:
                replica.order(payload)
        cluster.run(until=10_000.0)
        new_leader = harness.replicas[1]
        assert new_leader.view == 1
        # First pending request goes at once, the other five ride behind it.
        assert new_leader.batches_cut == 2 and new_leader.largest_batch == 5
        for node in harness.nodes[1:]:
            assert harness.flat_payloads(node.name) == payloads

    def test_single_message_is_not_wrapped(self):
        cluster = Cluster()
        harness = PbftHarness(cluster, batch_size=8)
        harness.order_everywhere(("lonely",))
        cluster.run(until=500.0)
        assert harness.delivered["r0"] == [(1, ("lonely",))]

    def test_batches_delivered_identically_everywhere(self):
        cluster = Cluster()
        harness = PbftHarness(cluster, batch_size=4)
        for index in range(10):
            harness.order_everywhere(("op", index))
        cluster.run(until=2000.0)
        reference = harness.delivered["r0"]
        assert harness.flat_payloads("r0") == [("op", i) for i in range(10)]
        for node in harness.nodes[1:]:
            assert harness.delivered[node.name] == reference

    def test_backlogged_payload_is_not_proposed_twice(self):
        """A payload parked behind the proposal window must not get a
        second sequence number when the new-view re-introduction path
        (which bypasses order()'s pending dedup) enqueues it again."""
        cluster = Cluster()
        # Huge view timeout: the window stall must not trigger view churn,
        # the scenario under test is the re-introduction dedup itself.
        harness = PbftHarness(
            cluster, window=2, view_timeout_ms=600_000.0, batch_size=1
        )
        leader = harness.replicas[0]
        for index in range(4):
            leader.order(("op", index))
        assert len(leader.backlog) == 2  # window holds 2, rest parked
        # Mimic _on_new_view's re-introduction of a pending payload.
        leader._enqueue(("op", 2))
        leader._enqueue(("op", 3))
        assert len(leader.backlog) == 2  # deduped against the backlog
        cluster.run(until=2000.0)  # deliver the first window
        for replica in harness.replicas:
            replica.gc(3)  # reopen the window for the backlog
        cluster.run(until=4000.0)
        flat = harness.flat_payloads("r0")
        assert len(flat) == 4 and len(set(flat)) == 4  # exactly once

    def test_backlog_does_not_survive_view_changes_as_duplicates(self):
        """Window-parked proposals are dropped on view-change entry (they
        re-introduce from pending), so leadership churn over a full window
        never hands a payload two sequence numbers."""
        cluster = Cluster()
        harness = PbftHarness(cluster, window=2, view_timeout_ms=200.0, batch_size=1)
        leader = harness.replicas[0]
        for index in range(4):
            harness.order_everywhere(("op", index))
        assert len(leader.backlog) == 2
        cluster.run(until=2_000.0)  # window stall forces view churn
        assert leader.backlog == deque()  # cleared on view-change entry
        for replica in harness.replicas:
            replica.gc(3)  # reopen the window
        cluster.run(until=30_000.0)
        flat = harness.flat_payloads("r0")
        assert set(flat) == {("op", i) for i in range(4)}
        assert len(flat) == 4  # exactly once despite churn over the stall
        for node in harness.nodes[1:]:
            assert harness.flat_payloads(node.name) == flat

    def test_new_view_unsticks_superseded_unprepared_payloads(self):
        """A payload whose pre-prepare registered its keys everywhere but
        which never prepared (so no view-change proof carries it) must be
        re-introduced by the next new view, not skipped as live forever."""
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=200.0, batch_size=2)
        payload = ("stuck",)
        for replica in harness.replicas:
            # The poisoned state the scenario leaves behind: pending and
            # key-registered, but no slot holds the payload.
            replica.pending[repr(payload)] = payload
            replica.live_keys.add(repr(payload))
            replica._arm_view_timer()
        cluster.run(until=10_000.0)
        for node in harness.nodes:
            assert ("stuck",) in harness.flat_payloads(node.name)

    def test_unbatchable_payload_goes_alone(self):
        """Messages marked BATCHABLE = False (Spider's reconfiguration
        commands) cut any open batch and occupy their own instance, so a
        group-set change never lands mid-batch."""

        class Reconfigure(tuple):
            BATCHABLE = False

        cluster = Cluster()
        harness = PbftHarness(cluster)
        for payload in (
            ("op", "a"),
            ("op", "b"),
            ("op", "c"),
            Reconfigure(("add-group", "g9")),
            ("op", "d"),
        ):
            harness.order_everywhere(payload)
        # The command cut the open buffer (b, c) and went alone at once,
        # without waiting for instance 1; d queues behind all three.
        assert harness.replicas[0].next_propose_seq == 4
        cluster.run(until=1000.0)
        assert harness.delivered_payloads("r0") == [
            ("op", "a"),
            Batch(items=(("op", "b"), ("op", "c"))),
            ("add-group", "g9"),
            ("op", "d"),
        ]

    def test_inflight_batch_survives_view_change(self):
        """A batch that is mid-three-phase when the leader dies must be
        re-proposed by the new view without losing or duplicating any of
        its messages (prepared batches travel in view-change proofs)."""
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=200.0, batch_size=3)
        harness.order_everywhere(("zeroth",))
        for index in range(3):  # fills the cap: cut behind the first instance
            harness.order_everywhere(("first", index))
        assert is_batch(harness.replicas[0].log.get(2).pre_prepare.payload)
        # Run just far enough for the pre-prepare/prepare exchange to start
        # but (typically) not complete, then kill the leader.
        cluster.run(until=5.0)
        harness.nodes[0].crash()
        for replica in harness.replicas[1:]:
            replica.order(("second",))
        cluster.run(until=10_000.0)
        expected = {("zeroth",), ("first", 0), ("first", 1), ("first", 2), ("second",)}
        reference = harness.flat_payloads("r1")
        # No loss, no duplication.
        assert set(reference) == expected
        assert len(reference) == len(expected)
        # And all surviving replicas agree on the exact delivered sequence.
        for node in harness.nodes[2:]:
            assert harness.delivered[node.name] == harness.delivered["r1"]

    def test_committed_batch_survives_view_change(self):
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=200.0, batch_size=2)
        harness.order_everywhere(("z",))
        harness.order_everywhere(("a",))
        harness.order_everywhere(("b",))
        cluster.run(until=300.0)  # z, then the batch of (a, b), fully committed
        assert harness.delivered["r1"] == [(1, ("z",)), (2, Batch(items=(("a",), ("b",))))]
        harness.nodes[0].crash()
        for replica in harness.replicas[1:]:
            replica.order(("c",))
            replica.order(("d",))
        cluster.run(until=10_000.0)
        reference = harness.flat_payloads("r1")
        assert reference[:3] == [("z",), ("a",), ("b",)]
        assert set(reference) == {("z",), ("a",), ("b",), ("c",), ("d",)}
        assert len(reference) == 5
        for node in harness.nodes[2:]:
            assert harness.flat_payloads(node.name) == reference

    def test_view_change_with_losses_preserves_batches(self):
        cluster = Cluster()
        harness = PbftHarness(
            cluster,
            view_timeout_ms=300.0,
            batch_size=4,
        )
        droppers = lose_everywhere(cluster, 0.05)
        for index in range(8):
            harness.order_everywhere(("op", index))
        cluster.run(until=10_000.0)
        for dropper in droppers:
            dropper.uninstall()
        cluster.run(until=40_000.0)
        # As in the unbatched loss test, a straggler may stall on a gap; but
        # a quorum must deliver everything, exactly once, and every replica
        # must hold a consistent prefix (no loss or duplication inside it).
        expected = [("op", i) for i in range(8)]
        flats = [harness.flat_payloads(node.name) for node in harness.nodes]
        complete = [flat for flat in flats if len(flat) == 8]
        assert len(complete) >= 3
        for flat in flats:
            assert len(flat) == len(set(flat))  # exactly once
            assert flat == expected[: len(flat)]  # FIFO prefix, no loss


class TestSafetyUnderEquivocation:
    def test_equivocating_leader_cannot_split_delivery(self):
        """A leader sending different payloads to different followers must
        not cause two correct replicas to deliver different messages."""
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=400.0)
        leader = harness.replicas[0]

        # Simulate equivocation: craft two conflicting PrePrepares manually.
        from repro.consensus.pbft.messages import PrePrepare
        from repro.crypto.primitives import make_mac_vector

        def equivocate(payload, targets):
            content = ("pbft-pp", "pbft", 0, 1, repr(payload), "r0")
            auth = make_mac_vector("r0", leader.peer_names, content)
            message = PrePrepare(
                tag="pbft", view=0, seq=1, payload=payload, sender="r0", auth=auth
            )
            for target in targets:
                leader.node.send(target, message)

        equivocate(("evil", "a"), [harness.nodes[1]])
        equivocate(("evil", "b"), [harness.nodes[2], harness.nodes[3]])
        cluster.run(until=3000.0)
        delivered_sets = [
            harness.delivered_payloads(node.name) for node in harness.nodes[1:]
        ]
        # Correct replicas may deliver nothing or the same thing - never
        # conflicting values for seq 1.
        seq1 = set()
        for delivered in delivered_sets:
            for payload in delivered:
                if not is_noop(payload):
                    seq1.add(payload)
        assert len(seq1) <= 1

    def test_delivery_matches_across_replicas_with_losses(self):
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=500.0)
        droppers = lose_everywhere(cluster, 0.05)
        for index in range(5):
            harness.order_everywhere(("op", index))
        cluster.run(until=20000.0)
        for dropper in droppers:
            dropper.uninstall()
        cluster.run(until=40000.0)
        reference = harness.flat_payloads("r0")
        assert len(reference) == 5
        for node in harness.nodes[1:]:
            mine = harness.flat_payloads(node.name)
            assert mine[: len(reference)] == reference[: len(mine)] or mine == reference
