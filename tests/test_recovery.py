"""Crash/recovery symmetry: state transfer, process restart, boot fetch.

Covers the recovery subsystem end to end:

* node-level recovery hooks (the substrate everything else builds on),
* the PBFT catch-up loop — a replica crashed across a view change
  rejoins the current view and delivers the complete history, and a gap
  in a live replica's log closes through the same two requests,
* Raft timer re-arm after recovery,
* Spider driver-process restart with checkpoint-fetch-on-boot,
  including the edge cases: recovery with no stable checkpoint yet,
  recovery landing mid-batch (the checkpoint's residual-request cadence),
  and a double crash/recover of the same replica within one window.
"""

import inspect
import re

import pytest

from repro.consensus.interface import DeliveryQueue
from repro.consensus.pbft import PbftConfig, PbftReplica
from repro.consensus.pbft.messages import FetchPayload, PrePrepare, StateTransfer
from repro.consensus.pbft.replica import CATCH_UP_PERIOD_MS
from repro.consensus.raft import RaftConfig, RaftReplica
from repro.faults import Behaviour, SilenceBehaviour
from repro.sim import Process
from repro.sim.futures import SimFuture

from tests.conftest import Cluster
from tests.test_pbft import PbftHarness
from tests.test_raft import RaftHarness
from tests.test_spider_basic import build_system


class TestNodeRecoveryHooks:
    def test_hooks_run_on_recover_not_on_crash(self, cluster):
        node = cluster.add_node("n0")
        fired = []
        node.add_recovery_hook(lambda: fired.append("a"))
        node.crash()
        cluster.run(until=10.0)
        assert fired == []
        node.recover()
        cluster.run(until=20.0)
        assert fired == ["a"]

    def test_recover_without_crash_is_a_no_op(self, cluster):
        node = cluster.add_node("n0")
        fired = []
        node.add_recovery_hook(lambda: fired.append("a"))
        node.recover()
        cluster.run(until=10.0)
        assert fired == []

    def test_hooks_run_in_registration_order_and_can_be_removed(self, cluster):
        node = cluster.add_node("n0")
        fired = []
        first = lambda: fired.append("first")  # noqa: E731
        node.add_recovery_hook(first)
        node.add_recovery_hook(lambda: fired.append("second"))
        node.remove_recovery_hook(first)
        node.crash()
        node.recover()
        cluster.run(until=10.0)
        assert fired == ["second"]

    def test_double_cycle_runs_hooks_each_time(self, cluster):
        node = cluster.add_node("n0")
        fired = []
        node.add_recovery_hook(lambda: fired.append("x"))
        node.crash()
        node.recover()
        cluster.run(until=10.0)
        node.crash()
        node.recover()
        cluster.run(until=20.0)
        assert fired == ["x", "x"]

    def test_immediate_recrash_kills_the_queued_hook(self, cluster):
        """A second crash before the recovery hook's CPU task ran drops it
        with the rest of the queue — fail-stop semantics apply to the
        recovery work itself; only the final recovery's hook runs."""
        node = cluster.add_node("n0")
        fired = []
        node.add_recovery_hook(lambda: fired.append("x"))
        node.crash()
        node.recover()
        node.crash()  # synchronously: the queued hook task dies here
        node.recover()
        cluster.run(until=10.0)
        assert fired == ["x"]


class TestDeliveryQueueReset:
    def test_cancel_pull_allows_a_fresh_pull(self):
        queue = DeliveryQueue()
        dead = queue.pull()  # the consumer that will "die"
        queue.cancel_pull()
        fresh = queue.pull()  # must not raise "pull outstanding"
        queue.push(1, "payload")
        assert fresh.done and fresh.value == (1, "payload")
        assert not dead.done  # the orphaned pull is never resolved

    def test_pending_seqs_reports_unpulled_items(self):
        queue = DeliveryQueue()
        queue.push(3, "a")
        queue.push(4, "b")
        assert queue.pending_seqs() == (3, 4)


class TestPbftStateTransfer:
    def test_crash_across_view_change_rejoins_current_view(self):
        """The headline scenario: r3 sleeps through a view change and
        must rejoin via state transfer — current view adopted from the
        transferred NewView, history replayed from slot evidence — rather
        than lingering on commit-certificate adoption alone."""
        cluster = Cluster()
        harness = PbftHarness(cluster)
        harness.order_everywhere(("op", 0))
        cluster.run(until=300.0)
        victim = harness.nodes[3]
        victim.crash()
        # Silence the view-0 leader: the survivors view-change to view 1
        # and keep ordering there while the victim is down.
        silencer = SilenceBehaviour().install(harness.nodes[0])
        harness.order_everywhere(("op", 1))
        cluster.run(until=2_500.0)
        harness.order_everywhere(("op", 2))
        cluster.run(until=3_500.0)
        silencer.uninstall()
        victim.recover()
        cluster.run(until=8_000.0)
        assert harness.replicas[1].view >= 1  # the view change happened
        rejoined = harness.replicas[3]
        assert rejoined.view == max(r.view for r in harness.replicas)
        assert rejoined.state_transfers_requested >= 1
        assert harness.flat_payloads("r3") == [("op", 0), ("op", 1), ("op", 2)]
        # ... and it owes full liveness again: new traffic reaches it too.
        harness.order_everywhere(("op", 3))
        cluster.run(until=9_000.0)
        assert harness.flat_payloads("r3")[-1] == ("op", 3)

    def test_survivors_converge_while_the_crashed_replica_stays_down(self):
        """r3 down and the leader r0 silent: r1 and r2 suspect view 1, and
        r0, still hearing them, counts itself as the third suspicion and
        enters view change 1 — but its messages are lost.  Once r0 speaks
        again, the three correct replicas must settle on one view with r3
        still down (one fault, within f), and order new requests there."""
        cluster = Cluster()
        harness = PbftHarness(cluster)
        harness.order_everywhere(("op", 0))
        cluster.run(until=300.0)
        harness.nodes[3].crash()
        silencer = SilenceBehaviour().install(harness.nodes[0])
        harness.order_everywhere(("op", 1))
        cluster.run(until=1_300.0)
        assert harness.replicas[0].in_view_change and harness.replicas[1].view == 0
        silencer.uninstall()
        cluster.run(until=6_000.0)
        survivors = harness.replicas[:3]
        assert len({replica.view for replica in survivors}) == 1
        assert not any(replica.in_view_change for replica in survivors)
        harness.order_everywhere(("op", 2))
        cluster.run(until=7_000.0)
        for replica in survivors:
            assert harness.flat_payloads(replica.name) == [("op", 0), ("op", 1), ("op", 2)]

    def test_crash_mid_view_change_rejoins_same_view(self):
        """Regression: a replica that crashed *after* bumping its view for
        a view change the group then completed must receive the equal-view
        NewView through state transfer — with a strictly-greater check it
        stayed wedged in ``in_view_change`` forever, contributing no
        commit votes in the new view."""
        cluster = Cluster()
        harness = PbftHarness(cluster)
        harness.order_everywhere(("op", 0))
        cluster.run(until=300.0)
        victim_node, victim = harness.nodes[3], harness.replicas[3]
        harness.order_everywhere(("op", 1))
        # Every replica suspects the leader simultaneously (the timer
        # path, triggered directly for determinism); the victim crashes
        # right after broadcasting its ViewChange, before the NewView —
        # view already bumped to 1, in_view_change still set.
        for replica, node in zip(harness.replicas, harness.nodes):
            node.run_task(replica._start_view_change, 1)
        cluster.run(until=300.2)
        assert victim.in_view_change and victim.view == 1
        victim_node.crash()
        # The three survivors are a full quorum: they complete view 1,
        # deliver op1 there, and the group *stays* at view 1.
        cluster.run(until=3_000.0)
        survivor = harness.replicas[1]
        assert survivor.view == 1 and not survivor.in_view_change
        assert ("op", 1) in harness.flat_payloads("r1")
        victim_node.recover()
        cluster.run(until=8_000.0)
        assert victim.view == 1
        assert not victim.in_view_change  # healed by the equal-view replay
        assert harness.flat_payloads("r3") == [("op", 0), ("op", 1)]
        # Replayed NewViews from the retry rounds are deduplicated.
        assert victim.view_changes_completed == 1
        # Full liveness: the rejoiner votes commit again in the new view.
        harness.order_everywhere(("op", 2))
        cluster.run(until=9_000.0)
        slot = victim.log.get(victim.delivered_seq)
        assert slot is not None and slot.sent_commit

    def test_recovered_replica_rearms_timers(self):
        """A fired-but-dropped view-timeout callback must not wedge the
        timer chain: after recovery the replica can still suspect a
        faulty leader and join view changes."""
        cluster = Cluster()
        harness = PbftHarness(cluster)
        harness.order_everywhere(("warm",))
        cluster.run(until=300.0)
        victim = harness.nodes[2]
        victim.crash()
        cluster.run(until=1_500.0)  # long enough for timers to fire and drop
        victim.recover()
        cluster.run(until=2_000.0)
        SilenceBehaviour().install(harness.nodes[0])  # leader goes silent *after* recovery
        harness.order_everywhere(("stuck",))
        cluster.run(until=6_000.0)
        # The recovered replica took part in the view change and delivered.
        assert harness.replicas[2].view >= 1
        assert ("stuck",) in harness.flat_payloads("r2")

    def test_state_transfer_responder_ignores_strangers(self):
        """Catch-up requests carry no authenticator.  A node outside the
        group gets nothing back from a 20-slot log, under its own name or
        a member's."""
        cluster = Cluster()
        harness = PbftHarness(cluster)
        for index in range(20):
            cluster.sim.schedule_at(index * 20.0, harness.order_everywhere, ("op", index))
        cluster.run(until=1_000.0)
        responder = harness.replicas[0]
        assert responder.delivered_seq == 20
        outsider = cluster.add_node("mallory")
        answers = []

        def tap(src, dst, message):
            if dst is outsider:
                answers.append(message)

        cluster.network.taps.append(tap)
        seqs = tuple(range(1, 21))
        for request in (
            StateTransfer(tag="pbft", view=0, low_water=1, sender="mallory"),
            StateTransfer(tag="pbft", view=0, low_water=1, sender="r1"),
            FetchPayload(tag="pbft", seqs=seqs, sender="r1"),
        ):
            outsider.run_task(outsider.send, harness.nodes[0], request)
            cluster.run(until=cluster.sim.now + 200.0)
            assert answers == [], request
        assert responder.transfer_summary_bytes == 0 and responder.payloads_served == 0


def _transfer_times(cluster, sender):
    """Simulated instants at which ``sender`` broadcast a StateTransfer."""
    times = []

    def tap(src, dst, message):
        if isinstance(message, StateTransfer) and src.name == sender:
            if not times or times[-1] != cluster.sim.now:
                times.append(cluster.sim.now)

    cluster.network.taps.append(tap)
    return times


class _Withhold(Behaviour):
    """The node drops what it sends to ``victim`` when ``match`` says so."""

    kind = "withhold"

    def __init__(self, victim: str, match):
        super().__init__()
        self.victim = victim
        self.match = match

    def _apply(self, dst, message) -> None:
        if dst.name == self.victim and self.match(message):
            return
        self._forward(dst, message)


def _about_seq_1(message) -> bool:
    return getattr(message, "seq", None) == 1


class TestPbftGapCatchUp:
    """No crash: a gap in the log starts the catch-up loop one period
    later, it asks every period until the gap closes, and the gap never
    quiets the view timer."""

    def test_gap_without_evidence_closes_through_state_transfer(self):
        """r3 hears nothing at all about slot 1, then commits slot 2.  The
        first StateTransfer brings slot 1's votes, the next tick its
        payload (FetchPayload), then the loop stops."""
        cluster = Cluster()
        harness = PbftHarness(cluster)
        laggard = harness.replicas[3]
        withheld = [_Withhold("r3", _about_seq_1).install(node) for node in harness.nodes[:3]]
        harness.order_everywhere(("op", 0))
        cluster.run(until=200.0)
        for behaviour in withheld:
            behaviour.uninstall()
        assert laggard.log.get(1) is None
        harness.order_everywhere(("op", 1))
        cluster.run(until=300.0)
        assert laggard.log.get(2).committed and laggard.delivered_seq == 0
        assert laggard._catch_up_timer.armed
        cluster.run(until=5_000.0)
        assert harness.flat_payloads("r3") == [("op", 0), ("op", 1)]
        assert laggard.state_transfers_requested == 2
        assert laggard.payload_fetches_sent == 1
        assert not laggard._catch_up_timer.armed

    def test_gap_with_votes_but_no_payload_is_filled_by_fetch_payload(self):
        """r3 misses only slot 1's PrePrepare: the commits it does get are
        the gap, and the first tick's FetchPayload fills it."""
        cluster = Cluster()
        harness = PbftHarness(cluster)
        laggard = harness.replicas[3]
        withheld = _Withhold(
            "r3", lambda message: isinstance(message, PrePrepare) and message.seq == 1
        ).install(harness.nodes[0])
        harness.order_everywhere(("op", 0))
        cluster.run(until=200.0)
        withheld.uninstall()
        slot = laggard.log.get(1)
        assert slot.pre_prepare is None and laggard._misses_payload(slot)
        assert laggard._catch_up_timer.armed
        cluster.run(until=5_000.0)
        assert harness.flat_payloads("r3") == [("op", 0)]
        assert laggard.state_transfers_requested == 1
        assert laggard.payload_fetches_sent == 1
        assert not laggard._catch_up_timer.armed

    def test_stale_payload_is_replaced_by_fetch_payload(self):
        """The view-0 leader r0 proposes slot 1 and crashes before anyone
        hears of it; view 1 decides another payload there.  Recovered, r0
        holds its own stale proposal against f+1 commits for the decided
        one, and FetchPayload replaces it."""
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=100.0)
        leader = harness.replicas[0]
        unsent = [
            _Withhold(peer, lambda message: isinstance(message, PrePrepare)).install(
                harness.nodes[0]
            )
            for peer in ("r1", "r2", "r3")
        ]
        leader.order(("lost",))
        cluster.run(until=1.0)
        harness.nodes[0].crash()
        for behaviour in unsent:
            behaviour.uninstall()
        for replica in harness.replicas[1:]:
            replica.order(("op", 1))
        cluster.run(until=1_000.0)
        assert harness.flat_payloads("r1") == [("op", 1)]
        harness.nodes[0].recover()
        cluster.run(until=5_000.0)
        assert leader.payload_fetches_sent >= 1
        assert harness.flat_payloads("r0")[0] == ("op", 1)
        assert harness.flat_payloads("r0") == harness.flat_payloads("r1")

    def test_open_gap_asks_every_period_and_never_quiets_the_view_timer(self):
        """Slot 1 stays withheld from r3 for good: the loop asks every
        period, and r3, whose requests stay pending, still suspects."""
        cluster = Cluster()
        harness = PbftHarness(cluster)
        laggard = harness.replicas[3]
        for node in harness.nodes[:3]:
            _Withhold("r3", _about_seq_1).install(node)
        times = _transfer_times(cluster, "r3")
        harness.order_everywhere(("op", 0))
        cluster.run(until=200.0)
        harness.order_everywhere(("op", 1))
        cluster.run(until=3_000.0)
        offsets = [round((at - times[0]) / CATCH_UP_PERIOD_MS) for at in times]
        assert offsets == list(range(len(offsets))) and len(offsets) >= 4
        assert laggard.delivered_seq == 0 and laggard.pending
        assert not laggard._catching_up() and laggard._view_timer.armed
        assert laggard.name in laggard.suspects.get(1, ())


class TestPbftCatchUp:
    """A recovering replica is quiet while its state transfer makes
    progress, suspects again once a retry period goes quiet, and keeps
    asking after 1, 2, 4, 8 and 16 quiet periods."""

    def test_catching_up_replica_never_starts_a_view_change(self):
        """r3 sleeps through 40 orders, so it recovers holding 40 pending
        requests.  Its peers answer the StateTransfer with digests at
        once, the payloads follow by FetchPayload one fetch period later,
        and a new instance commits every 150 ms after that.  Every retry
        period brings progress, so r3 stays quiet although its requests
        stay pending for more than twice the view timeout."""
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=100.0)
        harness.order_everywhere(("op", 0))
        cluster.run(until=300.0)
        victim_node, victim = harness.nodes[3], harness.replicas[3]
        victim_node.crash()
        for index in range(1, 41):
            cluster.sim.schedule_at(300.0 + index * 20.0, harness.order_everywhere, ("op", index))
        cluster.run(until=1_500.0)
        victim_node.recover()
        for index in range(20):
            cluster.sim.schedule_at(1_500.0 + index * 150.0, harness.order_everywhere, ("late", index))
        cluster.run(until=1_750.0)  # 2.5 view timeouts after recovery
        assert victim.pending and victim.delivered_seq == 1
        cluster.run(until=5_000.0)
        assert not any(victim.name in senders for senders in victim.suspects.values())
        assert not any(victim.name in store for store in victim.vc_store.values())
        assert victim.view == 0 and not victim.in_view_change
        assert victim.delivered_seq == harness.replicas[0].delivered_seq
        assert harness.flat_payloads("r3") == harness.flat_payloads("r0")

    def test_joins_a_view_change_f_plus_1_peers_demand(self):
        """After r3 caught up and stopped asking, the leader goes silent.
        r3 must take part in the view change, because without its vote
        the group has no 2f+1 for view 1."""
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=100.0)
        harness.order_everywhere(("op", 0))
        cluster.run(until=300.0)
        victim_node, victim = harness.nodes[3], harness.replicas[3]
        victim_node.crash()
        harness.order_everywhere(("op", 1))
        cluster.run(until=1_000.0)
        victim_node.recover()
        cluster.run(until=2_500.0)
        assert victim.delivered_seq == harness.replicas[0].delivered_seq
        assert not victim._catching_up() and not victim._catch_up_timer.armed
        SilenceBehaviour().install(harness.nodes[0])
        harness.order_everywhere(("stuck",))
        cluster.run(until=4_000.0)
        for replica in harness.replicas[1:]:
            assert replica.view == 1 and not replica.in_view_change
        assert ("stuck",) in harness.flat_payloads("r3")
        assert ("stuck",) in harness.flat_payloads("r1")

    def test_caught_up_replicas_detect_a_leader_crash_at_once(self):
        """Under steady load a caught-up replica delivers something every
        retry period, so a transfer that kept going while periods brought
        progress would leave it quiet for good.  r3 and then r2 crash and
        recover; once both caught up, the leader crashes.  The three
        survivors, two of them recovered, must all suspect within about
        one view timeout, not one retry period later."""
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=100.0)
        for index in range(200):
            cluster.sim.schedule_at(300.0 + index * 20.0, harness.order_everywhere, ("op", index))
        for victim in (harness.nodes[3], harness.nodes[2]):
            victim.crash()
            cluster.run(until=cluster.sim.now + 700.0)
            victim.recover()
            cluster.run(until=cluster.sim.now + 1_000.0)
        survivors = harness.replicas[1:]
        assert len({replica.delivered_seq for replica in harness.replicas}) == 1
        crashed_at = cluster.sim.now
        harness.nodes[0].crash()
        cluster.run(until=crashed_at + 300.0)
        for replica in survivors:
            assert replica.view == 1 and not replica.in_view_change

    def test_retries_after_1_2_4_8_and_16_quiet_periods_then_stops(self):
        """Nothing to catch up: no retry period brings progress, so the
        retries go out 1, 2, 4, 8 and 16 periods after the request, then
        stop."""
        cluster = Cluster()
        harness = PbftHarness(cluster)
        harness.order_everywhere(("op", 0))
        cluster.run(until=300.0)
        victim_node, victim = harness.nodes[3], harness.replicas[3]
        times = _transfer_times(cluster, "r3")
        victim_node.crash()
        cluster.run(until=1_000.0)
        victim_node.recover()
        cluster.run(until=30_000.0)
        offsets = [round((at - times[0]) / CATCH_UP_PERIOD_MS) for at in times]
        assert offsets == [0, 1, 2, 4, 8, 16]
        assert victim.state_transfers_requested == 6
        assert not victim._catch_up_timer.armed


class TestRaftRecovery:
    def test_recovered_follower_rejoins_replication(self, cluster):
        nodes = cluster.add_group("n", 3)
        replicas = [RaftReplica(node, "raft", nodes, RaftConfig()) for node in nodes]
        delivered = {node.name: [] for node in nodes}

        def drain(replica):
            while True:
                seq, payload = yield replica.next_delivery()
                delivered[replica.node.name].append((seq, payload))

        for node, replica in zip(nodes, replicas):
            Process(cluster.sim, drain(replica), node=node, name=f"drain-{node.name}")
        cluster.run(until=1_500.0)  # first election settles
        for replica in replicas:
            replica.order(("op", 0))
        cluster.run(until=2_500.0)
        follower = next(r for r in replicas if r.role != "leader")
        follower.node.crash()
        for replica in replicas:
            replica.order(("op", 1))
        cluster.run(until=4_000.0)
        follower.node.recover()
        cluster.run(until=8_000.0)
        assert follower.delivered_index >= 2  # caught up via AppendEntries

    def test_recovered_leader_steps_down_or_resumes(self, cluster):
        nodes = cluster.add_group("n", 3)
        replicas = [RaftReplica(node, "raft", nodes, RaftConfig()) for node in nodes]
        cluster.run(until=1_500.0)
        leader = next(r for r in replicas if r.role == "leader")
        leader.node.crash()
        cluster.run(until=4_000.0)  # survivors elect a new leader
        leader.node.recover()
        cluster.run(until=8_000.0)
        # Exactly one leader in the highest term; the recovered node either
        # stepped down on seeing it or (no election happened) resumed.
        max_term = max(r.term for r in replicas)
        leaders = [r for r in replicas if r.role == "leader" and r.term == max_term]
        assert len(leaders) == 1
        assert leader.term == max_term


class TestSpiderCheckpointFetchOnBoot:
    def test_recover_with_no_stable_checkpoint_yet(self):
        """Before the first checkpoint exists the boot fetch finds nothing
        and must be harmless: the replica resumes from its preserved state
        through the still-open commit window."""
        sim, system = build_system(ke=64, ka=64)
        client = system.make_client("c1", "virginia", group_id="g0")
        client.write(("put", "a", 1))
        sim.run(until=2_000.0)
        victim = system.groups["g0"].replicas[0]
        assert victim.cp.latest_stable is None
        victim.crash()
        client.write(("put", "b", 2))
        sim.run(until=4_000.0)
        victim.recover()
        client.write(("put", "c", 3))
        sim.run(until=10_000.0)
        assert victim.checkpoints_applied == 0
        assert victim.app.apply(("get", "b")) == ("value", 2)
        assert victim.app.apply(("get", "c")) == ("value", 3)

    def test_recover_after_window_moved_adopts_checkpoint(self):
        """The group checkpoints past the crashed replica and moves the
        commit window: on boot the rejoiner's receive resolves TooOld and
        the boot fetch lands the transferred state."""
        sim, system = build_system(ke=2, ka=8, commit_capacity=2)
        client = system.make_client("c1", "virginia", group_id="g0")
        victim = system.groups["g0"].replicas[0]
        client.write(("put", "w0", 0))
        sim.run(until=2_000.0)
        victim.crash()
        for index in range(1, 8):
            client.write(("put", f"w{index}", index))
            sim.run(until=2_000.0 + index * 1_000.0)
        victim.recover()
        for index in range(8, 10):
            client.write(("put", f"w{index}", index))
            sim.run(until=2_000.0 + index * 1_000.0)
        sim.run(until=20_000.0)
        assert victim.checkpoints_applied >= 1  # rejoined via state transfer
        for index in range(10):
            assert victim.app.apply(("get", f"w{index}")) == ("value", index)

    def test_recover_landing_mid_batch_keeps_checkpoint_cadence(self):
        """With request batching the checkpoint counter tracks *requests*
        and a batch may straddle the ke boundary; the residual is part of
        the snapshot, so a rejoiner adopting such a checkpoint continues
        the cadence at the same point as the replicas that generated it
        (stability needs matching gen_cp sequence numbers)."""
        sim, system = build_system(ke=3, ka=8, commit_capacity=3, batch_size=4)
        clients = [
            system.make_client(f"c{i}", "virginia", group_id="g0") for i in range(5)
        ]
        victim = system.groups["g0"].replicas[0]

        def burst(round_index, at):
            # Five near-simultaneous writes: the leader proposes the first
            # at once and the other four as one batch behind it, so the
            # request count crosses ke=3 mid-batch in every round.
            for client_index, client in enumerate(clients):
                sim.schedule_at(
                    at + client_index * 0.1,
                    lambda c=client, r=round_index, i=client_index: c.write(
                        ("put", f"k-{r}-{i}", r)
                    ),
                )

        burst(0, 100.0)
        sim.schedule_at(1_500.0, victim.crash)
        for round_index in range(1, 5):
            burst(round_index, 1_000.0 + round_index * 1_500.0)
        sim.schedule_at(9_000.0, victim.recover)
        burst(5, 11_000.0)
        sim.run(until=30_000.0)
        assert victim.checkpoints_applied >= 1
        assert system.agreement_replicas[0].ag.largest_batch == 4
        peer = system.groups["g0"].replicas[1]
        # The cadence survived the adoption: the rejoiner's own later
        # checkpoints land on the same sequence numbers as its peers'
        # (otherwise fe+1 matching votes would never form again).
        assert victim._ops_since_cp == peer._ops_since_cp
        for round_index in range(6):
            for client_index in range(5):
                key = f"k-{round_index}-{client_index}"
                assert victim.app.apply(("get", key)) == ("value", round_index), key

    def test_double_crash_recover_same_replica_single_main_loop(self):
        """Crash the same replica twice in one window: each recovery must
        stop the previous main loop before respawning (no double apply)."""
        sim, system = build_system(ke=4, ka=8, commit_capacity=4)
        client = system.make_client("c1", "virginia", group_id="g0")
        victim = system.groups["g0"].replicas[0]
        client.write(("put", "a", 1))
        sim.run(until=2_000.0)
        sim.schedule_at(2_100.0, victim.crash)
        sim.schedule_at(3_000.0, victim.recover)
        sim.schedule_at(3_400.0, victim.crash)
        sim.schedule_at(4_500.0, victim.recover)
        for index in range(8):
            client.write(("put", f"k{index}", index))
            sim.run(until=5_000.0 + index * 1_000.0)
        sim.run(until=25_000.0)
        peer = system.groups["g0"].replicas[1]
        # Converged state, no duplicated application effects: versions are
        # identical to a replica that never crashed (a double-applied put
        # would bump the version twice).
        assert victim.app.snapshot() == peer.app.snapshot()

    def test_recovered_agreement_replica_resumes_driving(self):
        """An agreement replica's delivery and client loops respawn on
        recovery and the consensus black-box rejoins via its own hook —
        the replica must end fully caught up with its peers."""
        sim, system = build_system()
        client = system.make_client("c1", "virginia", group_id="g0")
        client.write(("put", "a", 1))
        sim.run(until=2_000.0)
        victim = system.agreement_replicas[3]
        victim.crash()
        client.write(("put", "b", 2))
        sim.run(until=5_000.0)
        victim.recover()
        client.write(("put", "c", 3))
        sim.run(until=20_000.0)
        seqs = {r.name: r.ag.delivered_seq for r in system.agreement_replicas}
        assert len(set(seqs.values())) == 1, seqs
        assert victim.sn == max(r.sn for r in system.agreement_replicas)


class TestIrmcRecovery:
    def test_sender_heartbeat_chain_survives_crash_recover(self, cluster):
        """Only the restarted heartbeat chains can heal a receiver whose
        initial copies were lost: the vouching senders send while their
        links to r3 are blocked, crash through a few heartbeat periods
        (the fired callbacks are dropped), then recover after the links
        healed — r3 delivers iff retransmission came back to life."""
        from repro.irmc import IrmcConfig, make_channel

        senders = cluster.add_group("s", 3)
        receivers = cluster.add_group("r", 4, region="oregon")
        config = IrmcConfig(fs=1, fr=1, capacity=8, move_heartbeat_ms=100.0)
        tx, rx = make_channel("rc", "ch", senders, receivers, config)
        laggard = receivers[3]
        for index in (0, 1):
            cluster.network.block_link(senders[index], laggard)
        tx["s0"].send("sub", 1, ("m", 1))
        tx["s1"].send("sub", 1, ("m", 1))
        cluster.run(until=300.0)
        assert rx["r0"]._delivered.get("sub", {}).get(1) == ("m", 1)
        assert rx["r3"]._delivered.get("sub", {}) == {}
        senders[0].crash()
        senders[1].crash()
        cluster.run(until=1_200.0)  # heartbeat callbacks fire and drop
        for index in (0, 1):
            cluster.network.unblock_link(senders[index], laggard)
        senders[0].recover()
        senders[1].recover()
        cluster.run(until=6_000.0)
        assert rx["r3"]._delivered.get("sub", {}).get(1) == ("m", 1)
        # The chains are armed (a pending deadline, not a dead fired one).
        for name in ("s0", "s1"):
            (chain,) = tx[name]._chains
            assert chain.armed and chain.deadline > cluster.sim.now


# ----------------------------------------------------------------------
# Durable state is declared once: _boot()
# ----------------------------------------------------------------------
def _consensus_replica(harness_cls, used: bool):
    cluster = Cluster()
    harness = harness_cls(cluster)
    if used:
        cluster.run(until=3000.0)  # Raft elects first
        for index in range(5):
            harness.replicas[0].order(("op", index))
        cluster.run(until=6000.0)
    return harness.replicas[1]


def _spider_replica(pick, used: bool):
    sim, system = build_system()
    if used:
        client = system.make_client("c1", "virginia", group_id="g0")
        client.write(("put", "k", "v"))
        sim.run(until=2000.0)
    return pick(system)


BOOTED = {
    "pbft": lambda used: _consensus_replica(PbftHarness, used),
    "raft": lambda used: _consensus_replica(RaftHarness, used),
    "agreement": lambda used: _spider_replica(lambda s: s.agreement_replicas[1], used),
    "execution": lambda used: _spider_replica(lambda s: s.groups["g0"].replicas[1], used),
}


def _as_fresh(value, fresh) -> bool:
    """Equal — or, for logs, queues and books, as empty."""
    if isinstance(fresh, SimFuture):
        return isinstance(value, SimFuture) and not value.done
    if value == fresh:
        return True
    return type(value) is type(fresh) and hasattr(fresh, "__len__") and len(value) == len(fresh) == 0


@pytest.mark.parametrize("kind", sorted(BOOTED))
def test_wipe_reboots_every_boot_attribute(kind):
    """``_boot()`` is the durable half of ``__init__``: after
    ``crash(wipe=True)`` + ``recover()``, before any message is handled,
    everything it assigns reads like a freshly constructed replica's."""
    used, fresh = BOOTED[kind](True), BOOTED[kind](False)
    names = sorted(
        set(re.findall(r"self\.(\w+)(?:: [^=\n]+)? = ", inspect.getsource(type(used)._boot)))
    )
    assert len(names) >= 5

    def stale():
        return [n for n in names if not _as_fresh(getattr(used, n), getattr(fresh, n))]

    assert stale(), "the run left no durable state behind: nothing to wipe"
    node = getattr(used, "node", used)
    node.crash(wipe=True)
    node.recover()
    assert stale() == []
