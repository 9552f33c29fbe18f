"""Minimized regression tests for bugs flushed out by the chaos campaign.

Each test is either a direct replay of a shrunk chaos schedule (see
``repro.chaos.shrink``) or the minimal hand-distilled interleaving behind a
failing seed.  They must stay green forever: every scenario here broke an
invariant before its fix landed.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple

import pytest

from repro.chaos import FaultAction, chaos_case
from repro.crypto.costs import CostModel, use_cost_model
from repro.crypto.primitives import attach_auth, sign
from repro.irmc import IrmcConfig, make_channel
from repro.irmc.base import OVERFLOW_FACTOR
from repro.irmc.messages import MovesMsg, SendMsg, SendsMsg

from tests.conftest import Cluster
from tests.test_pbft import PbftHarness


def _moves(sender, subchannel, position) -> MovesMsg:
    """``sender``'s authenticated Move request, as its endpoint ships it."""
    return sender._authenticated(
        MovesMsg(sender.tag, ((subchannel, position),), sender.node.name)
    )


def _live_cancellable_events(sim) -> int:
    """Live (not cancelled, not fired) cancellable events still queued."""
    return sum(
        1
        for entry in sim._queue
        if len(entry) == 3 and not entry[2].cancelled and not entry[2].fired
    )


class TestPbftViewTimerRace:
    """A view timer that fired at the simulator level can still be queued
    behind other work on the replica's CPU when progress resets the timer.
    The stale callback used to null out the fresh timer (leaking its event)
    and start a spurious view change right after delivery."""

    def test_stale_fired_timeout_does_not_orphan_fresh_timer(self):
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=100.0)
        leader = harness.replicas[0]
        node = leader.node

        # Crash the followers so no quorum forms: the proposals stay in
        # ``pending`` and the leader's view timer stays armed.
        for follower in harness.nodes[1:]:
            follower.crash()
        cluster.sim.schedule(0.0, leader.order, ("op", 1))
        cluster.sim.schedule(0.0, leader.order, ("op", 2))
        cluster.run(until=50.0)
        assert leader.pending and leader._view_timer.armed

        # Keep the CPU busy across the timer's fire time so the timeout
        # callback queues behind our "progress" task instead of running
        # immediately...
        fire_at = leader._view_timer.deadline

        def hog():
            from repro.sim.node import charge

            charge(20.0)

        cluster.sim.schedule_at(fire_at - 5.0, node.run_task, hog)
        # ... and queue a task that simulates delivery progress (exactly
        # what _try_deliver does) before the stale timeout callback runs.
        cluster.sim.schedule_at(fire_at - 1.0, node.run_task, leader._reset_view_timer)

        cluster.run(until=fire_at + 50.0)

        # The stale callback must not have started a view change ...
        assert leader.view == 0
        assert not leader.in_view_change
        # ... and exactly one view timer may be live: the one armed by the
        # reset (pre-fix the stale callback orphaned it and armed another).
        assert leader._view_timer.armed
        assert _live_cancellable_events(cluster.sim) == 1

    def test_view_timer_still_fires_when_progress_stalls(self):
        """The epoch guard must not suppress genuine timeouts.  Only this
        follower waits for anything, so its suspicion stays its own: it
        is broadcast, but does not take the follower out of view 0."""
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=100.0)
        follower = harness.replicas[1]
        follower.order(("stalled", 1))  # leader never hears about it
        # Silence the network between follower and leader by never running
        # the leader: just crash it so nothing progresses.
        harness.nodes[0].crash()
        cluster.run(until=5_000.0)
        assert follower.suspects == {1: {follower.name}}
        assert harness.replicas[2].suspects == {1: {follower.name}}
        assert follower.view == 0 and not follower.in_view_change


class TestPbftCatchUpTimer:
    """The one catch-up loop carries gap retransmission, so view-change
    entry must not stop it, and a tick that fired but was cancelled
    before it ran must send nothing."""

    @staticmethod
    def _committed_gap(replica):
        """Seq 2 committed, seq 1 missing, and the loop armed for it."""
        from repro.consensus.pbft.messages import PrePrepare
        from repro.crypto.primitives import digest

        slot = replica.log.slot(2)
        pre = PrePrepare(tag="pbft", view=0, seq=2, payload=("gap", 2), sender="r0")
        slot.accept_pre_prepare(pre, digest(("gap", 2)))
        slot.prepared = True
        slot.committed = True
        replica._watch_gap()

    def test_survives_view_change_entry(self):
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=200.0)
        replica = harness.replicas[1]
        self._committed_gap(replica)
        assert replica._catch_up_timer.armed
        deadline = replica._catch_up_timer.deadline
        live = _live_cancellable_events(cluster.sim)

        cluster.run(until=10.0)
        replica._start_view_change(1)
        # Still armed, on the same event (none leaked): a replica whose
        # view change never completes catches up only through this loop.
        assert replica._catch_up_timer.armed
        assert replica._catch_up_timer.deadline == deadline
        assert _live_cancellable_events(cluster.sim) == live
        # ... and the tick asks for the view it has not seen completed.
        from repro.consensus.pbft.messages import StateTransfer

        asked = []

        def tap(src, dst, message):
            if isinstance(message, StateTransfer):
                asked.append(message.view)

        cluster.network.taps.append(tap)
        cluster.run(until=deadline + 1.0)
        assert replica.state_transfers_requested == 1
        assert asked == [1, 1, 1]

    def test_stale_tick_is_void_after_cancel(self):
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=10_000.0)
        replica = harness.replicas[1]
        node = replica.node
        self._committed_gap(replica)
        fire_at = replica._catch_up_timer.deadline

        def hog():
            from repro.sim.node import charge

            charge(20.0)

        # The tick fires while the CPU is busy; a cancel lands before the
        # stale callback runs on the CPU.
        cluster.sim.schedule_at(fire_at - 5.0, node.run_task, hog)
        cluster.sim.schedule_at(fire_at - 1.0, node.run_task, replica._catch_up_timer.cancel)
        sent_before = cluster.network.lan.messages + cluster.network.wan.messages
        cluster.run(until=fire_at + 30.0)
        sent_after = cluster.network.lan.messages + cluster.network.wan.messages

        # The stale callback must not have sent a StateTransfer.
        assert sent_after == sent_before
        assert replica.state_transfers_requested == 0
        assert not replica._catch_up_timer.armed


class TestIrmcRcFloodBookkeeping:
    """A Byzantine sender floods an RC receiver with SendMsgs: the receiver's
    vote/payload books must stay bounded by the window overflow cap, stale
    positions must be pruned on MoveMsg processing, and per-subchannel
    reactions must only fire for f_s+1-vouched traffic."""

    def _fixture(self):
        cluster = Cluster()
        s_nodes = cluster.add_group("s", 3, region="virginia")
        r_nodes = cluster.add_group("r", 4, region="oregon")
        config = IrmcConfig(fs=1, fr=1, capacity=2, move_heartbeat_ms=0)
        senders, receivers = make_channel("rc", "ch", s_nodes, r_nodes, config)
        return cluster, config, senders, receivers

    @staticmethod
    def _flood(receiver, sender_name, subchannel, lo, hi, payload=None):
        for position in range(lo, hi):
            body = SendMsg(
                tag="ch",
                subchannel=subchannel,
                position=position,
                payload=payload if payload is not None else ("p", position),
                sender=sender_name,
            )
            receiver._on_send(attach_auth(body, signature=sign(sender_name, body)))

    @staticmethod
    def _bundle(sender_name, entries) -> SendsMsg:
        body = SendsMsg(tag="ch", entries=tuple(entries), sender=sender_name)
        return attach_auth(body, signature=sign(sender_name, body))

    def test_bundle_flood_grows_no_book_and_costs_one_verify(self):
        """The bundle form of the flood: N entries under one signature that
        are unstorable, below the window or on a retired subchannel."""
        from repro.crypto.costs import FREE, use_cost_model

        cluster, config, senders, receivers = self._fixture()
        rx = receivers["r0"]
        cap = config.capacity * OVERFLOW_FACTOR
        for name in ("s0", "s1"):
            rx._on_sender_move(_moves(senders[name], "c1", 500))
            self._flood(rx, name, "gone", 1, 2, payload=("req", "a"))
        rx._retire_subchannel("gone")
        books = (rx._votes, rx._payloads, rx._delivered, rx._sender_moves)
        before = [dict(book) for book in books]
        below = [("c1", p, ("p", p), 0) for p in range(1, 500)]
        beyond = [("c1", p, ("p", p), 0) for p in range(500 + cap, 1500)]
        retired = [("gone", p, ("p", p), 9) for p in range(1, 300)]
        with use_cost_model(FREE.with_overrides(rsa_verify=1.0)):
            # Nothing in it can matter any more: not even the one verify.
            rx.node.run_task(rx._on_send, self._bundle("s0", below))
            cluster.run(until=10.0)
            assert rx.node.busy_ms == 0.0
            rx.node.run_task(rx._on_send, self._bundle("s0", below + beyond + retired))
            cluster.run(until=20.0)
            assert rx.node.busy_ms == 1.0
        assert [dict(book) for book in books] == before
        assert rx.is_retired("gone") and "gone" not in rx.window_start

    def test_vote_alone_and_vote_in_a_bundle_count_once(self):
        cluster, config, senders, receivers = self._fixture()
        rx = receivers["r0"]
        self._flood(rx, "s0", "c1", 1, 2, payload=("req", "a"))
        rx._on_send(
            self._bundle("s0", [("c1", 1, ("req", "a"), 0), ("c1", 1, ("req", "a"), 0)])
        )
        assert rx.delivered_count == 0 and list(rx._votes["c1"][1]) == ["s0"]
        # The second distinct sender's bundle completes fs + 1 = 2; a
        # repeat of the position inside it regrows nothing.
        rx._on_send(
            self._bundle("s1", [("c1", 1, ("req", "a"), 0), ("c1", 1, ("req", "a"), 0)])
        )
        assert rx.delivered_count == 1 and rx._delivered["c1"][1] == ("req", "a")
        assert "c1" not in rx._votes and "c1" not in rx._payloads

    def test_flood_is_bounded_and_moves_prune_stale_state(self):
        cluster, config, senders, receivers = self._fixture()
        rx = receivers["r0"]
        cap = config.capacity * OVERFLOW_FACTOR

        self._flood(rx, "s0", "c1", 1, 1001)
        assert len(rx._votes.get("c1", {})) <= cap
        assert len(rx._payloads.get("c1", {})) <= cap

        # fs+1 = 2 senders move the window forward: everything below the new
        # start is pruned, and emptied books are dropped entirely.
        for name in ("s0", "s1"):
            rx._on_sender_move(_moves(senders[name], "c1", 500))
        assert rx.start_of("c1") == 500
        assert "c1" not in rx._votes and "c1" not in rx._payloads

        # A stale-position flood (all below the window) stores nothing.
        self._flood(rx, "s0", "c1", 1, 500)
        assert "c1" not in rx._votes and "c1" not in rx._payloads

    def test_delivery_cleans_per_position_books(self):
        cluster, config, senders, receivers = self._fixture()
        rx = receivers["r0"]
        for name in ("s0", "s1"):
            self._flood(rx, name, "c1", 1, 2, payload=("req", "a"))
        assert rx.delivered_count == 1
        # Position 1 was delivered: its collection evidence is gone and no
        # empty shell dicts linger for the subchannel.
        assert "c1" not in rx._votes and "c1" not in rx._payloads

    def test_unvouched_subchannels_do_not_spawn_reactions(self):
        """One Byzantine sender invents thousands of subchannels: without
        f_s+1 vouching none of them may fire ``on_new_subchannel`` (Spider
        spawns a per-client loop per firing — a process amplification)."""
        cluster, config, senders, receivers = self._fixture()
        rx = receivers["r0"]
        spawned = []
        rx.on_new_subchannel = spawned.append
        for index in range(200):
            self._flood(rx, "s0", f"evil-{index}", 1, 2)
        assert spawned == []
        assert len(rx._known_subchannels) == 0
        # Vouched traffic still fires it, exactly once per subchannel.
        for name in ("s0", "s1"):
            self._flood(rx, name, "real", 1, 2, payload=("req", "a"))
        assert spawned == ["real"]


class TestEquivocatorForgesBundles:
    """``irmc-equivocate`` must keep lying on the busy path: Sends corked
    into one :class:`SendsMsg` are forged entry by entry under a fresh
    signature, with the decision a lone SendMsg of the position gets."""

    def test_bundle_entries_are_forged_like_lone_sends(self):
        from repro.crypto.primitives import verify
        from repro.faults import EquivocateBehaviour

        cluster = Cluster()
        s_nodes = cluster.add_group("s", 3, region="virginia")
        # The lied-to half is the CRC-odd names: "r*" are, "q*" are not.
        r_nodes = cluster.add_group("r", 2, region="oregon") + cluster.add_group(
            "q", 2, region="oregon"
        )
        config = IrmcConfig(fs=1, fr=1, capacity=4, move_heartbeat_ms=0)
        senders, receivers = make_channel("rc", "ch", s_nodes, r_nodes, config)
        liar = EquivocateBehaviour(fraction=1.0).install(s_nodes[0])
        seen = {}

        def tap(src, dst, message):
            if src is s_nodes[0]:
                seen.setdefault(dst.name, []).append(message)

        cluster.network.taps.append(tap)
        s_nodes[0].run_task(lambda: None)  # older work: the three sends cork
        for position in (1, 2, 3):
            s_nodes[0].run_task(senders["s0"].send, "c1", position, ("m", position))
        s_nodes[1].run_task(senders["s1"].send, "c1", 1, ("m", 1))
        cluster.run(until=300.0)
        assert all(len(messages) == 1 for messages in seen.values()) and len(seen) == 4
        lied_to = [name for name in sorted(seen) if liar._lied_to(cluster.network.nodes[name])]
        assert lied_to == ["r0", "r1"]
        for name, (bundle,) in seen.items():
            assert isinstance(bundle, SendsMsg)
            assert verify(bundle.signature, bundle, signer="s0")  # the lie authenticates
            payloads = [entry[2] for entry in bundle.entries]
            if name in lied_to:
                assert payloads == [("__equivocation__", "s0", p) for p in (1, 2, 3)]
                assert 1 not in receivers[name]._delivered.get("c1", {})
            else:
                assert payloads == [("m", p) for p in (1, 2, 3)]
                assert receivers[name]._delivered["c1"][1] == ("m", 1)
        assert liar.equivocated == len(lied_to)
        # One memo for both wire forms: a lone re-send of a position lies as its bundle did.
        assert [key for key in liar._decisions if key[0] == "send"] == [
            ("send", "ch", "c1", p) for p in (1, 2, 3)
        ]


    def test_batch_signed_sends_are_forged_in_batch_form(self):
        """Two channels emitting in one task share one RSA operation; the
        liar's variants keep that form — as many siblings, the same wire
        size — and verify on their own at the receivers it lies to."""
        from repro.crypto.primitives import verify
        from repro.faults import EquivocateBehaviour
        from repro.irmc.messages import SendMsg

        cluster = Cluster()
        s_nodes = cluster.add_group("s", 3, region="virginia")
        r_nodes = cluster.add_group("r", 2, region="oregon") + cluster.add_group(
            "q", 2, region="oregon"
        )
        config = IrmcConfig(fs=1, fr=1, capacity=4, move_heartbeat_ms=0)
        channels = [make_channel("rc", tag, s_nodes, r_nodes, config) for tag in ("ch-a", "ch-b")]
        liar = EquivocateBehaviour(fraction=1.0).install(s_nodes[0])
        seen = []

        def tap(src, dst, message):
            if src is s_nodes[0]:
                seen.append((dst.name, message))

        cluster.network.taps.append(tap)
        s_nodes[0].run_task(
            lambda: [senders["s0"].send("c1", 1, ("m", 1)) for senders, _receivers in channels]
        )
        cluster.run(until=300.0)
        assert len(seen) == 8 and liar.equivocated == 4
        sizes = set()
        for name, message in seen:
            assert type(message) is SendMsg and len(message.signature.siblings) == 1
            assert verify(message.signature, message, signer="s0")
            assert (message.payload == ("m", 1)) == name.startswith("q")
            sizes.add(message.size_bytes() - len(repr(message.payload)))
        assert len(sizes) == 1


class TestChaosMinimizedReplays:
    """Shrunk schedules from the first campaign sweeps, replayed verbatim.

    Found by ``benchmarks/test_chaos.py``-style sweeps and minimized with
    ``repro.chaos.shrink.shrink_schedule``; each used to violate a
    liveness invariant before its fix.
    """

    def test_pbft_seed_15_flaky_leader_link(self):
        """chaos repro: config='pbft' seed=15 — a flaky r0->r3 link made
        r3's view race ahead during lone timeouts; it then discarded all
        current-view traffic forever.  Fixed by commit-certificate
        adoption (2f+1 matching commits deliver in any view)."""
        from repro.chaos import FaultAction, chaos_case

        actions = [
            FaultAction(
                kind="link_flaky",
                target="r0->r3",
                start_ms=497.73,
                duration_ms=4780.887,
                param=0.281,
            ),
        ]
        result = chaos_case("pbft").run(15, actions=actions)
        assert result.violations == []

    def test_pbft_seed_38_blocked_leader_link(self):
        """chaos repro: config='pbft' seed=38 — one blocked leader->replica
        link for 786 ms wedged the replica permanently (fetch suppressed
        while its never-completing lone view change was in progress)."""
        from repro.chaos import FaultAction, chaos_case

        actions = [
            FaultAction(
                kind="block_link",
                target="r0->r3",
                start_ms=2636.654,
                duration_ms=785.819,
            ),
        ]
        result = chaos_case("pbft").run(38, actions=actions)
        assert result.violations == []


class TestPbftEquivocationPoisonedSlot:
    """An equivocating old-view leader could permanently wedge a replica
    whose view raced ahead: the data-only adopted payload X conflicted
    with the commit certificate for Y, and the conflicting-PrePrepare
    guard rejected every later copy of Y.  The slot's payload is now
    replaced when (and only when) a quorate commit certificate vouches
    for the other digest and we never prepare-voted ourselves."""

    def test_certificate_overrides_poisoned_data_only_payload(self):
        from repro.consensus.pbft.messages import Commit, PrePrepare

        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=60_000.0)
        r0, r1, r2, r3 = harness.replicas
        r3.view = 5  # raced ahead while partitioned

        def pp(payload):
            return r0._mac_attach(
                PrePrepare(tag="pbft", view=0, seq=1, payload=payload, sender="r0")
            )

        from repro.crypto.primitives import digest

        # Equivocating leader got payload X to r3 first (data-only adopt).
        r3._on_pre_prepare(pp(("X",)))
        assert r3.log.get(1).payload_digest == digest(("X",))
        # The rest of the group certified Y: 3 commits = quorum.
        for replica in (r0, r1, r2):
            r3._on_commit(
                replica._mac_attach(
                    Commit(
                        tag="pbft",
                        view=0,
                        seq=1,
                        payload_digest=digest(("Y",)),
                        sender=replica.name,
                    )
                )
            )
        assert not r3.log.get(1).committed  # poisoned: X stored, Y certified
        # A fetched copy of the certified proposal must now heal the slot.
        r3._on_pre_prepare(pp(("Y",)))
        slot = r3.log.get(1)
        assert slot.payload_digest == digest(("Y",))
        assert slot.committed
        cluster.run(until=100.0)
        assert harness.delivered_payloads("r3") == [("Y",)]

    def test_certificate_never_overrides_a_voted_slot(self):
        """If the replica prepare-voted for X, the slot must NOT flip."""
        from repro.consensus.pbft.messages import Commit, PrePrepare
        from repro.crypto.primitives import digest

        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=60_000.0)
        r0, r1, r2, r3 = harness.replicas
        # Normal-path acceptance in the current view: r3 votes for X.
        r3._on_pre_prepare(
            r0._mac_attach(
                PrePrepare(tag="pbft", view=0, seq=1, payload=("X",), sender="r0")
            )
        )
        assert r3.log.get(1).sent_prepare
        r3.view = 5
        for replica in (r0, r1, r2):
            r3._on_commit(
                replica._mac_attach(
                    Commit(
                        tag="pbft",
                        view=0,
                        seq=1,
                        payload_digest=digest(("Y",)),
                        sender=replica.name,
                    )
                )
            )
        r3._on_pre_prepare(
            r0._mac_attach(
                PrePrepare(tag="pbft", view=0, seq=1, payload=("Y",), sender="r0")
            )
        )
        assert r3.log.get(1).payload_digest == digest(("X",))


class TestIrmcRetireSupersedesStragglerMoves:
    """Hand-distilled from the ``irmc-sc-wipe`` bring-up: a receiver whose
    only trace of a subchannel is window Moves from senders that later
    vouched its retirement used to hold the Move book — and a sub-quorum
    retire-vote entry — open forever: the client is long gone, so no
    further voucher could ever complete the quorum.  A sender's signed
    RetireMsg now supersedes that sender's own recorded Moves, and a book
    emptied this way is forgotten outright."""

    def test_retire_vouch_prunes_own_move_trace(self, cluster):
        from repro.irmc import IrmcConfig, make_channel

        senders = cluster.add_group("s", 3)
        receivers = cluster.add_group("r", 4, region="oregon")
        config = IrmcConfig(fs=1, fr=1, capacity=4)
        tx, rx = make_channel("rc", "ch", senders, receivers, config)
        # Only s0's Move for "alice" ever reaches r0 (the other senders
        # never heard of the subchannel — say they were wiped and healed
        # across the client's close).
        target = rx["r0"]
        target._on_sender_move(_moves(tx["s0"], "alice", 2))
        assert "alice" in target._sender_moves
        # s0 vouches retirement: its own Move trace is superseded; with
        # the book empty the subchannel is forgotten and no retire-vote
        # entry lingers waiting for a quorum that can never complete.
        tx["s0"].retire_subchannel("alice")
        cluster.run(until=2_000.0)
        assert "alice" not in target._sender_moves
        assert "alice" not in target._retire_votes


class TestOverlappingLinkWindows:
    """Overlapping link windows are refused at install, but two windows may
    touch: listed later-first, the later one applies at the shared instant
    before the earlier one's undo runs, which must not cut it short."""

    def test_later_link_mod_survives_earlier_windows_undo(self):
        from repro.chaos import ChaosEngine, FaultAction

        cluster = Cluster()
        a, b = cluster.add_group("n", 2)
        engine = ChaosEngine(cluster.sim, cluster.network, {"n0": a, "n1": b})
        engine.install(
            [
                FaultAction(kind="link_flaky", target="n0->n1", start_ms=100.0, duration_ms=100.0, param=0.2),
                FaultAction(kind="link_delay", target="n0->n1", start_ms=10.0, duration_ms=90.0, param=50.0),
            ]
        )
        mods = cluster.network.fault.link_mods
        cluster.run(until=150.0)  # delay window undone at 100ms
        assert ("n0", "n1") in mods  # flaky window still armed
        assert mods[("n0", "n1")].dup_rate == 0.2
        cluster.run(until=250.0)
        assert ("n0", "n1") not in mods


_INTO_THE_WINDOW = "recovers into a window that eats its one state-transfer retry"


class RedCell(NamedTuple):
    """A minimal two-action schedule of ``case`` at ``seed`` and why it is
    (or was) red; ``overrides`` are knobs of the case (:func:`chaos_case`)."""

    case: str
    seed: int
    pair: List[FaultAction]
    reason: str
    overrides: Dict[str, Any] = {}

    def run(self, actions):
        with use_cost_model(CostModel()):
            return chaos_case(self.case, **self.overrides).run(self.seed, actions=actions)


#: case-seed (where found) -> the red cell
RED_CELLS = {
    "spider-118": RedCell(
        "spider",
        118,
        [
            FaultAction("crash", "ag2", 1921.384, 4943.725),
            FaultAction("mute_half", "ag2", 3400.665, 6910.918),
        ],
        _INTO_THE_WINDOW,
    ),
    "spider-123": RedCell(
        "spider",
        123,
        [
            FaultAction("silence", "ag2", 3620.149, 8175.365),
            FaultAction("crash", "ag2", 4645.104, 4410.929),
        ],
        _INTO_THE_WINDOW,
    ),
    "irmc-sc-111": RedCell(
        "irmc-sc",
        111,
        [
            FaultAction("crash", "s0", 1176.651, 2096.38),
            FaultAction("partition", "virginia", 1654.369, 3200.908),
        ],
        "a Progress lost to the partition is suppressed as no-news forever",
    ),
}

#: case-seed -> a cell that was red until its fix landed; now a plain
#: regression
FIXED_CELLS = {
    # ROADMAP item 7: ag1 suspected its leader while it was still catching
    # up and stayed in a lone view change, so ag2's later crash took the
    # group's last fault margin.  A replica whose state transfer makes
    # progress no longer arms its view timer.
    "spider-4": RedCell(
        "spider",
        4,
        [
            FaultAction("crash", "ag1", 4391.303, 6202.635),
            FaultAction("crash", "ag2", 15000.0, 60000.0),
        ],
        "a recovered follower stays in a lone view change; a second crash then stalls the group",
        {"requests_per_client": 64, "settle_ms": 150_000.0},
    ),
    # No crash at all.  Cut off from r2 and r3, the view-1 follower r0
    # suspected its leader alone and, once the links healed, caught up by
    # commit certificates but never left its view change.  A suspicion
    # now moves a replica only once 2f+1 share it.
    "pbft-101": RedCell(
        "pbft",
        101,
        [
            FaultAction("block_link", "r2->r0", 3557.079, 2602.492),
            FaultAction("block_link", "r3->r0", 4009.2, 2676.054),
        ],
        "a replica cut off from f+1 peers suspects alone and never leaves its lone view change",
    ),
    # ROADMAP item 1: sa-ag0 asked three times, all into its own silence,
    # then stopped.  It now asks again after 4, 8 and 16 quiet periods.
    "spider-shard-64": RedCell(
        "spider-shard",
        64,
        [
            FaultAction("crash", "sa-ag0", 1177.332, 6078.85),
            FaultAction("silence", "sa-ag0", 3670.599, 6479.081),
        ],
        _INTO_THE_WINDOW,
    ),
}


class TestKnownRedCells:
    """Open bugs, visible to CI until someone fixes them (ROADMAP item 1a).

    Seeds 100-131 of the IRMC / Spider chaos cases (the golden record
    pins 1-12 only) hold three cells that violate a liveness invariant
    under the default cost model.  Each
    is pinned by its shrunk schedule, not by the seed that found it, so a
    change to the schedule generator cannot hide it; ``strict`` turns a
    fix into a failure that asks for this table to shrink.
    """

    @pytest.mark.parametrize(
        "cell",
        [
            pytest.param(cell, marks=pytest.mark.xfail(strict=True, reason=red.reason))
            for cell, red in RED_CELLS.items()
        ],
    )
    def test_pair_holds_its_invariants(self, cell):
        red = RED_CELLS[cell]
        assert red.run(red.pair).violations == []

    @pytest.mark.parametrize("cell", RED_CELLS)
    def test_each_action_alone_is_green(self, cell):
        """The bug needs both windows: either one alone heals."""
        red = RED_CELLS[cell]
        for action in red.pair:
            assert red.run([action]).violations == []

    def test_snippet_reproduces_the_case_that_ran(self):
        """A regression snippet carries the case's overrides: without them
        the pasted body of a red cell found under overrides (``spider-4``
        before its fix) ran the plain row and passed under a header that
        says it fails."""
        from repro.chaos import repro_snippet

        red = RED_CELLS["spider-118"]
        with use_cost_model(CostModel()):
            case = chaos_case(red.case, settle_ms=80_000.0)
            snippet = repro_snippet(case, red.seed, red.pair)
            assert "FAILS at generation time" in snippet
            assert "chaos_case('spider', settle_ms=80000.0)" in snippet
            namespace: dict = {}
            exec(snippet, namespace)
            with pytest.raises(AssertionError):
                namespace["test_minimized_chaos_repro"]()

    def test_spider_shard_111_holds_its_invariants(self):
        # Green by construction: the recovering replica keeps asking after
        # 1, 2, 4, 8 and 16 quiet periods, so a retry outlives the drop.
        pair = [
            FaultAction("crash", "sa-ag3", 3122.14, 7005.194),
            FaultAction("drop", "sa-ag3", 4146.28, 6904.148, param=0.3557),
        ]
        with use_cost_model(CostModel()):
            assert chaos_case("spider-shard").run(111, actions=pair).violations == []


class TestFixedRedCells:
    """Cells that were red until their fix landed: the pair and each of
    its actions alone are green."""

    @pytest.mark.parametrize("cell", FIXED_CELLS)
    def test_pair_holds_its_invariants(self, cell):
        fixed = FIXED_CELLS[cell]
        assert fixed.run(fixed.pair).violations == []

    @pytest.mark.parametrize("cell", FIXED_CELLS)
    def test_each_action_alone_is_green(self, cell):
        fixed = FIXED_CELLS[cell]
        for action in fixed.pair:
            assert fixed.run([action]).violations == []
