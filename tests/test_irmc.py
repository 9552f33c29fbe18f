"""Tests for both IRMC implementations (RC and SC).

The scenarios mirror the paper's channel semantics: f_s+1 vouching,
window-based flow control, TooOld signalling, sender- and receiver-driven
window moves, and (for SC) collector failover.
"""

import pytest

from repro.irmc import IrmcConfig, TooOld, make_channel

from tests.conftest import Cluster


def record_sends(cluster, timed=False):
    """Log ``(src name, message)`` for everything put on the network
    (``timed``: ``(src name, instant, message)``)."""
    log = []

    def tap(src, dst, message):
        if timed:
            log.append((src.name, cluster.sim.now, message))
        else:
            log.append((src.name, message))

    cluster.network.taps.append(tap)
    return log


class ChannelFixture:
    """An IRMC between a 3-node Virginia group and a 4-node Oregon group."""

    def __init__(self, kind, capacity=4, fs=1, fr=1, n_senders=3, n_receivers=4):
        self.cluster = Cluster()
        self.sender_nodes = self.cluster.add_group("s", n_senders, region="virginia")
        self.receiver_nodes = self.cluster.add_group("r", n_receivers, region="oregon")
        config = IrmcConfig(
            fs=fs,
            fr=fr,
            capacity=capacity,
            progress_interval_ms=50.0,
            collector_timeout_ms=150.0,
        )
        self.senders, self.receivers = make_channel(
            kind, "ch", self.sender_nodes, self.receiver_nodes, config
        )

    def send_from(self, names, subchannel, position, payload, window=0):
        """Issue endpoint sends from each named sender; returns futures."""
        futures = []
        for name in names:
            endpoint = self.senders[name]
            future = []
            endpoint.node.run_task(
                lambda e=endpoint, f=future: f.append(
                    e.send(subchannel, position, payload, window=window)
                )
            )
            futures.append(future)
        return futures

    def starts(self, subchannel):
        """Every receiver's window start for ``subchannel``."""
        return [endpoint.start_of(subchannel) for endpoint in self.receivers.values()]

    def record_sends(self, timed=False):
        return record_sends(self.cluster, timed)

    def behind_queued_work(self, name, *calls):
        """Queue a CPU-charging task on node ``name``, then ``calls``
        (``(fn, *args)`` tuples) behind it: each finds older work queued."""
        from repro.sim.node import charge

        node = next(n for n in self.sender_nodes + self.receiver_nodes if n.name == name)
        node.run_task(charge, 0.5)
        for fn, *args in calls:
            node.run_task(fn, *args)

    def receive_at(self, name, subchannel, position):
        """Issue a receive call on one receiver; returns a result holder."""
        endpoint = self.receivers[name]
        holder = {}

        def start():
            endpoint.receive(subchannel, position).add_callback(
                lambda value: holder.setdefault("value", value)
            )

        endpoint.node.run_task(start)
        return holder

    def run(self, until=2000.0):
        self.cluster.run(until=until)


@pytest.fixture(params=["rc", "sc"])
def channel(request):
    return ChannelFixture(request.param)


class TestDeliverySemantics:
    def test_two_senders_deliver(self, channel):
        holder = channel.receive_at("r0", "c1", 1)
        channel.send_from(["s0", "s1"], "c1", 1, ("req", "a"))
        channel.run()
        assert holder["value"] == ("req", "a")

    def test_single_sender_never_delivers(self, channel):
        holder = channel.receive_at("r0", "c1", 1)
        channel.send_from(["s0"], "c1", 1, ("req", "a"))
        channel.run()
        assert "value" not in holder

    def test_conflicting_sends_do_not_deliver(self, channel):
        holder = channel.receive_at("r0", "c1", 1)
        channel.send_from(["s0"], "c1", 1, ("req", "a"))
        channel.send_from(["s1"], "c1", 1, ("req", "b"))
        channel.run()
        assert "value" not in holder

    def test_quorum_after_conflict_still_delivers(self, channel):
        holder = channel.receive_at("r0", "c1", 1)
        channel.send_from(["s0"], "c1", 1, ("req", "bad"))
        channel.send_from(["s1", "s2"], "c1", 1, ("req", "good"))
        channel.run()
        assert holder["value"] == ("req", "good")

    def test_all_receivers_deliver(self, channel):
        holders = [channel.receive_at(f"r{i}", "c1", 1) for i in range(4)]
        channel.send_from(["s0", "s1", "s2"], "c1", 1, ("m",))
        channel.run()
        for holder in holders:
            assert holder["value"] == ("m",)

    def test_receive_before_send_and_after(self, channel):
        early = channel.receive_at("r0", "c1", 1)
        channel.send_from(["s0", "s1"], "c1", 1, ("m",))
        channel.run()
        late = channel.receive_at("r1", "c1", 1)
        channel.run(until=4000.0)
        assert early["value"] == ("m",) and late["value"] == ("m",)

    def test_subchannels_are_independent(self, channel):
        holder_a = channel.receive_at("r0", "alpha", 1)
        holder_b = channel.receive_at("r0", "beta", 1)
        channel.send_from(["s0", "s1"], "alpha", 1, ("a",))
        channel.run()
        assert holder_a["value"] == ("a",)
        assert "value" not in holder_b


class TestFlowControl:
    def test_send_beyond_window_blocks_until_receiver_moves(self, channel):
        # Window capacity is 4 starting at 1; position 6 must park.
        futures = channel.send_from(["s0"], "c1", 6, ("late",))
        channel.run()
        future = futures[0][0]
        assert not future.done
        # fr+1 receivers move the window forward.
        for name in ("r0", "r1"):
            endpoint = channel.receivers[name]
            endpoint.node.run_task(endpoint.move_window, "c1", 3)
        channel.run(until=4000.0)
        assert future.done and future.value == "ok"

    def test_send_below_window_returns_too_old(self, channel):
        for name in ("r0", "r1"):
            endpoint = channel.receivers[name]
            endpoint.node.run_task(endpoint.move_window, "c1", 5)
        channel.run()
        futures = channel.send_from(["s0"], "c1", 2, ("old",))
        channel.run(until=4000.0)
        value = futures[0][0].value
        assert isinstance(value, TooOld) and value.new_start == 5

    def test_receive_below_window_returns_too_old(self, channel):
        endpoint = channel.receivers["r0"]
        endpoint.node.run_task(endpoint.move_window, "c1", 5)
        channel.run()
        holder = channel.receive_at("r0", "c1", 2)
        channel.run(until=4000.0)
        assert isinstance(holder["value"], TooOld)
        assert holder["value"].new_start == 5

    def test_pending_receive_cancelled_by_window_move(self, channel):
        holder = channel.receive_at("r0", "c1", 2)
        channel.run()
        assert "value" not in holder
        endpoint = channel.receivers["r0"]
        endpoint.node.run_task(endpoint.move_window, "c1", 5)
        channel.run(until=4000.0)
        assert isinstance(holder["value"], TooOld)

    def test_sender_moves_shift_receiver_window(self, channel):
        # fs+1 sender endpoints request a move; receivers must adopt it and
        # answer pending receives below the new start with TooOld.
        holder = channel.receive_at("r0", "c1", 1)
        for name in ("s0", "s1"):
            endpoint = channel.senders[name]
            endpoint.node.run_task(endpoint.move_window, "c1", 4)
        channel.run(until=4000.0)
        assert isinstance(holder["value"], TooOld)
        assert holder["value"].new_start >= 4

    def test_single_sender_move_is_ignored(self, channel):
        holder = channel.receive_at("r0", "c1", 1)
        endpoint = channel.senders["s0"]
        endpoint.node.run_task(endpoint.move_window, "c1", 4)
        channel.run()
        assert "value" not in holder

    def test_window_pipeline_in_order(self, channel):
        """A stream of messages flows through a small window with receivers
        acknowledging via move_window, like the commit channel does."""
        received = []

        def drain(name="r0", position=1):
            endpoint = channel.receivers[name]

            def on_value(value, position=position):
                if isinstance(value, TooOld):
                    return
                received.append(value)
                endpoint.move_window("c", position + 1)
                for peer in ("r1", "r2"):
                    peer_endpoint = channel.receivers[peer]
                    peer_endpoint.node.run_task(
                        peer_endpoint.move_window, "c", position + 1
                    )
                endpoint.receive("c", position + 1).add_callback(
                    lambda v: on_value(v, position + 1)
                )

            endpoint.node.run_task(
                lambda: endpoint.receive("c", 1).add_callback(on_value)
            )

        drain()
        for position in range(1, 11):
            channel.send_from(["s0", "s1", "s2"], "c", position, ("m", position))
        channel.run(until=20000.0)
        assert received == [("m", p) for p in range(1, 11)]


class TestPiggybackedFlowControl:
    """A sender's window Move rides on its Sends (the signed ``window``
    field) and on one aggregated heartbeat; receivers apply the unchanged
    f_s+1 rule to it."""

    def test_send_carries_the_move_and_no_explicit_move_is_sent(self, channel):
        log = channel.record_sends()
        channel.send_from(["s0", "s1"], "c1", 2, ("m", 2), window=2)
        channel.run(until=300.0)  # well inside one heartbeat period
        assert channel.starts("c1") == [2, 2, 2, 2]
        from_senders = {type(m).__name__ for name, m in log if name.startswith("s")}
        assert "MoveMsg" not in from_senders and "MovesMsg" not in from_senders

    def test_parked_send_announces_its_move_explicitly(self, channel):
        # Position 9 is beyond the window (capacity 4): no Send can carry
        # the request, so it costs a message of its own (a one-entry
        # MovesMsg: senders have a single wire form for Moves) — and that
        # Move is what lets the window reach the parked position.
        log = channel.record_sends()
        futures = channel.send_from(["s0", "s1"], "c1", 9, ("m", 9), window=9)
        channel.run(until=300.0)
        explicit = [m for name, m in log if name == "s0" and type(m).__name__ == "MovesMsg"]
        assert len(explicit) == len(channel.receiver_nodes)
        assert explicit[0].positions == (("c1", 9),)
        assert not [m for name, m in log if name[0] == "s" and type(m).__name__ == "MoveMsg"]
        channel.run(until=1_000.0)
        assert channel.starts("c1") == [9, 9, 9, 9]
        assert all(future[0].value == "ok" for future in futures)

    def test_single_byzantine_window_field_cannot_advance_a_receiver(self, channel):
        holder = channel.receive_at("r0", "c1", 1)
        channel.send_from(["s0"], "c1", 1, ("m", 1), window=4)
        channel.run(until=3_000.0)  # several heartbeats re-announce it, too
        assert channel.starts("c1") == [1, 1, 1, 1]
        assert "value" not in holder
        # A second, distinct sender makes it fs + 1: the move is adopted.
        channel.send_from(["s1"], "c1", 1, ("m", 1), window=4)
        channel.run(until=6_000.0)
        assert channel.starts("c1") == [4, 4, 4, 4]
        assert holder["value"] == TooOld(4)

    def test_dropped_piggybacked_move_heals_at_next_heartbeat(self, channel):
        network = channel.cluster.network
        links = [
            (src, dst) for src in channel.sender_nodes for dst in channel.receiver_nodes
        ]
        for src, dst in links:
            network.block_link(src, dst)
        channel.send_from(["s0", "s1"], "c1", 1, ("m", 1), window=3)
        channel.run(until=200.0)
        for src, dst in links:
            network.unblock_link(src, dst)
        channel.run(until=450.0)  # the Sends (and their moves) are gone
        assert channel.starts("c1") == [1, 1, 1, 1]
        channel.run(until=700.0)  # heartbeat at 500 ms re-announces both
        assert channel.starts("c1") == [3, 3, 3, 3]

    @pytest.mark.parametrize("relearn_from", ["send", "heartbeat"])
    def test_wiped_receiver_relearns_its_window(self, channel, relearn_from):
        for name in ("s0", "s1", "s2"):
            endpoint = channel.senders[name]
            endpoint.node.run_task(endpoint.move_window, "c1", 40)
        channel.run(until=300.0)
        assert channel.starts("c1") == [40, 40, 40, 40]
        victim = channel.receivers["r0"]
        victim.node.crash(wipe=True)
        victim.node.recover()
        assert victim.start_of("c1") == 1
        if relearn_from == "send":
            # Position 40 is far outside the amnesiac's look-ahead; the
            # window riding on the copies moves it there first.
            holder = channel.receive_at("r0", "c1", 40)
            channel.send_from(["s0", "s1", "s2"], "c1", 40, ("m", 40))
            channel.run(until=450.0)  # before any heartbeat fires
            assert victim.start_of("c1") == 40
            channel.run(until=3_000.0)  # idle-round retransmission fills in
            assert holder["value"] == ("m", 40)
        else:
            channel.run(until=450.0)
            assert victim.start_of("c1") == 1
            channel.run(until=700.0)
            assert victim.start_of("c1") == 40

    def test_heartbeat_is_one_message_per_receiver(self, channel):
        for name in ("s0", "s1"):
            for client in ("alice", "bob", "carol"):
                channel.senders[name].move_window(client, 2)
        channel.run(until=450.0)
        log = channel.record_sends()
        channel.run(until=600.0)  # exactly one heartbeat round
        beats = [m for name, m in log if name == "s0" and type(m).__name__ == "MovesMsg"]
        assert len(beats) == len(channel.receiver_nodes)
        assert all(beat is beats[0] for beat in beats)  # one MAC vector
        assert beats[0].positions == (("alice", 2), ("bob", 2), ("carol", 2))
        assert not [m for name, m in log if name == "s0" and type(m).__name__ == "MoveMsg"]


class TestSendPathCosts:
    def test_surplus_copy_costs_no_cpu(self):
        """RC: once fs+1 copies delivered a position, the 3rd copy is
        dropped before its signature is even looked at."""
        from repro.crypto.primitives import attach_auth, sign
        from repro.irmc.messages import SendMsg

        fixture = ChannelFixture("rc")
        fixture.send_from(["s0", "s1"], "c1", 1, ("m", 1))
        fixture.run(until=300.0)
        receiver = fixture.receivers["r0"]
        assert receiver._delivered["c1"][1] == ("m", 1)
        busy_before = receiver.node.busy_ms
        body = SendMsg(tag="ch", subchannel="c1", position=1, payload=("m", 1), sender="s2")
        genuine = attach_auth(body, signature=sign("s2", body))
        forged = attach_auth(body, signature=sign("evil", body))
        for copy in (genuine, forged):
            receiver.node.run_task(receiver._on_send, copy)
        fixture.run(until=400.0)
        assert receiver.node.busy_ms == busy_before
        # Below the window: the same shortcut.
        receiver.node.run_task(receiver.move_window, "c1", 3)
        stale = SendMsg(tag="ch", subchannel="c1", position=2, payload=("m", 2), sender="s2")
        fixture.run(until=420.0)
        busy_before = receiver.node.busy_ms
        receiver.node.run_task(receiver._on_send, attach_auth(stale, signature=sign("s2", stale)))
        fixture.run(until=450.0)
        assert receiver.node.busy_ms == busy_before and "c1" not in receiver._votes

    def test_move_that_can_advance_nothing_costs_no_cpu(self):
        """RC: the 3rd and 4th receiver's Move for a position the window
        already reached — or a Byzantine receiver's low one — is dropped
        before its MAC is looked at, and the window ends up where
        authenticating every Move would have put it."""
        from repro.crypto.costs import FREE, use_cost_model
        from repro.irmc.base import _WindowBook
        from repro.irmc.messages import MoveMsg, MovesMsg

        with use_cost_model(FREE.with_overrides(hmac=1.0)):
            fixture = ChannelFixture("rc")
            sender = fixture.senders["s0"]
            reference, expected_start, verified = _WindowBook(quorum_rank=2), 1, 0
            moves = [  # r3 is Byzantine-low throughout, the others honest-high
                ("r3", 1), ("r0", 5), ("r3", 2), ("r1", 5), ("r2", 5), ("r3", 5),
                ("r3", 3), ("r2", 7), ("r3", 6), ("r0", 7), ("r1", 7), ("r3", 7),
            ]
            for receiver, position in moves:
                verified += position > sender.start_of("c1")
                body = MoveMsg("ch", "c1", position, receiver)
                sender.node.run_task(sender._on_receiver_move, fixture.receivers[receiver]._authenticated(body))
                fixture.run(until=fixture.cluster.sim.now + 1.0)
                reference.record("c1", receiver, position)
                expected_start = max(expected_start, reference.agreed_start("c1", sender.remote_names))
                assert sender.start_of("c1") == expected_start
            assert sender.start_of("c1") == 7 and sender.node.busy_ms == verified == 6
            # Nothing to advance, nothing charged — not even for a forged MAC,
            # a bundle of stale entries, or an unknown subchannel at 1.
            forged = fixture.receivers["r1"]._authenticated(MoveMsg("ch", "c1", 7, "r0"))
            stale = MovesMsg("ch", (("c1", 6, None), ("c1", 7, None), ("new", 1, None)), "r2")
            for message in (forged, fixture.receivers["r2"]._authenticated(stale)):
                sender.node.run_task(sender._on_receiver_move, message)
            fixture.run(until=fixture.cluster.sim.now + 1.0)
            assert sender.node.busy_ms == 6 and "new" not in sender._receiver_moves

    def test_retransmission_reoffers_the_signed_message(self, channel):
        """An idle-round retransmission re-sends the buffered wire message
        itself: no new signature, no CPU charged."""
        endpoint = channel.senders["s0"]
        channel.send_from(["s0"], "c1", 1, ("m", 1))  # one voucher: stays undelivered
        channel.run(until=950.0)
        buffered = endpoint._buffer["c1"][1]
        log = channel.record_sends()
        busy_before = endpoint.node.busy_ms
        channel.run(until=1_100.0)  # heartbeat at 1000 ms is idle round 1
        resent = [m for name, m in log if name == "s0"]
        assert resent and all(message is buffered for message in resent)
        assert endpoint.node.busy_ms == busy_before


class AgreementNodeFixture:
    """One agreement group with an RC commit channel to each of four
    execution groups and a checkpoint component, as a Spider agreement
    replica hosts them; ``a0`` is the node under test."""

    REGIONS = ("virginia", "oregon", "ireland", "tokyo")

    def __init__(self):
        from repro.checkpoints import CheckpointComponent

        self.cluster = Cluster()
        agreement = self.cluster.add_group("a", 4, region="virginia")
        self.node = agreement[0]
        self.commit_tx = []
        for index, region in enumerate(self.REGIONS):
            members = self.cluster.add_group(f"e{index}-", 3, region=region)
            senders, _receivers = make_channel(
                "rc", f"com-g{index}", agreement, members, IrmcConfig(capacity=8)
            )
            self.commit_tx.append(senders["a0"])
        self.stable = {}
        self.cp = {
            node.name: CheckpointComponent(
                node, "cp", agreement, 1, lambda seq, state, name=node.name: self.stable.update({name: seq})
            )
            for node in agreement
        }

    def deliver_instance(self, seq):
        """What ``_delivery_loop`` does with an agreed instance."""
        for commit_tx in self.commit_tx:
            assert commit_tx.send(0, seq, ("execute", seq)).value == "ok"


class TestCork:
    """A node signs at most once per CPU task — at its end, or in one flush
    behind the work already queued — and sends one wire message per remote
    endpoint.  There is no switch: the reference is a task that emits once
    on a node nothing is queued on, which leaves what it always left."""

    def test_send_with_nothing_queued_is_the_plain_signed_message(self):
        """Byte- and instant-identical to signing and sending a SendMsg by
        hand, which is what ``_transmit`` did before there was a cork."""
        from repro.crypto.primitives import attach_auth, sign
        from repro.irmc.messages import SendMsg

        fixture = ChannelFixture("rc")
        log = fixture.record_sends(timed=True)
        by_hand = fixture.sender_nodes[1]

        def sign_and_send():
            body = SendMsg("ch", "c1", 2, ("m", 2), by_hand.name, 2)
            message = attach_auth(body, signature=sign(by_hand.name, body))
            for receiver in fixture.receiver_nodes:
                by_hand.send(receiver, message)

        by_hand.run_task(sign_and_send)
        fixture.send_from(["s0"], "c1", 2, ("m", 2), window=2)
        fixture.run(until=50.0)
        body = SendMsg("ch", "c1", 2, ("m", 2), "s0", 2)
        expected = attach_auth(body, signature=sign("s0", body))
        sent = [(at, m) for name, at, m in log if name == "s0"]
        reference = [at for name, at, _m in log if name == "s1"]
        assert [at for at, _m in sent] == reference and len(sent) == 4
        assert all(type(m) is SendMsg and m == expected for _at, m in sent)
        endpoint = fixture.senders["s0"]
        assert endpoint._buffer["c1"][2] is sent[0][1]
        assert (endpoint.sent_count, endpoint.bundles_sent, endpoint.largest_bundle) == (1, 0, 0)

    def test_move_with_nothing_queued_is_the_plain_authenticated_message(self, channel):
        from repro.crypto.primitives import attach_auth, make_mac_vector
        from repro.irmc.messages import MoveMsg

        log = channel.record_sends(timed=True)
        by_hand = channel.receiver_nodes[1]
        sender_names = [node.name for node in channel.sender_nodes]
        collector = channel.receivers["r0"]._collector_for("c1")

        def authenticate_and_send():
            body = MoveMsg("ch", "c1", 3, by_hand.name, collector)
            move = attach_auth(body, auth=make_mac_vector(by_hand.name, sender_names, body))
            for sender in channel.sender_nodes:
                by_hand.send(sender, move)

        by_hand.run_task(authenticate_and_send)
        endpoint = channel.receivers["r0"]
        endpoint.node.run_task(endpoint.move_window, "c1", 3)
        channel.run(until=50.0)
        body = MoveMsg("ch", "c1", 3, "r0", collector)
        expected = attach_auth(body, auth=make_mac_vector("r0", sender_names, body))
        sent = [(at, m) for name, at, m in log if name == "r0"]
        reference = [at for name, at, _m in log if name == "r1"]
        assert [at for at, _m in sent] == reference and len(sent) == 3
        assert all(type(m) is MoveMsg and m == expected for _at, m in sent)

    def test_sends_behind_queued_work_are_one_bundle_under_one_signature(self):
        from repro.crypto.costs import FREE, use_cost_model
        from repro.irmc.messages import SendsMsg

        with use_cost_model(FREE.with_overrides(rsa_sign=1.0, rsa_verify=0.125)):
            fixture = ChannelFixture("rc", capacity=8)
            log = fixture.record_sends()
            futures = []
            for name in ("s0", "s1"):
                endpoint = fixture.senders[name]
                fixture.behind_queued_work(
                    name,
                    *[
                        (lambda e=endpoint, p=position: futures.append(e.send("c1", p, ("m", p))),)
                        for position in range(1, 6)
                    ],
                )
            fixture.run(until=300.0)
        assert all(future.value == "ok" for future in futures) and len(futures) == 10
        for name in ("s0", "s1"):
            endpoint = fixture.senders[name]
            wire = [m for src, m in log if src == name]
            assert len(wire) == 4 and all(m is wire[0] for m in wire)
            assert type(wire[0]) is SendsMsg
            assert [entry[:3] for entry in wire[0].entries] == [
                ("c1", p, ("m", p)) for p in range(1, 6)
            ]
            assert endpoint.node.busy_ms == 0.5 + 1.0  # the queued work + one rsa_sign
            assert (endpoint.sent_count, endpoint.bundles_sent, endpoint.largest_bundle) == (5, 1, 5)
            assert all(endpoint._buffer["c1"][p] is wire[0] for p in range(1, 6))
        for receiver in fixture.receivers.values():
            # Delivered in order (dicts keep insertion order), after one
            # rsa_verify per sender's bundle.
            assert list(receiver._delivered["c1"].items()) == [(p, ("m", p)) for p in range(1, 6)]
            assert receiver.node.busy_ms == 2 * 0.125
            assert "c1" not in receiver._votes and "c1" not in receiver._payloads

    def test_crash_between_cork_and_flush_then_recover(self):
        fixture = ChannelFixture("rc")
        holders = [fixture.receive_at("r0", "c1", p) for p in (1, 2, 3)]
        for name in ("s0", "s1"):
            endpoint = fixture.senders[name]
            endpoint.node.run_task(lambda: None)  # older work: the sends below cork
            assert endpoint.send("c1", 1, ("m", 1)).value == "ok"
            assert endpoint.send("c1", 2, ("m", 2)).value == "ok"
            endpoint.node.crash()  # takes the queued flush along
            assert len(endpoint.node._unsealed[endpoint._emit]) == 2 and not endpoint.node._tasks
        fixture.run(until=100.0)
        assert "value" not in holders[0]
        for name in ("s0", "s1"):
            fixture.senders[name].node.recover()
        fixture.run(until=300.0)
        assert [holder["value"] for holder in holders[:2]] == [("m", 1), ("m", 2)]
        assert not fixture.senders["s0"].node._unsealed
        # The channel stays live: the next send goes straight out.
        fixture.send_from(["s0", "s1"], "c1", 3, ("m", 3))
        fixture.run(until=600.0)
        assert holders[2]["value"] == ("m", 3)

    def test_wipe_or_close_while_corked_sends_nothing(self):
        for ending in ("wipe", "close"):
            fixture = ChannelFixture("rc")
            log = fixture.record_sends()
            endpoint = fixture.senders["s0"]
            endpoint.node.run_task(lambda: None)
            future = endpoint.send("c1", 1, ("m", 1))
            assert future.value == "ok" and endpoint.node._unsealed
            if ending == "wipe":
                endpoint.node.crash(wipe=True)
                endpoint.node.recover()
            else:
                endpoint.close()
            fixture.run(until=300.0)
            assert not endpoint.node._unsealed and not endpoint._buffer
            assert not [m for name, m in log if name == "s0"]

    def test_retire_or_window_move_while_corked_drops_what_it_overtook(self):
        from repro.irmc.messages import SendMsg

        fixture = ChannelFixture("rc")
        log = fixture.record_sends()
        endpoint = fixture.senders["s0"]
        endpoint.node.run_task(lambda: None)
        futures = [
            endpoint.send("gone", 1, ("g", 1)),
            endpoint.send("c1", 1, ("m", 1)),
            endpoint.send("c1", 2, ("m", 2)),
        ]
        assert all(future.value == "ok" for future in futures)  # none stranded
        endpoint.retire_subchannel("gone")
        for receiver in ("r0", "r1"):  # fr + 1 receivers moved past position 1
            endpoint._follow_receiver("c1", receiver, 2)
        fixture.run(until=300.0)
        sends = [m for name, m in log if name == "s0" and not type(m).__name__.startswith("Retire")]
        assert len(sends) == 4 and all(m is sends[0] for m in sends)
        assert type(sends[0]) is SendMsg and (sends[0].subchannel, sends[0].position) == ("c1", 2)
        assert endpoint._buffer == {"c1": {2: sends[0]}}
        assert "gone" not in endpoint.window_start and "gone" not in endpoint._own_moves

    def test_receiver_moves_behind_queued_work_are_one_message(self, channel):
        from repro.irmc.messages import MovesMsg

        log = channel.record_sends()
        for name in ("r0", "r1"):
            endpoint = channel.receivers[name]
            channel.behind_queued_work(
                name,
                (endpoint.move_window, "alice", 2),
                (endpoint.move_window, "bob", 3),
                (endpoint.move_window, "alice", 4),  # moved twice: the last is announced
                (endpoint.move_window, "carol", 2),
            )
            assert endpoint.start_of("alice") == 1
        channel.run(until=300.0)
        collector = channel.receivers["r0"]._collector_for("alice")
        for name in ("r0", "r1"):
            moves = [m for src, m in log if src == name]
            assert len(moves) == 3 and all(m is moves[0] for m in moves)  # one MAC vector
            assert type(moves[0]) is MovesMsg
            assert moves[0].positions == (
                ("alice", 4, collector),
                ("bob", 3, collector),
                ("carol", 2, collector),
            )
            # The local window moved at once, not at the flush.
            assert channel.receivers[name].start_of("alice") == 4
        for sender in channel.senders.values():
            assert [sender.start_of(sc) for sc in ("alice", "bob", "carol")] == [4, 3, 2]

    def test_corked_moves_survive_a_crash_of_the_flush(self, channel):
        for name in ("r0", "r1"):
            endpoint = channel.receivers[name]
            endpoint.node.run_task(lambda: None)
            endpoint.move_window("c1", 3)
            endpoint.node.crash()
        channel.run(until=100.0)
        assert [sender.start_of("c1") for sender in channel.senders.values()] == [1, 1, 1]
        for name in ("r0", "r1"):
            channel.receivers[name].node.recover()
        channel.run(until=300.0)
        assert [sender.start_of("c1") for sender in channel.senders.values()] == [3, 3, 3]

    def test_retired_subchannel_announces_no_corked_move(self, channel):
        log = channel.record_sends()
        endpoint = channel.receivers["r0"]
        endpoint.node.run_task(lambda: None)
        endpoint.move_window("c1", 3)
        endpoint._retire_subchannel("c1")
        channel.run(until=300.0)
        assert not [m for name, m in log if name == "r0"]
        assert "c1" not in endpoint.window_start

    def test_idle_round_reoffers_a_bundle_once(self):
        fixture = ChannelFixture("rc", capacity=8)
        endpoint = fixture.senders["s0"]  # the only voucher: nothing delivers
        fixture.behind_queued_work(
            "s0", *[(endpoint.send, "c1", p, ("m", p)) for p in (1, 2, 3)]
        )
        fixture.run(until=950.0)
        bundle = endpoint._buffer["c1"][1]
        assert len(bundle.entries) == 3
        log = fixture.record_sends()
        busy_before = endpoint.node.busy_ms
        fixture.run(until=1_100.0)  # heartbeat at 1000 ms is idle round 1
        resent = [m for name, m in log if name == "s0"]
        assert len(resent) == 4 and all(m is bundle for m in resent)
        assert endpoint.node.busy_ms == busy_before


    def test_four_channels_in_one_task_share_one_signature(self):
        """An agreed instance goes to four commit channels in one task:
        one ``rsa_sign``, four wire messages, all leaving 0.25 ms in."""
        from repro.crypto.costs import FREE, use_cost_model
        from repro.crypto.primitives import BatchSignature, verify
        from repro.irmc.messages import SendMsg

        with use_cost_model(FREE.with_overrides(rsa_sign=0.25)):
            fixture = AgreementNodeFixture()
            log = record_sends(fixture.cluster, timed=True)
            fixture.cluster.run(until=10.0)
            fixture.node.run_task(fixture.deliver_instance, 1)
            fixture.cluster.run(until=50.0)
        assert fixture.node.busy_ms == 0.25
        sent = [(at, m) for name, at, m in log if name == "a0"]
        assert len(sent) == 4 * 3 and {at for at, _m in sent} == {10.25}
        wire = {m.tag: m for _at, m in sent}
        assert sorted(wire) == ["com-g0", "com-g1", "com-g2", "com-g3"]
        for message in wire.values():
            assert type(message) is SendMsg and type(message.signature) is BatchSignature
            assert len(message.signature.siblings) == 3
            assert verify(message.signature, message, signer="a0")
        assert all(tx._buffer[0][1] is wire[tx.tag] for tx in fixture.commit_tx)

    def test_checkpoint_vote_rides_the_pending_flush(self):
        from repro.crypto.costs import FREE, use_cost_model
        from repro.sim.node import charge

        with use_cost_model(FREE.with_overrides(rsa_sign=1.0)):
            fixture = AgreementNodeFixture()
            log = record_sends(fixture.cluster)
            for name in ("a0", "a1"):
                node = fixture.cp[name].node
                node.run_task(charge, 0.5)  # older work: what follows seals behind it
                if name == "a0":
                    node.run_task(fixture.deliver_instance, 4)
                node.run_task(fixture.cp[name].gen_cp, 4, ("state", 4))
            fixture.cluster.run(until=50.0)
        assert fixture.node.busy_ms == 0.5 + 1.0  # four Sends and the vote: one rsa_sign
        votes = [m for name, m in log if name == "a0" and type(m).__name__ == "CheckpointMsg"]
        assert len(votes) == 3 and len(votes[0].signature.siblings) == 4
        # Peers verify the batch-signed vote on its own: f + 1 votes certify,
        # and the replicas without a snapshot fetch it from a signer.
        assert fixture.stable == dict.fromkeys(("a0", "a1", "a2", "a3"), 4)

    def test_checkpoint_vote_survives_a_crash_of_the_flush_but_not_a_wipe(self):
        for wipe in (False, True):
            fixture = AgreementNodeFixture()
            log = record_sends(fixture.cluster)
            fixture.node.run_task(lambda: None)
            fixture.cp["a0"].gen_cp(4, ("state", 4))
            fixture.deliver_instance(1)
            fixture.node.crash(wipe=wipe)  # takes the queued flush along
            fixture.cluster.run(until=50.0)
            assert not log and not fixture.node._seal_queued
            fixture.node.recover()
            fixture.cp["a1"].node.run_task(fixture.cp["a1"].gen_cp, 4, ("state", 4))
            fixture.cluster.run(until=100.0)
            sent = sorted({type(m).__name__ for name, m in log if name == "a0"})
            if wipe:
                assert not sent and not fixture.node._unsealed and "a0" not in fixture.stable
            else:
                assert sent[:2] == ["CheckpointMsg", "CpState"] and sent[-1] == "SendMsg"
                assert fixture.stable["a0"] == 4

    def test_sealed_run_is_byte_identical_with_the_sanitizer_armed(self):
        from repro.net import set_send_sanitizer

        def history(armed):
            previous = set_send_sanitizer(armed)
            try:
                fixture = AgreementNodeFixture()
                log = record_sends(fixture.cluster, timed=True)
                for seq in (1, 2, 3):
                    fixture.node.run_task(fixture.deliver_instance, seq)
                fixture.node.run_task(fixture.cp["a0"].gen_cp, 3, ("state", 3))
                fixture.cluster.run(until=400.0)
                sim = fixture.cluster.sim
                return sim.now, sim.events_processed, [(n, at, repr(m)) for n, at, m in log]
            finally:
                set_send_sanitizer(previous)

        assert history(False) == history(True)


def _batched_execute(seq, n_items, client="cl"):
    """A commit-channel style Execute carrying a batch of n_items wrappers."""
    from repro.core.messages import Execute, RequestBody, RequestWrapper

    items = tuple(
        RequestWrapper(
            body=RequestBody(
                operation=("put", f"k{seq}-{i}", "x" * 32),
                client=client,
                counter=(seq - 1) * n_items + i + 1,
            ),
            signature=None,
            group="g0",
        )
        for i in range(n_items)
    )
    return Execute(seq=seq, request=None, batch=items)


class TestBatchedPayloads:
    """Batched commit-channel payloads across window moves and TooOld.

    The commit channel carries exactly one (possibly large, batched)
    Execute per position; these scenarios pin down that batching changes
    nothing about the channel contract on either IRMC implementation.
    """

    def test_batched_execute_delivered_intact(self, channel):
        execute = _batched_execute(1, 16)
        holder = channel.receive_at("r0", 0, 1)
        channel.send_from(["s0", "s1"], 0, 1, execute)
        channel.run()
        assert holder["value"] == execute
        assert len(holder["value"].batch) == 16

    def test_conflicting_batches_do_not_deliver(self, channel):
        # Same position, batches differing only in their last item: the
        # f_s+1 vouching rule must treat them as distinct payloads.
        holder = channel.receive_at("r0", 0, 1)
        channel.send_from(["s0"], 0, 1, _batched_execute(1, 4))
        channel.send_from(["s1"], 0, 1, _batched_execute(1, 5))
        channel.run()
        assert "value" not in holder

    def test_parked_batched_send_released_by_window_move(self, channel):
        # Window capacity is 4 starting at 1: position 6 parks until the
        # receivers move the window, then the full batch goes through.
        execute = _batched_execute(6, 8)
        futures = channel.send_from(["s0", "s1"], 0, 6, execute)
        channel.run()
        assert not futures[0][0].done
        for name in ("r0", "r1"):
            endpoint = channel.receivers[name]
            endpoint.node.run_task(endpoint.move_window, 0, 3)
        channel.run(until=4000.0)
        assert futures[0][0].value == "ok"
        holder = channel.receive_at("r2", 0, 6)
        channel.run(until=8000.0)
        assert holder["value"] == execute

    def test_batched_send_below_window_returns_too_old(self, channel):
        for name in ("r0", "r1"):
            endpoint = channel.receivers[name]
            endpoint.node.run_task(endpoint.move_window, 0, 5)
        channel.run()
        futures = channel.send_from(["s0"], 0, 2, _batched_execute(2, 4))
        channel.run(until=4000.0)
        value = futures[0][0].value
        assert isinstance(value, TooOld) and value.new_start == 5

    def test_window_move_cancels_pending_batched_receive(self, channel):
        # An execution replica waiting for a batched Execute learns via
        # TooOld that the window moved past it (checkpoint-catch-up path).
        holder = channel.receive_at("r0", 0, 2)
        channel.send_from(["s0"], 0, 2, _batched_execute(2, 4))  # 1 voucher only
        channel.run()
        assert "value" not in holder
        endpoint = channel.receivers["r0"]
        endpoint.node.run_task(endpoint.move_window, 0, 7)
        channel.run(until=4000.0)
        assert isinstance(holder["value"], TooOld)
        assert holder["value"].new_start == 7

    def test_batch_stream_through_small_window(self, channel):
        """A stream of batched Executes flows through the windowed channel
        in order and intact, with receivers acking via move_window exactly
        like execution replicas do on the commit channel."""
        executes = [_batched_execute(position, 4) for position in range(1, 9)]
        received = []

        def drain(position=1):
            endpoint = channel.receivers["r0"]

            def on_value(value, position=position):
                if isinstance(value, TooOld):
                    return
                received.append(value)
                for name in ("r0", "r1", "r2"):
                    peer = channel.receivers[name]
                    peer.node.run_task(peer.move_window, 0, position + 1)
                endpoint.receive(0, position + 1).add_callback(
                    lambda v: on_value(v, position + 1)
                )

            endpoint.node.run_task(
                lambda: endpoint.receive(0, 1).add_callback(on_value)
            )

        drain()
        for execute in executes:
            channel.send_from(["s0", "s1", "s2"], 0, execute.seq, execute)
        channel.run(until=20_000.0)
        assert received == executes
        # FIFO inside each delivered batch as well.
        for execute in received:
            counters = [wrapper.body.counter for wrapper in execute.batch]
            assert counters == sorted(counters)


class TestAuthentication:
    def test_outsider_sends_are_ignored(self, channel):
        from repro.crypto.primitives import sign
        from repro.irmc.messages import SendMsg

        outsider = channel.cluster.add_node("evil", region="virginia")
        holder = channel.receive_at("r0", "c1", 1)
        payload = ("forged",)
        for claimed in ("s0", "s1"):
            content = ("irmc-send", "ch", "c1", 1, repr(payload), claimed)
            message = SendMsg(
                tag="ch",
                subchannel="c1",
                position=1,
                payload=payload,
                sender=claimed,
                signature=sign("evil", content),
            )
            for receiver_node in channel.receiver_nodes:
                outsider.send(receiver_node, message)
        channel.run()
        assert "value" not in holder


class TestScCollectorFailover:
    def test_crashed_collector_is_replaced(self):
        fixture = ChannelFixture("sc")
        # Default collector is s0; crash it after shares are exchanged but
        # before certificates flow: simply crash it immediately - the other
        # senders still share, progress messages flow, and receivers switch.
        holder = fixture.receive_at("r0", "c1", 1)
        fixture.cluster.network.fault.crashed_links.update(
            (f"s0", f"r{i}") for i in range(4)
        )
        fixture.send_from(["s0", "s1", "s2"], "c1", 1, ("m",))
        fixture.run(until=10000.0)
        assert holder["value"] == ("m",)
        assert fixture.receivers["r0"].collector_switches >= 1

    def test_sc_uses_fewer_wan_bytes_than_rc(self):
        results = {}
        payload_body = "x" * 2048
        for kind in ("rc", "sc"):
            fixture = ChannelFixture(kind, capacity=64)
            for position in range(1, 21):
                fixture.send_from(
                    ["s0", "s1", "s2"], "c1", position, ("m", position, payload_body)
                )
            fixture.run(until=5000.0)
            results[kind] = fixture.cluster.network.wan.bytes
        # SC ships one certificate per receiver instead of one signed copy
        # per sender per receiver: for a 3-sender group the WAN volume for
        # payload bytes drops by ~3x (paper Fig. 9d).
        assert results["sc"] < 0.5 * results["rc"]
