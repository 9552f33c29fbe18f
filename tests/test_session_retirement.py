"""Regression tests for IRMC subchannel retirement (session close).

The request channel keys a subchannel per client; before retirement every
``_WindowBook`` / ``window_start`` / ``_known_subchannels`` entry — and
the agreement replicas' per-client loops — lived forever, so a
long-horizon deployment with churning clients leaked one entry per client
per replica.  ``Session.close()`` (and ``SpiderClient.close_session()``
underneath) must leave all of those books bounded by the *live* client
population, and the control case asserts the leak is real without it —
these tests cannot be green by vacuity.
"""

import pytest

from repro.core import SpiderConfig
from repro.deploy import CLOSED, ClusterSpec, Rejected, build
from repro.irmc.base import ReceiverEndpointBase, SenderEndpointBase
from repro.net import Network, Topology
from repro.sim import Simulator

from tests.conftest import irmc_book_sizes


def build_cluster(seed=3, irmc_kind="rc"):
    sim = Simulator(seed=seed)
    network = Network(sim, Topology(), jitter=0.0)
    cluster = build(
        sim,
        ClusterSpec.single(
            regions=("virginia", "tokyo"), config=SpiderConfig(irmc_kind=irmc_kind)
        ),
        network=network,
    )
    return sim, cluster


def churn(sim, cluster, n_sessions, writes_each=2, close=True, spacing_ms=400.0):
    """Short-lived sessions: open, write, (optionally) close, repeat.

    Returns the sessions and the protocol clients they opened: the writes
    go out together on two keys of one shard, so each session orders them
    through two lanes (``u3@s0`` and ``u3@s0#1``), one per key."""
    sessions, clients = [], []

    def one(index):
        session = cluster.session(f"u{index}", "virginia")
        sessions.append(session)
        futures = [session.write(f"k-{index}-{j % 2}", j) for j in range(writes_each)]
        clients.extend(client.name for client in session._clients.values())
        if close:
            # The other lane may still be busy: close lets it finish.
            futures[-1].add_callback(lambda _result: session.close())

    for index in range(n_sessions):
        sim.schedule_at(200.0 + index * spacing_ms, one, index)
    sim.run(until=200.0 + n_sessions * spacing_ms + 30_000.0)
    return sessions, clients


def request_channel_book_sizes(shard):
    """Max size of every declared book across the request-channel
    endpoints of a shard, plus the agreement side's per-client loops and
    cursors (the tombstone rings are bounded, not drained)."""
    sizes = {
        key: size
        for key, size in irmc_book_sizes([shard]).items()
        if key.startswith("request_") and not key.endswith("._retired")
    }
    sizes["t_plus"] = max(len(replica.t_plus) for replica in shard.agreement_replicas)
    sizes["client_loops"] = max(
        len(channels.client_loops)
        for replica in shard.agreement_replicas
        for channels in replica.groups.values()
    )
    return sizes


class TestChurningClients:
    @pytest.mark.parametrize("irmc_kind", ["rc", "sc"])
    def test_books_stay_bounded_under_churn(self, irmc_kind):
        """30 churned sessions, all closed: every per-client book on both
        channel ends drains to zero once the churn settles."""
        sim, cluster = build_cluster(irmc_kind=irmc_kind)
        sessions, clients = churn(sim, cluster, n_sessions=30, close=True)
        assert all(len(s.completed) == 2 for s in sessions)
        assert len(clients) == 2 * 30  # both lanes of every session retire
        sizes = request_channel_book_sizes(cluster.system)
        assert sizes == {key: 0 for key in sizes}, sizes
        # The client side drains too: closed sessions release their
        # Session and SpiderClient objects (only name tombstones remain).
        assert not cluster.sessions
        assert not cluster.system.clients
        assert not any(name.startswith("u") for name in cluster.network.nodes)

    def test_books_leak_without_close(self):
        """Control: the same churn *without* close leaves one entry per
        ever-seen client in every book — the leak retirement fixes."""
        sim, cluster = build_cluster()
        # Two writes on each of a session's two lanes, so windows move.
        sessions, clients = churn(sim, cluster, n_sessions=10, writes_each=4, close=False)
        assert all(len(s.completed) == 4 for s in sessions)
        assert len(clients) == 2 * 10
        sizes = request_channel_book_sizes(cluster.system)
        assert sizes["request_rx._known_subchannels"] == len(clients)
        assert sizes["client_loops"] == len(clients)
        assert sizes["request_rx.window_start"] == len(clients)
        assert sizes["request_tx.window_start"] == len(clients)

    def test_live_sessions_unaffected_by_neighbour_retirement(self):
        """A long-lived session keeps working while neighbours churn, and
        the books track only the live population."""
        sim, cluster = build_cluster(seed=9)
        survivor = cluster.session("survivor", "virginia")
        results = []

        def long_lived(index=0):
            if index >= 8:
                return
            future = survivor.write(f"s-{index}", index)
            future.add_callback(
                lambda result: (results.append(result), sim.schedule(1_500.0, long_lived, index + 1))
            )

        sim.schedule_at(100.0, long_lived)
        _sessions, clients = churn(sim, cluster, n_sessions=8, close=True, spacing_ms=1_000.0)
        assert len(results) == 8
        assert len(clients) == 2 * 8  # the neighbours retire two lanes each
        # One write at a time never opens a second lane.
        assert [client.name for client in survivor._clients.values()] == ["survivor@s0"]
        shard = cluster.system
        sizes = request_channel_book_sizes(shard)
        # Only the survivor's subchannel (its one lane) remains.
        assert sizes["request_rx._known_subchannels"] <= 1
        assert sizes["client_loops"] <= 1
        assert sizes["request_rx.window_start"] <= 1

    def test_close_session_with_request_in_flight_raises(self):
        sim, cluster = build_cluster()
        client = cluster.make_client("c1", "virginia", group_id="virginia")
        client.write(("put", "k", "v"))
        with pytest.raises(RuntimeError, match="in flight"):
            client.close_session()

    def test_closed_client_rejects_further_requests(self):
        """write()/reads after close_session would silently re-open the
        retired subchannel (duplicate filters were cleared) with nothing
        left to ever retire it again — they must raise instead."""
        sim, cluster = build_cluster()
        client = cluster.make_client("c1", "virginia", group_id="virginia")
        future = client.write(("put", "k", "v"))
        sim.run(until=10_000.0)
        assert future.done
        client.close_session()
        client.close_session()  # idempotent
        for attempt in (
            lambda: client.write(("put", "k", "w")),
            lambda: client.strong_read(("get", "k")),
            lambda: client.weak_read(("get", "k")),
        ):
            with pytest.raises(RuntimeError, match="closed"):
                attempt()

    def test_weak_read_fallback_after_close_does_not_crash(self):
        """A weak read whose strong-read fallback fires after the session
        closed must keep retrying weakly (replicas still answer weak
        reads for closed clients) instead of raising out of sim.run()."""
        sim, cluster = build_cluster(seed=21)
        shard = cluster.system
        client = cluster.make_client("c1", "virginia", group_id="virginia")
        write = client.write(("put", "k", "v"))
        sim.run(until=10_000.0)
        assert write.done
        for replica in shard.groups["virginia"].replicas:
            replica.crash()  # no weak replies -> retries -> fallback path
        future = client.weak_read(("get", "k"), fallback_after=1)
        client.close_session()
        sim.run(until=30_000.0)  # must not raise
        assert not future.done
        for replica in shard.groups["virginia"].replicas:
            replica.recover()
        sim.run(until=60_000.0)
        assert future.value == ("value", "v")

    def test_close_retires_former_groups_after_switch(self):
        """A client that switched groups (Section 3.1 failover) leaves
        per-client books on every group it ever used; close_session must
        announce the retirement to all of them."""
        sim, cluster = build_cluster()
        shard = cluster.system
        client = cluster.make_client("c1", "virginia", group_id="virginia")
        first = client.write(("put", "k0", "v0"))
        sim.run(until=10_000.0)
        assert first.done
        tokyo = shard.groups["tokyo"]
        client.switch_group("tokyo", tokyo.replicas)
        second = client.write(("put", "k1", "v1"))
        sim.run(until=25_000.0)
        assert second.done
        client.close_session()
        sim.run(until=60_000.0)
        sizes = request_channel_book_sizes(shard)
        assert sizes == {key: 0 for key in sizes}, sizes

    def test_session_close_sheds_queued_ops_and_finishes_inflight(self):
        """close() with ordered ops still queued: the in-flight ops (one
        per lane) complete, the queued ones resolve with
        ``Rejected(CLOSED)`` immediately (never hang their futures), and
        retirement of both lanes follows the in-flight completions."""
        sim, cluster = build_cluster()
        session = cluster.session("u0", "virginia")
        # Two keys, two writes each: the second write of a key queues
        # behind its first on that key's lane.
        futures = [session.write(f"k{j % 2}", j) for j in range(4)]
        assert sorted(session._clients) == ["s0", "s0#1"]
        session.close()  # k0 and k1 in flight, their second writes queued
        # The queued ops are shed synchronously at close time.
        for future in futures[2:]:
            assert future.done
            assert isinstance(future.value, Rejected)
            assert future.value.reason == CLOSED
        assert not any(future.done for future in futures[:2])
        sim.run(until=30_000.0)
        assert [future.value for future in futures[:2]] == [("ok", 1), ("ok", 1)]
        sizes = request_channel_book_sizes(cluster.system)
        assert sizes["request_rx._known_subchannels"] == 0
        assert sizes["client_loops"] == 0


class TestCrashWindowHealing:
    def test_replica_crashed_during_close_retires_on_reannouncement(self):
        """CloseSession is re-announced ``retry_ms`` apart: a replica that
        was crashed for the first transmission must retire (and vouch)
        once a later one lands after its recovery."""
        sim, cluster = build_cluster(seed=13)
        shard = cluster.system
        session = cluster.session("u0", "virginia")
        # Two writes on each of the two lanes, so both windows moved.
        futures = [session.write(f"k{j % 2}", j) for j in range(4)]
        sim.run(until=10_000.0)
        assert all(f.done for f in futures)

        victim = shard.groups["virginia"].replicas[1]
        victim.crash()
        session.close()  # first announcement lands while the victim is down
        sim.run(until=12_000.0)
        for client_name in ("u0@s0", "u0@s0#1"):
            assert client_name in victim.request_tx.window_start  # missed it
        victim.recover()
        # The client's retry_ms defaults to 4000: run past the remaining
        # announcements; the recovered replica retires on the next one.
        sim.run(until=30_000.0)
        sizes = request_channel_book_sizes(shard)
        assert sizes == {key: 0 for key in sizes}, sizes

    def test_replica_down_past_all_announcements_retires_via_echoes(self):
        """Regression: an execution replica down across the client's
        *entire* CloseSession announcement window (all 3 transmissions,
        ``retry_ms`` apart) used to keep the dead subchannel's sender
        books forever and re-announce its window Move from every
        heartbeat — receivers that had retired just dropped the stale
        Move on the floor.  Now they answer it with a RetireEcho; at
        ``f_r + 1`` echoes the straggler retires its own books with no
        help from the long-gone client."""
        sim, cluster = build_cluster(seed=21)
        shard = cluster.system
        session = cluster.session("u0", "virginia")
        # Two writes on each of the two lanes, so both windows moved.
        futures = [session.write(f"k{j % 2}", j) for j in range(4)]
        sim.run(until=10_000.0)
        assert all(f.done for f in futures)

        victim = shard.groups["virginia"].replicas[1]
        victim.crash()
        session.close()
        # retry_ms defaults to 4000 and CLOSE_ANNOUNCEMENTS to 3: by 30s
        # every announcement has long fired, all while the victim is down.
        sim.run(until=30_000.0)
        client_names = ("u0@s0", "u0@s0#1")
        healthy = shard.groups["virginia"].replicas[0]
        for client_name in client_names:
            assert client_name in victim.request_tx.window_start  # missed all
            assert client_name in victim.t  # forwarded-counter book leaked too
            assert client_name not in healthy.request_tx.window_start

        victim.recover()
        # The recovered replica's Move heartbeat (500ms cadence) offers
        # the dead subchannels to the agreement receivers; their echoes
        # retire them.  No CloseSession is in flight anymore.
        sim.run(until=40_000.0)
        for client_name in client_names:
            assert victim.request_tx.is_retired(client_name)
            assert client_name not in victim.t
        sizes = request_channel_book_sizes(shard)
        assert sizes == {key: 0 for key in sizes}, sizes

    def test_close_is_idempotent_across_announcements(self):
        """Replicas process every announcement; books stay empty and no
        state regrows on the 2nd/3rd transmission."""
        sim, cluster = build_cluster(seed=14)
        session = cluster.session("u0", "virginia")
        future = session.write("k", 1)
        sim.run(until=10_000.0)
        assert future.done
        session.close()
        sim.run(until=40_000.0)  # all announcements fired
        sizes = request_channel_book_sizes(cluster.system)
        assert sizes == {key: 0 for key in sizes}, sizes


class TestRetirementProtocol:
    def test_single_sender_cannot_retire(self, cluster):
        """A lone (possibly Byzantine) sender's RetireMsg must not drop a
        live subchannel: retirement needs fs+1 vouchers."""
        from repro.irmc import IrmcConfig, make_channel

        senders = cluster.add_group("s", 3)
        receivers = cluster.add_group("r", 4, region="oregon")
        config = IrmcConfig(fs=1, fr=1, capacity=4)
        tx, rx = make_channel("rc", "ch", senders, receivers, config)
        for endpoint in tx.values():
            endpoint.send("alice", 1, ("m", 1))
        cluster.run(until=2_000.0)
        target = rx["r0"]
        assert "alice" in target._known_subchannels
        # One sender retires; the other two stay silent.
        tx["s0"].retire_subchannel("alice")
        cluster.run(until=4_000.0)
        assert "alice" in target._known_subchannels
        assert len(target._retire_votes.get("alice", ())) == 1
        # A second voucher completes the quorum (fs + 1 = 2).
        tx["s1"].retire_subchannel("alice")
        cluster.run(until=6_000.0)
        assert "alice" not in target._known_subchannels
        assert "alice" not in target._retire_votes
        assert "alice" not in target._delivered

    def test_retire_votes_ignored_for_unknown_subchannels(self, cluster):
        """Fabricated retire floods must not grow the vote book (that would
        re-open the very leak retirement closes)."""
        from repro.irmc import IrmcConfig, make_channel

        senders = cluster.add_group("s", 3)
        receivers = cluster.add_group("r", 4, region="oregon")
        config = IrmcConfig(fs=1, fr=1, capacity=4)
        tx, rx = make_channel("rc", "ch", senders, receivers, config)
        for index in range(50):
            tx["s0"].retire_subchannel(f"ghost-{index}")
        cluster.run(until=2_000.0)
        for endpoint in rx.values():
            assert not endpoint._retire_votes

    def test_retire_clears_partial_vote_books(self, cluster):
        """A receiver whose only state for a subchannel is sub-quorum
        votes (a loss window ate the rest) must still honour retirement
        vouchers — otherwise those entries leak forever."""
        from repro.irmc import IrmcConfig, make_channel

        senders = cluster.add_group("s", 3)
        receivers = cluster.add_group("r", 4, region="oregon")
        config = IrmcConfig(fs=1, fr=1, capacity=4)
        tx, rx = make_channel("rc", "ch", senders, receivers, config)
        # Only ONE sender's copy arrives: one vote, no delivery, so the
        # receiver holds _votes/_payloads but no _known/_window entry.
        tx["s0"].send("alice", 1, ("m", 1))
        cluster.run(until=2_000.0)
        target = rx["r0"]
        assert "alice" in target._votes and "alice" not in target._known_subchannels
        # The close reaches every sender (as a real CloseSession does):
        # s0 also drops its buffer, stopping the heartbeat retransmission
        # that would otherwise legitimately re-offer the lone copy.
        for name in ("s0", "s1", "s2"):
            tx[name].retire_subchannel("alice")
        cluster.run(until=4_000.0)
        assert "alice" not in target._votes
        assert "alice" not in target._payloads
        assert "alice" not in target._retire_votes

    def test_straggler_duplicate_cannot_reopen_retired_subchannel(self):
        """A delayed duplicate of the client's last request arriving after
        retirement must not recreate the request-channel books or re-seed
        the per-client counters everyone else already released (the
        channel layer's bounded retirement tombstone is what blocks it —
        the old unbounded closed-clients set is gone)."""
        from repro.core.messages import ClientRequest, RequestBody
        from repro.crypto.primitives import make_mac_vector, sign

        sim, cluster = build_cluster(seed=17)
        shard = cluster.system
        session = cluster.session("u0", "virginia")
        future = session.write("k", "v")
        sim.run(until=10_000.0)
        assert future.done
        client = session._clients["s0"]  # released from the session on close
        session.close()
        sim.run(until=40_000.0)
        assert request_channel_book_sizes(shard) == {
            key: 0 for key in request_channel_book_sizes(shard)
        }
        # The agreed RetireClient released the execution replicas' reply
        # caches and forwarded-counter books too — not just the channel.
        replica = shard.groups["virginia"].replicas[0]
        assert client.name not in replica.t
        assert client.name not in replica.u
        assert replica.request_tx.is_retired(client.name)
        # Replay the (validly signed) final request straight at a replica.
        body = RequestBody(operation=("put", "k", "v"), client=client.name, counter=1)
        replay = ClientRequest(
            body=body,
            signature=sign(client.name, body),
            auth=make_mac_vector(client.name, [replica.name], body),
            group="virginia",
        )
        replica.network.send(client, replica, replay)
        sim.run(until=50_000.0)
        # The tombstone shrugged the replay off before any book grew.
        assert client.name not in replica.t
        assert client.name not in replica.u
        sizes = request_channel_book_sizes(shard)
        assert sizes == {key: 0 for key in sizes}, sizes

    def test_straggling_sender_retires_via_receiver_echoes(self, cluster):
        """Channel-level echo path in isolation: a sender endpoint that
        never learned of the retirement (its node slept through every
        CloseSession) keeps heartbeating the dead subchannel's Move;
        tombstoned receivers answer with RetireEchoes and the straggler
        retires at ``f_r + 1`` of them."""
        from repro.irmc import IrmcConfig, make_channel

        senders = cluster.add_group("s", 3)
        receivers = cluster.add_group("r", 4, region="oregon")
        config = IrmcConfig(fs=1, fr=1, capacity=4, move_heartbeat_ms=500.0)
        tx, rx = make_channel("rc", "ch", senders, receivers, config)
        for endpoint in tx.values():
            endpoint.send("alice", 1, ("m", 1))
            endpoint.move_window("alice", 2)
        cluster.run(until=2_000.0)
        # Two senders retire (fs + 1 = 2): every receiver retires and
        # tombstones.  s2 is never told — the straggler.
        straggler = tx["s2"]
        assert "alice" in straggler._own_moves  # heartbeating the Move
        tx["s0"].retire_subchannel("alice")
        tx["s1"].retire_subchannel("alice")
        # Heartbeats re-announce the Move; echoes retire the straggler.
        cluster.run(until=6_000.0)
        for endpoint in rx.values():
            assert endpoint.is_retired("alice")
        assert straggler.is_retired("alice")
        assert "alice" not in straggler._own_moves
        assert "alice" not in straggler.window_start
        assert "alice" not in straggler._buffer
        assert "alice" not in straggler._retire_echoes

    def test_echoes_below_quorum_do_not_retire_a_live_subchannel(self, cluster):
        """A lone (possibly Byzantine) receiver's echo must not kill a
        live subchannel: the sender needs ``f_r + 1`` distinct echoes,
        the same quorum its window trusts for receiver Moves."""
        from repro.irmc import IrmcConfig, make_channel
        from repro.irmc.messages import RetireEcho
        from repro.crypto.primitives import attach_auth, make_mac_vector

        senders = cluster.add_group("s", 3)
        receivers = cluster.add_group("r", 4, region="oregon")
        config = IrmcConfig(fs=1, fr=1, capacity=4)
        tx, rx = make_channel("rc", "ch", senders, receivers, config)
        tx["s0"].send("alice", 1, ("m", 1))
        cluster.run(until=2_000.0)
        target = tx["s0"]
        rogue = rx["r0"]
        body = RetireEcho(tag="ch", subchannel="alice", sender="r0")
        echo = attach_auth(
            body, auth=make_mac_vector("r0", ["s0", "s1", "s2"], body)
        )
        rogue.node.send(target.node, echo)
        cluster.run(until=3_000.0)
        assert not target.is_retired("alice")
        assert "alice" in target._buffer  # books intact
        # Echoes for subchannels we hold no state for are not even
        # tracked (a fabricated-echo flood must not grow the book).
        for index in range(20):
            ghost = RetireEcho(tag="ch", subchannel=f"ghost-{index}", sender="r0")
            rogue.node.send(
                target.node,
                attach_auth(
                    ghost, auth=make_mac_vector("r0", ["s0", "s1", "s2"], ghost)
                ),
            )
        cluster.run(until=4_000.0)
        assert len(target._retire_echoes.get("alice", ())) == 1
        assert sum(1 for sub in target._retire_echoes if str(sub).startswith("ghost")) == 0

    def test_retired_callback_fires_and_callback_order(self, cluster):
        """on_subchannel_retired fires before the waiter futures resolve,
        so consumers can stop per-subchannel drivers cleanly."""
        from repro.irmc import IrmcConfig, make_channel

        senders = cluster.add_group("s", 3)
        receivers = cluster.add_group("r", 4, region="oregon")
        config = IrmcConfig(fs=1, fr=1, capacity=4)
        tx, rx = make_channel("rc", "ch", senders, receivers, config)
        for endpoint in tx.values():
            endpoint.send("alice", 1, ("m", 1))
        cluster.run(until=2_000.0)
        target = rx["r0"]
        events = []
        target.on_subchannel_retired = lambda sub: events.append(("retired", sub))
        waiter = target.receive("alice", 2)
        waiter.add_callback(lambda value: events.append(("waiter", value)))
        tx["s0"].retire_subchannel("alice")
        tx["s1"].retire_subchannel("alice")
        cluster.run(until=4_000.0)
        assert events[0] == ("retired", "alice")
        assert events[1][0] == "waiter"  # resolved (TooOld), after the callback


class TestWipedRestartRetirement:
    """Durable-state loss interacts with retirement: a wiped endpoint loses
    its bounded tombstone ring along with everything else, so healing must
    come from its *peers'* tombstones (the RetireEcho path).  A wiped
    replica must never resurrect a retired per-client book — and must
    re-learn the tombstone instead of heartbeating the dead subchannel
    forever."""

    def test_wiped_sender_relearns_tombstone_via_echoes(self, cluster):
        from repro.irmc import IrmcConfig, make_channel

        senders = cluster.add_group("s", 3)
        receivers = cluster.add_group("r", 4, region="oregon")
        config = IrmcConfig(fs=1, fr=1, capacity=4, move_heartbeat_ms=500.0)
        tx, rx = make_channel("rc", "ch", senders, receivers, config)
        for endpoint in tx.values():
            endpoint.send("alice", 1, ("m", 1))
        cluster.run(until=2_000.0)
        for name in ("s0", "s1", "s2"):
            tx[name].retire_subchannel("alice")
        cluster.run(until=4_000.0)
        for endpoint in list(tx.values()) + list(rx.values()):
            assert endpoint.is_retired("alice")

        # s2's disk dies: the tombstone ring goes with everything else.
        victim = tx["s2"]
        victim.node.crash(wipe=True)
        victim.node.recover()
        assert not victim.is_retired("alice")

        # A stale duplicate fed to the amnesiac sender re-opens its books
        # and its Move heartbeat for the dead subchannel...
        victim.send("alice", 1, ("m", 1))
        victim.move_window("alice", 2)
        assert "alice" in victim._buffer or "alice" in victim._own_moves
        # ... but the receivers' tombstones bounce every copy, answer the
        # re-announced Move with RetireEchoes, and at ``f_r + 1`` of them
        # the wiped sender re-tombstones without any client help.
        cluster.run(until=10_000.0)
        assert victim.is_retired("alice")
        assert "alice" not in victim._buffer
        assert "alice" not in victim._own_moves
        assert "alice" not in victim.window_start
        for endpoint in rx.values():
            assert endpoint.is_retired("alice")
            assert "alice" not in endpoint._known_subchannels
            assert "alice" not in getattr(endpoint, "_votes", {})

    def test_wiped_receiver_does_not_resurrect_retired_subchannel(self, cluster):
        """A wiped receiver forgot both the tombstone *and* the delivery
        books; a lone stale copy replayed at it must stay below the
        ``f_s + 1`` quorum — no delivery, no reaction, no unbounded
        regrowth — because correct senders dropped their books at close
        and will never co-vouch the dead subchannel again."""
        from repro.crypto.primitives import attach_auth, sign
        from repro.irmc import IrmcConfig, make_channel
        from repro.irmc.messages import SendMsg

        senders = cluster.add_group("s", 3)
        receivers = cluster.add_group("r", 4, region="oregon")
        config = IrmcConfig(fs=1, fr=1, capacity=4)
        tx, rx = make_channel("rc", "ch", senders, receivers, config)
        for endpoint in tx.values():
            endpoint.send("alice", 1, ("m", 1))
        cluster.run(until=2_000.0)
        for name in ("s0", "s1"):
            tx[name].retire_subchannel("alice")
        cluster.run(until=4_000.0)

        victim = rx["r0"]
        assert victim.is_retired("alice")
        victim.node.crash(wipe=True)
        victim.node.recover()
        assert not victim.is_retired("alice")
        spawned = []
        victim.on_new_subchannel = spawned.append
        delivered_before = victim.delivered_count  # pre-wipe deliveries
        body = SendMsg(
            tag="ch", subchannel="alice", position=1, payload=("m", 1), sender="s2"
        )
        victim._on_send(attach_auth(body, signature=sign("s2", body)))
        cluster.run(until=8_000.0)
        assert spawned == []
        assert "alice" not in victim._known_subchannels
        assert victim.delivered_count == delivered_before
        # The lone unvouched copy is the only trace, and it is bounded.
        assert len(victim._votes.get("alice", ())) <= 1

    def test_wiped_replica_does_not_resurrect_retired_client(self):
        """Spider end-to-end: an execution replica wiped *after* a client
        retired everywhere reboots with no tombstone ring — and still must
        not regrow any per-client book, while fresh sessions keep
        working."""
        sim, cluster = build_cluster(seed=5)
        shard = cluster.system
        session = cluster.session("u0", "virginia")
        futures = [session.write(f"k{j}", j) for j in range(2)]
        client_names = ("u0@s0", "u0@s0#1")  # one write per lane
        assert [client.name for client in session._clients.values()] == list(client_names)
        sim.run(until=10_000.0)
        assert all(f.done for f in futures)
        session.close()
        sim.run(until=40_000.0)
        sizes = request_channel_book_sizes(shard)
        assert sizes == {key: 0 for key in sizes}, sizes

        victim = shard.groups["virginia"].replicas[1]
        victim.crash(wipe=True)
        sim.run(until=42_000.0)
        victim.recover()
        # The wipe took the tombstone ring with everything else...
        for client_name in client_names:
            assert not victim.request_tx.is_retired(client_name)
        sim.run(until=70_000.0)
        # ... yet nothing resurrects the retired clients: the rebooted
        # replica rebuilds from the group checkpoint, which simply has no
        # per-client state left for them.
        sizes = request_channel_book_sizes(shard)
        assert sizes == {key: 0 for key in sizes}, sizes
        for client_name in client_names:
            assert client_name not in victim.t
            assert client_name not in victim.u
        # A fresh session on the healed group still completes and retires.
        session2 = cluster.session("u1", "virginia")
        f2 = session2.write("k-new", 1)
        sim.run(until=90_000.0)
        assert f2.done
        session2.close()
        sim.run(until=120_000.0)
        sizes = request_channel_book_sizes(shard)
        assert sizes == {key: 0 for key in sizes}, sizes
