"""Focused tests for IRMC-SC internals: collectors, Progress, Select."""

from repro.irmc import IrmcConfig, make_channel

from tests.conftest import Cluster


def build(capacity=16, progress_ms=50.0, collector_timeout_ms=150.0):
    cluster = Cluster()
    senders = cluster.add_group("s", 3, region="virginia")
    receivers = cluster.add_group("r", 4, region="oregon")
    config = IrmcConfig(
        fs=1,
        fr=1,
        capacity=capacity,
        progress_interval_ms=progress_ms,
        collector_timeout_ms=collector_timeout_ms,
    )
    tx, rx = make_channel("sc", "sc", senders, receivers, config)
    return cluster, senders, receivers, tx, rx


def send_all(cluster, tx, names, subchannel, position, payload):
    for name in names:
        endpoint = tx[name]
        endpoint.node.run_task(endpoint.send, subchannel, position, payload)


class TestShares:
    def test_bundle_built_with_fs_plus_1_shares(self):
        cluster, senders, receivers, tx, rx = build()
        send_all(cluster, tx, ["s0", "s1", "s2"], 0, 1, ("m",))
        cluster.run(until=500.0)
        bundle = tx["s0"]._bundles.get(0, {}).get(1)
        assert bundle is not None
        assert len(bundle.shares) == 2  # exactly fs+1, not more
        signers = {share.sender for share in bundle.shares}
        assert len(signers) == 2

    def test_share_from_outsider_ignored(self):
        cluster, senders, receivers, tx, rx = build()
        outsider = cluster.add_node("outsider", region="virginia")
        from repro.crypto.primitives import sign
        from repro.irmc.messages import SigShare

        send_all(cluster, tx, ["s0"], 0, 1, ("m",))
        cluster.run(until=100.0)
        payload_digest = next(iter(tx["s0"]._pending.values()))[1]
        content = ("irmc-share", "sc", 0, 1, payload_digest, "outsider")
        forged = SigShare(
            tag="sc",
            subchannel=0,
            position=1,
            payload_digest=payload_digest,
            sender="outsider",
            signature=sign("outsider", content),
        )
        for sender_node in senders:
            outsider.send(sender_node, forged)
        cluster.run(until=500.0)
        # One honest share + outsider share must not form a bundle.
        assert tx["s0"]._bundles.get(0, {}).get(1) is None

    def test_second_share_from_same_sender_ignored(self):
        cluster, senders, receivers, tx, rx = build()
        send_all(cluster, tx, ["s0"], 0, 1, ("m",))
        send_all(cluster, tx, ["s0"], 0, 1, ("m",))  # duplicate
        cluster.run(until=500.0)
        assert tx["s1"]._shares.get((0, 1)) is None or len(
            tx["s1"]._shares.get((0, 1), {})
        ) <= 1


class TestCollectors:
    def test_only_collector_ships_certificates(self):
        cluster, senders, receivers, tx, rx = build()
        holder = {}
        endpoint = rx["r0"]
        endpoint.node.run_task(
            lambda: endpoint.receive(0, 1).add_callback(
                lambda v: holder.setdefault("value", v)
            )
        )
        send_all(cluster, tx, ["s0", "s1", "s2"], 0, 1, ("m",))
        cluster.run(until=2000.0)
        assert holder["value"] == ("m",)
        # Default collector is s0 for every receiver; s1/s2 never shipped.
        certs = [
            event
            for event in []
        ]
        assert tx["s1"].collector_for(0, "r0") == "s0"

    def test_select_reassigns_collector_and_flushes_bundles(self):
        cluster, senders, receivers, tx, rx = build()
        send_all(cluster, tx, ["s0", "s1", "s2"], 0, 1, ("m",))
        cluster.run(until=500.0)
        # r0 explicitly selects s1; s1 must push its queued bundle.
        from repro.crypto.primitives import make_mac_vector
        from repro.irmc.messages import SelectMsg

        endpoint = rx["r0"]

        def select():
            content = ("irmc-select", "sc", 0, "s1", "r0")
            message = SelectMsg(
                tag="sc",
                subchannel=0,
                collector="s1",
                sender="r0",
                auth=make_mac_vector("r0", [n.name for n in senders], content),
            )
            for sender_node in senders:
                endpoint.node.send(sender_node, message)

        endpoint.node.run_task(select)
        cluster.run(until=1000.0)
        assert tx["s1"].collector_for(0, "r0") == "s1"
        # r0 can now receive even if s0 never talks to it again.
        holder = {}
        endpoint.node.run_task(
            lambda: endpoint.receive(0, 1).add_callback(
                lambda v: holder.setdefault("value", v)
            )
        )
        cluster.run(until=2000.0)
        assert holder["value"] == ("m",)

    def test_progress_triggers_collector_switch_counter(self):
        cluster, senders, receivers, tx, rx = build()
        # Block the default collector s0 towards r0 only.
        for i in range(1):
            cluster.network.block_link(senders[0], receivers[0])
        holder = {}
        endpoint = rx["r0"]
        endpoint.node.run_task(
            lambda: endpoint.receive(0, 1).add_callback(
                lambda v: holder.setdefault("value", v)
            )
        )
        send_all(cluster, tx, ["s0", "s1", "s2"], 0, 1, ("m",))
        cluster.run(until=10000.0)
        assert holder["value"] == ("m",)
        assert rx["r0"].collector_switches >= 1
        # Other receivers were unaffected and never switched.
        assert rx["r1"].collector_switches == 0


class TestProgressSuppression:
    def test_no_progress_messages_when_idle(self):
        cluster, senders, receivers, tx, rx = build(progress_ms=20.0)
        send_all(cluster, tx, ["s0", "s1", "s2"], 0, 1, ("m",))
        cluster.run(until=200.0)
        before = cluster.network.wan.messages
        cluster.run(until=2000.0)  # idle period
        after = cluster.network.wan.messages
        # Only Move heartbeats may flow while idle - a bounded trickle, not
        # a per-interval Progress flood from every sender.
        assert after - before < 60


class TestPiggybackedWindow:
    """The sender's window Move rides on the SigShares of a certificate."""

    def test_certificate_shares_carry_each_signers_window(self):
        cluster, senders, receivers, tx, rx = build(capacity=4)
        for name in ("s0", "s1", "s2"):
            endpoint = tx[name]
            endpoint.node.run_task(endpoint.send, "c", 3, ("m",), 3)
        cluster.run(until=300.0)  # no heartbeat has fired yet
        bundle = tx["s0"]._bundles["c"][3]
        assert [share.window for share in bundle.shares] == [3, 3]
        # fs + 1 signed windows arrived inside the one certificate.
        assert [endpoint.start_of("c") for endpoint in rx.values()] == [3, 3, 3, 3]
        assert rx["r0"]._delivered["c"][3] == ("m",)

    def test_forged_share_window_is_not_recorded(self):
        """A collector cannot raise a peer's window: the field is under
        the share signer's signature."""
        from dataclasses import replace

        from repro.crypto.primitives import attach_auth, sign

        cluster, senders, receivers, tx, rx = build(capacity=4)
        send_all(cluster, tx, ["s0", "s1"], "c", 1, ("m",))
        cluster.run(until=300.0)
        bundle = tx["s0"]._bundles["c"][1]
        lifted = tuple(replace(share, window=4) for share in bundle.shares)
        body = replace(bundle, position=2, shares=lifted, signature=None)
        forged = attach_auth(body, signature=sign("s0", body))
        target = rx["r0"]
        target.node.run_task(target._on_certificate, forged)
        cluster.run(until=400.0)
        assert target.start_of("c") == 1 and "c" not in target._sender_moves

    def test_replayed_shares_move_no_other_subchannel(self):
        """One Byzantine sender wraps fs+1 honest shares from subchannel
        "a" (window 9) in its own certificate for subchannel "b": the
        shares vouch for "a" only, so "b" neither moves nor delivers."""
        from dataclasses import replace

        from repro.crypto.primitives import attach_auth, sign

        cluster, senders, receivers, tx, rx = build(capacity=16)
        for name in ("s0", "s1"):
            endpoint = tx[name]
            endpoint.node.run_task(endpoint.send, "a", 9, ("m",), 9)
        cluster.run(until=300.0)
        bundle = tx["s0"]._bundles["a"][9]
        assert [share.window for share in bundle.shares] == [9, 9]
        assert "s2" not in {share.sender for share in bundle.shares}
        for position in (9, 1):  # same position, and one inside b's window
            body = replace(bundle, subchannel="b", position=position, sender="s2", signature=None)
            replayed = attach_auth(body, signature=sign("s2", body))
            for endpoint in rx.values():
                endpoint.node.run_task(endpoint._on_certificate, replayed)
        cluster.run(until=400.0)
        for endpoint in rx.values():
            assert endpoint.start_of("b") == 1
            assert "b" not in endpoint._sender_moves
            assert "b" not in endpoint._delivered
            assert endpoint.start_of("a") == 9  # the honest move stands

    def test_spider_sc_requests_need_no_heartbeat(self):
        """Spider over IRMC-SC: a client's 3rd and 4th request lie beyond
        the initial request window (capacity 2) and proceed only once the
        agreement side moved it — which the piggybacked windows achieve
        within the request's own round trip, not a heartbeat period."""
        from tests.test_batching_properties import build_system

        sim, system = build_system(seed=3, regions=("virginia",), irmc_kind="sc")
        client = system.make_client("c0", "virginia", group_id="g0")
        done = []

        def issue(index=0):
            if index < 4:
                client.write(("put", f"k{index}", index)).add_callback(
                    lambda _result: (done.append(sim.now), issue(index + 1))
                )

        issue()
        sim.run(until=400.0)  # the first Move heartbeat would fire at 500 ms
        assert len(done) == 4
        assert all(latency < 100.0 for _kind, _start, latency in client.completed)


class TestRetiredSubchannelsRegrowNothing:
    """"Never regrow books for a retired subchannel" at the three SC
    sites that used to store first: a late share, a Select, a Progress."""

    @staticmethod
    def _retired_alice(stragglers=("s2",)):
        """``alice`` delivered position 1 and retired everywhere except on
        the straggling senders, which never heard of her."""
        cluster, senders, receivers, tx, rx = build()
        prompt = [name for name in tx if name not in stragglers]
        send_all(cluster, tx, prompt, "alice", 1, ("m",))
        cluster.run(until=500.0)
        for name in prompt:
            tx[name].node.run_task(tx[name].retire_subchannel, "alice")
        cluster.run(until=1_000.0)
        assert all(endpoint.is_retired("alice") for endpoint in rx.values())
        return cluster, senders, receivers, tx, rx

    def test_stragglers_late_share_is_not_stored(self):
        cluster, senders, receivers, tx, rx = self._retired_alice()
        send_all(cluster, tx, ["s2"], "alice", 1, ("m",))
        cluster.run(until=60_000.0)
        for name in ("s0", "s1"):
            assert tx[name].book_sizes()["_shares"] == 0

    def test_select_for_an_unknown_subchannel_or_collector_is_ignored(self):
        from repro.irmc.messages import SelectMsg

        cluster, senders, receivers, tx, rx = build()
        send_all(cluster, tx, ["s0", "s1", "s2"], 0, 1, ("m",))
        cluster.run(until=500.0)
        chooser = rx["r0"]

        def select(subchannel, collector):
            message = chooser._authenticated(
                SelectMsg(tag="sc", subchannel=subchannel, collector=collector, sender="r0")
            )
            for sender_node in senders:
                chooser.node.send(sender_node, message)

        for index in range(50):
            chooser.node.run_task(select, f"ghost-{index}", "s1")
        chooser.node.run_task(select, 0, "r1")  # an outsider as collector
        cluster.run(until=1_000.0)
        for endpoint in tx.values():
            assert endpoint.book_sizes()["_collector"] == 0
            assert endpoint.collector_for(0, "r0") == "s0"

    def test_stragglers_progress_claim_is_not_recorded(self):
        from repro.irmc.messages import ProgressMsg

        cluster, senders, receivers, tx, rx = self._retired_alice()
        claim = tx["s2"]._authenticated(
            ProgressMsg(tag="sc", positions=(("alice", 1),), sender="s2")
        )
        for receiver_node in receivers:
            tx["s2"].node.run_task(tx["s2"].node.send, receiver_node, claim)
        cluster.run(until=2_000.0)
        for endpoint in rx.values():
            assert "alice" not in endpoint._peer_progress
            assert "alice" not in endpoint._merged_progress
