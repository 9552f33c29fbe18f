"""Fault-injection tests for the full Spider stack (paper Sections 3.1, 3.7)."""

from repro.core.messages import RequestBody, ClientRequest
from repro.crypto.primitives import make_mac_vector, sign

from tests.test_spider_basic import build_system


class TestAgreementFaults:
    def test_writes_survive_agreement_leader_crash(self):
        """The consensus leader crashes: a view change inside the agreement
        region restores progress without any wide-area protocol — within
        the intra-region view timeout (``AGREEMENT_VIEW_TIMEOUT_MS``) plus
        a few local rounds, not a WAN-sized wait."""
        sim, system = build_system()
        client = system.make_client("c1", "virginia", group_id="g0")
        first = client.write(("put", "a", 1))
        sim.run(until=2000.0)
        assert first.done
        system.agreement_replicas[0].crash()  # PBFT leader of view 0
        second = client.write(("put", "b", 2))
        sim.run(until=2000.0 + 400.0)
        assert second.done
        survivors = system.agreement_replicas[1:]
        assert any(r.ag.view_changes_completed >= 1 for r in survivors)

    def test_request_overtaken_by_its_own_agreement_does_not_skip_the_next(self):
        """A follower whose request-channel copy of request k arrives after
        the agreed stream already delivered k (the leader's copy was
        faster) must still expect k+1 next.  It used to expect k+2, so
        with the leader gone nobody ordered k+1 and the client stalled
        until its 4 s retry — which only the recovered leader heard."""
        sim, system = build_system()
        leader, followers = system.agreement_replicas[0], system.agreement_replicas[1:]
        client = system.make_client("c1", "virginia", group_id="g0")
        client.write(("put", "a", 1))  # starts the per-client loops
        sim.run(until=1000.0)
        for replica in system.groups["g0"].replicas:
            for follower in followers:  # their copies lag the PBFT round
                system.network.set_link_mod(replica, follower, delay_ms=20.0)
        second = client.write(("put", "b", 2))
        sim.run(until=2000.0)
        assert second.done
        for follower in followers:
            assert follower.t_plus[client.name] == 3  # not 4
        leader.crash()
        third = client.write(("put", "c", 3))
        sim.run(until=2000.0 + client.retry_ms - 500.0)
        assert third.done  # via the view change, before any client retry

    def test_weak_reads_survive_agreement_outage(self):
        """With the whole agreement region unreachable, writes stall but
        weakly consistent reads keep working (Section 3.1)."""
        sim, system = build_system()
        client = system.make_client("c1", "tokyo", group_id="g1")
        client.write(("put", "k", "v"))
        sim.run(until=2000.0)
        system.network.partition({"virginia"})  # agreement region gone
        read = client.weak_read(("get", "k"))
        sim.run(until=4000.0)
        assert read.done and read.value == ("value", "v")
        write = client.write(("put", "k", "v2"))
        sim.run(until=8000.0)
        assert not write.done  # strong operations cannot complete
        system.network.heal()
        sim.run(until=60000.0)
        assert write.done  # ... but recover once the partition heals

    def test_one_agreement_replica_crash_is_masked(self):
        sim, system = build_system()
        system.agreement_replicas[2].crash()  # a follower
        client = system.make_client("c1", "virginia", group_id="g0")
        future = client.write(("put", "k", "v"))
        sim.run(until=3000.0)
        assert future.done


class TestExecutionFaults:
    def test_one_execution_replica_crash_is_masked(self):
        """2fe+1 = 3 replicas tolerate fe = 1 fault: fe+1 = 2 replies still
        form a quorum and fe+1 senders still satisfy the request channel."""
        sim, system = build_system()
        system.groups["g0"].replicas[2].crash()
        client = system.make_client("c1", "virginia", group_id="g0")
        future = client.write(("put", "k", "v"))
        sim.run(until=4000.0)
        assert future.done and future.value == ("ok", 1)
        read = client.weak_read(("get", "k"))
        sim.run(until=6000.0)
        assert read.done

    def test_two_execution_replica_crashes_block_group_but_not_system(self):
        sim, system = build_system()
        system.groups["g0"].replicas[1].crash()
        system.groups["g0"].replicas[2].crash()
        client = system.make_client("c1", "virginia", group_id="g0")
        future = client.write(("put", "k", "v"))
        sim.run(until=10000.0)
        assert not future.done  # the local group is beyond its fault budget
        # Clients can switch to a different execution group (Section 3.1);
        # the stuck request is re-submitted there.
        client.switch_group("g1", system.groups["g1"].replicas)
        sim.run(until=30000.0)
        assert future.done and future.value == ("ok", 1)

    def test_silent_execution_replica_does_not_block_replies(self):
        sim, system = build_system()
        silent = system.groups["g0"].replicas[0]
        for peer in list(system.network.nodes.values()):
            if peer is not silent:
                system.network.block_link(silent, peer)
        client = system.make_client("c1", "virginia", group_id="g0")
        future = client.write(("put", "k", "v"))
        sim.run(until=6000.0)
        assert future.done


class TestByzantineClients:
    def test_conflicting_requests_never_execute(self):
        """A faulty client sends different operations to each execution
        replica under the same counter: the request channel refuses to
        deliver any of them (fewer than fe+1 matching sends), and other
        clients are unaffected (Section 3.7)."""
        sim, system = build_system()
        honest = system.make_client("honest", "virginia", group_id="g0")
        evil = system.make_client("evil", "virginia", group_id="g0")
        group = system.groups["g0"].replicas
        group_names = [replica.name for replica in group]

        def conflicting(counter):
            for index, replica in enumerate(group):
                body = RequestBody(
                    operation=("put", "evil-key", f"variant-{index}"),
                    client="evil",
                    counter=counter,
                )
                request = ClientRequest(
                    body=body,
                    signature=sign("evil", body.signed_content()),
                    auth=make_mac_vector("evil", group_names, body.signed_content()),
                    group="g0",
                )
                evil.send(replica, request)

        evil.run_task(conflicting, 1)
        future = honest.write(("put", "good-key", "good"))
        sim.run(until=8000.0)
        assert future.done  # honest client unaffected
        for group in system.groups.values():
            for replica in group.replicas:
                assert replica.app.apply(("get", "evil-key")) == ("missing",)

    def test_underreplicated_request_never_executes(self):
        """A request sent to only one execution replica (fewer than fe+1)
        must not pass the request channel."""
        sim, system = build_system()
        evil = system.make_client("evil", "virginia", group_id="g0")
        group = system.groups["g0"].replicas
        group_names = [replica.name for replica in group]
        body = RequestBody(operation=("put", "half", "baked"), client="evil", counter=1)
        request = ClientRequest(
            body=body,
            signature=sign("evil", body.signed_content()),
            auth=make_mac_vector("evil", group_names, body.signed_content()),
            group="g0",
        )
        evil.run_task(evil.send, group[0], request)
        sim.run(until=8000.0)
        for replica in group:
            assert replica.app.apply(("get", "half")) == ("missing",)

    def test_forged_signature_rejected_at_execution(self):
        sim, system = build_system()
        evil = system.make_client("evil", "virginia", group_id="g0")
        group = system.groups["g0"].replicas
        group_names = [replica.name for replica in group]
        body = RequestBody(operation=("put", "forged", 1), client="victim", counter=1)
        request = ClientRequest(
            body=body,
            signature=sign("evil", body.signed_content()),  # wrong principal
            auth=make_mac_vector("victim", group_names, body.signed_content()),
        # the MAC pretends to come from the victim; the name check fails
            group="g0",
        )
        evil.run_task(lambda: [evil.send(replica, request) for replica in group])
        sim.run(until=5000.0)
        for replica in group:
            assert replica.app.apply(("get", "forged")) == ("missing",)


class TestForgedForward:
    def test_outsider_cannot_order_a_write_in_a_members_name(self):
        """A PBFT ``Forward`` names the member relaying it but carries no
        authenticator.  A node outside the agreement group that writes
        ``ag1`` into one must not get its unsigned request ordered."""
        from repro.consensus.pbft.messages import Forward
        from repro.core.messages import RequestWrapper
        from repro.deploy import build
        from repro.experiments.common import fresh_env, spider_spec
        from repro.net.topology import Site
        from repro.sim.routing import RoutedNode

        sim, network = fresh_env(seed=1)
        system = build(sim, spider_spec(), network=network).system
        leader = system.agreement_replicas[0]
        mallory = RoutedNode(sim, "mallory", Site("virginia", 1))
        network.register(mallory)
        forged = RequestWrapper(
            body=RequestBody(("put", "owned", "by-mallory"), "victim", 1),
            signature=None,
            group="virginia",
        )
        forward = Forward(tag=leader.ag.tag, payload=forged, sender="ag1")
        sim.schedule_at(100.0, mallory.run_task, mallory.send, leader, forward)
        sim.run(until=3_000.0)
        for replica in system.agreement_replicas:
            assert "victim" not in replica.t
        for group in system.groups.values():
            for replica in group.replicas:
                assert replica.app.apply(("get", "owned")) != ("value", "by-mallory")
