"""Property-based tests on the core invariants.

These are the paper's safety properties checked under randomised schedules
and fault patterns (hypothesis drives the randomness through simulator
seeds, so every failure is replayable).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.pbft.config import quorum_weight
from repro.irmc.base import _WindowBook
from repro.sim import Simulator


class TestQuorumWeightProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5),  # f
        st.lists(st.integers(1, 4), min_size=4, max_size=20),  # weights
    )
    def test_two_quorums_intersect_in_a_correct_replica(self, f, weights):
        """Any two weight-``q`` subsets overlap in more than f*Vmax weight,
        i.e. at least one correct replica backs both quorums."""
        total = sum(weights)
        vmax = max(weights)
        if total < 2 * f * vmax + 1:
            return  # configuration infeasible; nothing to check
        q = quorum_weight(total, f, vmax)
        # Worst case overlap of two quorums is 2q - total.
        assert 2 * q - total >= f * vmax + 1
        # And a quorum must actually be formable.
        assert q <= total


class TestWindowBookProperty:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["r0", "r1", "r2"]), st.integers(1, 100)),
            max_size=40,
        )
    )
    def test_agreed_start_is_f_plus_1_highest(self, moves):
        """The window start equals the (f+1)-highest per-endpoint maximum
        and never decreases as more moves arrive."""
        members = ["r0", "r1", "r2"]
        book = _WindowBook(quorum_rank=2)  # f=1
        previous = 1
        for endpoint, position in moves:
            book.record("sc", endpoint, position)
            agreed = book.agreed_start("sc", members)
            assert agreed >= previous  # monotone
            previous = agreed
        highest = {m: 1 for m in members}
        for endpoint, position in moves:
            highest[endpoint] = max(highest[endpoint], position)
        expected = sorted(highest.values(), reverse=True)[1]
        assert previous == expected


class TestSimulatorDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**16))
    def test_same_seed_same_trace(self, seed):
        def trace(s):
            sim = Simulator(seed=s)
            log = []
            for index in range(30):
                sim.schedule(sim.rng.random() * 100, log.append, index)
            sim.run()
            return log, sim.now

        assert trace(seed) == trace(seed)


class TestIrmcAgreementProperty:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 1000), st.sampled_from(["rc", "sc"]))
    def test_receivers_never_disagree_on_a_position(self, seed, kind):
        """Under random message loss, any two receivers that deliver a
        message for the same (subchannel, position) deliver the same one
        (the f_s+1 vouching rule)."""
        from repro.faults import DropBehaviour
        from repro.irmc import IrmcConfig, make_channel
        from repro.net import Network, Site, Topology
        from repro.sim import Process
        from repro.sim.routing import RoutedNode

        sim = Simulator(seed=seed)
        network = Network(sim, Topology(), jitter=0.1)
        senders = [
            network.register(RoutedNode(sim, f"s{i}", Site("virginia", i + 1)))
            for i in range(3)
        ]
        receivers = [
            network.register(RoutedNode(sim, f"r{i}", Site("oregon", i + 1)))
            for i in range(4)
        ]
        for node in senders + receivers:
            DropBehaviour(0.15).install(node)
        tx, rx = make_channel(kind, "ch", senders, receivers, IrmcConfig(capacity=32))

        # Two senders send one value, the third a conflicting one.
        def sender_loop(endpoint, value):
            for position in range(1, 11):
                yield endpoint.send(0, position, ("msg", position, value))

        for node in senders[:2]:
            Process(sim, sender_loop(tx[node.name], "good"), node=node)
        Process(sim, sender_loop(tx[senders[2].name], "evil"), node=senders[2])
        sim.run(until=20_000.0, max_events=500_000)

        delivered = [rx[node.name]._delivered.get(0, {}) for node in receivers]
        for position in range(1, 11):
            values = {
                repr(d[position]) for d in delivered if position in d
            }
            assert len(values) <= 1  # never two different deliveries
            # And anything delivered was vouched for by f_s+1 senders.
            for value in values:
                assert "good" in value


class TestSpiderSafetyProperty:
    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 10_000))
    def test_all_replicas_converge_to_identical_state(self, seed):
        """E-Safety under randomised schedules: every execution replica of
        every group ends with the identical application state."""
        from tests.test_spider_basic import build_system

        sim, system = build_system(seed=seed)
        clients = [
            system.make_client(f"c{i}", region, group_id=group)
            for i, (region, group) in enumerate(
                [("virginia", "g0"), ("virginia", "g0"), ("tokyo", "g1")]
            )
        ]

        def issue(client, index=0):
            if index >= 4:
                return
            key = f"k{sim.rng.randrange(3)}"
            client.write(("put", key, f"{client.name}-{index}")).add_callback(
                lambda _: issue(client, index + 1)
            )

        for client in clients:
            issue(client)
        sim.run(until=60_000.0, max_events=3_000_000)
        states = set()
        for group in system.groups.values():
            for replica in group.replicas:
                states.add(repr(sorted(replica.app.snapshot()[0].items())))
        assert len(states) == 1
