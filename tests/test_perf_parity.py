"""Wall-clock optimisations must not change simulated results.

Hot-path work on the event queue and the network is only admissible
because a same-seed run is byte-identical with the optimisation exercised
or bypassed.  These tests pin that contract: the event queue's O(1)
bookkeeping and lazy compaction never change firing order, and the
network's fast path still applies every armed fault.  The digest memos'
parity is held by the records, the chaos golden and the spiderbench
parity pairs, and unit-tested in ``tests/test_digest_cache.py``.

Event-*eliding* changes cannot be bit-identical (the event count is the
point), so they are held to the weaker oracle of
:func:`repro.metrics.sim_equivalent` instead: identical reply traces,
latency samples and replica journals.  ``TestFusedDeliveryOracle`` runs
the fused ``Node.deliver`` against a test-local copy of the two-event
delivery it replaced.
"""

from __future__ import annotations

import pytest

from repro.faults import DropBehaviour
from repro.irmc import IrmcConfig, make_channel
from repro.metrics import sim_equivalent
from repro.net import Network, Payload, Site, Topology
from repro.sim import Node, Process, Simulator
from repro.sim.routing import RoutedNode
from tests.test_batching_properties import build_system, observation, run_workload


def _arm_faults(sim, system) -> None:
    """Tokyo partitioned from 0.5 s to 2.5 s, then every replica losing
    5 % of its sends from 3 s to 5 s."""
    network = system.network
    sim.schedule(500.0, network.partition, ["tokyo"])
    sim.schedule(2_500.0, network.heal)
    for node in system.all_nodes:
        dropper = DropBehaviour(0.05)
        sim.schedule(3_000.0, dropper.install, node)
        sim.schedule(5_000.0, dropper.uninstall)


def _two_event_deliver(self, src, message):
    """The ``Node.deliver`` that fused dispatch replaced: every arrival
    queues a task and pushes a second ``_dispatch`` heap entry, however
    idle the CPU is."""
    if self.crashed:
        return
    self._tasks.append((self.on_message, (src, message)))
    if not (self._dispatch_scheduled or self._executing):
        self._post_dispatch()


def _spider_observation(seed: int, faults: bool = False) -> dict:
    sim, system = build_system(seed=seed)
    if faults:
        _arm_faults(sim, system)
    clients, replies = run_workload(
        sim, system, n_clients=3, n_requests=4, use_reads=not faults
    )
    return dict(observation(system, clients, replies), events=sim.events_processed)


def _irmc_observation(kind: str) -> dict:
    """A jitter-free channel pumped at saturation: the scenario richest in
    same-timestamp ties (three senders in lockstep, identical links)."""
    sim = Simulator(seed=5)
    network = Network(sim, Topology(), jitter=0.0)
    senders = [
        network.register(RoutedNode(sim, f"s{i}", Site("virginia", i + 1)))
        for i in range(3)
    ]
    receivers = [
        network.register(RoutedNode(sim, f"r{i}", Site("tokyo", i + 1)))
        for i in range(4)
    ]
    tx, rx = make_channel(kind, "ch", senders, receivers, IrmcConfig(capacity=64))
    deliveries = {node.name: [] for node in receivers}

    def sender_loop(endpoint):
        for position in range(1, 201):
            yield endpoint.send(0, position, Payload(512, label="parity"))

    def receiver_loop(endpoint, sink):
        for position in range(1, 201):
            yield endpoint.receive(0, position)
            sink.append((position, sim.now))
            if position % 16 == 0:
                endpoint.move_window(0, position + 1)

    for node in senders:
        Process(sim, sender_loop(tx[node.name]), node=node)
    for node in receivers:
        Process(sim, receiver_loop(rx[node.name], deliveries[node.name]), node=node)
    sim.run(until=3_000.0)
    return {
        "replies": deliveries,
        "latencies": [at for _position, at in deliveries["r0"]],
        "events": sim.events_processed,
    }


class TestFusedDeliveryOracle:
    """Fused dispatch vs the two-event reference: same observations under
    ``sim_equivalent``, strictly fewer events."""

    @staticmethod
    def _both(monkeypatch, observe, *args):
        fused = observe(*args)
        monkeypatch.setattr(Node, "deliver", _two_event_deliver)
        reference = observe(*args)
        assert reference["replies"], "the scenario completed nothing"
        assert sim_equivalent(reference, fused) == []
        assert fused["events"] < reference["events"]

    @pytest.mark.parametrize("seed", [7, 1234])
    def test_spider_end_to_end(self, monkeypatch, seed):
        self._both(monkeypatch, _spider_observation, seed)

    def test_spider_under_fault_injection(self, monkeypatch):
        self._both(monkeypatch, _spider_observation, 42, True)

    @pytest.mark.parametrize("kind", ["rc", "sc"])
    def test_saturated_irmc_channel_without_jitter(self, monkeypatch, kind):
        self._both(monkeypatch, _irmc_observation, kind)

    def test_oracle_names_the_first_moved_entry(self):
        base = {"replies": {"c0": [("write", 0.0, 5.0)]}, "latencies": [5.0], "events": 9}
        assert sim_equivalent(base, dict(base, events=3)) == []
        moved = dict(base, replies={"c0": [("write", 0.0, 5.5)]}, latencies=[5.5])
        assert sim_equivalent(base, moved) == [
            "replies['c0']: entry 0: ('write', 0.0, 5.0) != ('write', 0.0, 5.5)",
            "latencies: entry 0: 5.0 != 5.5",
        ]


class TestEventQueueBookkeeping:
    def test_pending_events_is_live_count(self):
        sim = Simulator(seed=0)
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        sim.post(20.0, lambda: None)
        assert sim.pending_events == 11
        handles[0].cancel()
        handles[1].cancel()
        assert sim.pending_events == 9
        handles[1].cancel()  # idempotent
        assert sim.pending_events == 9
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_processed == 9

    def test_cancel_after_firing_is_a_noop(self):
        sim = Simulator(seed=0)
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        handle.cancel()  # must not corrupt the live count
        assert sim.pending_events == 0

    def test_compaction_preserves_firing_order(self):
        sim = Simulator(seed=0)
        fired = []
        keep = []
        cancelled = []
        for i in range(500):
            handle = sim.schedule(1000.0 + i, fired.append, i)
            (keep if i % 5 == 0 else cancelled).append(handle)
        # Mass-cancellation drives cancelled > live, forcing a compaction.
        for handle in cancelled:
            handle.cancel()
        assert sim.pending_events == len(keep)
        assert len(sim._queue) < 500  # compaction actually ran
        sim.run()
        assert fired == [i for i in range(500) if i % 5 == 0]

    def test_mixed_post_and_schedule_order(self):
        sim = Simulator(seed=0)
        fired = []
        sim.schedule(2.0, fired.append, "handle")
        sim.post(2.0, fired.append, "post")
        sim.post_at(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "handle", "post"]


class TestNetworkFastPath:
    def _pair(self):
        from repro.sim.node import Node

        sim = Simulator(seed=3)
        network = Network(sim, Topology(), jitter=0.0)

        received = []

        class Sink(Node):
            def on_message(self, src, message):
                received.append(message)

        a = network.register(Sink(sim, "a", Site("virginia", 1)))
        b = network.register(Sink(sim, "b", Site("tokyo", 1)))
        return sim, network, a, b, received

    def test_faults_still_apply_after_arming(self):
        sim, network, a, b, received = self._pair()
        network.send(a, b, "hello")
        network.partition(["tokyo"])
        network.send(a, b, "blocked")
        network.heal()
        network.send(a, b, "world")
        sim.run()
        assert received == ["hello", "world"]
        assert network.dropped == 1

    def test_block_link_bypasses_fast_path(self):
        sim, network, a, b, received = self._pair()
        network.block_link(a, b)
        network.send(a, b, "nope")
        network.unblock_link(a, b)
        network.send(a, b, "ok")
        sim.run()
        assert received == ["ok"]
        assert network.dropped == 1

    def test_link_profile_matches_topology_oracle(self):
        topology = Topology()
        a, b = Site("virginia", 1), Site("tokyo", 2)
        profile = topology.link_profile(a, b)
        assert profile.one_way_ms == topology.one_way_ms(a, b)
        assert profile.is_wan is topology.is_wan(a, b)
        assert (4096 * 8.0) / profile.ser_divisor == topology.serialization_ms(
            a, b, 4096
        )
        lan = topology.link_profile(a, Site("virginia", 2))
        assert lan.is_wan is False
