"""The mutation-after-send sanitizer: the dynamic half of the contract.

The static pass (P202) flags ``object.__setattr__`` syntactically, but a
sender that keeps an alias to a sent message and mutates it while the
message is "on the wire" is only provable at runtime.  These tests plant
exactly that bug and assert the sanitizer names the offender — and that
arming the sanitizer changes *nothing* about simulated results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.core.messages import RequestBody
from repro.crypto import digest, sign, verify
from repro.errors import SimulationError
from repro.net import Site, Topology, send_sanitizer_enabled, set_send_sanitizer
from repro.net.network import Network
from repro.sim import Simulator
from repro.sim.node import Node


@dataclass
class MutableNote:
    """A deliberately mutable message — the aliasing-bug honeypot."""

    body: str
    tags: list = field(default_factory=list)


class Recorder(Node):
    def __init__(self, sim, name, site=None):
        super().__init__(sim, name, site)
        self.received = []

    def on_message(self, src, message):
        self.received.append((src.name, message))


@pytest.fixture
def net():
    sim = Simulator(seed=3)
    network = Network(sim, Topology(), jitter=0.0)
    a = network.register(Recorder(sim, "a", Site("virginia", 1)))
    b = network.register(Recorder(sim, "b", Site("virginia", 2)))
    return sim, network, a, b


@pytest.fixture
def sanitized():
    previous = set_send_sanitizer(True)
    yield
    set_send_sanitizer(previous)


class TestSanitizer:
    def test_clean_send_delivers(self, net, sanitized):
        sim, network, a, b = net
        network.send(a, b, MutableNote(body="hello"))
        sim.run()
        assert [(src, m.body) for src, m in b.received] == [("a", "hello")]

    def test_post_send_mutation_is_caught_and_named(self, net, sanitized):
        sim, network, a, b = net
        note = MutableNote(body="hello")
        network.send(a, b, note)
        note.tags.append("tampered")  # mutate while the message is in flight
        with pytest.raises(SimulationError) as exc:
            sim.run()
        text = str(exc.value)
        assert "mutated after send" in text
        assert "tampered" in text  # the offending message is spelled out
        assert "from a to b" in text

    @pytest.mark.parametrize("sealed", [False, True], ids=["fresh", "sealed"])
    def test_frozen_message_setattr_is_caught(self, net, sanitized, sealed):
        """Once its memos are filled, a message's digests no longer look at
        its fields; the sanitizer still sees the rebind, because it repr's
        the message afresh."""
        sim, network, a, b = net
        body = RequestBody(client="c1", counter=1, operation=("put", "k", "v"))
        if sealed:
            assert verify(sign("c1", body), body, signer="c1")
            digest(body)
            repr(body)
            network.send(a, b, body)  # fills the wire-size memo
            sim.run()
        network.send(a, b, body)
        # lint: allow[P202] -- this test IS the aliasing bug the sanitizer
        # exists to catch: tamper with a frozen message already handed to send
        object.__setattr__(body, "counter", 2)
        with pytest.raises(SimulationError, match="mutated after send"):
            sim.run()

    def test_disarmed_sends_are_unchecked_and_state_restores(self, net):
        previous = set_send_sanitizer(False)
        try:
            assert not send_sanitizer_enabled()
            sim, network, a, b = net
            note = MutableNote(body="hello")
            network.send(a, b, note)
            note.tags.append("tampered")
            sim.run()  # nobody checks: the aliasing bug sails through
            assert b.received[0][1].tags == ["tampered"]
        finally:
            assert set_send_sanitizer(previous) is False

    def test_simulated_results_identical_with_and_without(self):
        """Arming the sanitizer must not move a single simulated timestamp."""

        def trace(sanitizer: bool):
            previous = set_send_sanitizer(sanitizer)
            try:
                sim = Simulator(seed=11)
                network = Network(sim, Topology(), jitter=0.05)
                a = network.register(Recorder(sim, "a", Site("virginia", 1)))
                b = network.register(Recorder(sim, "b", Site("tokyo", 1)))
                for index in range(20):
                    network.send(a, b, MutableNote(body=f"m{index}"))
                    network.send(b, a, MutableNote(body=f"r{index}"))
                sim.run()
                return (
                    sim.now,
                    sim.events_processed,
                    [(src, m.body) for src, m in a.received + b.received],
                )
            finally:
                set_send_sanitizer(previous)

        assert trace(False) == trace(True)

    def test_duplicated_delivery_is_checked_too(self, net, sanitized):
        sim, network, a, b = net
        network.set_link_mod(a, b, dup_rate=1.0)
        note = MutableNote(body="dup")
        network.send(a, b, note)
        note.body = "tampered"
        with pytest.raises(SimulationError, match="mutated after send"):
            sim.run()
