"""The IRMC endpoint lifecycle is declared, not chained.

Each endpoint class lists its per-subchannel books in ``BOOKS`` and
registers its periodic timers with ``_every``, which builds each on the
node's periodic :class:`~repro.sim.node.Timer`; ``IrmcEndpoint`` wipes,
retires, purges and restarts whatever is declared.  These tests hold the
declaration to that: a wiped endpoint equals a fresh one book by book, a
retired subchannel is in no book and nothing can bring it back, a dict
that is not declared fails, and every chain has exactly one pending event.
"""

import pytest

from repro.irmc.base import BY_KEY
from repro.irmc.messages import ProgressMsg, SelectMsg

from tests.test_irmc import ChannelFixture

ENDPOINTS = [("rc", "s0"), ("rc", "r0"), ("sc", "s0"), ("sc", "r0")]


def used_channel(kind):
    """A channel whose ``s0`` / ``r0`` have sent, received, moved, parked,
    half-voted, half-retired and (SC) gossiped, watched and switched.

    Returns the fixture and the ``(src, dst, message)`` log of everything
    that crossed the network.
    """
    fx = ChannelFixture(kind, capacity=2)
    log = []
    network = fx.cluster.network
    network.taps.append(lambda src, dst, message: log.append((src, dst, message)))
    everyone = ["s0", "s1", "s2"]
    for endpoint in fx.receivers.values():
        endpoint.node.run_task(endpoint.receive, "alice", 1)
        endpoint.node.run_task(endpoint.receive, "alice", 4)
    for position in (1, 2, 3):  # capacity 2: position 3 parks
        fx.send_from(everyone, "alice", position, ("m", position))
    fx.send_from(everyone, "carol", 1, ("c", 1))
    fx.send_from(everyone, "dave", 1, ("d", 1), window=1)
    fx.send_from(["s0"], "bob", 1, ("b", 1))  # a lone vote / share
    fx.cluster.run(until=400.0)
    for endpoint in fx.receivers.values():
        endpoint.node.run_task(endpoint.move_window, "alice", 2)
    fx.send_from(everyone, "alice", 5, ("m", 5), window=2)  # parks again
    if kind == "sc":
        # r0 picks a collector for alice by hand, and two senders claim a
        # certificate for a subchannel nobody sent on: every receiver
        # watches it and keeps switching collectors.
        r0 = fx.receivers["r0"]
        select = r0._authenticated(SelectMsg("ch", "alice", "s1", "r0"))
        for name in ("s1", "s2"):
            sender = fx.senders[name]
            claim = sender._authenticated(ProgressMsg("ch", (("erin", 1),), name))
            for node in fx.receiver_nodes:
                sender.node.run_task(sender.node.send, node, claim)
        for node in fx.sender_nodes:
            r0.node.run_task(r0.node.send, node, select)
    fx.cluster.run(until=1_500.0)
    # One retirement voucher for carol (below fs+1); dave retires on the
    # receivers while s0 sleeps through it and hears one echo only.
    fx.senders["s0"].node.run_task(fx.senders["s0"].retire_subchannel, "carol")
    for name in ("s1", "s2"):
        fx.senders[name].node.run_task(fx.senders[name].retire_subchannel, "dave")
    for node in fx.receiver_nodes[1:]:
        network.block_link(node, fx.sender_nodes[0])
    fx.cluster.run(until=3_000.0)
    return fx, log


def endpoint_of(fx, name):
    return fx.senders.get(name) or fx.receivers[name]


def books_naming(endpoint, subchannel):
    return [
        book.name
        for book in endpoint.BOOKS
        if any(
            key == subchannel or (book.shape is BY_KEY and key[0] == subchannel)
            for key in getattr(endpoint, book.name)
        )
    ]


def pending_links(sim, endpoint):
    """Deadlines of the live timer events on ``endpoint``'s node."""
    return sorted(
        entry[2].time
        for entry in sim._queue
        if len(entry) == 3
        and not entry[2].cancelled
        and not entry[2].fired
        and entry[2].fn == endpoint.node.run_task
    )


def chain_deadlines(endpoint):
    """Where the endpoint's chains say their next link is due."""
    assert all(chain.armed for chain in endpoint._chains)
    return sorted(chain.deadline for chain in endpoint._chains)


@pytest.mark.parametrize("kind, name", ENDPOINTS)
class TestDeclaredBooks:
    def test_the_fixture_fills_the_books(self, kind, name):
        """Not green by vacuity: every declared book holds something."""
        fx, _log = used_channel(kind)
        sizes = endpoint_of(fx, name).book_sizes()
        assert [book for book, size in sizes.items() if not size] == []

    def test_every_dict_and_set_is_declared(self, kind, name):
        """A book added without a declaration fails here."""
        endpoint = endpoint_of(ChannelFixture(kind), name)
        found = {
            attr for attr, value in vars(endpoint).items() if isinstance(value, (dict, set))
        }
        assert found == {book.name for book in endpoint.BOOKS} | {"_retired"}

    def test_wiped_endpoint_equals_a_fresh_one(self, kind, name):
        fx, _log = used_channel(kind)
        endpoint = endpoint_of(fx, name)
        fresh = endpoint_of(ChannelFixture(kind, capacity=2), name)
        endpoint.node.crash(wipe=True)
        endpoint.node.recover()
        for book in endpoint.BOOKS:
            assert getattr(endpoint, book.name) == getattr(fresh, book.name), book.name
        assert endpoint._retired == fresh._retired == {}
        if kind == "sc" and name == "r0":
            # The watchdogs went with the book that held their handles.
            assert not any(
                entry[2].fn == endpoint.node.run_task and not entry[2].cancelled
                for entry in fx.cluster.sim._queue
                if len(entry) == 3
            )

    def test_retired_subchannel_is_in_no_book_and_stays_out(self, kind, name):
        fx, log = used_channel(kind)
        for sender in fx.senders.values():
            sender.node.run_task(sender.retire_subchannel, "alice")
        fx.cluster.run(until=5_000.0)
        endpoints = list(fx.senders.values()) + list(fx.receivers.values())
        for endpoint in endpoints:
            assert endpoint.is_retired("alice")
            assert not endpoint.holds("alice")
            assert books_naming(endpoint, "alice") == []
        # Replay every message that ever named her, of every kind.
        about_alice = [entry for entry in log if "'alice'" in repr(entry[2])]
        kinds = {type(message).__name__ for _src, _dst, message in about_alice}
        expected = {"MoveMsg", "MovesMsg", "RetireMsg"} | (
            {"SendMsg"}
            if kind == "rc"
            else {"SigShare", "CertificateMsg", "ProgressMsg", "SelectMsg"}
        )
        assert expected <= kinds
        before = [endpoint.book_sizes() for endpoint in endpoints]
        for src, dst, message in about_alice:
            fx.cluster.network.send(src, dst, message)
        fx.cluster.run(until=65_000.0)
        assert [endpoint.book_sizes() for endpoint in endpoints] == before
        assert books_naming(endpoint_of(fx, name), "alice") == []


@pytest.mark.parametrize(
    "kind, name, chains", [("rc", "s0", 1), ("rc", "r0", 0), ("sc", "s0", 2), ("sc", "r0", 0)]
)
class TestChains:
    @pytest.mark.parametrize("outage_ms", [100.0, 2_000.0])
    def test_one_pending_link_per_chain_after_recovery_none_after_close(
        self, kind, name, chains, outage_ms
    ):
        """Whether the crash outlived the pending link (its callback was
        dropped) or not (it is still queued), recovery leaves one."""
        fx = ChannelFixture(kind)
        endpoint, sim = endpoint_of(fx, name), fx.cluster.sim
        assert len(endpoint._chains) == chains
        fx.cluster.run(until=1_000.0)
        endpoint.node.crash()
        fx.cluster.run(until=1_000.0 + outage_ms)
        endpoint.node.recover()
        fx.cluster.run(until=1_001.0 + outage_ms)
        assert pending_links(sim, endpoint) == chain_deadlines(endpoint)
        fx.cluster.run(until=5_000.0)  # still one after the chains ran on
        assert pending_links(sim, endpoint) == chain_deadlines(endpoint)
        endpoint.close()
        assert pending_links(sim, endpoint) == []
        assert not any(chain.armed for chain in endpoint._chains)
