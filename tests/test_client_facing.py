"""One contract for the four replica kinds that answer clients.

``repro.core.answering.ClientFacing`` is hosted by Spider's execution
replicas, its agreement replicas in the Spider-0E variant, and the BFT and
HFT baselines; the paper's comparison is fair only because one client
drives them all.  Whatever the host, a request that is not the client's
own, not authenticated or not signed changes nothing, a retry of the
request answered last gets the cached reply again without being ordered a
second time, and a weak read may not write, not even inside a compound.
"""

import pytest

from repro.core.messages import ClientRequest, Reply, RequestBody
from repro.crypto.primitives import make_mac_vector, sign

from tests.test_baselines import make_bft, make_hft
from tests.test_spider_basic import build_system


def _spider():
    sim, system = build_system()
    return sim, system.make_client, [r for g in system.groups.values() for r in g.replicas]


def _spider_0e():
    sim, system = build_system(regions=(), execute_locally=True)
    return sim, system.make_client, system.agreement_replicas


def _bft():
    sim, system = make_bft()
    return sim, system.make_client, system.replicas


def _hft():
    sim, system = make_hft()
    return sim, system.make_client, [r for site in system.sites.values() for r in site]


HOSTS = {"execution": _spider, "agreement-0e": _spider_0e, "bft": _bft, "hft": _hft}


def _request(client, counter, operation, mac_by=None, signed_by=None) -> ClientRequest:
    """``client``'s request, optionally authenticated by someone else."""
    body = RequestBody(operation=operation, client=client.name, counter=counter)
    names = [node.name for node in client.group_nodes]
    return ClientRequest(
        body=body,
        signature=sign(signed_by or client.name, body),
        auth=make_mac_vector(mac_by or client.name, names, body),
        group=client.group_id,
    )


@pytest.mark.parametrize("host", sorted(HOSTS))
def test_client_facing_contract(host):
    sim, make_client, replicas = HOSTS[host]()
    client, mallory = make_client("c1", "virginia"), make_client("c2", "virginia")
    replies = []
    deliver = client.on_message
    client.on_message = lambda src, message: (replies.append(message), deliver(src, message))

    def settle():
        sim.run(until=sim.now + 5000.0)
        return sum(replica.executed_count for replica in replicas)

    first = client.write(("put", "k", "v"))
    executed = settle()
    assert first.value == ("ok", 1) and executed > 0

    def offer(sender, request):
        for replica in client.group_nodes:
            sender.send(replica, request)

    # Not the client's own, not authenticated, not signed: nothing happens.
    evil = ("put", "evil", 1)
    offer(mallory, _request(client, 2, evil))  # forged sender
    offer(client, _request(client, 2, evil, mac_by=mallory.name))  # bad MAC vector
    offer(client, _request(client, 2, evil, signed_by=mallory.name))  # bad signature
    del replies[:]
    assert settle() == executed and not replies
    assert all(replica.app.apply(("get", "evil")) == ("missing",) for replica in replicas)

    # A retry of the request answered last: the cached reply, from every
    # replica of the client's group, and nothing is ordered again.
    offer(client, _request(client, 1, ("put", "k", "v")))
    assert settle() == executed
    assert sorted(reply.sender for reply in replies) == sorted(
        node.name for node in client.group_nodes
    )
    assert all(isinstance(r, Reply) and (r.result, r.counter) == (("ok", 1), 1) for r in replies)

    # A weak read reads — and may not write, not even as one member of a
    # compound of reads.
    refused, read = client.weak_read(evil), client.weak_read(("get", "k"))
    hidden = client.weak_read(("multi", "evil", (("get", "evil"), evil)))
    reads = client.weak_read(("multi", "k", (("get", "k"), ("get", "k"))))
    assert settle() == executed
    assert not refused.done and read.value == ("value", "v")
    assert not hidden.done and reads.value == (("value", "v"),) * 2
    assert all(replica.app.apply(("get", "evil")) == ("missing",) for replica in replicas)
