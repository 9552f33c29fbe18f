"""Digest memos: parity, charges, and tampered copies.

The per-message memos (``crypto/primitives.py``) must be *invisible* to
the protocol: the digest values and simulated CPU charges of an uncached
computation, and no way for a Byzantine copy to borrow its original's
memo past ``verify``.  Tampering is modelled the supported way, with
``dataclasses.replace``: an in-place rebind of a sealed message is for
lint P202 and the send sanitizer to reject (``tests/test_lint.py``,
``tests/test_send_sanitizer.py``).
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace

import pytest

from repro.consensus.pbft.messages import FetchPayload
from repro.core import SpiderConfig
from repro.core.messages import Execute, RequestBody, RequestWrapper
from repro.crypto.costs import FREE, CostModel, use_cost_model
from repro.crypto.primitives import (
    attach_auth,
    content_digest,
    digest,
    make_mac,
    make_mac_vector,
    sign,
    sign_many,
    structural_digest,
    verify,
    verify_mac,
    verify_mac_vector,
)
from repro.deploy import BftSpec, ClusterSpec, GroupSpec, HftSpec, ShardSpec, build
from repro.irmc.messages import RetireEcho, SelectMsg
from repro.net import Message, Network, Payload, Topology
from repro.sim.core import Simulator
from repro.sim.node import Node


def _body(counter=1, operation=("put", "k", "v")):
    return RequestBody(operation=operation, client="c1", counter=counter)


def _charge_of(fn):
    """Simulated CPU ``fn`` charges to a node that runs it."""
    import repro.sim.node as node_mod

    node = Node(Simulator(seed=1), "probe")
    previous, node_mod._current = node_mod._current, node
    try:
        fn()
    finally:
        node_mod._current = previous
    return node._pending_cost


class TestBitIdentity:
    def test_cached_digest_equals_uncached(self):
        body = _body()
        cached = content_digest(body)
        cached_again = content_digest(body)
        uncached = digest(body.signed_content())  # a tuple: never memoised
        assert cached == cached_again == uncached

    def test_repr_digest_equals_uncached(self):
        wrapper = RequestWrapper(body=_body(), signature=None, group="g0")
        assert digest(wrapper) == digest(wrapper) == structural_digest(wrapper)

    def test_equal_but_distinct_objects_share_digest_value(self):
        assert content_digest(_body()) == content_digest(_body())

    def test_cached_size_and_repr_match_plain(self):
        wrapper = RequestWrapper(body=_body(), signature=None, group="g0")
        plain_size = wrapper.HEADER_BYTES + wrapper.payload_size()
        plain_repr = repr(replace(wrapper))  # a fresh copy's first repr
        for _ in range(2):  # the first call fills each memo, the second reads it
            assert wrapper.size_bytes() == plain_size
            assert repr(wrapper) == plain_repr


class TestChargeParity:
    def test_cache_hits_charge_identical_hashing_cost(self):
        model = CostModel()  # full-cost model so hash charges are visible
        with use_cost_model(model):
            body = _body()
            first = _charge_of(lambda: content_digest(body))  # miss
            hit = _charge_of(lambda: content_digest(body))  # hit
            uncached = _charge_of(lambda: digest(body.signed_content()))
            assert first == hit == uncached
            assert first > 0


class TestSignMany:
    """One RSA operation, k signatures that each verify on their own."""

    def test_batch_of_one_is_sign_byte_for_byte(self):
        body = _body()
        with use_cost_model(CostModel()):
            alone = _charge_of(lambda: sign("c1", body))
            batched = _charge_of(lambda: sign_many("c1", [body]))
        (signature,) = sign_many("c1", [body])
        reference = sign("c1", body)
        assert type(signature) is type(reference) and signature == reference
        assert repr(signature) == repr(reference)
        assert signature.size_bytes() == reference.size_bytes() == 128
        assert alone == batched > 0
        assert sign_many("c1", []) == [] and _charge_of(lambda: sign_many("c1", [])) == 0.0

    def test_k_bodies_cost_one_rsa_sign_and_each_verifies_alone(self):
        bodies = [_body(counter) for counter in (1, 2, 3, 4)]
        with use_cost_model(FREE.with_overrides(rsa_sign=1.0, rsa_verify=0.125)):
            signatures = []
            assert _charge_of(lambda: signatures.extend(sign_many("c1", bodies))) == 1.0
            for body, signature in zip(bodies, signatures):
                verdict = []
                cost = _charge_of(lambda: verdict.append(verify(signature, body, signer="c1")))
                assert verdict == [True] and cost == 0.125  # a plain verify's price
        assert [s.size_bytes() for s in signatures] == [128 + 3 * 8] * 4
        assert len({s.batch_digest for s in signatures}) == 1
        assert not verify(signatures[0], bodies[0], signer="c2")

    def test_wire_messages_grow_by_their_sibling_digests(self):
        from repro.checkpoints.messages import CheckpointMsg
        from repro.irmc.messages import SendMsg

        vote = CheckpointMsg(tag="cp", seq=4, state_digest=7, sender="r0")
        send = SendMsg("com-g0", 0, 4, ("execute", 4), "r0")
        alone = [attach_auth(body, signature=sign("r0", body)) for body in (vote, send)]
        signed = [
            attach_auth(body, signature=signature)
            for body, signature in zip((vote, send), sign_many("r0", [vote, send]))
        ]
        for message, reference in zip(signed, alone):
            assert verify(message.signature, message, signer="r0")
            assert message.size_bytes() == reference.size_bytes() + 8

    def test_signature_lifted_onto_another_body_fails(self):
        bodies = [_body(counter) for counter in (1, 2, 3)]
        signatures = sign_many("c1", bodies)
        assert not verify(signatures[0], bodies[1], signer="c1")  # a sibling
        assert not verify(signatures[0], _body(99), signer="c1")  # a stranger
        # Claiming the sibling's digest does not help: the sibling list
        # then names the wrong others.
        lifted = replace(signatures[0], object_digest=signatures[1].object_digest)
        assert not verify(lifted, bodies[1], signer="c1")

    def test_tampered_sibling_list_fails(self):
        bodies = [_body(counter) for counter in (1, 2, 3)]
        signature = sign_many("c1", bodies)[0]
        assert verify(signature, bodies[0], signer="c1")
        foreign = content_digest(_body(99))
        for siblings in (
            signature.siblings[:1],
            signature.siblings + (foreign,),
            (foreign,) + signature.siblings[1:],
        ):
            assert not verify(replace(signature, siblings=siblings), bodies[0], signer="c1")
        # Order is not part of what was signed (the digests are sorted).
        assert verify(replace(signature, siblings=signature.siblings[::-1]), bodies[0], signer="c1")


class TestByzantineMutation:
    """A tampered copy is built after its original's memos are filled: it
    starts with empty memos, so it is judged on its own bytes, and the
    original keeps verifying."""

    def test_forged_copy_fails_verify(self):
        body = _body()
        signature = sign("c1", body)
        assert verify(signature, body, signer="c1")
        forged = RequestBody(
            operation=body.operation, client=body.client, counter=999
        )
        assert not verify(signature, forged, signer="c1")

    def test_in_place_field_mutation_after_signing_fails_verify(self):
        body = _body()
        signature = sign("c1", body)
        assert verify(signature, body, signer="c1")  # memo filled
        forged = replace(body, operation=("put", "k", "EVIL"))
        assert not verify(signature, forged, signer="c1")
        assert verify(signature, body, signer="c1")
        assert verify(signature, replace(body), signer="c1")  # same content

    def test_cross_type_equal_value_mutation_fails_verify(self):
        """``True == 1`` but their reprs differ: a copy that compares equal
        to the signed body is still a different message."""
        body = _body(counter=1)
        signature = sign("c1", body)
        assert verify(signature, body, signer="c1")  # memo filled
        forged = replace(body, counter=True)
        assert forged == body
        assert not verify(signature, forged, signer="c1")
        assert content_digest(forged) == digest(forged.signed_content())

    def test_in_place_mutation_invalidates_mac_and_vector(self):
        body = _body()
        mac = make_mac("a", "b", body)
        vector = make_mac_vector("a", ["b", "c"], body)
        assert verify_mac(mac, body, "a", "b")
        assert verify_mac_vector(vector, body, "a", "b")
        forged = replace(body, counter=7)
        assert not verify_mac(mac, forged, "a", "b")
        assert not verify_mac_vector(vector, forged, "a", "b")

    def test_in_place_mutation_invalidates_size_and_repr_memos(self):
        wrapper = RequestWrapper(body=_body(), signature=None, group="g0")
        before_size = wrapper.size_bytes()
        before_repr = repr(wrapper)
        bigger = replace(wrapper, body=_body(operation=("put", "k", "v" * 100)))
        assert bigger.size_bytes() != before_size
        assert repr(bigger) != before_repr
        assert wrapper.size_bytes() == before_size
        assert repr(wrapper) == before_repr


class TestAttachAuth:
    def test_attach_auth_equivalent_to_replace(self):
        body = RequestWrapper(body=_body(), signature=None, group="g0")
        signature = sign("r1", body)
        message = attach_auth(body, signature=signature)
        assert message.signature is signature
        assert message.body is body.body and message.group == body.group
        assert message.signed_content() == body.signed_content()
        assert repr(message) != repr(body)  # signature shows in the repr
        assert verify(message.signature, message, signer="r1")

    def test_attach_auth_rejects_non_auth_fields(self):
        with pytest.raises(ValueError):
            attach_auth(_body(), counter=5)

    def test_transferred_cache_still_guarded_against_mutation(self):
        body = RequestWrapper(body=_body(), signature=None, group="g0")
        signature = sign("r1", body)  # primes the content cache
        message = attach_auth(body, signature=signature)  # memo carried over
        assert verify(message.signature, message, signer="r1")
        forged = replace(message, group="evil")
        assert not verify(message.signature, forged, signer="r1")
        assert verify(message.signature, message, signer="r1")

    def test_execute_payload_digest_stable_through_cache(self):
        wrapper = RequestWrapper(body=_body(), signature=None, group="g0")
        execute = Execute(seq=3, request=wrapper)
        assert digest(execute) == digest(execute) == structural_digest(execute)


# ----------------------------------------------------------------------
# Repr parity: the memoised repr is the wire form every class had before
# ----------------------------------------------------------------------
REGIONS = ("virginia", "oregon", "ireland", "tokyo")


def _all_message_classes():
    import repro.baselines.hft  # noqa: F401 - registers the HFT messages
    import repro.consensus.pbft.messages  # noqa: F401
    import repro.core.messages  # noqa: F401
    import repro.elastic.messages  # noqa: F401
    import repro.irmc.messages  # noqa: F401

    found, pending = set(), [Message]
    while pending:
        for subclass in pending.pop().__subclasses__():
            found.add(subclass)
            pending.append(subclass)
    return found


def _dataclass_format(message) -> str:
    """The repr ``@dataclass`` generates, spelled out field by field."""
    shown = ", ".join(
        f"{field.name}={getattr(message, field.name)!r}"
        for field in fields(message)
        if field.repr
    )
    return f"{type(message).__qualname__}({shown})"


def _network(seen, seed=1):
    """A fresh network whose tap keeps one sample of every message class
    it carries, nested messages included."""

    def walk(value):
        if isinstance(value, Message):
            seen.setdefault(type(value), value)
            if is_dataclass(value):
                for field in fields(value):
                    walk(getattr(value, field.name))
        elif isinstance(value, tuple):
            for item in value:
                walk(item)

    sim = Simulator(seed=seed)
    network = Network(sim, Topology(), jitter=0.0)
    network.taps.append(lambda src, dst, message: walk(message))
    return sim, network


def _geo_spider(seen):
    """Four regions: concurrent writes (batched), one weak and one strong
    read, a registry query, a group added and removed, a session closed."""
    sim, network = _network(seen)
    groups = tuple(GroupSpec(f"g{index}", region) for index, region in enumerate(REGIONS))
    spec = ClusterSpec(shards=(ShardSpec("s0", groups=groups),))
    system = build(sim, spec, network=network).system
    clients = [system.make_client(f"c{index}", "virginia", group_id="g0") for index in range(4)]
    for index, client in enumerate(clients):
        client.write(("put", f"k{index}", "v"))
    sim.run(until=2_000.0)
    clients[0].weak_read(("get", "k0"))
    clients[0].strong_read(("get", "k0"))
    system.admin.query_registry()
    system.add_execution_group_dynamically("jp", "tokyo")
    sim.run(until=6_000.0)
    system.admin.remove_group("jp")
    clients[1].close_session()
    sim.run(until=12_000.0)


def _two_shards_move_range(seen):
    """Two shards over IRMC-SC channels, one key range moved between them."""
    sim, network = _network(seen, seed=3)
    spec = ClusterSpec(
        shards=(
            ShardSpec("sa", groups=(GroupSpec("ga", "virginia"),)),
            ShardSpec("sb", groups=(GroupSpec("gb", "virginia"),)),
        ),
        config=SpiderConfig(irmc_kind="sc"),
    )
    cluster = build(sim, spec, network=network)
    cluster.session("u1", "virginia").write("k", "v")
    cluster.move_range(2, 3, "sa", "sb")
    sim.run(until=60_000.0)


def _baselines(seen):
    for spec in (BftSpec(regions=REGIONS), HftSpec(regions=REGIONS)):
        sim, network = _network(seen)
        build(sim, spec, network=network).make_client("c1", "virginia").write(("put", "k", "v"))
        sim.run(until=3_000.0)


def _pbft_leader_crash(seen):
    """The agreement leader and one execution replica crash: a view change,
    then a checkpoint fetch when the execution replica recovers."""
    sim, network = _network(seen)
    groups = (GroupSpec("g0", "virginia"), GroupSpec("g1", "tokyo"))
    spec = ClusterSpec(
        shards=(ShardSpec("s0", groups=groups),),
        config=SpiderConfig(ke=2, ka=8, commit_capacity=2),
    )
    system = build(sim, spec, network=network).system
    client = system.make_client("c1", "virginia", group_id="g0")
    leader, victim = system.agreement_replicas[0], system.groups["g0"].replicas[0]
    client.write(("put", "w0", 0))
    sim.run(until=2_000.0)
    leader.crash()
    victim.crash()
    for index in range(1, 8):
        client.write(("put", f"w{index}", index))
        sim.run(until=2_000.0 + index * 1_000.0)
    victim.recover()
    leader.recover()
    sim.run(until=20_000.0)


class TestReprParity:
    """Every message class's memoised repr is the wire form it had as a
    plain dataclass (or its own ``__repr__``), byte for byte."""

    @pytest.fixture(scope="class")
    def seen(self):
        seen = {}
        for run in (_geo_spider, _two_shards_move_range, _baselines, _pbft_leader_crash):
            run(seen)
        return seen

    #: Classes none of the runs above sends: they take a fault those runs
    #: do not inject (a payload gap, a collector reselection, a Move for a
    #: retired subchannel), or only the IRMC figure's load generator.
    UNSENT = {
        FetchPayload: lambda: FetchPayload(tag="ag", seqs=(3, 4), sender="r1"),
        RetireEcho: lambda: RetireEcho(tag="req-g0", subchannel="c1", sender="r2"),
        SelectMsg: lambda: SelectMsg(tag="com-g0", subchannel=0, collector="r1", sender="r2"),
        Payload: lambda: Payload(1024, label="bench"),
    }

    def test_the_runs_send_every_other_message_class(self, seen):
        missing = _all_message_classes() - set(seen) - set(self.UNSENT)
        assert not missing, sorted(cls.__name__ for cls in missing)
        assert not set(seen) & set(self.UNSENT)

    def test_repr_equals_a_fresh_copy_and_the_dataclass_format(self, seen):
        samples = dict(seen)
        samples.update((cls, build_one()) for cls, build_one in self.UNSENT.items())
        for cls, message in samples.items():
            text = repr(message)
            assert repr(message) is text  # the memo
            if cls is Payload:
                assert text == repr(Payload(message.size, message.label)) == "<Payload bench 1024B>"
                continue
            assert repr(replace(message)) == text, cls.__name__
            if cls is not Execute:  # the one class with its own format
                assert text == _dataclass_format(message), cls.__name__
