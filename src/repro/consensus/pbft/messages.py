"""PBFT protocol messages.

Normal-case messages (PrePrepare / Prepare / Commit) are authenticated with
MAC vectors as in the paper's prototype (HMAC-SHA-256); view-change
messages carry digital signatures, as required for transferable proofs.
Every message embeds the component ``tag`` for routing and a
``signed_content()`` tuple that excludes the authenticator itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.crypto.primitives import MacVector, Signature
from repro.net.message import Message

#: Payload delivered for sequence numbers filled in by a view change.
NOOP: Tuple = ("__pbft_noop__",)


def is_noop(message: Any) -> bool:
    """Whether a delivered message is a view-change filler no-op."""
    return message == NOOP


def _payload_size(payload: Any) -> int:
    if hasattr(payload, "size_bytes"):
        return payload.size_bytes()
    return len(repr(payload))


@dataclass(frozen=True)
class PrePrepare(Message):
    tag: str
    view: int
    seq: int
    payload: Any
    sender: str
    auth: Optional[MacVector] = None

    def signed_content(self) -> Tuple:
        return ("pbft-pp", self.tag, self.view, self.seq, repr(self.payload), self.sender)

    def payload_size(self) -> int:
        return 16 + _payload_size(self.payload) + (self.auth.size_bytes() if self.auth else 0)


@dataclass(frozen=True)
class Prepare(Message):
    tag: str
    view: int
    seq: int
    payload_digest: int
    sender: str
    auth: Optional[MacVector] = None

    def signed_content(self) -> Tuple:
        return ("pbft-p", self.tag, self.view, self.seq, self.payload_digest, self.sender)

    def payload_size(self) -> int:
        return 24 + (self.auth.size_bytes() if self.auth else 0)


@dataclass(frozen=True)
class Commit(Message):
    tag: str
    view: int
    seq: int
    payload_digest: int
    sender: str
    auth: Optional[MacVector] = None

    def signed_content(self) -> Tuple:
        return ("pbft-c", self.tag, self.view, self.seq, self.payload_digest, self.sender)

    def payload_size(self) -> int:
        return 24 + (self.auth.size_bytes() if self.auth else 0)


@dataclass(frozen=True)
class Forward(Message):
    """A replica relays a to-be-ordered message to the current leader."""

    tag: str
    payload: Any
    sender: str

    def payload_size(self) -> int:
        return _payload_size(self.payload)


@dataclass(frozen=True)
class PreparedProof(Message):
    """Evidence carried in a ViewChange that ``payload`` prepared at ``seq``."""

    view: int
    seq: int
    payload: Any

    def payload_size(self) -> int:
        # A real proof carries 2f+1 prepare signatures; approximate.
        return 16 + _payload_size(self.payload) + 3 * 128


@dataclass(frozen=True)
class Suspect(Message):
    """The sender suspects the leader of ``new_view - 1`` and asks for
    ``new_view``, without leaving its view yet: it keeps voting until
    2f+1 replicas suspect, so a suspicion nobody shares costs nothing.
    Carries no protocol state, hence a MAC vector, not a signature."""

    tag: str
    new_view: int
    sender: str
    auth: Optional[MacVector] = None

    def signed_content(self) -> Tuple:
        return ("pbft-s", self.tag, self.new_view, self.sender)

    def payload_size(self) -> int:
        return 16 + (self.auth.size_bytes() if self.auth else 0)


@dataclass(frozen=True)
class ViewChange(Message):
    tag: str
    new_view: int
    low_water: int
    prepared: Tuple[PreparedProof, ...]
    sender: str
    signature: Optional[Signature] = None

    def signed_content(self) -> Tuple:
        return (
            "pbft-vc",
            self.tag,
            self.new_view,
            self.low_water,
            tuple(repr(proof) for proof in self.prepared),
            self.sender,
        )

    def payload_size(self) -> int:
        return 24 + sum(proof.payload_size() for proof in self.prepared) + 128


@dataclass(frozen=True)
class NewView(Message):
    tag: str
    new_view: int
    pre_prepares: Tuple[PrePrepare, ...]
    sender: str
    signature: Optional[Signature] = None

    def signed_content(self) -> Tuple:
        return (
            "pbft-nv",
            self.tag,
            self.new_view,
            tuple(pp.signed_content() for pp in self.pre_prepares),
            self.sender,
        )

    def payload_size(self) -> int:
        return 16 + sum(pp.payload_size() for pp in self.pre_prepares) + 128


@dataclass(frozen=True)
class StateTransfer(Message):
    """A replica that is behind asks a peer for what it missed: a
    rejoiner for everything it slept through, a replica with a gap in its
    log for the instances above its delivery frontier.

    ``view`` is the first view whose ``NewView`` the requester has not
    seen (its own view while in a view change, the next one otherwise)
    and ``low_water`` its first undelivered instance: peers answer with
    their stored (signed, hence transferable) ``NewView`` when it is for
    ``view`` or later, plus **digest-first** per-slot evidence
    — the peer's own ``Prepare``/``Commit``, which carry only payload
    digests — for every live instance at or above ``low_water``.  Full
    payloads are *not* retransmitted by every peer: once the requester
    holds f+1 matching commit digests for a slot it is missing the
    payload of, it pulls the original ``PrePrepare`` from a single peer
    via :class:`FetchPayload` (payload-on-miss).  All replies are ordinary
    protocol messages verified through the normal handlers, so a
    Byzantine responder can at worst withhold information (the requester
    asks every peer, and asks again).
    """

    tag: str
    view: int
    low_water: int
    sender: str

    def payload_size(self) -> int:
        return 24


@dataclass(frozen=True)
class FetchPayload(Message):
    """Pull the full payloads of digest-vouched slots from one peer.

    The payload-on-miss half of digest-first state transfer: ``seqs``
    names the instances for which the requester holds digest evidence
    (f+1 matching commit votes) but no stored ``PrePrepare``.  The
    responder answers with its stored ``PrePrepare`` per seq — the only
    payload-bearing retransmission in the transfer, requested from a
    single rotating peer instead of arriving n-fold.
    """

    tag: str
    seqs: Tuple[int, ...]
    sender: str

    def payload_size(self) -> int:
        return 16 + 4 * len(self.seqs)
