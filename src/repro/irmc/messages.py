"""Wire messages of the inter-regional message channels (paper Figs. 18-20)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.crypto.primitives import MacVector, Signature, signature_bytes
from repro.net.message import Message


def _payload_size(payload: Any) -> int:
    if hasattr(payload, "size_bytes"):
        return payload.size_bytes()
    return len(repr(payload))


@dataclass(frozen=True)
class SendMsg(Message):
    """IRMC-RC: ``<Send, m, sc, p>`` signed by the sending endpoint.

    ``window`` is the sender's latest Move request for the subchannel
    (0: none), under the same signature — flow control rides on the data
    message.  It joins the signed content only when set: hashing is
    charged by that content's length, so channels whose senders never
    move keep their simulated timing exactly.
    """

    tag: str
    subchannel: Any
    position: int
    payload: Any
    sender: str
    window: int = 0
    signature: Optional[Signature] = None

    def signed_content(self) -> Tuple:
        content = (
            "irmc-send",
            self.tag,
            self.subchannel,
            self.position,
            repr(self.payload),
            self.sender,
        )
        return content + (self.window,) if self.window else content

    def payload_size(self) -> int:
        return (
            24
            + _payload_size(self.payload)
            + signature_bytes(self.signature)
            + (8 if self.window else 0)
        )


@dataclass(frozen=True)
class SendsMsg(Message):
    """IRMC-RC: the Sends of one endpoint that one seal of its node found
    registered, as ``(subchannel, position, payload, window)`` entries
    under one signature; each entry means what a :class:`SendMsg` would."""

    tag: str
    entries: Tuple[Tuple[Any, int, Any, int], ...]
    sender: str
    signature: Optional[Signature] = None

    def signed_content(self) -> Tuple:
        return (
            "irmc-sends",
            self.tag,
            tuple(
                (subchannel, position, repr(payload), window)
                for subchannel, position, payload, window in self.entries
            ),
            self.sender,
        )

    def payload_size(self) -> int:
        return 8 + signature_bytes(self.signature) + sum(
            16 + _payload_size(payload) + (8 if window else 0)
            for _subchannel, _position, payload, window in self.entries
        )


@dataclass(frozen=True)
class MoveMsg(Message):
    """``<Move, sc, p>`` — a receiver endpoint moved its window to ``p``
    and asks the senders to follow (senders ask with :class:`MovesMsg`;
    so does a receiver when one seal finds several subchannels moved)."""

    tag: str
    subchannel: Any
    position: int
    sender: str
    #: IRMC-SC receivers piggyback their collector choice on Moves.
    collector: Optional[str] = None
    auth: Optional[MacVector] = None

    def signed_content(self) -> Tuple:
        return (
            "irmc-move",
            self.tag,
            self.subchannel,
            self.position,
            self.sender,
            self.collector,
        )

    def payload_size(self) -> int:
        return 24 + (self.auth.size_bytes() if self.auth else 0)


@dataclass(frozen=True)
class MovesMsg(Message):
    """``<Moves, (sc, p)*>`` — window Moves under one MAC vector.  From a
    sender endpoint: all its requests on the heartbeat (one message per
    receiver however many subchannels), one when no Send can carry it.
    From a receiver endpoint: every subchannel that moved since its
    node's last seal, as ``(sc, p, collector)`` entries."""

    tag: str
    positions: Tuple[Tuple, ...]
    sender: str
    auth: Optional[MacVector] = None

    def signed_content(self) -> Tuple:
        return ("irmc-moves", self.tag, self.positions, self.sender)

    def payload_size(self) -> int:
        return 8 + 16 * len(self.positions) + (self.auth.size_bytes() if self.auth else 0)


@dataclass(frozen=True)
class RetireMsg(Message):
    """``<Retire, sc>`` — the subchannel's client session closed for good.

    Sent by sender endpoints towards receiver endpoints; a receiver drops
    the subchannel's window books once ``f_s + 1`` distinct senders
    vouched for the retirement (mirroring the Move quorum rule), so a
    single Byzantine sender can neither retire a live client nor block a
    retirement.
    """

    tag: str
    subchannel: Any
    sender: str
    auth: Optional[MacVector] = None

    def signed_content(self) -> Tuple:
        return ("irmc-retire", self.tag, self.subchannel, self.sender)

    def payload_size(self) -> int:
        return 16 + (self.auth.size_bytes() if self.auth else 0)


@dataclass(frozen=True)
class RetireEcho(Message):
    """``<RetireEcho, sc>`` — "that subchannel is retired here".

    Sent by a *receiver* endpoint that already retired ``subchannel``
    (it holds a bounded retirement tombstone) in response to a window
    Move for it — i.e. to a sender that was down across the client's
    entire CloseSession announcement window and is re-announcing the
    dead subchannel's Move from its heartbeat.  The straggling sender
    retires its books once ``f_r + 1`` distinct receivers echoed, the
    same quorum rule its window already trusts for receiver Moves.
    """

    tag: str
    subchannel: Any
    sender: str
    auth: Optional[MacVector] = None

    def signed_content(self) -> Tuple:
        return ("irmc-retire-echo", self.tag, self.subchannel, self.sender)

    def payload_size(self) -> int:
        return 16 + (self.auth.size_bytes() if self.auth else 0)


@dataclass(frozen=True)
class SigShare(Message):
    """IRMC-SC: a sender's signature share over a Send content hash;
    ``window`` piggybacks its Move request as on :class:`SendMsg`."""

    tag: str
    subchannel: Any
    position: int
    payload_digest: int
    sender: str
    window: int = 0
    signature: Optional[Signature] = None

    def signed_content(self) -> Tuple:
        content = (
            "irmc-share",
            self.tag,
            self.subchannel,
            self.position,
            self.payload_digest,
            self.sender,
        )
        return content + (self.window,) if self.window else content

    def payload_size(self) -> int:
        return 32 + signature_bytes(self.signature) + (8 if self.window else 0)


@dataclass(frozen=True)
class CertificateMsg(Message):
    """IRMC-SC: message plus ``f_s + 1`` signature shares, sent by a collector.

    Signed (not MACed) by the collector, per Section 4: this second
    signature per message is what makes SC senders more CPU-expensive than
    RC senders (visible in the paper's Fig. 9b/9c).
    """

    tag: str
    subchannel: Any
    position: int
    payload: Any
    shares: Tuple[SigShare, ...]
    sender: str
    signature: Optional[Signature] = None

    def signed_content(self) -> Tuple:
        return (
            "irmc-cert",
            self.tag,
            self.subchannel,
            self.position,
            repr(self.payload),
            tuple(share.signed_content() for share in self.shares),
            self.sender,
        )

    def payload_size(self) -> int:
        return (
            24
            + _payload_size(self.payload)
            + sum(share.payload_size() for share in self.shares)
            + 128
        )


@dataclass(frozen=True)
class ProgressMsg(Message):
    """IRMC-SC: ``<Progress, p⃗>`` — per-subchannel certified positions."""

    tag: str
    positions: Tuple[Tuple[Any, int], ...]  # (subchannel, position) pairs
    sender: str
    auth: Optional[MacVector] = None

    def signed_content(self) -> Tuple:
        return ("irmc-progress", self.tag, self.positions, self.sender)

    def payload_size(self) -> int:
        return 8 + 16 * max(1, len(self.positions)) + (
            self.auth.size_bytes() if self.auth else 0
        )


@dataclass(frozen=True)
class SelectMsg(Message):
    """IRMC-SC: a receiver (re)selects its collector for a subchannel."""

    tag: str
    subchannel: Any
    collector: str
    sender: str
    auth: Optional[MacVector] = None

    def signed_content(self) -> Tuple:
        return ("irmc-select", self.tag, self.subchannel, self.collector, self.sender)

    def payload_size(self) -> int:
        return 24 + (self.auth.size_bytes() if self.auth else 0)
